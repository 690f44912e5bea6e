"""The repo benchmark: four closed-loop workloads measured end to end
and layer by layer. Start at ``README.md``; the entry point is
``run.py``."""
