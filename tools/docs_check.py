#!/usr/bin/env python
"""Documentation health checker (``make docs-check``).

Two gates, no third-party dependencies:

1. **Docstring audit** — every module, public class, public function,
   and public method in the audited files must carry a docstring. The
   wire-protocol surface is held to the same bar: ``_verb_*`` session
   methods are the server's public verbs despite the underscore, so
   they are audited too. When ``pydocstyle`` happens to be installed
   it runs as an additional, stricter pass; its absence is never an
   error (CI images must not need a download).

2. **Link integrity** — every relative markdown link in README.md,
   DESIGN.md, and docs/ must point at a file that exists, and every
   ``#anchor`` must match a real heading in the target file (GitHub
   slug rules), so cross-references cannot rot silently.

Exit status is non-zero with one line per finding; run it locally
before pushing documentation changes.
"""

from __future__ import annotations

import ast
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Files whose public API (and protocol verbs) must be documented.
DOCSTRING_FILES = [
    "src/repro/client.py",
    "src/repro/obs/__init__.py",
    "src/repro/obs/trace.py",
    "src/repro/obs/metrics.py",
    "src/repro/obs/instrument.py",
    "src/repro/obs/slowlog.py",
    "src/repro/obs/workload.py",
    "src/repro/obs/events.py",
    "src/repro/obs/health.py",
    "src/repro/obs/resources.py",
    "src/repro/server/protocol.py",
    "src/repro/server/session.py",
    "src/repro/server/sql.py",
    "src/repro/server/server.py",
    "src/repro/replication/__init__.py",
    "src/repro/replication/hub.py",
    "src/repro/replication/replica.py",
    "src/repro/partition/prune.py",
    "src/repro/storage/image.py",
    "src/repro/storage/stats.py",
    "src/repro/storage/versioned.py",
    "src/repro/compile/__init__.py",
    "src/repro/compile/mirror.py",
    "src/repro/compile/sqlgen.py",
    "src/repro/compile/offload.py",
]

#: Markdown files whose links are checked (docs/*.md added below).
LINK_FILES = ["README.md", "DESIGN.md"]

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


# ---------------------------------------------------------------------------
# docstring audit
# ---------------------------------------------------------------------------


def _needs_docstring(name: str) -> bool:
    """Public names, plus the ``_verb_*`` protocol surface."""
    return not name.startswith("_") or name.startswith("_verb_")


def _audit_node(
    node: ast.AST, qualname: str, findings: list[str], path: str
) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            label = f"{qualname}.{child.name}" if qualname else child.name
            if _needs_docstring(child.name):
                if ast.get_docstring(child) is None:
                    kind = (
                        "class"
                        if isinstance(child, ast.ClassDef)
                        else "function"
                    )
                    findings.append(
                        f"{path}:{child.lineno}: {kind} {label!r} has no "
                        "docstring"
                    )
            if isinstance(child, ast.ClassDef):
                _audit_node(child, label, findings, path)


def audit_docstrings() -> list[str]:
    """Missing-docstring findings across the audited files."""
    findings: list[str] = []
    for rel in DOCSTRING_FILES:
        path = REPO / rel
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            findings.append(f"{rel}:1: module has no docstring")
        _audit_node(tree, "", findings, rel)
    return findings


def run_pydocstyle() -> list[str]:
    """The optional stricter pass; silently skipped when not installed."""
    try:
        import pydocstyle  # noqa: F401
    except ImportError:
        return []
    result = subprocess.run(
        [
            sys.executable, "-m", "pydocstyle",
            # missing-docstring codes only, and not D105: dunder
            # methods inherit well-known contracts
            "--select=D100,D101,D102,D103,D104",
            *[str(REPO / rel) for rel in DOCSTRING_FILES],
        ],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    if result.returncode == 0:
        return []
    return [
        line
        for line in result.stdout.splitlines()
        if line.strip()
    ]


# ---------------------------------------------------------------------------
# link integrity
# ---------------------------------------------------------------------------


def _slugify(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, hyphenate."""
    heading = heading.strip().lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def _anchors_of(path: pathlib.Path) -> set[str]:
    anchors: set[str] = set()
    in_code = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip().startswith("```"):
            in_code = not in_code
            continue
        if not in_code and line.startswith("#"):
            anchors.add(_slugify(line.lstrip("#")))
    return anchors


def check_links() -> list[str]:
    """Broken-file and broken-anchor findings across the doc set."""
    findings: list[str] = []
    files = [REPO / rel for rel in LINK_FILES]
    files += sorted((REPO / "docs").glob("*.md"))
    for path in files:
        in_code = False
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if line.strip().startswith("```"):
                in_code = not in_code
                continue
            if in_code:
                continue
            for match in _LINK.finditer(line):
                target = match.group(1)
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                rel = path.relative_to(REPO)
                target_path, _, anchor = target.partition("#")
                resolved = (
                    (path.parent / target_path).resolve()
                    if target_path
                    else path
                )
                if not resolved.exists():
                    findings.append(
                        f"{rel}:{lineno}: broken link {target!r} "
                        f"(no such file {target_path!r})"
                    )
                    continue
                if anchor and resolved.suffix == ".md":
                    if anchor not in _anchors_of(resolved):
                        findings.append(
                            f"{rel}:{lineno}: broken anchor {target!r} "
                            f"(no heading slugs to #{anchor})"
                        )
    return findings


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main() -> int:
    """Run both gates; print findings; non-zero exit on any."""
    findings = audit_docstrings() + run_pydocstyle() + check_links()
    for finding in findings:
        print(finding)
    if findings:
        print(f"\ndocs-check: {len(findings)} finding(s)")
        return 1
    print("docs-check: docstrings and cross-references are healthy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
