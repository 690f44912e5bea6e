"""The benchmark's own checks, at ``--scale smoke`` so tier-1 stays fast.

They pin what a later change to the program may rely on: the inputs are
a function of the seed, the reference and the program agree on every
class, the names printed are the names in BENCHMARK.json, no reported
percentile sits on a class boundary, and a probe that loses its entry
point reports ``null`` without failing the run.
"""

from __future__ import annotations

import json
import os

import pytest

from bench_e2e import gen, probes, run, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


@pytest.fixture(autouse=True)
def short_runs(monkeypatch):
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    monkeypatch.setattr(probes, "PLAIN_PASSES", 1)
    monkeypatch.setattr(probes, "REOPENS", 1)


def _result(capsys, *argv: str) -> dict:
    code = run.main(["--scale", "smoke", "--seconds", "0", *argv])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return {"code": code, **json.loads(last)}


def _script_bytes(name: str, seed: int) -> str:
    workload = gen.GENERATORS[name](seed, "smoke")
    return json.dumps([workload.tables, workload.warm,
                       workload.script(0), workload.script(1)])


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_same_seed_same_script(name):
    assert _script_bytes(name, 7) == _script_bytes(name, 7)
    assert _script_bytes(name, 7) != _script_bytes(name, 8)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)
    assert BENCHMARK["paths"] == ["bench_e2e"]


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_every_class_is_scripted(name):
    script = gen.GENERATORS[name](3, "smoke").script(0)
    assert {op["cls"] for op in script} == set(gen.CLASSES[name])


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_run_answers_like_the_reference_under_benchmark_json_names(name, capsys):
    # correct = every op of every pass equals the reference — the view
    # reads too, to the row — and so does the reopened WAL
    result = _result(capsys, "--workload", name, "--trace", "0")
    assert result["code"] == 0 and result["correct"] and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END


def test_a_view_one_row_off_is_a_failed_op(capsys):
    workload = gen.GENERATORS["served_writes"](5, "smoke")
    # the pass's last view read sees all of its writes
    view = workload.script(0)[-1]
    rows = {status: dict(row) for status, row in workload.view_rows()}
    assert workloads.check(view, rows)
    rows["paid"]["n"] += 1
    assert not workloads.check(view, rows)
    assert "FAILED" in capsys.readouterr().err


def test_per_layer_names_match_and_a_lost_entry_point_reports_null(
        monkeypatch, capsys):
    import repro.compile.offload  # noqa: F401  (binds generate_sql for the program)
    import repro.compile.sqlgen

    monkeypatch.delattr(repro.compile.sqlgen, "generate_sql")
    result = _result(capsys, "--workload", "served_reads", "--trace", "1")
    assert result["code"] == 0 and result["correct"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} \
        == probes.PER_LAYER
    # the one probe whose entry point is gone measured nothing; the
    # run went on and every other probe measured something
    unmeasured = [n for n, m in result["metrics"].items() if m["value"] is None]
    assert unmeasured == ["compile.sqlgen.generate_us"]


#: the percentiles the benchmark reports, per latency kind
_REPORTED = {"read": (50, 95), "write": (50, 95), "fresh": (50,)}


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_no_percentile_within_5_points_of_a_class_boundary(name):
    for kind, percentiles in _REPORTED.items():
        shares = [share for k, share in gen.CLASSES[name].values() if k == kind]
        edge, boundaries = 0.0, []
        for share in shares[:-1]:  # classes are listed cheapest first
            edge += 100 * share / sum(shares)
            boundaries.append(edge)
        for p in percentiles:
            assert all(abs(p - b) >= 5 for b in boundaries), (kind, p, boundaries)
