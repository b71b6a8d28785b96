"""Tests of the benchmark itself, at smoke size.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

WORKLOADS = sorted(bench.MEASURE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    out = run_bench("--workload", workload, "--seed", "0", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert any(line.startswith("failed_share = 0 ") for line in lines)
    for name in [*bench.NAMED[workload].values(), bench.TAIL_NAMES[workload]]:
        assert any(line.startswith(f"{name} = ") for line in lines), name
    if workload == "verify-corpus" or workload.startswith("escape-"):
        assert any(line.startswith(f"{workload}.rows.") for line in lines)
    if trace:
        assert any(line.startswith("trace.overhead = ") for line in lines)
    if trace and workload == "solver-pcs":
        # translate_pc is called through the module, where the wrapper sits
        assert result["metrics"]["feasibility.translate_ms"]["value"] > 0


def test_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = run_bench("--workload", "fuzz", "--seed", "1", "--seconds", "5", "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_tail_is_the_eleventh_largest():
    values = list(range(1, 101))
    assert bench.tail(values) == (90, 90.0, 100)
    assert bench.tail([3, 1, 2]) == (3, 100.0, 3)


def test_family_blames_follow_the_renaming():
    text, expected = W.family("divider-and-stepper", 3, 5)
    lines = text.splitlines()
    assert len(expected) == 3
    for pos, neg in expected:
        assert neg == "Λ"
        name, where = pos.split("@")
        line, col = map(int, where.split(":"))
        assert name == "/" and lines[line - 1][col - 1] == "/"
    text, expected = W.family("callback-counter", 2, 5)
    assert {neg for _, neg in expected} == {"•ctx"}
    assert sorted(pos for pos, _ in expected) == sorted(
        line.split()[1] for line in text.splitlines() if line.startswith("(define/contract")
    )


def test_pc_oracle_matches_hand_cases():
    assert not W.pc_satisfiable_brute(frozenset({("cmp", "=", "b0", -3), ("pred", "positive?", "b0")}), ["b0"])
    assert W.pc_satisfiable_brute(frozenset({("cmp", "<", 2, "b0"), ("pred", "even?", "b0")}), ["b0"])
    # a function token is true as a bare name but never an integer
    assert W.pc_satisfiable_brute(frozenset({("ref", "b0"), ("cmp", "=", "b0", 0)}), ["b0"]) is False


def test_self_times_add_up_and_catch_missing_time():
    export = {
        "names": ["outer", "inner"],
        # outer [0, 10] holds inner [2, 5] and inner [6, 8]
        "spans": [[0, 0.0, 10.0, -1, "r"], [1, 2.0, 5.0, 0, "r"], [1, 6.0, 8.0, 0, "r"]],
        "walls": {"r": 10.0},
        "counts": {}, "maxima": {}, "replay": [], "missing": [],
    }
    summary = tracing.summarize(export, 0)
    assert summary["layers"]["outer"] == [1, 10.0, 5.0]
    assert summary["layers"]["inner"] == [2, 5.0, 5.0]
    assert tracing.accounting_failures(summary) == []
    export["walls"] = {"r": 12.0}
    assert tracing.accounting_failures(tracing.summarize(export, 0)) == [("r", 12.0, 10.0)]


def test_glue_self_time_is_not_accounted():
    export = {
        "names": ["cli.main", "cli.cmd_verify", "abstraction.run_fixpoint"],
        # main [0, 10] > cmd_verify [0.05, 9.95] > run_fixpoint [0.1, 9.9]
        "spans": [[0, 0.0, 10.0, -1, "r"], [1, 0.05, 9.95, 0, "r"], [2, 0.1, 9.9, 1, "r"]],
        "walls": {"r": 10.0},
        "counts": {}, "maxima": {}, "replay": [], "missing": [],
    }
    assert tracing.accounting_failures(tracing.summarize(export, 0)) == []
    # run_fixpoint no longer wrapped: its time is cmd_verify's self time
    export["spans"] = export["spans"][:2]
    assert [r for r, _, _ in tracing.accounting_failures(tracing.summarize(export, 0))] == ["r"]


def traced_pcs_summary():
    import worker

    out = worker.run_pcs({"seed": 0, "population": bench.PC_POPULATION, "trace": True, "seconds": None, "limit": 8})
    assert all(op[2] == op[4] for op in out["ops"])  # both clients agree
    return tracing.summarize(out["trace"], 0)


def test_a_lost_lookup_site_fails_the_accounting(monkeypatch):
    assert tracing.accounting_failures(traced_pcs_summary()) == []
    # as if `SolverClient.check` had been renamed: its time is in no span
    site = ("scv.feasibility.SolverClient", "check")
    monkeypatch.setattr(tracing, "TARGETS", [t for t in tracing.TARGETS if t[:2] != site])
    summary = traced_pcs_summary()
    assert tracing.CHECK not in summary["layers"]
    assert tracing.accounting_failures(summary) != []


def test_a_lost_hook_attribute_is_reported_not_raised():
    class Bare:  # an object without the attributes the hooks read
        pass

    tracer = tracing.Tracer()
    hooks = tracer._hooks()
    check_before, check_after = hooks[tracing.CHECK]
    check_after((Bare(), Bare()), check_before((Bare(), Bare())), "sat", [0, 0.0, 0.0, -1, ""])
    step_before, _ = hooks["semantics.step"]
    step_before((Bare(),))
    assert not [k for k in tracer.counts if k.startswith("step.")]
    assert tracer.replay == []
    absent = tracing.absent_layers(tracer.missing)
    assert absent == {tracing.hook_key(tracing.CHECK), tracing.hook_key("semantics.step")}
