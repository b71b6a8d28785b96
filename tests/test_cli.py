import json
import os
import subprocess
import sys

import pytest

from conftest import corpus_path, subprocess_env

SCV = [sys.executable, "-m", "scv.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        SCV + list(args),
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
        env=subprocess_env(),
    )


def test_verify_exit_zero_on_verified():
    out = run_cli("verify", corpus_path("callback-doubler.lms"))
    assert out.returncode == 0, out.stderr
    assert "potential: 0" in out.stdout


def test_verify_exit_one_on_potential():
    out = run_cli("verify", corpus_path("callback-counter.lms"))
    assert out.returncode == 1
    assert "potential blame: f" in out.stdout


def test_verify_malformed_file_exit_two(tmp_path):
    bad = tmp_path / "bad.lms"
    bad.write_text("(if 1 2", encoding="utf-8")
    out = run_cli("verify", str(bad))
    assert out.returncode == 2
    assert "error" in out.stderr


def test_missing_file_exit_two():
    out = run_cli("verify", "no-such-file.lms")
    assert out.returncode == 2


def test_json_and_text_reports_agree():
    text_out = run_cli("verify", corpus_path("countdown-divider.lms"))
    json_out = run_cli("verify", corpus_path("countdown-divider.lms"), "--format", "json")
    doc = json.loads(json_out.stdout)
    pairs = {(b["positive"], b["negative"]) for b in doc["blames"]}
    for pos, neg in pairs:
        assert f"potential blame: {pos} (by {neg})" in text_out.stdout
    assert text_out.stdout.count("potential blame:") == len(pairs)
    assert doc["checks"] >= 1 and not doc["verified"]
    assert doc["mode"] == "abstract"


def test_run_value_and_blame(tmp_path):
    p = tmp_path / "x.lms"
    p.write_text("(add1 41)", encoding="utf-8")
    out = run_cli("run", str(p))
    assert out.returncode == 0 and out.stdout.strip() == "42"

    p.write_text("(mon f g int? add1)", encoding="utf-8")
    out = run_cli("run", str(p))
    assert out.returncode == 1 and out.stdout.strip() == "blame f (by g)"


def test_run_rejects_holes(tmp_path):
    p = tmp_path / "holey.lms"
    p.write_text("(add1 •)", encoding="utf-8")
    out = run_cli("run", str(p))
    assert out.returncode == 2


def test_run_budget_exhaustion(tmp_path):
    p = tmp_path / "loop.lms"
    p.write_text("(define f (λ (x) (f x))) (f 0)", encoding="utf-8")
    out = run_cli("run", str(p), "--steps", "1000")
    assert out.returncode == 2
    assert "budget" in out.stderr


def test_verify_trace_writes_states(tmp_path):
    target = tmp_path / "trace.jsonl"
    out = run_cli("verify", corpus_path("factorial.lms"), "--trace", str(target))
    assert out.returncode == 0
    lines = target.read_text(encoding="utf-8").splitlines()
    assert len(lines) > 50
    first = json.loads(lines[0])
    assert first["control"]["kind"] == "eval"


def test_fuzz_smoke(tmp_path):
    out = run_cli("fuzz", "--programs", "5", "--trials", "4", "--seed", "3", cwd=str(tmp_path))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "violations=0" in out.stdout


def test_no_solver_flag_degrades_alias_program():
    ok = run_cli("verify", corpus_path("alias-then-clobber.lms"))
    assert ok.returncode == 0
    degraded = run_cli("verify", corpus_path("alias-then-clobber.lms"), "--no-solver")
    assert degraded.returncode == 1
    assert "potential blame: /@" in degraded.stdout


def test_counterexample_text_round_trips():
    """Instantiated programs print to source whose reparse runs the same,
    which is what makes written counterexamples reproducible."""
    import random

    from scv.abstraction import run_concrete
    from scv.cli import program_to_text
    from scv.config import Config
    from scv.machine import VNum
    from scv.soundness import Holed, generate_hole_program, instantiate_program
    from scv.syntax import alpha_rename, desugar, parse

    rng = random.Random(77)
    compared = 0
    for _ in range(60):
        program = instantiate_program(Holed(generate_hole_program(rng, size=12)), rng).program
        try:
            reparsed = parse(program_to_text(program))
        except Exception as ex:  # printing must always reparse
            raise AssertionError(program_to_text(program)) from ex
        a = run_concrete(alpha_rename(desugar(program)), Config(step_budget=30_000))
        b = run_concrete(alpha_rename(desugar(reparsed)), Config(step_budget=30_000))
        if a.kind == "timeout" or b.kind == "timeout":
            continue
        compared += 1
        assert a.kind == b.kind
        if a.kind == "value":
            va, vb = a.value.value, b.value.value
            if isinstance(va, VNum) or isinstance(vb, VNum):
                assert va == vb, program_to_text(program)
    assert compared >= 40


def test_internal_predicate_in_source_exits_two(tmp_path):
    p = tmp_path / "internal.lms"
    p.write_text("(nonzero? 5)", encoding="utf-8")
    out = run_cli("run", str(p))
    assert out.returncode == 2
    assert "unbound variable 'nonzero?'" in out.stderr


@pytest.mark.parametrize("command", [
    ["verify", corpus_path("micro-flat.lms")],
    ["verify", corpus_path("micro-flat.lms"), "--trace", "trace.jsonl"],
    ["fuzz", "--programs", "2", "--trials", "1"],
])
def test_unknown_solver_name_exits_two(command, tmp_path, monkeypatch, capsys):
    """A solver that cannot be found is an error, not a silent --no-solver
    run or a dead external solver, whether it is a bare name or a path and
    whether the flag or the environment names it."""
    from scv.cli import main
    from scv.config import SOLVER_ENV_VAR

    monkeypatch.chdir(tmp_path)
    for name in ("no-such-solver-binary", str(tmp_path / "no-such-dir" / "z3")):
        assert main(command + ["--solver", name]) == 2
        assert capsys.readouterr().err == f"error: solver not found: {name}\n"
        monkeypatch.setenv(SOLVER_ENV_VAR, name)
        assert main(command) == 2
        assert capsys.readouterr().err == f"error: solver not found: {name}\n"
        monkeypatch.delenv(SOLVER_ENV_VAR)
    assert list(tmp_path.iterdir()) == []  # nothing analysed, no trace written


def test_run_rejects_flags_it_does_not_read(capsys):
    """`run` prints no report and opens no solver, so report and solver
    flags are usage errors there.  `verify` has no `--mode` either (the
    driver decides the semantics), and `verify --trace` replaced
    `dump-trace`."""
    from scv.cli import main

    micro = corpus_path("micro-flat.lms")
    for argv, message in (
        (["run", micro, "--format", "json"], "unrecognized arguments: --format json"),
        (["verify", micro, "--mode", "abstract"], "unrecognized arguments: --mode abstract"),
        (["dump-trace", micro, "--out", "trace.jsonl"], "invalid choice: 'dump-trace'"),
    ):
        with pytest.raises(SystemExit) as ex:
            main(argv)
        assert ex.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


def test_verify_path_imports_no_logging():
    """Import-graph guard: the modules a verify run loads must not pull in
    `logging`, `hashlib`, `dataclasses` or `inspect` (start-up time is most
    of a `scv verify` call)."""
    probe = (
        "import sys, scv.cli, scv.semantics, scv.feasibility; "
        "print([m for m in ('logging', 'hashlib', 'dataclasses', 'inspect') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env=subprocess_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_fuzz_writes_each_counterexample_to_its_own_file(tmp_path, monkeypatch, capsys):
    """Two violations in one program give two files, each holding its own
    instantiation."""
    import scv.cli
    from scv.soundness import DifferentialReport
    from scv.syntax import parse

    texts = ["(define f 1)\n(f 2)\n", "(define g (λ (x) x))\n(g 3)\n"]

    def two_violations(program, trials, rng, config):
        found = tuple((parse(t), "f", "•ctx") for t in texts)
        return DifferentialReport(program, frozenset(), trials, 0, False, found)

    monkeypatch.setattr(scv.cli, "differential_check", two_violations)
    monkeypatch.chdir(tmp_path)
    assert scv.cli.main(["fuzz", "--programs", "1", "--trials", "1", "--seed", "5"]) == 1
    paths = sorted(tmp_path.glob("counterexample-*.lms"))
    assert [p.name for p in paths] == ["counterexample-5-0-0.lms", "counterexample-5-0-1.lms"]
    assert [p.read_text(encoding="utf-8") for p in paths] == [scv.cli.program_to_text(parse(t)) for t in texts]
    out = capsys.readouterr().out
    assert all(f"written to {p.name}" in out for p in paths) and "violations=2" in out
