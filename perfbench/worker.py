"""Worker processes of the scv benchmark.

Usage: python3 perfbench/worker.py KIND < JSON-SPEC

run.py starts a worker for every measurement, so each one has a recorded
hash seed and starts with empty module-level caches.  A worker prints one
JSON object as the last line of its standard output.

Kinds:
  setup   the workload's set-up alone, timed (import, input generation,
          compilation, solver start)
  escape  one cold analysis of a renamed-copy family
  pcs     path-condition checks through one solver client
  fuzz    differential soundness checks of generated hole programs
  cli     `scv verify` with tracing, standing in for `python -m scv.cli`
  replay  solver queries recorded by a traced run, decided in process
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import workloads as W  # noqa: E402

clock = time.perf_counter
PROBE_EVERY_S = 0.25
ESCAPE_PROBES = 5


def warm_solver():
    """A started solver that has answered one trivial query."""
    from scv.feasibility import open_solver, translate_pc

    client = open_solver("builtin")
    client.check(translate_pc(frozenset()))
    return client


def paced(inputs, spec, probes):
    """The inputs one after another, until the spec's deadline if it has
    one (always at least one input), sampling the speed probe on the way."""
    deadline = None if spec["seconds"] is None else clock() + spec["seconds"]
    next_probe = 0.0
    for count, item in enumerate(inputs):
        if count and deadline is not None and clock() >= deadline:
            return
        if clock() >= next_probe:
            probes.append(W.probe())
            next_probe = clock() + PROBE_EVERY_S
        yield item


def new_tracer(spec, request=""):
    if not spec["trace"]:
        return None
    from tracing import Tracer

    return Tracer(request)


# --------------------------------------------------------------------------
# Inputs and set-up
# --------------------------------------------------------------------------


def pc_inputs(spec):
    population = W.pc_list(W.PC_POPULATION_SEED, spec["population"])
    order = W.shuffled(spec["seed"], spec["population"])
    inputs = [(i, W.pc_expr(population[i][0])) for i in order]
    return inputs, W.digest(W.pc_text(entries) for entries, names in population)


def fuzz_inputs(spec):
    from scv.cli import program_to_text

    population = W.fuzz_programs(W.FUZZ_POPULATION_SEED, spec["population"])
    order = W.shuffled(spec["seed"], spec["population"])
    return [(i, population[i]) for i in order], W.digest(map(program_to_text, population))


def setup_verify(spec):
    for name in sorted(W.CORPUS_EXPECTED):
        W.compile_for_verify(W.read_corpus(name))
    return {"corpus": W.corpus_digest()}


def setup_escape(spec):
    client = warm_solver()
    digests = {}
    for n in spec["sizes"]:
        text, _ = W.family(spec["family"], n, spec["seed"])
        W.compile_for_verify(text)
        digests[f"N={n}"] = W.digest([text])
    client.close()
    return digests


def setup_pcs(spec):
    _, digest = pc_inputs(spec)
    warm_solver().close()
    return {"population": digest}


def setup_fuzz(spec):
    _, digest = fuzz_inputs(spec)
    return {"population": digest}


SETUPS = {"verify-corpus": setup_verify, "escape": setup_escape, "solver-pcs": setup_pcs, "fuzz": setup_fuzz}


def run_setup(spec):
    digests = SETUPS[spec["setup"]](spec)
    return {"setup_s": clock() - T_START, "digests": digests}


# --------------------------------------------------------------------------
# Measurements
# --------------------------------------------------------------------------


def run_escape(spec):
    """One cold repetition.  The solver is warm before the clock starts; the
    request is compilation plus analysis, and the analysis is also timed on
    its own.  The speed probe runs in this process just before and after,
    so that it samples the processor the analysis ran on."""
    import scv.abstraction
    from scv.config import Config

    text, expected = W.family(spec["family"], spec["n"], spec["seed"])
    client = warm_solver()
    probes = [W.probe() for _ in range(ESCAPE_PROBES)]
    tracer = new_tracer(spec, f"N={spec['n']}")
    if tracer is not None:
        tracer.install()
    try:
        t0 = clock()
        core = W.compile_for_verify(text)
        t1 = clock()
        result = scv.abstraction.run_fixpoint(core, Config(), solver=client)
        t2 = clock()
    finally:
        if tracer is not None:
            tracer.uninstall()
        client.close()
    probes += [W.probe() for _ in range(ESCAPE_PROBES)]
    out = {
        "probes": probes,
        "analysis_s": t2 - t1,
        "request_s": t2 - t0,
        "states": result.explored_states,
        "inconclusive": result.inconclusive,
        "correct": not result.inconclusive and result.blame_pairs() == expected,
        "digest": W.digest([text]),
    }
    if tracer is not None:
        tracer.add_wall(tracer.request, t2 - t0)
        out["trace"] = tracer.export()
    return out


def run_pcs(spec):
    """Closed loop of `check(translate_pc(pc))` through one client.  Traced,
    each path condition goes first through an untraced client and then
    through a second, traced one, so both see the same cache history."""
    import scv.feasibility

    inputs, digest = pc_inputs(spec)
    tracer = new_tracer(spec)
    plain = warm_solver()
    traced = warm_solver() if tracer is not None else None
    ops, probes = [], []
    try:
        for index, pc in paced(inputs[: spec["limit"]], spec, probes):
            t0 = clock()
            verdict = plain.check(scv.feasibility.translate_pc(pc))
            op = [index, clock() - t0, verdict]
            if tracer is not None:
                tracer.request = f"pc:{index}"
                tracer.install()
                try:
                    t0 = clock()
                    # through the module, where the tracer's wrapper sits
                    again = traced.check(scv.feasibility.translate_pc(pc))
                    wall = clock() - t0
                finally:
                    tracer.uninstall()
                tracer.add_wall(tracer.request, wall)
                op += [wall, again]
            ops.append(op)
    finally:
        plain.close()
        if traced is not None:
            traced.close()
    out = {"ops": ops, "digest": digest, "probes": probes}
    if tracer is not None:
        out["trace"] = tracer.export()
    return out


def run_fuzz(spec):
    """Closed loop of differential checks, one generated program each; the
    instantiations of program i come from their own seeded stream, so a
    traced repetition checks exactly the same instantiations."""
    import scv.soundness
    from scv.config import ABSTRACT, Config

    inputs, digest = fuzz_inputs(spec)
    config = Config(mode=ABSTRACT, step_budget=W.FUZZ_STEP_BUDGET)
    tracer = new_tracer(spec)
    ops, probes = [], []
    for index, program in paced(inputs, spec, probes):
        op = [index]
        for traced in (False, True) if tracer is not None else (False,):
            rng = W.fuzz_trial_rng(spec["seed"], index)
            if traced:
                tracer.request = f"program:{index}"
                tracer.install()
            try:
                t0 = clock()
                report = scv.soundness.differential_check(program, W.FUZZ_TRIALS, rng, config)
                wall = clock() - t0
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                tracer.add_wall(tracer.request, wall)
            op += [wall, len(report.violations), report.inconclusive]
        ops.append(op)
    out = {"ops": ops, "digest": digest, "probes": probes}
    if tracer is not None:
        out["trace"] = tracer.export()
    return out


def run_cli(spec):
    """`scv verify` as `python -m scv.cli` runs it, with spans.  The parent
    adds the interpreter start-up and exit spans, which it measures."""
    import contextlib
    import io

    from tracing import Tracer

    tracer = Tracer(spec["request"])
    t_import = clock()
    # this worker's own start-up, which `python -m scv.cli` does not have
    tracer.add_span("trace.entry", T_START, t_import)
    import scv.cli

    t_install = clock()
    tracer.add_span("cli.import", t_import, t_install)
    tracer.install()
    t_main = clock()
    tracer.add_span("trace.install", t_install, t_main)
    buffer = io.StringIO()
    main_span = tracer.add_span("cli.main", t_main, 0.0)
    tracer.stack.append(main_span)
    try:
        with contextlib.redirect_stdout(buffer):
            code = scv.cli.main(spec["argv"])
    finally:
        t_end = clock()
        tracer.stack.pop()
        tracer.spans[main_span][2] = t_end
        tracer.uninstall()
    return {"exit": code, "report": buffer.getvalue(), "t_start": T_START, "t_end": t_end, "trace": tracer.export()}


def run_replay(spec):
    """Time the bundled decision procedure on the queries that reached the
    solver processes, without pipes and parsing: one fresh solver per
    client, warmed by a trivial query, timing the checks that the traced
    run timed as `feasibility.check`."""
    import gc

    from scv.feasibility import DATATYPE_DECL
    from scv.minismt import MiniSolver, parse_sexprs, tokenize

    def forms(lines):
        return parse_sexprs(tokenize("\n".join(["(push 1)", *lines, "(check-sat)", "(pop 1)"])))

    queries = [(pid, forms(lines), timed) for pid, lines, timed in spec["queries"]]
    del spec
    gc.freeze()  # keep the parsed queries out of the collector's scans
    solvers = {}  # one per solver process of the traced run
    spent = 0.0
    for pid, query, timed in queries:
        solver = solvers.get(pid)
        if solver is None:
            solver = solvers[pid] = MiniSolver()
            for form in parse_sexprs(tokenize("(set-logic ALL)\n" + DATATYPE_DECL)) + forms([]):
                solver.execute(form)
        t0 = clock()
        for form in query:
            try:
                solver.execute(form)
            except Exception:  # the solver process answers unknown here too
                pass
        if timed:
            spent += clock() - t0
    return {"decide_s": spent}


KINDS = {"setup": run_setup, "escape": run_escape, "pcs": run_pcs, "fuzz": run_fuzz, "cli": run_cli, "replay": run_replay}


def main() -> int:
    kind, spec = sys.argv[1], json.loads(sys.stdin.read())
    out = KINDS[kind](spec)
    out["hash_seed"] = os.environ.get("PYTHONHASHSEED")
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
