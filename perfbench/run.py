"""The scv benchmark: one closed-loop client, one workload per run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--smoke]

NAME is one of `verify-corpus`, `escape-callbacks`, `escape-shared`,
`solver-pcs` and `fuzz`, or `all` to run every workload in turn.
Requests run one after another, each waiting for the previous one; all the
measured work happens in child processes, each with a recorded hash seed.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
untraced (`--trace 0`), the per-layer metrics traced (`--trace 1`).  The
lines before it give the same numbers under the names README.md uses, with
per-input rows and a record of the environment.  Why each workload was
chosen is in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as W  # noqa: E402

clock = time.perf_counter

WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150

# Size sweeps of the two escape families; the largest size is the headline.
# The first pass runs the whole sweep, later passes only the largest size,
# so that the headline median rests on about twenty cold repetitions.
SWEEPS = {
    "escape-callbacks": ("callback-counter", (1, 2, 4, 8)),
    "escape-shared": ("divider-and-stepper", (1, 2, 4)),
}

PC_POPULATION = 500  # criterion 4 checks 500 path conditions
FUZZ_POPULATION = 250  # criterion 2's generator and settings

SMOKE_FUZZ = 3
SMOKE_PCS = 8

# The machine's speed drifts by tens of percent over minutes, and a fixed
# pure-Python loop (workloads.probe) slows down alongside scv.  End-to-end
# times are therefore reported scaled to the speed at which the probe takes
# this long; the measured values are printed next to them.
REFERENCE_PROBE_S = 1.5e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "p50_ref_ms": "ms",
    "throughput_ref_per_s": "1/s",
    "peak_rss_mb": "MB",
    "decided_share": "share",
}

# the workload-specific names the text output gives the end-to-end metrics
NAMED = {
    "verify-corpus": {"p50_ref_ms": "verify_p50_ms", "throughput_ref_per_s": "verify_files_per_s"},
    "escape-callbacks": {"p50_ref_ms": "escape_callbacks_s", "throughput_ref_per_s": "escape_callbacks_states_per_s"},
    "escape-shared": {"p50_ref_ms": "escape_shared_s", "throughput_ref_per_s": "escape_shared_states_per_s"},
    "solver-pcs": {"p50_ref_ms": "pc_p50_ms", "throughput_ref_per_s": "pc_checks_per_s", "decided_share": "pc_decided_share"},
    "fuzz": {"p50_ref_ms": "fuzz_p50_ms", "throughput_ref_per_s": "fuzz_programs_per_s"},
}
TAIL_NAMES = {
    "verify-corpus": "verify_tail_ms",
    "escape-callbacks": "escape_callbacks_tail_ms",
    "escape-shared": "escape_shared_tail_ms",
    "solver-pcs": "pc_tail_ms",
    "fuzz": "fuzz_tail_ms",
}
SPECIFIC_NAMES = {name for names in NAMED.values() for name in names.values()} | set(TAIL_NAMES.values())
# workload-specific names given in seconds rather than in their metric's ms
IN_SECONDS = {"escape_callbacks_s", "escape_shared_s"}


def shown(name: str, value: float, unit: str) -> tuple:
    """A value in the unit its workload-specific name gives it."""
    return (value / 1e3, "s") if name in IN_SECONDS else (value, unit)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a broken worker)."""


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = W.SRC
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def become_subreaper() -> None:
    """Adopt orphaned grandchildren (the solver processes that scv starts
    and does not wait for), so that reap() can wait for them."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap(block: bool = False) -> None:
    """Wait for every adopted process that has ended; with `block`, for all
    of them, up to 30 s.  Called only when no child of ours is running."""
    deadline = time.monotonic() + 30
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if not block or time.monotonic() > deadline:
                return
            time.sleep(0.01)


def run_child(argv: list, hash_seed: int, stdin: str = ""):
    """Run a child to completion; returns (stdout, stderr, returncode,
    spawn time, exit time)."""
    t0 = clock()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(hash_seed),
        cwd=W.ROOT,
    )
    try:
        out, err = proc.communicate(stdin, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    t1 = clock()
    reap()
    return out, err, proc.returncode, t0, t1


def worker(kind: str, spec: dict, hash_seed: int) -> dict:
    out, err, code, _, _ = run_child([sys.executable, WORKER, kind], hash_seed, json.dumps(spec))
    if code != 0:
        raise BenchError(f"worker {kind} exited with {code}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it: the 11th
    largest value.  With ten samples or fewer, the maximum."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def rate(walls: list) -> float:
    """Operations per second of busy time."""
    return len(walls) / sum(walls) if walls else 0.0


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(W.SRC, "scv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit() -> str:
    if not os.path.isdir(os.path.join(W.ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=W.ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


# --------------------------------------------------------------------------
# One run of one workload
# --------------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.hash_rng = random.Random(f"hash:{workload}:{seed}")
        self.hash_seeds: list = []
        self.attempted = 0
        self.failures: list = []
        self.lines: list = []
        self.digests: dict = {}  # input -> digest, from set-up
        self.rows: dict = {}  # input -> list of op wall seconds
        self.row_states: dict = {}  # input -> explored-state counts
        self.summary: dict = {}
        self.pairs: list = []  # (untraced wall, traced wall) of the same request
        self.probes: list = []  # speed-probe seconds, sampled between requests
        self.undecided = 0  # operations whose result was inconclusive
        self.started = clock()
        self.passes = 0
        self.last_pass = 0.0

    def hash_seed(self) -> int:
        h = self.hash_rng.randrange(2**32)
        self.hash_seeds.append(h)
        return h

    def another_pass(self) -> bool:
        if self.passes == 0:
            return True
        if self.smoke:
            return False
        return clock() - self.started + self.last_pass <= self.seconds

    def pass_done(self, t_pass: float) -> None:
        self.passes += 1
        self.last_pass = clock() - t_pass

    def sample_speed(self) -> None:
        """Probe the machine's speed between requests, while no child runs."""
        self.probes += [W.probe() for _ in range(3)]

    def same_input(self, key: str, digest: str) -> bool:
        """Did a measuring worker get the input that set-up generated?"""
        return self.digests.get(key) == digest

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def row(self, key: str, seconds: float, states=None) -> None:
        self.rows.setdefault(key, []).append(seconds)
        if states is not None:
            self.row_states.setdefault(key, []).append(states)

    def add_trace(self, export: dict, hash_seed) -> None:
        self.summary = tracing.merge(self.summary, tracing.summarize(export, hash_seed))

    def say(self, text: str) -> None:
        self.lines.append(text)


def measure_setup(run: Run, spec: dict) -> float:
    """Median set-up time over fresh worker processes."""
    times = []
    for _ in range(1 if run.smoke else SETUP_REPEATS):
        run.sample_speed()
        out = worker("setup", spec, run.hash_seed())
        times.append(out["setup_s"])
        if run.digests and run.digests != out["digests"]:
            raise BenchError(f"set-up generated different inputs: {run.digests} then {out['digests']}")
        run.digests = out["digests"]
    return statistics.median(times)


# -- verify-corpus ---------------------------------------------------------


def verify_once(run: Run, name: str, label: str, traced: bool) -> float:
    path = os.path.join("tests", "corpus", name)
    argv = ["verify", path, "--format", "json"]
    if traced:
        cmd, spec = [sys.executable, WORKER, "cli"], json.dumps({"argv": argv, "request": label})
    else:
        cmd, spec = [sys.executable, "-m", "scv.cli", *argv], ""
    out, err, code, t0, t1 = run_child(cmd, run.hash_seed(), spec)
    ok, states = False, None
    try:
        if traced:
            result = json.loads(out.strip().splitlines()[-1])
            export = result["trace"]
            # spans the child cannot see: interpreter start-up and exit
            export["spans"].append([len(export["names"]), t0, result["t_start"], -1, label])
            export["spans"].append([len(export["names"]) + 1, result["t_end"], t1, -1, label])
            export["names"] += ["cli.interpreter", "cli.exit"]
            export["walls"] = {label: t1 - t0}
            run.add_trace(export, result["hash_seed"])
            code, out = result["exit"], result["report"]
        doc = json.loads(out)
        pairs = frozenset((b["positive"], b["negative"]) for b in doc["blames"])
        states = doc["states"]
        run.undecided += not traced and doc["inconclusive"]
        ok = code == W.expected_exit(name) and pairs == W.CORPUS_EXPECTED[name] and not doc["inconclusive"]
    except (ValueError, KeyError, IndexError):
        ok = False
    run.op(ok, f"{name}: exit {code}, {err.strip()[-300:]}")
    if not traced:
        run.row(name, t1 - t0, states)
    return t1 - t0


def measure_verify(run: Run) -> dict:
    order_rng = random.Random(f"order:{run.seed}")
    walls = []
    while run.another_pass():
        t_pass = clock()
        for name in W.corpus_order(order_rng):
            run.sample_speed()
            wall = verify_once(run, name, f"{name}#{run.passes}", False)
            walls.append(wall)
            if run.trace:
                run.pairs.append((wall, verify_once(run, name, f"{name}#{run.passes}", True)))
        run.pass_done(t_pass)
    run.op(run.same_input("corpus", W.corpus_digest()), "the corpus differs from set-up")
    return {"walls": walls, "throughput": rate(walls), "decided": 1.0 - run.undecided / max(len(walls), 1)}


# -- escape families -------------------------------------------------------


def escape_once(run: Run, family: str, n: int, traced: bool) -> dict:
    spec = {"family": family, "n": n, "seed": run.seed, "trace": traced}
    try:
        out = worker("escape", spec, run.hash_seed())
    except BenchError as ex:
        run.op(False, f"{family}x{n}: {ex}")
        return {}
    run.probes += out["probes"]
    run.undecided += not traced and out["inconclusive"]
    same = run.same_input(f"N={n}", out["digest"])
    run.op(out["correct"] and same, f"{family}x{n}: {'wrong blames or inconclusive' if same else 'input differs from set-up'}")
    if traced:
        run.add_trace(out["trace"], out["hash_seed"])
    else:
        run.row(f"N={n}", out["analysis_s"], out["states"])
    return out


def measure_escape(run: Run) -> dict:
    family, sizes = SWEEPS[run.workload]
    if run.smoke:
        sizes = sizes[:1]
    while run.another_pass():
        t_pass = clock()
        for n in sizes if run.passes == 0 else sizes[-1:]:
            plain = escape_once(run, family, n, False)
            if run.trace and plain:
                traced = escape_once(run, family, n, True)
                if traced:
                    run.pairs.append((plain["request_s"], traced["request_s"]))
        run.pass_done(t_pass)
    headline = run.rows.get(f"N={sizes[-1]}", [])
    states = sum(sum(v) for v in run.row_states.values())
    seconds = sum(sum(v) for v in run.rows.values())
    ran = sum(len(v) for v in run.rows.values())
    return {"walls": headline, "throughput": states / seconds if seconds else 0.0, "decided": 1.0 - run.undecided / max(ran, 1)}


# -- solver-pcs and fuzz: one worker per pass -------------------------------


def pass_worker(run: Run, kind: str, spec: dict):
    """A whole pass in one worker; a crashed worker is a failed operation."""
    try:
        out = worker(kind, spec, run.hash_seed())
    except BenchError as ex:
        run.op(False, str(ex))
        return None
    run.probes += out["probes"]
    return out



def measure_pcs(run: Run) -> dict:
    population = W.pc_list(W.PC_POPULATION_SEED, PC_POPULATION)
    walls, verdicts = [], []
    while run.another_pass():
        t_pass = clock()
        spec = {
            "seed": run.seed + run.passes,
            "population": PC_POPULATION,
            "trace": run.trace,
            "seconds": run.seconds if run.trace else None,
            "limit": SMOKE_PCS if run.smoke else PC_POPULATION,
        }
        out = pass_worker(run, "pcs", spec)
        if out is None:
            break
        same = run.same_input("population", out["digest"])
        for op in out["ops"]:
            index, wall, verdict = op[0], op[1], op[2]
            entries, names = population[index]
            ok = same and verdict in ("sat", "unsat", "unknown")
            if verdict == "unsat":
                ok = ok and not W.pc_satisfiable_brute(entries, names)
            if run.trace:
                ok = ok and op[4] == verdict
                run.pairs.append((wall, op[3]))
            run.op(ok, f"pc {index} ({W.pc_text(entries)}): {verdict}")
            walls.append(wall)
            verdicts.append(verdict)
        if run.trace:
            run.add_trace(out["trace"], out["hash_seed"])
        run.pass_done(t_pass)
    counts = {v: verdicts.count(v) for v in ("sat", "unsat", "unknown")}
    run.say("verdicts: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    decided = (counts["sat"] + counts["unsat"]) / max(len(verdicts), 1)
    return {"walls": walls, "throughput": rate(walls), "decided": decided}


def measure_fuzz(run: Run) -> dict:
    walls = []
    while run.another_pass():
        t_pass = clock()
        spec = {
            "seed": run.seed + run.passes,
            "population": SMOKE_FUZZ if run.smoke else FUZZ_POPULATION,
            "trace": run.trace,
            "seconds": run.seconds if run.trace else None,
        }
        out = pass_worker(run, "fuzz", spec)
        if out is None:
            break
        same = run.same_input("population", out["digest"])
        for op in out["ops"]:
            index, wall, violations, inconclusive = op[:4]
            ok = same and violations == 0 and not inconclusive
            run.undecided += bool(inconclusive)
            if run.trace:
                ok = ok and op[5] == 0 and not op[6]
                run.pairs.append((wall, op[4]))
            run.op(ok, f"program {index}: {violations} violations, inconclusive={inconclusive}")
            walls.append(wall)
        if run.trace:
            run.add_trace(out["trace"], out["hash_seed"])
        run.pass_done(t_pass)
    return {"walls": walls, "throughput": rate(walls), "decided": 1.0 - run.undecided / max(len(walls), 1)}


MEASURE = {
    "verify-corpus": measure_verify,
    "escape-callbacks": measure_escape,
    "escape-shared": measure_escape,
    "solver-pcs": measure_pcs,
    "fuzz": measure_fuzz,
}


def setup_spec(run: Run) -> dict:
    if run.workload in SWEEPS:
        family, sizes = SWEEPS[run.workload]
        return {"setup": "escape", "family": family, "sizes": list(sizes[:1] if run.smoke else sizes), "seed": run.seed}
    if run.workload == "solver-pcs":
        return {"setup": "solver-pcs", "seed": run.seed, "population": PC_POPULATION}
    if run.workload == "fuzz":
        return {"setup": "fuzz", "seed": run.seed, "population": SMOKE_FUZZ if run.smoke else FUZZ_POPULATION}
    return {"setup": "verify-corpus", "seed": run.seed}


# --------------------------------------------------------------------------
# Per-layer metrics from the traced run
# --------------------------------------------------------------------------

def layer_metrics(run: Run) -> dict:
    """Per-layer metrics: times in ms and counts per request (one corpus
    file, family analysis, path-condition check or fuzz program), ratios
    over the whole run.  Metrics whose functions, or the attributes their
    counting hooks read, no longer exist in scv are left out."""
    s = run.summary
    layers, counts = s.get("layers", {}), s.get("counts", {})
    n = max(len(s.get("requests", [])), 1)
    absent = tracing.absent_layers(s.get("missing", []))
    out: dict = {}

    def put(name, value, unit, needs=()):
        if not any(fn in absent for fn in needs):
            out[name] = (value, unit)

    def calls(*names):
        return sum(layers.get(x, (0, 0, 0))[0] for x in names)

    def total_ms(*names):
        return sum(layers.get(x, (0, 0.0, 0.0))[1] for x in names) * 1e3 / n

    def self_ms(*names):
        return sum(layers.get(x, (0, 0.0, 0.0))[2] for x in names) * 1e3 / n

    check_calls = calls(tracing.CHECK, tracing.CHECK_HIT, tracing.CHECK_FIRST)
    hook = tracing.hook_key
    checks = (tracing.CHECK, hook(tracing.CHECK))  # hits and first checks told apart
    put("cli.interpreter_ms", total_ms("cli.interpreter"), "ms")
    put("cli.import_ms", total_ms("cli.import"), "ms")
    put("syntax.front_end_ms", total_ms("syntax.parse", "syntax.with_escapes", "syntax.desugar", "syntax.alpha_rename"), "ms", ("syntax.parse", "syntax.with_escapes", "syntax.desugar", "syntax.alpha_rename"))
    put("syntax.nodes", counts.get("nodes", 0) / n, "count", ("syntax.alpha_rename",))
    put("feasibility.first_check_ms", total_ms("feasibility.open_solver", tracing.CHECK_FIRST), "ms", ("feasibility.open_solver", *checks))
    put("feasibility.spawns", counts.get("spawns", 0) / n, "count", ("feasibility.open_solver",))
    put("feasibility.check_calls", check_calls / n, "count", (tracing.CHECK,))
    put("feasibility.solver_queries", calls(tracing.CHECK, tracing.CHECK_FIRST) / n, "count", checks)
    put("feasibility.cache_hit_ratio", calls(tracing.CHECK_HIT) / check_calls if check_calls else 0.0, "ratio", checks)
    check_ms = total_ms(tracing.CHECK)
    put("feasibility.check_ms", check_ms, "ms", checks)
    put("feasibility.translate_ms", self_ms("feasibility.translate_pc"), "ms", ("feasibility.translate_pc",))
    put("feasibility.unknown", counts.get("unknown", 0) / n, "count", (tracing.CHECK,))
    # same hash seed as the solver process that answered, so that the
    # decision procedure iterates in the same order
    decide_s = sum(worker("replay", {"queries": q}, int(h))["decide_s"] for h, q in s.get("replay", {}).items())
    decide_ms = decide_s * 1e3 / n
    put("minismt.decide_ms", decide_ms, "ms", checks)
    put("minismt.ipc_ms", check_ms - decide_ms, "ms", checks)
    put("semantics.step_calls", calls("semantics.step") / n, "count", ("semantics.step",))
    put("semantics.step_self_ms", self_ms("semantics.step"), "ms", ("semantics.step",))
    put("abstraction.states", counts.get("states", 0) / n, "count", ("abstraction.run_fixpoint", hook("abstraction.run_fixpoint")))
    spreads = [max(v) - min(v) for v in run.row_states.values() if v]
    put("abstraction.states_spread", max(spreads, default=0), "count", ("abstraction.run_fixpoint",))
    put("abstraction.driver_self_ms", self_ms("abstraction.run_fixpoint"), "ms", ("abstraction.run_fixpoint",))
    steps = counts.get("driver_steps", 0)
    put("abstraction.useful_ratio", counts.get("driver_distinct", 0) / steps if steps else 0.0, "ratio", ("abstraction.run_fixpoint", "semantics.step"))
    put("abstraction.widen_calls", calls("abstraction.widen") / n, "count", ("abstraction.widen",))
    put("abstraction.widen_ms", total_ms("abstraction.widen"), "ms", ("abstraction.widen",))
    put("abstraction.widen_collapses", counts.get("widen_collapses", 0) / n, "count", ("abstraction.widen", hook("abstraction.widen")))
    put("machine.join_value_calls", calls("machine.join_value") / n, "count", ("machine.join_value",))
    put("machine.join_value_ms", self_ms("machine.join_value"), "ms", ("machine.join_value",))
    put("machine.join_kont_calls", calls("machine.join_kont") / n, "count", ("machine.join_kont",))
    put("havoc.opaque_app_calls", calls("havoc.opaque_application") / n, "count", ("havoc.opaque_application",))
    put("havoc.opaque_app_self_ms", self_ms("havoc.opaque_application"), "ms", ("havoc.opaque_application",))
    put("havoc.fingerprint_ms", self_ms("havoc.fingerprint"), "ms", ("havoc.fingerprint",))
    put("havoc.context_mutable_vars_ms", self_ms("havoc.context_mutable_vars"), "ms", ("havoc.context_mutable_vars",))
    reruns = calls("havoc.should_rerun")
    put("havoc.rerun_ratio", counts.get("rerun_true", 0) / reruns if reruns else 0.0, "ratio", ("havoc.should_rerun",))
    put("havoc.leak_set_max", s.get("maxima", {}).get("leak_set", 0), "count", ("havoc.opaque_application", hook("havoc.opaque_application")))
    put("soundness.differential_check_ms", total_ms("soundness.differential_check"), "ms", ("soundness.differential_check",))
    put("soundness.run_concrete_ms", total_ms("soundness.run_concrete"), "ms", ("soundness.run_concrete",))
    put("soundness.concrete_steps", counts.get("concrete_steps", 0) / n, "count", ("soundness.run_concrete", hook("soundness.run_concrete")))
    put("soundness.instantiate_ms", total_ms("soundness.instantiate_program"), "ms", ("soundness.instantiate_program",))
    plain = sum(p for p, _ in run.pairs)
    traced = sum(t for _, t in run.pairs)
    put("trace.overhead", traced / plain - 1 if plain else 0.0, "ratio")
    return out


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    run = Run(workload, seed, seconds, trace, smoke)
    load_before = os.getloadavg()
    setup_s = measure_setup(run, setup_spec(run))
    run.started = clock()
    measured = MEASURE[workload](run)
    load_after = os.getloadavg()
    reap(block=True)

    walls = measured["walls"]
    p50 = statistics.median(walls) * 1e3 if walls else 0.0
    tail_s, pct, count = tail(walls) if walls else (0.0, 0.0, 0)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    failed_share = len(run.failures) / max(run.attempted, 1)
    correct = not run.failures and run.attempted > 0

    run.say(f"environment: commit {commit()}, source {source_digest()}, python {platform.python_version()}, "
            f"nproc {os.cpu_count()}, loadavg before {load_before[0]:.2f} after {load_after[0]:.2f}")
    probe = statistics.median(run.probes)
    scale = REFERENCE_PROBE_S / probe
    run.say(f"speed probe: median {probe * 1e3:.4f} ms over {len(run.probes)} samples; times are scaled by "
            f"{scale:.4f} to a probe of {REFERENCE_PROBE_S * 1e3:g} ms")
    run.say(f"inputs: seed {seed}, digests " + ", ".join(f"{k} {v}" for k, v in sorted(run.digests.items())))
    run.say(f"hash seeds of the {len(run.hash_seeds)} child processes: {run.hash_seeds}")

    names = NAMED[workload]
    measured_values = {"setup_s": setup_s, "p50_ref_ms": p50, "throughput_ref_per_s": measured["throughput"]}
    end_to_end = {
        "setup_s": setup_s * scale,
        "p50_ref_ms": p50 * scale,
        "throughput_ref_per_s": measured["throughput"] / scale,
        "peak_rss_mb": rss_mb,
        "decided_share": measured["decided"],
    }
    for key, value in end_to_end.items():
        name = names.get(key, key)
        value, unit = shown(name, value, END_TO_END_UNITS[key])
        extra = ""
        if key in measured_values:
            extra = f" (scaled; measured {shown(name, measured_values[key], unit)[0]:.6g} {unit})"
        run.say(f"{name} = {value:.6g} {unit}{extra}")
    # Reported as measured, and not a metric of BENCHMARK.json: one order
    # statistic of a heavy-tailed distribution moves by a third between runs.
    run.say(f"{TAIL_NAMES[workload]} = {tail_s * 1e3:.6g} ms (measured; p{pct:.1f} of {count} samples)")
    run.say(f"failed_share = {failed_share:.6g} ({len(run.failures)} of {run.attempted} operations)")
    for failure in run.failures[:10]:
        run.say(f"FAILED {failure}")
    for key in sorted(run.rows):
        states = run.row_states.get(key)
        span = f", states {min(states)}..{max(states)}" if states else ""
        run.say(f"{workload}.rows.{key} = {statistics.median(run.rows[key]) * 1e3:.6g} ms (n={len(run.rows[key])}{span})")

    if trace:
        metrics = layer_metrics(run)
        bad = tracing.accounting_failures(run.summary)
        for request, wall, spent in bad[:10]:
            run.say(f"ACCOUNTING request {request}: wall {wall * 1e3:.3f} ms, self times {spent * 1e3:.3f} ms")
        gaps = [wall - spent for _, wall, spent in run.summary.get("requests", [])]
        run.say(f"accounting: {len(gaps)} requests, wall minus layer self times {min(gaps, default=0) * 1e3:.3f}.."
                f"{max(gaps, default=0) * 1e3:.3f} ms, {len(bad)} outside {tracing.ACCOUNTING_REL:.0%} + "
                f"{tracing.ACCOUNTING_ABS_S * 1e3:g} ms; nesting errors {run.summary.get('nesting_errors', 0)}")
        missing = run.summary.get("missing", [])
        if missing:
            run.say(f"no longer in scv: {missing}; absent layers and hooks: {sorted(tracing.absent_layers(missing))}")
        counts = run.summary.get("counts", {})
        n = max(len(run.summary.get("requests", [])), 1)
        for key in sorted(k for k in counts if k.startswith("step.")):
            control, frame = key.split(".")[1:]
            run.say(f"semantics.step_calls.{control}.{frame} = {counts[key] / n:.6g} count")
        for name, (value, unit) in metrics.items():
            run.say(f"{name} = {value:.6g} {unit}")
        if bad or run.summary.get("nesting_errors"):
            correct = False
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        metrics = {}
        result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    return {
        "workload": workload,
        "lines": run.lines,
        "result": {"correct": correct, "attempted": run.attempted, "failed": len(run.failures), "metrics": result_metrics},
        "named": {names.get(k, k): shown(names.get(k, k), v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}
        | {TAIL_NAMES[workload]: (tail_s * 1e3, "ms"), "failed_share": (failed_share, "share")},
        "layers": metrics if trace else {},
    }


def check_layout() -> None:
    missing = [p for p in (os.path.join(W.SRC, "scv", "cli.py"), W.CORPUS_DIR) if not os.path.exists(p)]
    if missing:
        raise BenchError(f"not a checkout of scv: missing {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="scv benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(MEASURE) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        check_layout()
        import compileall

        compileall.compile_dir(os.path.join(W.SRC, "scv"), quiet=2)
        become_subreaper()
        names = sorted(MEASURE) if args.workload == "all" else [args.workload]
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke) for w in names]
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    finally:
        reap(block=True)

    for r in results:
        print(f"== {r['workload']} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        for line in r["lines"]:
            print(line)
    if len(results) == 1:
        final = results[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in results),
            "attempted": sum(r["result"]["attempted"] for r in results),
            "failed": sum(r["result"]["failed"] for r in results),
            "metrics": {
                name if name in SPECIFIC_NAMES else f"{r['workload']}.{name}": {"value": value, "unit": unit}
                for r in results
                for name, (value, unit) in (r["layers"] if args.trace else r["named"]).items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
