"""Span tracing for the traced benchmark run, from outside the program.

`Tracer.install` replaces public functions of scv with timing wrappers on
the module attributes where their callers look them up (for example
`scv.semantics.feasible` rather than `scv.feasibility.feasible`, because
`semantics` imported the name), and `uninstall` puts the originals back.
Nothing under `src/` changes.  A lookup site that no longer exists is
recorded as missing; a layer all of whose sites are missing is absent, and
its metrics disappear instead of reading zero.  The same holds for an
attribute of scv's objects that a counting hook reads.

Each span records a name, start, end, parent span and request id.  Spans
stay in memory until `summarize` turns them into per-layer self times (a
span's duration minus the time its child spans cover) and checks that each
request's layer self times add up to the wall time the benchmark measured
for it, leaving out the self time of spans that only dispatch (GLUE_SPANS).
"""

from __future__ import annotations

import time
from collections import Counter

clock = time.perf_counter

# Relative and absolute slack allowed between a request's measured wall time
# and the sum of its layer spans' self times.  What is left over is glue:
# benchmark code between the wrapped calls, and the self time of the spans
# below, which enter scv and only dispatch to wrapped layers.  If a layer's
# lookup site disappears, its time lands in a glue span or outside every
# span, and the request fails the check.  The spans of the traced entry
# point's own start-up (`trace.entry`, `trace.install`) run no scv code, so
# no layer's time can move into them; they count as accounted.
ACCOUNTING_REL = 0.03
ACCOUNTING_ABS_S = 0.003
GLUE_SPANS = frozenset({
    "cli.main",  # argument parsing around `cmd_verify`
    "cli.cmd_verify",  # load, analyse, report: each a wrapped layer
    "soundness.differential_check",  # symbolic run, then instantiate and run
})

# Spans whose time is reported under another layer name.  Solver checks are
# renamed after the call, once it is known whether the verdict came from the
# client's cache or was the client's first query (which waits for the solver
# process to start).
CHECK_HIT = "feasibility.check.hit"
CHECK_FIRST = "feasibility.check.first"
CHECK = "feasibility.check"

# (object whose attribute callers read, attribute, span name)
TARGETS = [
    ("scv.cli", "cmd_verify", "cli.cmd_verify"),
    ("scv.cli", "count_checks", "cli.count_checks"),
    ("scv.cli", "parse", "syntax.parse"),
    ("scv.cli", "with_escapes", "syntax.with_escapes"),
    ("scv.cli", "desugar", "syntax.desugar"),
    ("scv.cli", "alpha_rename", "syntax.alpha_rename"),
    ("scv.cli", "run_fixpoint", "abstraction.run_fixpoint"),
    ("scv.syntax", "parse", "syntax.parse"),
    ("scv.syntax", "with_escapes", "syntax.with_escapes"),
    ("scv.syntax", "desugar", "syntax.desugar"),
    ("scv.syntax", "alpha_rename", "syntax.alpha_rename"),
    ("scv.abstraction", "run_fixpoint", "abstraction.run_fixpoint"),
    ("scv.abstraction", "widen", "abstraction.widen"),
    ("scv.semantics", "widen", "abstraction.widen"),
    ("scv.semantics", "step", "semantics.step"),
    ("scv.semantics", "feasible", "feasibility.feasible"),
    ("scv.feasibility", "open_solver", "feasibility.open_solver"),
    ("scv.feasibility", "translate_pc", "feasibility.translate_pc"),
    ("scv.feasibility.SolverClient", "check", CHECK),
    ("scv.machine.GlobalStores", "join_value", "machine.join_value"),
    ("scv.machine.GlobalStores", "join_kont", "machine.join_kont"),
    ("scv.havoc", "opaque_application", "havoc.opaque_application"),
    ("scv.havoc", "should_rerun", "havoc.should_rerun"),
    ("scv.havoc", "fingerprint", "havoc.fingerprint"),
    ("scv.havoc", "context_mutable_vars", "havoc.context_mutable_vars"),
    ("scv.soundness", "differential_check", "soundness.differential_check"),
    ("scv.soundness", "desugar", "syntax.desugar"),
    ("scv.soundness", "alpha_rename", "syntax.alpha_rename"),
    ("scv.soundness", "run_fixpoint", "abstraction.run_fixpoint"),
    ("scv.soundness", "run_concrete", "soundness.run_concrete"),
    ("scv.soundness", "instantiate_program", "soundness.instantiate_program"),
]


def _resolve(path: str):
    """The module, or module attribute, that a dotted path names; None when
    it no longer exists."""
    import importlib

    module, _, attr = path.partition(".")
    obj = importlib.import_module(module)
    for part in attr.split(".") if attr else ():
        if not hasattr(obj, part):
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except ImportError:
                return None
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    def __init__(self, request: str = "") -> None:
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []  # [name id, start, end, parent index, request]
        self.stack: list = []
        self.request = request
        self.walls: dict = {}  # request -> wall seconds measured outside spans
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.replay: list = []  # [solver pid, SMT-LIB lines, timed] per uncached check
        self.missing: list = []  # lookup sites and hook attributes that no longer exist
        self._targets = None
        self._drivers: list = []  # per active driver: (distinct states, steps) or None

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        self.spans.append([self.name_id(name), start, end, parent, self.request])
        return len(self.spans) - 1

    def add_wall(self, request: str, seconds: float) -> None:
        self.walls[request] = self.walls.get(request, 0.0) + seconds

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, token, result, span)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._targets is None:
            hooks = self._hooks()
            self._targets = []
            for owner_path, attr, name in TARGETS:
                owner = _resolve(owner_path)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                before, after = hooks.get(name, (None, None))
                self._targets.append((owner, attr, fn, self.wrap(name, fn, before, after)))
        for owner, attr, fn, traced in self._targets:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, fn, traced in self._targets or ():
            setattr(owner, attr, fn)

    def _lost(self, hook: str, what: str) -> None:
        entry = f"{hook_key(hook)}: {what}"
        if entry not in self.missing:
            self.missing.append(entry)

    def _hooks(self) -> dict:
        """Counters read from arguments and results of wrapped calls.  An
        attribute that scv no longer has is listed as missing, and the
        metrics that need it are left out."""
        import scv.machine

        counts, drivers, lost = self.counts, self._drivers, self._lost
        gone = object()
        halt = getattr(scv.machine, "HALT", gone)
        leak_addr = getattr(scv.machine, "LEAK_ADDR", gone)

        def step_before(args):
            state = args[0]
            if drivers and drivers[-1] is not None:
                drivers[-1][0].add(state)
                drivers[-1][1] += 1
            control = getattr(state, "control", gone)
            frames = getattr(state, "frames", gone)
            kaddr = getattr(state, "kaddr", gone)
            if control is gone or frames is gone or kaddr is gone or halt is gone:
                lost("semantics.step", "State.control, State.frames, State.kaddr or machine.HALT")
                return
            top = type(frames[0]).__name__ if frames else ("halt" if kaddr == halt else "kont")
            counts[f"step.{type(control).__name__}.{top}"] += 1

        def fixpoint_before(args):
            drivers.append([set(), 0])

        def fixpoint_after(args, token, result, span):
            distinct, steps = drivers.pop()
            counts["driver_distinct"] += len(distinct)
            counts["driver_steps"] += steps
            states = getattr(result, "explored_states", None)
            if states is None:
                lost("abstraction.run_fixpoint", "AnalysisResult.explored_states")
            else:
                counts["states"] += states

        def concrete_before(args):
            drivers.append(None)

        def concrete_after(args, token, result, span):
            drivers.pop()
            steps = getattr(result, "steps", None)
            if steps is None:
                lost("soundness.run_concrete", "ConcreteOutcome.steps")
            else:
                counts["concrete_steps"] += steps

        def widen_after(args, token, result, span):
            if not (isinstance(result, tuple) and len(result) == 2 and len(args) == 2):
                lost("abstraction.widen", "widen(values, value) -> (values, value)")
            elif result[1] != args[1]:
                counts["widen_collapses"] += 1

        def rerun_after(args, token, result, span):
            counts["rerun_true"] += bool(result)

        def opaque_after(args, token, result, span):
            values = getattr(args[3], "values", None) if len(args) > 3 else None
            if values is None or leak_addr is gone:
                lost("havoc.opaque_application", "GlobalStores.values or machine.LEAK_ADDR")
                return
            leaked = len(values.get(leak_addr, ()))
            self.maxima["leak_set"] = max(self.maxima.get("leak_set", 0), leaked)

        def check_before(args):
            client, formula = args[0], args[1]
            cache = getattr(client, "cache", None)
            queries = getattr(client, "queries", None)
            key = getattr(formula, "key", None)
            if cache is None or queries is None or key is None:
                lost(CHECK, "SolverClient.cache, SolverClient.queries or Formula.key")
                return None
            return key() in cache, queries == 0

        check_names = {k: self.name_id(k) for k in (CHECK_HIT, CHECK_FIRST, CHECK)}

        def check_after(args, token, result, span):
            counts["unknown"] += result == "unknown"
            if token is None:
                return
            hit, first = token
            if hit:
                span[0] = check_names[CHECK_HIT]
                return
            span[0] = check_names[CHECK_FIRST if first else CHECK]
            proc = getattr(args[0], "proc", gone)
            lines = getattr(args[1], "lines", None)
            if proc is gone or lines is None:
                lost(CHECK, "SolverClient.proc or Formula.lines")
                return
            self.replay.append([proc.pid if proc is not None else 0, lines(), not first])

        def open_after(args, token, result, span):
            counts["spawns"] += result is not None

        def rename_after(args, token, result, span):
            from workloads import node_count

            counts["nodes"] += node_count(result)

        return {
            "semantics.step": (step_before, None),
            "abstraction.run_fixpoint": (fixpoint_before, fixpoint_after),
            "soundness.run_concrete": (concrete_before, concrete_after),
            "abstraction.widen": (None, widen_after),
            "havoc.should_rerun": (None, rerun_after),
            "havoc.opaque_application": (None, opaque_after),
            CHECK: (check_before, check_after),
            "feasibility.open_solver": (None, open_after),
            "syntax.alpha_rename": (None, rename_after),
        }

    def export(self) -> dict:
        """Everything the parent needs, as plain data."""
        return {
            "names": self.names,
            "spans": self.spans,
            "walls": self.walls,
            "counts": dict(self.counts),
            "maxima": self.maxima,
            "replay": self.replay,
            "missing": self.missing,
        }


# --------------------------------------------------------------------------
# Summaries
# --------------------------------------------------------------------------


def summarize(export: dict, hash_seed) -> dict:
    """Per-layer calls, total and self seconds, and per-request accounting:
    each request's wall time and the self time of its spans outside
    GLUE_SPANS.
    Recorded solver queries are kept under the hash seed of the process
    that made them, which its solver process inherited.

    Children of a span are appended after it in start order, so one pass
    that tracks how far each parent is already covered computes self time
    as the duration minus the union of the children's intervals.
    """
    names, spans = export["names"], export["spans"]
    covered = [0.0] * len(spans)
    reach = [None] * len(spans)  # latest child end seen, per parent
    nesting_errors = 0
    for span in spans:
        parent = span[3]
        if parent < 0:
            continue
        p = spans[parent]
        start, end = max(span[1], p[1]), min(span[2], p[2])
        if span[1] < p[1] or span[2] > p[2]:
            nesting_errors += 1
        if reach[parent] is not None:
            start = max(start, reach[parent])
        if end > start:
            covered[parent] += end - start
        reach[parent] = end if reach[parent] is None else max(end, reach[parent])

    layers: dict = {}
    self_by_request: dict = {}
    for i, span in enumerate(spans):
        total = span[2] - span[1]
        own = total - covered[i]
        entry = layers.setdefault(names[span[0]], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += total
        entry[2] += own
        if names[span[0]] not in GLUE_SPANS:
            self_by_request[span[4]] = self_by_request.get(span[4], 0.0) + own

    requests = []
    for request, wall in export["walls"].items():
        spent = self_by_request.pop(request, 0.0)
        requests.append([request, wall, spent])
    # spans outside any measured request are an accounting error too
    for request, spent in self_by_request.items():
        requests.append([request, 0.0, spent])
    return {
        "layers": layers,
        "requests": requests,
        "nesting_errors": nesting_errors,
        "counts": export["counts"],
        "maxima": export["maxima"],
        "replay": {str(hash_seed): export["replay"]} if export["replay"] else {},
        "missing": export["missing"],
    }


def merge(a: dict, b: dict) -> dict:
    if not a:
        return b
    for name, (calls, total, own) in b["layers"].items():
        entry = a["layers"].setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += own
    a["requests"] += b["requests"]
    a["nesting_errors"] += b["nesting_errors"]
    for k, v in b["counts"].items():
        a["counts"][k] = a["counts"].get(k, 0) + v
    for k, v in b["maxima"].items():
        a["maxima"][k] = max(a["maxima"].get(k, 0), v)
    for k, v in b["replay"].items():
        a["replay"].setdefault(k, []).extend(v)
    a["missing"] = sorted(set(a["missing"]) | set(b["missing"]))
    return a


def hook_key(name: str) -> str:
    """How `absent_layers` names the counters that the hook on span `name`
    reads from scv's objects."""
    return f"{name} hook"


def absent_layers(missing) -> set:
    """Span names none of whose lookup sites exist any more, and the hook
    keys of hooks that met an attribute scv no longer has."""
    sites: dict = {}
    for owner_path, attr, name in TARGETS:
        sites.setdefault(name, []).append(f"{owner_path}.{attr}")
    absent = {name for name, paths in sites.items() if set(paths) <= set(missing)}
    return absent | {m.split(": ", 1)[0] for m in missing if m.split(": ", 1)[0].endswith(" hook")}


def accounting_failures(summary: dict) -> list:
    """Requests whose layer spans' self times do not add up to their wall
    time: glue (see GLUE_SPANS) took more than the tolerance."""
    bad = []
    for request, wall, spent in summary["requests"]:
        if abs(wall - spent) > ACCOUNTING_REL * wall + ACCOUNTING_ABS_S:
            bad.append((request, wall, spent))
    return bad
