"""Allocation policies, value widening, and the two drivers.

The drivers differ only in their allocator.  `run_concrete` allocates
fresh addresses and yields plain execution of a closed program.
`run_fixpoint` allocates abstractly: it keys every address on the
syntactic component plus the set of call transfers taken so far, so
values recurring across iterations of the same loop share an address and
get widened there; continuation addresses are keyed on the callee's body
and environment, which gives exact call/return matching.  Its exploration
runs a worklist against globally widened stores, revisiting a state only
when the stores have grown since it was last processed.
"""

from __future__ import annotations

import itertools
import json
from typing import Optional

from .config import ABSTRACT, Config, RunCtx
from . import havoc
from .havoc import HavocMemo, value_key
from .machine import (
    Addr,
    CBlame,
    Env,
    HALT,
    KontAddr,
    MachineState,
    VNum,
    VOpq,
    VPrim,
    Value,
    load,
    state_to_dict,
)
from .primitives import BASE_VOCAB, satisfies
from .record import Record
from .syntax import Expr, print_expr, toplevel_names

__all__ = [
    "alloc",
    "kont_alloc",
    "widen",
    "run_fixpoint",
    "run_concrete",
    "AnalysisResult",
    "BlameInfo",
    "ConcreteOutcome",
]


# --------------------------------------------------------------------------
# Allocation
# --------------------------------------------------------------------------


def alloc(tag, history: frozenset, ctx: RunCtx) -> Addr:
    """Address for a binding or wrapper allocation; fresh when the run
    counts fresh addresses (`run_concrete`).

    Abstract variable bindings pair the variable with the transfer set, so
    values recurring across iterations of the same loop share an address.
    Contract-wrapper cells are keyed on their syntactic node alone: they
    carry no loop structure, and history-indexing them would mint a fresh
    wrapper identity per context interleaving.
    """
    if ctx.fresh_addrs is None:
        return ("var", tag, history) if isinstance(tag, str) else ("node", tag)
    return ctx.fresh_addr(tag if isinstance(tag, str) else "node")


def kont_alloc(body: Expr, env: Env, ctx: RunCtx) -> KontAddr:
    """Continuation address for entering a closure body."""
    if ctx.fresh_addrs is None:
        return ("kont", body, env)
    return ("kont", ctx.fresh_addr("k"))


# --------------------------------------------------------------------------
# Widening
# --------------------------------------------------------------------------


def _common_refinements(pool: list[Value]) -> frozenset:
    out = {p for p in BASE_VOCAB if all(satisfies(m, p) for m in pool)}
    tokens: Optional[set] = None
    for m in pool:
        toks = (
            {t for t in m.refinements if not isinstance(t, str)}
            if isinstance(m, VOpq)
            else set()
        )
        tokens = toks if tokens is None else tokens & toks
    if tokens:
        out |= tokens
    return frozenset(out)


def _absorbable(v: Value) -> bool:
    # Closures, contracts, and guarded functions carry behavior an unknown
    # value cannot stand in for (their internal blames would be lost), so
    # they are never widened away.  Numbers, unknowns, and partially
    # applied primitives are pure data to the analysis.
    return isinstance(v, (VNum, VOpq)) or (isinstance(v, VPrim) and v.arg0 is not None)


def widen(vs: frozenset, v: Value) -> tuple[frozenset, Value]:
    """Join `v` into a value set, monotonically.

    A number-like newcomer covered by an unknown already present is
    absorbed into it.  Two distinct number-like members collapse into one
    unknown refined by every vocabulary predicate all of them satisfy.
    Everything with behavior stays a distinct member.
    """
    if _absorbable(v):
        for m in vs:
            if isinstance(m, VOpq) and all(satisfies(v, p) for p in m.refinements):
                return vs, m

    members = set(vs)
    members.add(v)
    pool = [m for m in members if isinstance(m, (VNum, VOpq))]
    keep = [m for m in members if not isinstance(m, (VNum, VOpq))]

    # same-operation partial applications over different captured values
    # collapse to one unknown procedure
    by_op: dict[str, list] = {}
    for m in keep:
        if isinstance(m, VPrim) and m.arg0 is not None:
            by_op.setdefault(m.op, []).append(m)
    for group in by_op.values():
        if len(group) > 1:
            for m in group:
                keep.remove(m)
            pool.append(VOpq(frozenset({"proc?"})))

    if len(pool) <= 1:
        new = frozenset(keep) | frozenset(pool)
        rep = v if v in new else pool[0]
        return new, rep
    merged = VOpq(_common_refinements(pool))
    new = frozenset(keep) | {merged}
    rep = v if v in new else merged
    return new, rep


# --------------------------------------------------------------------------
# Results
# --------------------------------------------------------------------------


class BlameInfo(Record):
    """A reachable blame: the `positive` and `negative` party names, the
    blamed `position`, and a sample path condition (strings)."""

    __slots__ = ("positive", "negative", "position", "pc_sample")

    def key(self) -> tuple:
        return (self.positive, self.negative, self.position)


class AnalysisResult(Record):
    """The outcome of `run_fixpoint`.  `solver_failures` counts the checks
    answered unknown because the solver failed."""

    __slots__ = ("blames", "explored_states", "verified", "inconclusive", "final_values", "solver_failures")

    def blame_pairs(self) -> frozenset:
        return frozenset((b.positive, b.negative) for b in self.blames)


class ConcreteOutcome(Record):
    """The outcome of `run_concrete`: `kind` is "value" (with `value`),
    "blame" (with the party names; `transparent` when the positive party
    is program code) or "timeout"; `steps` is the number of steps taken."""

    __slots__ = ("kind", "value", "positive", "negative", "transparent", "steps")
    _defaults = (None, None, None, False, 0)


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------


def _make_ctx(expr: Expr, config: Config, solver, fresh_addrs=None) -> RunCtx:
    return RunCtx(
        config=config,
        solver=solver,
        toplevel=toplevel_names(expr),
        memo=HavocMemo(),
        fresh_addrs=fresh_addrs,
    )


def run_fixpoint(expr: Expr, config: Config, solver=None) -> AnalysisResult:
    """Explore every reachable state under global-store widening, collecting
    blames whose positive party is transparent.  Exceeding the step budget
    marks the result inconclusive (never verified)."""
    from .feasibility import open_solver
    from .semantics import step

    # the driver, not the config, picks the semantics: `Config.mode` is read
    # only here, and stays only for callers that still set it
    if config.mode != ABSTRACT:
        raise ValueError(f"run_fixpoint is the abstract driver, not mode {config.mode!r}; use run_concrete")
    if solver is None:
        solver = open_solver(config.resolved_solver())
    ctx = _make_ctx(expr, config, solver)
    failures_before = solver.failures if solver is not None else 0

    # `widen` is looked up per run, so a wrapper put on `abstraction.widen`
    # (perfbench's tracer) sees every widening join
    state0, stores = load(expr, widen)
    trace = open(config.trace_path, "w") if config.trace_path else None
    todo: list[MachineState] = [state0]
    queued: set[MachineState] = {state0}
    processed_set: set[MachineState] = set()
    deps: dict = {}
    blames: dict[tuple, BlameInfo] = {}
    finals: set[str] = set()
    processed = 0
    inconclusive = False

    try:
        while todo:
            state = todo.pop()
            queued.discard(state)
            if state in processed_set:
                continue
            if processed >= config.step_budget:
                inconclusive = True
                break
            processed += 1
            processed_set.add(state)
            if trace is not None:
                trace.write(json.dumps(state_to_dict(state), ensure_ascii=False) + "\n")

            control = state.control
            if isinstance(control, CBlame):
                if control.pos_label.is_transparent():
                    info = BlameInfo(
                        positive=control.pos_label.name,
                        negative=control.neg_label.name,
                        position=str(control.pos_label.pos),
                        pc_sample=tuple(sorted(print_expr(e) for e in state.pc)[:8]),
                    )
                    blames.setdefault(info.key(), info)
                continue
            if state.is_terminal():
                if state.kaddr == HALT:
                    finals.add(value_key(control.w.value))
                continue

            stores.reads = set()
            succs = step(state, stores, ctx)
            for addr in stores.reads:
                deps.setdefault(addr, set()).add(state)
            stores.reads = None
            # a store change invalidates everything that read the address
            if stores.changed:
                for addr in stores.changed:
                    for stale in deps.get(addr, ()):
                        processed_set.discard(stale)
                        if stale not in queued:
                            queued.add(stale)
                            todo.append(stale)
                stores.changed.clear()
            for succ in succs:
                if succ not in processed_set and succ not in queued:
                    queued.add(succ)
                    todo.append(succ)
    finally:
        if trace is not None:
            trace.close()
        # value keys are pure functions of values; a later analysis would
        # only pay for comparing its values against this one's
        havoc._KEY_CACHE.clear()

    ordered = tuple(sorted(blames.values(), key=lambda b: b.key()))
    return AnalysisResult(
        blames=ordered,
        explored_states=processed,
        verified=(not ordered) and (not inconclusive),
        inconclusive=inconclusive,
        final_values=tuple(sorted(finals)),
        solver_failures=solver.failures - failures_before if solver is not None else 0,
    )


def run_concrete(expr: Expr, config: Optional[Config] = None) -> ConcreteOutcome:
    """Deterministic reference execution with fresh allocation and no
    solver, stopping after `config.step_budget` steps.  The program must
    contain no holes; every state then has at most one successor."""
    from .semantics import InternalError, step

    config = config or Config()
    ctx = _make_ctx(expr, config, None, itertools.count())
    state, stores = load(expr)
    trace = open(config.trace_path, "w") if config.trace_path else None
    steps = 0
    try:
        while steps < config.step_budget:
            if trace is not None:
                trace.write(json.dumps(state_to_dict(state), ensure_ascii=False) + "\n")
            control = state.control
            if isinstance(control, CBlame):
                return ConcreteOutcome(
                    "blame",
                    positive=control.pos_label.name,
                    negative=control.neg_label.name,
                    transparent=control.pos_label.is_transparent(),
                    steps=steps,
                )
            if state.is_terminal():
                return ConcreteOutcome("value", value=control.w, steps=steps)
            succs = step(state, stores, ctx)
            if len(succs) != 1:
                raise InternalError(
                    f"concrete execution must be deterministic, got {len(succs)} successors"
                )
            state = succs[0]
            steps += 1
        return ConcreteOutcome("timeout", steps=steps)
    finally:
        if trace is not None:
            trace.close()
