"""Unknown-context simulation: the leak address and opaque application.

Everything that flows into unknown code is joined into one distinguished
store address.  Applying an unknown value then has two kinds of successor:
return a fresh unknown into the surrounding context, or pick any leaked
value, apply it to a fresh unknown, and feed its result back to unknown
code.  Arbitrary sequences of context actions are covered because the
second kind re-enters this rule.

Leaked-value applications run detached rather than threaded through the
applying site's continuation.  That is coverage-equivalent, by this
accounting of everything such a run can do to the rest of the program:

  * its result flows to unknown code by construction, and the site's
    return successor already yields a fresh unknown;
  * its store effects land in the global store, which every state reads;
  * its cache effects - strong facts it invalidates - are covered by the
    return successor dropping every entry the context could possibly have
    mutated (set! targets occurring in leak-reachable closure bodies);
  * its blames are reported from the detached run itself;
  * path-condition and history effects only narrowed the threaded chains,
    so starting the run from the weakest context (no assumed facts, no
    transfers, only the top-level cache slice, whose bindings exist once
    per run and stay valid while transparent code is suspended) explores
    a superset of each threaded chain's behavior.

Detaching makes the runs independent of where the escape happened, so all
escape points share one exploration of each leaked value per context.

The roots an application can schedule depend only on the leak set and the
run's root cache, so the leak set is scanned once per pair of them: the
store remembers, per root cache, the leak set it was last scanned against
(`GlobalStores.scanned`).  Value sets are immutable and every change to an
address stores a new one, so finding the current set object there means
the leak set has not changed since that scan, and the application returns
only its return successor.  That is exact: every root the scan could
yield was yielded before, and the driver keeps each root processed or
queued from then on (revisiting it when a store address it read
changes), so it would drop them all; and the reads a scan logs are all of
leak-reachable addresses, which `context_mutable_vars` has already logged
for this state.

Re-running a leaked value is memoized on a fingerprint of everything that
run can observe: the store slice it reaches plus the canonical context.
The fingerprint is that data itself, compared by equality, not a digest
of it, so two different contexts never compare equal.  Skipping an
identical re-application is therefore a pure exploration filter and never
changes the reported blame set.

The slice, and the set of variables the context could mutate, each come
from a walk over the leak-reachable store.  Most opaque applications
would repeat the last walk from the same root exactly, so the store keeps
each walk's result with the value sets it read and reuses it while every
one of them is still the set at its address (`GlobalStores.walk`).
Checking that costs one identity test per address read, and a reused
slice is the very object the memo holds, so comparing it is one identity
test too.  A reuse logs the same reads as the walk, so the driver's
dependencies do not change.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .machine import (
    Addr,
    Cache,
    CVal,
    DETACHED,
    FAppFn,
    GlobalStores,
    LEAK_ADDR,
    MachineState,
    PostValue,
    VArr,
    VClo,
    VGrd,
    VNum,
    VOpq,
    VPrim,
    Value,
)
from .syntax import OPAQUE_LABEL, assigned_vars, print_expr

__all__ = [
    "HavocMemo",
    "leak",
    "opaque_application",
    "should_rerun",
    "fingerprint",
    "value_key",
]


_KEY_CACHE: dict = {}


def value_key(v: Value) -> str:
    """Canonical print of a value, deep enough to distinguish closures by
    body, environment, and saved path condition."""
    hit = _KEY_CACHE.get(v)
    if hit is None:
        hit = _value_key(v)
        _KEY_CACHE[v] = hit
    return hit


def _value_key(v: Value) -> str:
    if isinstance(v, VNum):
        return f"n:{v.n}"
    if isinstance(v, VPrim):
        if v.arg0 is None:
            return f"op:{v.op}"
        return f"op:{v.op}[{value_key(v.arg0)}]"
    if isinstance(v, VClo):
        env = ",".join(f"{x}@{addr}" for x, addr in sorted(v.env.items()))
        pc = "&".join(sorted(print_expr(e) for e in v.pc))
        return f"clo:{v.x}.{print_expr(v.body)}|{env}|{pc}"
    if isinstance(v, VGrd):
        return f"grd:{v.a_dom}:{v.a_rng}"
    if isinstance(v, VArr):
        return f"arr:{v.pos_label.name}/{v.neg_label.name}:{v.a_con}:{v.a_fn}"
    if isinstance(v, VOpq):
        refs = ",".join(sorted(r if isinstance(r, str) else print_expr(r) for r in v.refinements))
        return f"opq:{refs}"
    raise AssertionError(f"unknown value {v!r}")


def _direct_addrs(v: Value) -> Iterable[Addr]:
    if isinstance(v, VClo):
        return v.env.values()
    if isinstance(v, VGrd):
        return (v.a_dom, v.a_rng)
    if isinstance(v, VArr):
        return (v.a_con, v.a_fn)
    if isinstance(v, VPrim) and v.arg0 is not None:
        return _direct_addrs(v.arg0)
    return ()


def _reach(stores: GlobalStores, addrs: Iterable[Addr]) -> dict:
    """Every address reachable from `addrs` through environments and wrapper
    references, each read once through `stores.lookup`, with its values."""
    read: dict[Addr, frozenset] = {}
    frontier = list(addrs)
    while frontier:
        addr = frontier.pop()
        if addr not in read:
            members = read[addr] = stores.lookup(addr)
            for member in members:
                frontier.extend(_direct_addrs(member))
    return read


def _slice(stores: GlobalStores, v: Value) -> tuple:
    read = _reach(stores, _direct_addrs(v))
    return frozenset(read.items()), read


def fingerprint(v: Value, stores: GlobalStores, state: Optional[MachineState] = None, toplevel: frozenset = frozenset()) -> tuple:
    """Everything that can affect applying `v` from an unknown context, as a
    key compared by equality: the store slice `v` reaches through
    environments and wrapper references, as (address, values) pairs, plus
    the applying state's live top-level cache entries, path condition and
    transfer history.  The slice is a store walk from `v` (`stores.walk`),
    so every address in it is logged as read, and the driver revisits the
    caller when the slice grows."""
    slice_ = stores.walk(v, _slice)
    if state is None:
        return (slice_,)
    kept = frozenset((x, w) for x, w in state.cache.items() if x in toplevel)
    return slice_, kept, state.pc, state.history


class HavocMemo:
    """Last-run fingerprint per leaked value, keyed on the value itself."""

    def __init__(self) -> None:
        self.entries: dict[Value, tuple] = {}

    def check_and_mark(self, v: Value, fp: tuple) -> bool:
        if self.entries.get(v) == fp:
            return False
        self.entries[v] = fp
        return True


def should_rerun(
    v: Value,
    stores: GlobalStores,
    memo: Optional[HavocMemo],
    state: Optional[MachineState] = None,
    toplevel: frozenset = frozenset(),
) -> bool:
    """True when `v` has never been applied from the unknown context, or the
    context that would apply it differs from its last scheduled run;
    refreshes the memo when so.  Skipping an identical re-application
    changes nothing observable, so this is a pure exploration filter."""
    if memo is None:
        return True
    return memo.check_and_mark(v, fingerprint(v, stores, state, toplevel))


def leak(stores: GlobalStores, v: Value) -> Value:
    """Record that a value escaped to unknown code."""
    return stores.join_value(LEAK_ADDR, v)


def _assigned_in_reach(stores: GlobalStores, root: Addr) -> tuple:
    read = _reach(stores, (root,))
    out: set = set()
    for members in read.values():
        for v in members:
            if isinstance(v, VClo):
                out |= assigned_vars(v.body)
    return frozenset(out), read


def context_mutable_vars(stores: GlobalStores) -> frozenset:
    """Variables the unknown context could mutate: set! targets occurring in
    any closure body reachable from the leaked values."""
    return stores.walk(LEAK_ADDR, _assigned_in_reach)


def opaque_application(
    state: MachineState,
    argw: PostValue,
    pc: frozenset,
    stores: GlobalStores,
    ctx,
) -> list[MachineState]:
    """Successors of applying an unknown function (already known plausibly a
    procedure, with `pc` strengthened accordingly).

    The argument escapes.  One successor returns a fresh unknown into the
    surrounding context with every cache entry the escaped code could have
    mutated dropped; the others apply each leaked value to a fresh unknown
    in a detached run whose result goes back to unknown code.  Detached
    runs share their exploration across every escape point, and arbitrary
    repetition is covered because they re-enter this rule.

    The leak set is scanned for those runs only when it differs from the
    one last scanned with the same root cache; otherwise the return
    successor is the only one (the module docstring says why that is
    exact).
    """
    leak(stores, argw.value)

    cache = state.cache
    for x in context_mutable_vars(stores):
        if x in cache:
            cache = cache.remove(x)

    unknown = PostValue(VOpq(), None)
    out = [
        MachineState(
            CVal(unknown),
            cache,
            pc,
            state.frames,
            state.kaddr,
            state.history,
        )
    ]
    # A detached run models the context applying a leaked value at some
    # arbitrary moment, so it starts from a canonical weakest context:
    # no path condition, no transfer history, and only the top-level cache
    # facts (which stay valid while transparent code is suspended).  That
    # makes the run shareable across every escape point.
    run_cache = Cache({x: w for x, w in cache.items() if x in ctx.toplevel})
    leaked = stores.lookup(LEAK_ADDR)
    if stores.scanned.get(run_cache) is leaked:
        return out
    stores.scanned[run_cache] = leaked
    memo = ctx.memo if ctx.config.havoc_memo else None
    for v in sorted(leaked, key=value_key):
        run = MachineState(
            CVal(unknown),
            run_cache,
            frozenset(),
            (
                FAppFn(PostValue(v, None), OPAQUE_LABEL),
                FAppFn(unknown, OPAQUE_LABEL),
            ),
            DETACHED,
            frozenset(),
        )
        if not should_rerun(v, stores, memo, run, ctx.toplevel):
            continue
        out.append(run)
    return out
