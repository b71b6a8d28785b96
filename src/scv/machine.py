"""Machine states for the symbolic CESK-style interpreter.

A state carries the control (an expression under evaluation, a produced
value, or a terminal blame), a store-cache of flow-sensitively known
variable values, a path condition, the current continuation (a frame list
cut at a continuation-store address), and the set of call transfers taken
so far.  Value and continuation stores are global, owned by the driver, and
only ever grow; states reference them by address.

The store also owns the run's join policy: a store built with a widening
function joins through it (abstract runs), one built without keeps plain
sets and lets `set!` replace a value outright (concrete runs, where fresh
allocation gives every address exactly one value).
"""

from __future__ import annotations

from typing import Optional

from .record import Record
from .syntax import Expr, print_expr

__all__ = [
    "Record",
    "Value",
    "VNum",
    "VPrim",
    "VClo",
    "VGrd",
    "VArr",
    "VOpq",
    "PostValue",
    "SymName",
    "Env",
    "Cache",
    "Addr",
    "LEAK_ADDR",
    "KontAddr",
    "HALT",
    "Frame",
    "FAppArg",
    "FAppFn",
    "FIf",
    "FSet",
    "FGrd",
    "FMonC",
    "FMonV",
    "FArrDom",
    "FArrRng",
    "FRt",
    "Control",
    "CEval",
    "CVal",
    "CBlame",
    "MachineState",
    "GlobalStores",
    "load",
    "join_values",
    "state_to_dict",
]


# --------------------------------------------------------------------------
# Runtime values
# --------------------------------------------------------------------------


class Value(Record):
    """Marker base class of the runtime values."""

    __slots__ = ()


class VNum(Value):
    __slots__ = ("n",)

    def __repr__(self) -> str:
        return str(self.n)


class VPrim(Value):
    """A primitive operation `op`, possibly partially applied to `arg0`
    (two-argument primitives are curried)."""

    __slots__ = ("op", "arg0")
    _defaults = (None,)

    def __repr__(self) -> str:
        return self.op if self.arg0 is None else f"({self.op} {self.arg0!r})"


class VClo(Value):
    """Closure: parameter `x`, `body`, environment `env`, and the path
    condition `pc` saved at creation to constrain its free variables."""

    __slots__ = ("x", "body", "env", "pc")

    def __repr__(self) -> str:
        return f"<clo {self.x}>"


class VGrd(Value):
    """Higher-order contract with store-allocated domain and range maker."""

    __slots__ = ("a_dom", "a_rng")

    def __repr__(self) -> str:
        return "<grd>"


class VArr(Value):
    """Guarded function: blame parties plus addresses of the contract and
    the wrapped function."""

    __slots__ = ("pos_label", "neg_label", "a_con", "a_fn")

    def __repr__(self) -> str:
        return f"<arr {self.pos_label}/{self.neg_label}>"


class VOpq(Value):
    """Unknown value carrying the predicates it is known to satisfy."""

    __slots__ = ("refinements",)
    _defaults = (frozenset(),)

    def __repr__(self) -> str:
        if not self.refinements:
            return "•"
        preds = ",".join(sorted(str(r) for r in self.refinements))
        return f"•{{{preds}}}"


SymName = Optional[Expr]


class PostValue(Record):
    """A value and its symbolic name (`sym`, None when it has none)."""

    __slots__ = ("value", "sym")

    def __repr__(self) -> str:
        s = "∅" if self.sym is None else print_expr(self.sym)
        return f"({self.value!r}, {s})"


# --------------------------------------------------------------------------
# Environments and store-caches
# --------------------------------------------------------------------------


class _FrozenMap:
    """Small immutable string-keyed map with a cached hash."""

    __slots__ = ("_d", "_hash")

    def __init__(self, d: Optional[dict] = None):
        self._d = dict(d) if d else {}
        self._hash: Optional[int] = None

    def get(self, k, default=None):
        return self._d.get(k, default)

    def __contains__(self, k) -> bool:
        return k in self._d

    def __getitem__(self, k):
        return self._d[k]

    def __iter__(self):
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def items(self):
        return self._d.items()

    def values(self):
        return self._d.values()

    def set(self, k, v):
        d = dict(self._d)
        d[k] = v
        return type(self)(d)

    def remove(self, k):
        d = dict(self._d)
        d.pop(k, None)
        return type(self)(d)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._d.items()))
        return self._hash

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._d == other._d

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in sorted(self._d.items()))
        return "{" + inner + "}"


class Env(_FrozenMap):
    """Variable-to-address binding environment."""


class Cache(_FrozenMap):
    """Store-cache: variable to precise post-value; absence means invalidated."""


# --------------------------------------------------------------------------
# Addresses
# --------------------------------------------------------------------------

Addr = tuple
LEAK_ADDR: Addr = ("leak",)

KontAddr = tuple
HALT: KontAddr = ("halt",)
# Continuation of a leaked-value application run by the unknown context:
# its result goes back to unknown code, so the run simply ends there.
DETACHED: KontAddr = ("detached",)


# --------------------------------------------------------------------------
# Continuation frames
# --------------------------------------------------------------------------


class Frame(Record):
    __slots__ = ()


class FAppArg(Frame):
    """Function position under evaluation; argument `pending` (a Control)
    at call site `label`."""

    __slots__ = ("pending", "label")


class FAppFn(Frame):
    """Function `fn` (a PostValue) evaluated; argument under evaluation."""

    __slots__ = ("fn", "label")


class FIf(Frame):
    """Condition under evaluation; the feasible branches resume."""

    __slots__ = ("then", "orelse")


class FSet(Frame):
    __slots__ = ("x", "env")


class FGrd(Frame):
    """Domain of a dependent contract under evaluation; the range maker is
    closed later over the saved environment."""

    __slots__ = ("x", "rng_body", "env", "node")


class FMonC(Frame):
    """Contract under evaluation; monitored expression pending."""

    __slots__ = ("pos_label", "neg_label", "pending", "node")


class FMonV(Frame):
    """Contract evaluated; monitored expression under evaluation.  Also the
    dispatch point deciding flat versus higher-order monitoring.  `node` is
    the allocation key for the wrapper this check may create."""

    __slots__ = ("pos_label", "neg_label", "contract", "node")


class FArrDom(Frame):
    """Guarded application: domain check running; next the range maker is
    applied to the checked argument."""

    __slots__ = ("pos_label", "neg_label", "rng_maker", "fn", "label", "node")


class FArrRng(Frame):
    """Guarded application: range contract being computed; next the wrapped
    function is applied to the checked argument."""

    __slots__ = ("pos_label", "neg_label", "fn", "checked", "label", "node")


class FRt(Frame):
    """Return point of a closure application: restores the caller's view.

    `shared` marks same-scope calls whose free-variable cache entries were
    kept live instead of invalidated.
    """

    __slots__ = ("x", "ys", "saved_cache", "shared")


# --------------------------------------------------------------------------
# Control and states
# --------------------------------------------------------------------------


class Control(Record):
    __slots__ = ()


class CEval(Control):
    __slots__ = ("expr", "env")


class CVal(Control):
    __slots__ = ("w",)


class CBlame(Control):
    """Terminal: `pos_label` violated its contract with `neg_label`."""

    __slots__ = ("pos_label", "neg_label")


class MachineState(Record):
    """One machine state."""

    __slots__ = ("control", "cache", "pc", "frames", "kaddr", "history")

    def __repr__(self) -> str:
        return f"<state {type(self.control).__name__} frames={len(self.frames)}>"

    def is_terminal(self) -> bool:
        return isinstance(self.control, CBlame) or (
            isinstance(self.control, CVal)
            and not self.frames
            and self.kaddr in (HALT, DETACHED)
        )


# What a missing address holds.  One shared object, so that a walk that read
# a missing address can tell by identity that it is still missing.
_EMPTY: frozenset = frozenset()


class GlobalStores:
    """Driver-owned global value and continuation stores.

    Both only grow.  While a state steps, `reads` collects the addresses it
    looks up and `changed` the addresses that grow; the fixpoint driver maps
    each changed address to the states that read it and revisits them.
    `widen` is the run's join policy for values (see `join_values`).

    `walks` keeps the last result of each store walk (see `walk`), with the
    value sets it read.  Value sets are immutable and every change to an
    address stores a new one, so a walk whose read sets are all still, by
    identity, the ones at their addresses would read the same store again
    and return the same result; one whose sets changed is walked again.
    No change needs to invalidate anything.
    """

    def __init__(self, widen=None) -> None:
        self.widen = widen
        self.values: dict[Addr, frozenset] = {}
        self.konts: dict[KontAddr, frozenset] = {}
        # read log and change log for the driver's dependency tracking
        self.reads: Optional[set] = None
        self.changed: list = []
        # walk root -> (result, {address: value set read})
        self.walks: dict = {}

    def _note_read(self, addr) -> None:
        if self.reads is not None:
            self.reads.add(addr)

    def _note_change(self, addr) -> None:
        self.changed.append(addr)

    def lookup(self, addr: Addr) -> frozenset:
        self._note_read(addr)
        return self.values.get(addr, _EMPTY)

    def walk(self, root, fresh):
        """The result of `fresh(self, root)`, a walk that reads the store only
        through `lookup` and returns `(result, {address: set read})`; each
        root has one walk function.  The last result from `root` is reused
        while every set it read is still the set at its address, and a
        reuse logs the same reads as the walk."""
        entry = self.walks.get(root)
        if entry is not None:
            result, read = entry
            values = self.values
            for addr, members in read.items():
                if values.get(addr, _EMPTY) is not members:
                    break
            else:
                if self.reads is not None:
                    self.reads.update(read)
                return result
        result, read = fresh(self, root)
        self.walks[root] = (result, read)
        return result

    def lookup_kont(self, kaddr: KontAddr) -> frozenset:
        self._note_read(("k", kaddr))
        return self.konts.get(kaddr, frozenset())

    def join_value(self, addr: Addr, value: Value) -> Value:
        """Join one value into an address, returning the representative the
        caller should continue with (the widened stand-in when the join
        collapsed it into an abstract value)."""
        old = self.values.get(addr, _EMPTY)
        new, rep = join_values(old, value, self.widen)
        if new != old:
            self.values[addr] = new
            self._note_change(addr)
        return rep

    def assign(self, addr: Addr, value: Value) -> Value:
        """The store effect of `set!`.  A widening store joins; otherwise
        the value replaces the old one, which is sound because fresh
        allocation gives such an address exactly one value."""
        if self.widen is not None:
            return self.join_value(addr, value)
        new = frozenset({value})
        if new != self.values.get(addr):
            self.values[addr] = new
            self._note_change(addr)
        return value

    def join_kont(self, kaddr: KontAddr, kont: tuple) -> None:
        old = self.konts.get(kaddr, frozenset())
        if kont not in old:
            self.konts[kaddr] = old | {kont}
            self._note_change(("k", kaddr))


def join_values(vs: frozenset, v: Value, widen_fn=None) -> tuple[frozenset, Value]:
    """Join `v` into the value set `vs`.

    Without a widening hook this is plain set union (`run_concrete`).  With
    one, the hook decides how numbers and unknowns collapse; it returns both
    the new set and the member standing for `v` inside it.
    """
    if v in vs:
        return vs, v
    if widen_fn is None:
        return vs | {v}, v
    return widen_fn(vs, v)


def load(e: Expr, widen=None) -> tuple[MachineState, GlobalStores]:
    """Initial state of a closed, renamed program: empty environment, cache,
    and path condition, halt continuation, and a store joining through
    `widen` that holds only the fully unknown value at the leak address."""
    stores = GlobalStores(widen)
    stores.values[LEAK_ADDR] = frozenset({VOpq()})
    state = MachineState(CEval(e, Env()), Cache(), frozenset(), (), HALT, frozenset())
    return state, stores


# --------------------------------------------------------------------------
# Debug dump
# --------------------------------------------------------------------------


def _sym_str(s: SymName) -> str:
    return "∅" if s is None else print_expr(s)


def state_to_dict(state: MachineState) -> dict:
    """JSON-ready summary of a state, for traces and debugging."""
    c = state.control
    if isinstance(c, CEval):
        control = {"kind": "eval", "expr": print_expr(c.expr)}
    elif isinstance(c, CVal):
        control = {"kind": "value", "value": repr(c.w.value), "sym": _sym_str(c.w.sym)}
    else:
        control = {
            "kind": "blame",
            "positive": c.pos_label.name,
            "negative": c.neg_label.name,
        }
    return {
        "control": control,
        "pc": sorted(print_expr(e) for e in state.pc),
        "cache": {
            x: {"value": repr(v.value), "sym": _sym_str(v.sym)} for x, v in state.cache.items()
        },
        "frames": len(state.frames),
        "transfers": len(state.history),
    }
