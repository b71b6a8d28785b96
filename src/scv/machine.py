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

from dataclasses import dataclass
from typing import Optional

from .syntax import Expr, Label, print_expr

__all__ = [
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


class Value:
    """Marker base class; concrete variants below are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class VNum(Value):
    n: int

    def __repr__(self) -> str:
        return str(self.n)


@dataclass(frozen=True)
class VPrim(Value):
    """A primitive operation, possibly partially applied (two-argument
    primitives are curried)."""

    op: str
    arg0: Optional[Value] = None

    def __repr__(self) -> str:
        return self.op if self.arg0 is None else f"({self.op} {self.arg0!r})"


@dataclass(frozen=True)
class VClo(Value):
    """Closure: parameter, body, environment, and the path condition saved
    at creation to constrain its free variables."""

    x: str
    body: Expr
    env: "Env"
    pc: frozenset

    def __repr__(self) -> str:
        return f"<clo {self.x}>"


@dataclass(frozen=True)
class VGrd(Value):
    """Higher-order contract with store-allocated domain and range maker."""

    a_dom: tuple
    a_rng: tuple

    def __repr__(self) -> str:
        return "<grd>"


@dataclass(frozen=True)
class VArr(Value):
    """Guarded function: blame parties plus addresses of the contract and
    the wrapped function."""

    pos_label: Label
    neg_label: Label
    a_con: tuple
    a_fn: tuple

    def __repr__(self) -> str:
        return f"<arr {self.pos_label}/{self.neg_label}>"


@dataclass(frozen=True)
class VOpq(Value):
    """Unknown value carrying the predicates it is known to satisfy."""

    refinements: frozenset = frozenset()

    def __repr__(self) -> str:
        if not self.refinements:
            return "•"
        preds = ",".join(sorted(str(r) for r in self.refinements))
        return f"•{{{preds}}}"


SymName = Optional[Expr]


@dataclass(frozen=True)
class PostValue:
    value: Value
    sym: SymName = None

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


class Frame:
    __slots__ = ()


@dataclass(frozen=True)
class FAppArg(Frame):
    """Function position under evaluation; argument pending."""

    pending: Control
    label: Label


@dataclass(frozen=True)
class FAppFn(Frame):
    """Function evaluated; argument under evaluation."""

    fn: PostValue
    label: Label


@dataclass(frozen=True)
class FIf(Frame):
    """Condition under evaluation; the feasible branches resume."""

    then: Control
    orelse: Control


@dataclass(frozen=True)
class FSet(Frame):
    x: str
    env: Env


@dataclass(frozen=True)
class FGrd(Frame):
    """Domain of a dependent contract under evaluation; the range maker is
    closed later over the saved environment."""

    x: str
    rng_body: Expr
    env: Env
    node: Expr


@dataclass(frozen=True)
class FMonC(Frame):
    """Contract under evaluation; monitored expression pending."""

    pos_label: Label
    neg_label: Label
    pending: Control
    node: Expr


@dataclass(frozen=True)
class FMonV(Frame):
    """Contract evaluated; monitored expression under evaluation.  Also the
    dispatch point deciding flat versus higher-order monitoring.  `node` is
    the allocation key for the wrapper this check may create."""

    pos_label: Label
    neg_label: Label
    contract: PostValue
    node: object


@dataclass(frozen=True)
class FArrDom(Frame):
    """Guarded application: domain check running; next the range maker is
    applied to the checked argument."""

    pos_label: Label
    neg_label: Label
    rng_maker: PostValue
    fn: PostValue
    label: Label
    node: Expr


@dataclass(frozen=True)
class FArrRng(Frame):
    """Guarded application: range contract being computed; next the wrapped
    function is applied to the checked argument."""

    pos_label: Label
    neg_label: Label
    fn: PostValue
    checked: PostValue
    label: Label
    node: Expr


@dataclass(frozen=True)
class FRt(Frame):
    """Return point of a closure application: restores the caller's view.

    `shared` marks same-scope calls whose free-variable cache entries were
    kept live instead of invalidated.
    """

    x: str
    ys: frozenset
    sym: SymName
    saved_cache: Cache
    shared: bool = False


# --------------------------------------------------------------------------
# Control and states
# --------------------------------------------------------------------------


class Control:
    __slots__ = ()


@dataclass(frozen=True)
class CEval(Control):
    expr: Expr
    env: Env


@dataclass(frozen=True)
class CVal(Control):
    w: PostValue


@dataclass(frozen=True)
class CBlame(Control):
    """Terminal: `pos_label` violated its contract with `neg_label`."""

    pos_label: Label
    neg_label: Label


class MachineState:
    """One machine state; immutable, with the hash computed once (states
    live in large seen-sets and worklists)."""

    __slots__ = ("control", "cache", "pc", "frames", "kaddr", "history", "_hash")

    def __init__(self, control, cache, pc, frames, kaddr, history):
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "cache", cache)
        object.__setattr__(self, "pc", pc)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "kaddr", kaddr)
        object.__setattr__(self, "history", history)
        object.__setattr__(
            self, "_hash", hash((control, cache, pc, frames, kaddr, history))
        )

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, MachineState)
            and self._hash == other._hash
            and self.control == other.control
            and self.cache == other.cache
            and self.pc == other.pc
            and self.frames == other.frames
            and self.kaddr == other.kaddr
            and self.history == other.history
        )

    def __repr__(self) -> str:
        return f"<state {type(self.control).__name__} frames={len(self.frames)}>"

    def is_terminal(self) -> bool:
        return isinstance(self.control, CBlame) or (
            isinstance(self.control, CVal)
            and not self.frames
            and self.kaddr in (HALT, DETACHED)
        )


class GlobalStores:
    """Driver-owned global value and continuation stores.

    Both only grow.  While a state steps, `reads` collects the addresses it
    looks up and `changed` the addresses that grow; the fixpoint driver maps
    each changed address to the states that read it and revisits them.
    `widen` is the run's join policy for values (see `join_values`).
    """

    def __init__(self, widen=None) -> None:
        self.widen = widen
        self.values: dict[Addr, frozenset] = {}
        self.konts: dict[KontAddr, frozenset] = {}
        # read log and change log for the driver's dependency tracking
        self.reads: Optional[set] = None
        self.changed: list = []

    def _note_read(self, addr) -> None:
        if self.reads is not None:
            self.reads.add(addr)

    def _note_change(self, addr) -> None:
        self.changed.append(addr)

    def lookup(self, addr: Addr) -> frozenset:
        self._note_read(addr)
        return self.values.get(addr, frozenset())

    def lookup_kont(self, kaddr: KontAddr) -> frozenset:
        self._note_read(("k", kaddr))
        return self.konts.get(kaddr, frozenset())

    def join_value(self, addr: Addr, value: Value) -> Value:
        """Join one value into an address, returning the representative the
        caller should continue with (the widened stand-in when the join
        collapsed it into an abstract value)."""
        old = self.values.get(addr, frozenset())
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

    Without a widening hook this is plain set union (concrete mode).  With
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
    state = MachineState(
        control=CEval(e, Env()),
        cache=Cache(),
        pc=frozenset(),
        frames=(),
        kaddr=HALT,
        history=frozenset(),
    )
    return state, stores


# --------------------------------------------------------------------------
# Debug dump
# --------------------------------------------------------------------------


def _sym_str(s: SymName) -> str:
    return "∅" if s is None else print_expr(s)


def state_to_dict(state: MachineState, stores: Optional[GlobalStores] = None) -> dict:
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
    out = {
        "control": control,
        "pc": sorted(print_expr(e) for e in state.pc),
        "cache": {
            x: {"value": repr(v.value), "sym": _sym_str(v.sym)} for x, v in state.cache.items()
        },
        "frames": len(state.frames),
        "transfers": len(state.history),
    }
    if stores is not None:
        out["store"] = {
            "addresses": len(stores.values),
            "leaked": sorted(repr(v) for v in stores.lookup(LEAK_ADDR)),
        }
    return out
