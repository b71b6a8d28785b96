"""Primitive operations over concrete and unknown values.

All primitives here are the unsafe, total versions: arithmetic on anything
that is not a pair of integers yields 0, and division by zero yields 0.
Partiality is reinstated by the guard contracts that the desugarer wraps
around every reference to a partial primitive, so user code never reaches
an unsafe version unguarded.

On unknown operands, predicates answer through a small implication table
over the refinement vocabulary, and arithmetic transfers the refinements it
can justify (the total extension always returns integers, so `int?` is
always safe to claim for arithmetic results).
"""

from __future__ import annotations

from typing import Callable, Optional

from .machine import Value, VArr, VClo, VGrd, VNum, VOpq, VPrim
from .record import Record
from .syntax import DepCon, Expr, Prim

__all__ = [
    "PrimSpec",
    "PRIM_TABLE",
    "SURFACE_ALIASES",
    "BASE_VOCAB",
    "delta",
    "standard_env",
    "surface_spec",
    "satisfies",
    "refinement_implies",
    "refinement_excludes",
    "concrete_refinements",
    "pred_on_refinements",
    "trunc_div",
    "ZERO",
    "ONE",
]

ZERO = VNum(0)
ONE = VNum(1)


def trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero; 0 on a zero divisor."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# --------------------------------------------------------------------------
# Refinement vocabulary
# --------------------------------------------------------------------------

# Predicates that may appear in refinement sets of unknown values.  Closure
# contracts appearing in a program extend this per-run (as opaque tokens the
# tables know nothing about).
BASE_VOCAB = ("int?", "proc?", "zero?", "even?", "odd?", "positive?")

_IMPLIES_BASE = {
    "even?": {"int?"},
    "odd?": {"int?"},
    "positive?": {"int?"},
    "zero?": {"int?", "even?"},
}

_EXCLUDES_BASE = {
    frozenset({"int?", "proc?"}),
    frozenset({"zero?", "positive?"}),
    frozenset({"zero?", "odd?"}),
    frozenset({"even?", "odd?"}),
}


def _implication_closure(p: str) -> frozenset:
    out = {p}
    queue = [p]
    while queue:
        q = queue.pop()
        for r in _IMPLIES_BASE.get(q, ()):
            if r not in out:
                out.add(r)
                queue.append(r)
    return frozenset(out)


_IMPLIES = {p: _implication_closure(p) for p in BASE_VOCAB}


def refinement_implies(known: frozenset, p: str) -> bool:
    """Does satisfying every predicate in `known` force predicate `p`?"""
    return any(p in _IMPLIES.get(q, frozenset({q})) for q in known)


def refinement_excludes(known: frozenset, p: str) -> bool:
    """Does satisfying every predicate in `known` rule predicate `p` out?"""
    p_ups = _IMPLIES.get(p, frozenset({p}))
    for q in known:
        q_ups = _IMPLIES.get(q, frozenset({q}))
        for a in q_ups:
            for b in p_ups:
                if frozenset({a, b}) in _EXCLUDES_BASE:
                    return True
    return False


def pred_on_refinements(op: str, refinements: frozenset) -> frozenset:
    """Possible boolean results of a vocabulary predicate on an unknown
    value with the given refinements."""
    if refinement_implies(refinements, op):
        return frozenset({ONE})
    if refinement_excludes(refinements, op):
        return frozenset({ZERO})
    return frozenset({ZERO, ONE})


# --------------------------------------------------------------------------
# Predicate meanings on concrete values
# --------------------------------------------------------------------------


def _pred_int(v: Value) -> bool:
    return isinstance(v, VNum)


def _pred_proc(v: Value) -> bool:
    return isinstance(v, (VPrim, VClo, VArr))


def _pred_zero(v: Value) -> bool:
    return isinstance(v, VNum) and v.n == 0


def _pred_even(v: Value) -> bool:
    return isinstance(v, VNum) and v.n % 2 == 0


def _pred_odd(v: Value) -> bool:
    return isinstance(v, VNum) and v.n % 2 != 0


def _pred_positive(v: Value) -> bool:
    return isinstance(v, VNum) and v.n > 0


def _pred_flat_contract(v: Value) -> bool:
    """Usable directly as a predicate: primitive functions and lambdas."""
    return isinstance(v, (VPrim, VClo))


def _pred_dep_contract(v: Value) -> bool:
    return isinstance(v, VGrd)


# Internal predicates, each the negation of a base one, that only the
# reduction rules test (branching, applying a non-procedure); source text
# cannot name them.
_NEGATIONS = {"nonzero?": "zero?", "nonproc?": "proc?"}

_PRED_FNS: dict[str, Callable[[Value], bool]] = {
    "int?": _pred_int,
    "proc?": _pred_proc,
    "zero?": _pred_zero,
    "even?": _pred_even,
    "odd?": _pred_odd,
    "positive?": _pred_positive,
    "flat-contract?": _pred_flat_contract,
    "dep-contract?": _pred_dep_contract,
}
_PRED_FNS.update({neg: (lambda v, fn=_PRED_FNS[base]: not fn(v)) for neg, base in _NEGATIONS.items()})


def concrete_refinements(v: Value) -> frozenset:
    """The base-vocabulary predicates a concrete value satisfies."""
    return frozenset(p for p in BASE_VOCAB if _PRED_FNS[p](v))


def satisfies(v: Value, p) -> bool:
    """Definite satisfaction of a refinement predicate (a vocabulary name or
    an opaque contract token).

    For unknowns this means implied by the carried refinements, so a False
    answer only means "not known to hold".
    """
    if isinstance(v, VOpq):
        if p in v.refinements:
            return True
        if isinstance(p, str):
            return refinement_implies(_base_refs(v), p)
        return False
    if isinstance(p, str):
        fn = _PRED_FNS.get(p)
        return fn(v) if fn is not None else False
    return False


def _base_refs(v: Value) -> frozenset:
    """Refinement view of any operand: concrete values contribute their full
    base predicate set, unknowns their carried base predicates."""
    if isinstance(v, VOpq):
        return frozenset(q for q in v.refinements if isinstance(q, str))
    return concrete_refinements(v)


# --------------------------------------------------------------------------
# Refinement transfer for arithmetic
# --------------------------------------------------------------------------


def _transfer_add1(r: frozenset) -> frozenset:
    out = {"int?"}
    if "int?" in r or refinement_implies(r, "int?"):
        if refinement_implies(r, "even?"):
            out.add("odd?")
        if refinement_implies(r, "odd?"):
            out.add("even?")
        if refinement_implies(r, "positive?") or refinement_implies(r, "zero?"):
            out.add("positive?")
    return frozenset(out)


def _transfer_sub1(r: frozenset) -> frozenset:
    out = {"int?"}
    if refinement_implies(r, "int?"):
        if refinement_implies(r, "even?"):
            out.add("odd?")
        if refinement_implies(r, "odd?"):
            out.add("even?")
    return frozenset(out)


def _parity_add(a: frozenset, b: frozenset) -> set:
    out: set = set()
    ae, ao = refinement_implies(a, "even?"), refinement_implies(a, "odd?")
    be, bo = refinement_implies(b, "even?"), refinement_implies(b, "odd?")
    if (ae and be) or (ao and bo):
        out.add("even?")
    if (ae and bo) or (ao and be):
        out.add("odd?")
    return out


def _transfer_add(a: frozenset, b: frozenset) -> frozenset:
    out = {"int?"}
    if refinement_implies(a, "int?") and refinement_implies(b, "int?"):
        out |= _parity_add(a, b)
        ap, bp = refinement_implies(a, "positive?"), refinement_implies(b, "positive?")
        az, bz = refinement_implies(a, "zero?"), refinement_implies(b, "zero?")
        if (ap and (bp or bz)) or (az and bp):
            out.add("positive?")
        if az and bz:
            out |= {"zero?", "even?"}
    return frozenset(out)


def _transfer_sub(a: frozenset, b: frozenset) -> frozenset:
    out = {"int?"}
    if refinement_implies(a, "int?") and refinement_implies(b, "int?"):
        out |= _parity_add(a, b)
        if refinement_implies(a, "positive?") and refinement_implies(b, "zero?"):
            out.add("positive?")
        if refinement_implies(a, "zero?") and refinement_implies(b, "zero?"):
            out |= {"zero?", "even?"}
    return frozenset(out)


def _transfer_mul(a: frozenset, b: frozenset) -> frozenset:
    out = {"int?"}
    if refinement_implies(a, "int?") and refinement_implies(b, "int?"):
        if refinement_implies(a, "even?") or refinement_implies(b, "even?"):
            out.add("even?")
        if refinement_implies(a, "odd?") and refinement_implies(b, "odd?"):
            out.add("odd?")
        if refinement_implies(a, "positive?") and refinement_implies(b, "positive?"):
            out.add("positive?")
        if refinement_implies(a, "zero?") or refinement_implies(b, "zero?"):
            out |= {"zero?", "even?"}
    return frozenset(out)


def _transfer_div(a: frozenset, b: frozenset) -> frozenset:
    # Truncation loses parity and sign information.
    return frozenset({"int?"})


# --------------------------------------------------------------------------
# The primitive table
# --------------------------------------------------------------------------


class PrimSpec(Record):
    """One primitive: its arity, its `kind` ("predicate", "arith" or
    "compare"), its concrete meaning (`concrete1` or `concrete2`, by
    arity), its unknown-operand behavior (`transfer1` or `transfer2`, from
    refinement sets to refinement sets), and the contract its guarded
    binding carries (None when total)."""

    __slots__ = ("name", "arity", "kind", "concrete1", "concrete2", "transfer1", "transfer2", "guard_contract")
    _defaults = (None, None, None, None, None)


def _bool(b: bool) -> Value:
    return ONE if b else ZERO


def _arith2(fn: Callable[[int, int], int]) -> Callable[[Value, Value], Value]:
    def run(a: Value, b: Value) -> Value:
        if isinstance(a, VNum) and isinstance(b, VNum):
            return VNum(fn(a.n, b.n))
        return ZERO

    return run


def _cmp2(fn: Callable[[int, int], bool]) -> Callable[[Value, Value], Value]:
    def run(a: Value, b: Value) -> Value:
        if isinstance(a, VNum) and isinstance(b, VNum):
            return _bool(fn(a.n, b.n))
        return ZERO

    return run


_INT = Prim("int?")


def _guard1() -> Expr:
    return DepCon(_INT, "_a", _INT)


def _guard2(second_dom: Expr) -> Expr:
    return DepCon(_INT, "_a", DepCon(second_dom, "_b", _INT))


def _make_table() -> dict[str, PrimSpec]:
    table: dict[str, PrimSpec] = {}

    def pred(name: str) -> None:
        fn = _PRED_FNS[name]
        table[name] = PrimSpec(name, 1, "predicate", concrete1=lambda v, fn=fn: _bool(fn(v)))

    for name in ("int?", "proc?", "zero?", "even?", "odd?", "positive?",
                 "flat-contract?", "dep-contract?", "nonzero?", "nonproc?"):
        pred(name)

    table["add1"] = PrimSpec(
        "add1", 1, "arith",
        concrete1=lambda v: VNum(v.n + 1) if isinstance(v, VNum) else ZERO,
        transfer1=_transfer_add1,
        guard_contract=_guard1(),
    )
    table["sub1"] = PrimSpec(
        "sub1", 1, "arith",
        concrete1=lambda v: VNum(v.n - 1) if isinstance(v, VNum) else ZERO,
        transfer1=_transfer_sub1,
        guard_contract=_guard1(),
    )
    table["+"] = PrimSpec("+", 2, "arith", concrete2=_arith2(lambda a, b: a + b),
                          transfer2=_transfer_add, guard_contract=_guard2(_INT))
    table["-"] = PrimSpec("-", 2, "arith", concrete2=_arith2(lambda a, b: a - b),
                          transfer2=_transfer_sub, guard_contract=_guard2(_INT))
    table["*"] = PrimSpec("*", 2, "arith", concrete2=_arith2(lambda a, b: a * b),
                          transfer2=_transfer_mul, guard_contract=_guard2(_INT))
    table["/"] = PrimSpec("/", 2, "arith", concrete2=_arith2(trunc_div),
                          transfer2=_transfer_div,
                          guard_contract=_guard2(Prim("nonzero?")))
    table["="] = PrimSpec("=", 2, "compare", concrete2=_cmp2(lambda a, b: a == b),
                          guard_contract=_guard2(_INT))
    table["<"] = PrimSpec("<", 2, "compare", concrete2=_cmp2(lambda a, b: a < b),
                          guard_contract=_guard2(_INT))
    table["<="] = PrimSpec("<=", 2, "compare", concrete2=_cmp2(lambda a, b: a <= b),
                           guard_contract=_guard2(_INT))
    return table


PRIM_TABLE = _make_table()

# Names accepted in surface text for the same operation.
SURFACE_ALIASES = {"≤": "<=", "−": "-"}


def surface_prims() -> frozenset:
    return frozenset(name for name in PRIM_TABLE if name not in _NEGATIONS)


def surface_spec(name: str) -> Optional[PrimSpec]:
    """The primitive a free name in source text denotes, through its
    aliases; None for a name that denotes none, internal predicates
    included."""
    name = SURFACE_ALIASES.get(name, name)
    return None if name in _NEGATIONS else PRIM_TABLE.get(name)


def standard_env() -> dict[str, Optional[Expr]]:
    """Guard contracts for every surface primitive, None when the unsafe and
    safe versions coincide (total predicates)."""
    return {name: PRIM_TABLE[name].guard_contract for name in surface_prims()}


# --------------------------------------------------------------------------
# The delta relation
# --------------------------------------------------------------------------


def delta(op_value: VPrim, arg: Value) -> frozenset:
    """Possible results of applying a primitive (or partial application) to
    one argument.  Total on all values; a set with more than one element
    only ever arises from unknown operands."""
    spec = PRIM_TABLE[op_value.op]
    if spec.arity == 2 and op_value.arg0 is None:
        return frozenset({VPrim(op_value.op, arg)})

    if spec.arity == 1:
        if isinstance(arg, VOpq):
            if spec.kind == "predicate":
                if spec.name in BASE_VOCAB:
                    return pred_on_refinements(spec.name, _base_refs(arg))
                if spec.name in _NEGATIONS:
                    res = pred_on_refinements(_NEGATIONS[spec.name], _base_refs(arg))
                    return frozenset({ONE if v == ZERO else ZERO for v in res})
                # flat-contract? / dep-contract? on unknowns: undetermined
                return frozenset({ZERO, ONE})
            assert spec.transfer1 is not None
            return frozenset({VOpq(spec.transfer1(_base_refs(arg)))})
        assert spec.concrete1 is not None
        return frozenset({spec.concrete1(arg)})

    # second application of a curried two-argument primitive
    first = op_value.arg0
    assert first is not None
    if isinstance(first, VOpq) or isinstance(arg, VOpq):
        ra, rb = _base_refs(first), _base_refs(arg)
        if spec.kind == "compare":
            if refinement_excludes(ra, "int?") or refinement_excludes(rb, "int?"):
                return frozenset({ZERO})
            return frozenset({ZERO, ONE})
        assert spec.transfer2 is not None
        return frozenset({VOpq(spec.transfer2(ra, rb))})
    assert spec.concrete2 is not None
    return frozenset({spec.concrete2(first, arg)})
