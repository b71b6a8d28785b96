"""Path-condition feasibility: translation to first-order formulas and the
solver-backed `feasible` relation.

Source values embed into a single solver sort V with five constructors,
each carrying one integer: integers keep their value, all other kinds of
value get an identity-only payload.  A path condition translates to the
assertion that each of its members is not `Int 0`; an unsatisfiable
translation proves the execution path infeasible.  Solver answers of
`unknown` (or no solver at all) count as feasible, the sound direction.

A formula is built as s-expression terms (nested tuples of string atoms),
and the client hands those terms to the bundled fragment solver
(`minismt`) in this process, with no text in between.  Verdicts are cached
per canonical formula for the life of the client.  `Formula.lines()`
prints a formula as SMT-LIB v2; only the benchmark's trace replay
(perfbench) and the tests read that text.
"""

from __future__ import annotations

from typing import Optional

from .machine import PostValue, VOpq, VPrim
from .minismt import MiniSolver, parse_sexprs, print_sexpr, tokenize
from .primitives import ONE, PRIM_TABLE, delta
from .record import Record
from .syntax import SYM_LABEL, App, Expr, Lam, Num, Prim, Ref, expr_depth, free_vars, print_expr

__all__ = [
    "Formula",
    "translate_pc",
    "translate_expr",
    "SolverClient",
    "open_solver",
    "feasible",
    "encode_pred",
    "SAT",
    "UNSAT",
    "UNKNOWN",
]

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

DATATYPE_DECL = (
    "(declare-datatypes ((V 0)) (((IntV (iv Int)) (OpV (ov Int)) "
    "(LamV (lv Int)) (ArrV (av Int)) (GrdV (gv Int)))))"
)

# Terms are s-expressions: a string atom or a tuple of terms.
_ZERO = ("IntV", "0")
_ONE = ("IntV", "1")


def _is(ctor: str, t) -> tuple:
    return (("_", "is", ctor), t)


class Formula(Record):
    """Declarations (constant names) plus assertions (terms).  `lines()`
    prints them as SMT-LIB for the benchmark's trace replay and the tests;
    the solver reads the terms."""

    __slots__ = ("declarations", "assertions")

    def key(self) -> tuple:
        # Equal assertion multisets sort alike; two distinct assertions with
        # one hash may not, which costs a cache miss and never a wrong hit.
        return (self.declarations, tuple(sorted(self.assertions, key=hash)))

    def lines(self) -> list[str]:
        return [f"(declare-const {d} V)" for d in self.declarations] + [
            f"(assert {print_sexpr(a)})" for a in self.assertions
        ]


class _Translation:
    """One translation context: interned ids for operator and lambda
    literals, per-subterm memo, and fresh existential constants."""

    def __init__(self) -> None:
        self.consts: list[str] = []
        self._seen: set[str] = set()
        self.memo: dict[Expr, object] = {}
        self.op_ids: dict[str, int] = {}
        self.lam_ids: dict[Expr, int] = {}
        self.fresh_n = 0

    def declare(self, name: str) -> str:
        if name not in self._seen:
            self._seen.add(name)
            self.consts.append(name)
        return name

    def fresh(self) -> str:
        self.fresh_n += 1
        return self.declare(f"some{self.fresh_n}")

    def op_id(self, op: str) -> int:
        return self.op_ids.setdefault(op, len(self.op_ids) + 1)

    def lam_id(self, lam: Expr) -> int:
        return self.lam_ids.setdefault(lam, len(self.lam_ids) + 1)


def _int_term(n: int) -> tuple:
    return ("IntV", str(n)) if n >= 0 else ("IntV", ("-", str(-n)))


def _bool_term(cond) -> tuple:
    return ("ite", cond, _ONE, _ZERO)


def _proc_test(t) -> tuple:
    return ("or", _is("OpV", t), _is("LamV", t), _is("ArrV", t))


def _parity(t, r: str) -> tuple:
    return _bool_term(("and", _is("IntV", t), ("=", ("mod", ("iv", t), "2"), r)))


def _step(op: str, t) -> tuple:
    return ("ite", _is("IntV", t), ("IntV", (op, ("iv", t), "1")), _ZERO)


_UNARY = {
    "int?": lambda t: _bool_term(_is("IntV", t)),
    "proc?": lambda t: _bool_term(_proc_test(t)),
    "nonproc?": lambda t: _bool_term(("not", _proc_test(t))),
    "zero?": lambda t: _bool_term(("=", t, _ZERO)),
    "nonzero?": lambda t: _bool_term(("not", ("=", t, _ZERO))),
    "even?": lambda t: _parity(t, "0"),
    "odd?": lambda t: _parity(t, "1"),
    "positive?": lambda t: _bool_term(("and", _is("IntV", t), (">", ("iv", t), "0"))),
    "flat-contract?": lambda t: _bool_term(("or", _is("OpV", t), _is("LamV", t))),
    "dep-contract?": lambda t: _bool_term(_is("GrdV", t)),
    "add1": lambda t: _step("+", t),
    "sub1": lambda t: _step("-", t),
}
_ARITH = ("+", "-", "*")
_CMP = ("=", "<", "<=")


def translate_expr(e: Expr, ctx: Optional[_Translation] = None) -> tuple[object, _Translation]:
    """Translate one symbolic-name expression into a term of sort V."""
    ctx = ctx or _Translation()

    def go(e: Expr):
        hit = ctx.memo.get(e)
        if hit is not None:
            return hit
        term = build(e)
        ctx.memo[e] = term
        return term

    def build(e: Expr):
        if isinstance(e, Num):
            return _int_term(e.n)
        if isinstance(e, Prim):
            return ("OpV", str(ctx.op_id(e.op)))
        if isinstance(e, Lam):
            return ("LamV", str(ctx.lam_id(e)))
        if isinstance(e, Ref):
            return ctx.declare(f"v!{e.x}")
        if isinstance(e, App):
            return build_app(e)
        # holes, monitors, contracts: existentialize
        return ctx.fresh()

    def build_app(e: App):
        fn, arg = e.fn, e.arg
        # unary primitive application
        if isinstance(fn, Prim):
            spec = PRIM_TABLE.get(fn.op)
            if spec is not None and spec.arity == 1:
                t = go(arg)
                unary = _UNARY.get(fn.op)
                return unary(t) if unary is not None else ctx.fresh()
            return ctx.fresh()
        # curried binary primitive application
        if isinstance(fn, App) and isinstance(fn.fn, Prim):
            spec = PRIM_TABLE.get(fn.fn.op)
            if spec is not None and spec.arity == 2:
                return binary(fn.fn.op, go(fn.arg), go(arg))
        return ctx.fresh()

    def binary(op: str, a, b):
        both_int = ("and", _is("IntV", a), _is("IntV", b))
        if op in _ARITH:
            return ("ite", both_int, ("IntV", (op, ("iv", a), ("iv", b))), _ZERO)
        if op in _CMP:
            return _bool_term(("and", both_int, (op, ("iv", a), ("iv", b))))
        # division and anything else: existentialize the result
        return ctx.fresh()

    return go(e), ctx


def translate_pc(pc: frozenset) -> Formula:
    """Assert that every path-condition member is not `Int 0`."""
    ctx = _Translation()
    assertions = []
    for e in sorted(pc, key=print_expr):
        term, _ = translate_expr(e, ctx)
        assertions.append(("not", ("=", term, _ZERO)))
    return Formula(tuple(ctx.consts), tuple(assertions))


# --------------------------------------------------------------------------
# Solver client
# --------------------------------------------------------------------------


class SolverClient:
    """One bundled `MiniSolver` per run, in this process, with a frame of
    its own around every check and verdicts cached per canonical formula.
    A check that fails inside the solver answers `unknown`, and `failures`
    counts the checks answered that way."""

    # no solver process: kept for perfbench's tracer, which reads it
    proc = None

    def __init__(self) -> None:
        self.cache: dict[tuple, str] = {}
        self.queries = 0
        self.failures = 0
        self._mini = MiniSolver()
        self._mini.execute(parse_sexprs(tokenize(DATATYPE_DECL))[0])

    def check(self, formula: Formula) -> str:
        key = formula.key()
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        self.queries += 1
        verdict = self._decide(formula)
        self.cache[key] = verdict
        return verdict

    def _decide(self, formula: Formula) -> str:
        """The bundled solver's verdict on the formula's terms.  Each check
        runs one declaration per constant and one assertion per term in a
        frame of its own, so a query cannot run any other command or
        disturb the base frame; any failure is counted and answers
        `unknown`, and the frame is always popped."""
        solver = self._mini
        solver.execute(("push", "1"))
        try:
            for d in formula.declarations:
                solver.execute(("declare-const", d, "V"))
            for a in formula.assertions:
                solver.execute(("assert", a))
            return solver.check_sat()
        except Exception:
            self.failures += 1
            return UNKNOWN
        finally:
            solver.execute(("pop", "1"))

    def close(self) -> None:
        """Nothing to release; kept so that every caller ends a run the
        same way."""


def open_solver(name: Optional[str]) -> Optional[SolverClient]:
    """A new client of the bundled solver for `builtin`; None means no
    solver.  Any other name is a `ValueError`."""
    if name is None:
        return None
    if name != "builtin":
        raise ValueError(f"unknown solver {name!r}: only 'builtin' is bundled")
    return SolverClient()


# --------------------------------------------------------------------------
# The feasible relation
# --------------------------------------------------------------------------

def encode_pred(pred: str, sym: Expr) -> Expr:
    """Path-condition entry recording that `pred` held of the value named by
    `sym`: a bare sym means non-false, otherwise apply the predicate."""
    if pred == "nonzero?":
        return sym
    return App(Prim(pred), sym, SYM_LABEL)


def feasible(
    pc: frozenset,
    pred: str,
    w: PostValue,
    solver: Optional[SolverClient],
    max_sym_depth: int = 4,
) -> Optional[frozenset]:
    """Can `w` satisfy `pred` on this path?  Returns the strengthened path
    condition when plausible, None when refuted.

    The value itself is decided by delta (concrete values exactly, unknowns
    through their refinements).  When that does not already refute it and
    the value has a symbolic name, the recorded branch fact is checked for
    consistency with the path condition; an unsatisfiable conjunction kills
    the branch.  Solver answers of `unknown`, or no solver, count as
    feasible.
    """
    v = w.value
    outcomes = delta(VPrim(pred), v)
    if ONE not in outcomes:
        return None
    if w.sym is None:
        return pc
    entry = encode_pred(pred, w.sym)
    if expr_depth(entry) > max_sym_depth + 1:
        return pc
    pc2 = pc | {entry}
    refinement_decided = isinstance(v, VOpq) and outcomes == frozenset({ONE})
    if entry not in pc and solver is not None and not refinement_decided:
        if solver.check(translate_pc(pc2)) == UNSAT:
            return None
    # A fact with no variable references is fully decided by the check just
    # performed; recording it would not constrain anything later.
    if not free_vars(entry):
        return pc
    return pc2
