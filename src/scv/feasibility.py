"""Path-condition feasibility: translation to first-order formulas and the
solver-backed `feasible` relation.

Source values embed into a single solver sort V with five constructors,
each carrying one integer: integers keep their value, all other kinds of
value get an identity-only payload.  A path condition translates to the
assertion that each of its members is not `Int 0`; an unsatisfiable
translation proves the execution path infeasible.  Solver answers of
`unknown` (or no solver at all) count as feasible, the sound direction.

Every check is the same SMT-LIB v2 text, framed by push/pop.  `builtin`
feeds it to the bundled fragment solver in this process; any other solver
is an external process spoken to over stdin/stdout.  Verdicts are cached
per canonical formula for the life of the client.
"""

from __future__ import annotations

import atexit
import select
import shutil
import subprocess
from typing import Optional

from .config import SolverNotFound
from .machine import PostValue, VOpq, VPrim
from .minismt import MiniSolver, parse_sexprs, tokenize
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

_IS_INT = "(_ is IntV)"
_PROC_TEST = "(or ((_ is OpV) {t}) ((_ is LamV) {t}) ((_ is ArrV) {t}))"


class Formula(Record):
    """Declarations plus assertions (tuples of strings), ready to print as
    SMT-LIB."""

    __slots__ = ("declarations", "assertions")

    def key(self) -> tuple:
        return (self.declarations, tuple(sorted(self.assertions)))

    def lines(self) -> list[str]:
        return [f"(declare-const {d} V)" for d in self.declarations] + [
            f"(assert {a})" for a in self.assertions
        ]


class _Translation:
    """One translation context: interned ids for operator and lambda
    literals, per-subterm memo, and fresh existential constants."""

    def __init__(self) -> None:
        self.consts: list[str] = []
        self._seen: set[str] = set()
        self.memo: dict[Expr, str] = {}
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


def _int_term(n: int) -> str:
    return f"(IntV {n})" if n >= 0 else f"(IntV (- {-n}))"


def _bool_term(cond: str) -> str:
    return f"(ite {cond} (IntV 1) (IntV 0))"


_ARITH = {"+": "+", "-": "-", "*": "*"}
_CMP = {"=": "=", "<": "<", "<=": "<="}


def translate_expr(e: Expr, ctx: Optional[_Translation] = None) -> tuple[str, _Translation]:
    """Translate one symbolic-name expression into a term of sort V."""
    ctx = ctx or _Translation()

    def go(e: Expr) -> str:
        hit = ctx.memo.get(e)
        if hit is not None:
            return hit
        term = build(e)
        ctx.memo[e] = term
        return term

    def build(e: Expr) -> str:
        if isinstance(e, Num):
            return _int_term(e.n)
        if isinstance(e, Prim):
            return f"(OpV {ctx.op_id(e.op)})"
        if isinstance(e, Lam):
            return f"(LamV {ctx.lam_id(e)})"
        if isinstance(e, Ref):
            return ctx.declare(f"v!{e.x}")
        if isinstance(e, App):
            return build_app(e)
        # holes, monitors, contracts: existentialize
        return ctx.fresh()

    def build_app(e: App) -> str:
        fn, arg = e.fn, e.arg
        # unary primitive application
        if isinstance(fn, Prim):
            spec = PRIM_TABLE.get(fn.op)
            if spec is not None and spec.arity == 1:
                return unary(fn.op, go(arg))
            return ctx.fresh()
        # curried binary primitive application
        if isinstance(fn, App) and isinstance(fn.fn, Prim):
            spec = PRIM_TABLE.get(fn.fn.op)
            if spec is not None and spec.arity == 2:
                return binary(fn.fn.op, go(fn.arg), go(arg))
        return ctx.fresh()

    def unary(op: str, t: str) -> str:
        if op == "int?":
            return _bool_term(f"({_IS_INT} {t})")
        if op == "proc?":
            return _bool_term(_PROC_TEST.format(t=t))
        if op == "nonproc?":
            return _bool_term(f"(not {_PROC_TEST.format(t=t)})")
        if op == "zero?":
            return _bool_term(f"(= {t} (IntV 0))")
        if op == "nonzero?":
            return _bool_term(f"(not (= {t} (IntV 0)))")
        if op == "even?":
            return _bool_term(f"(and ({_IS_INT} {t}) (= (mod (iv {t}) 2) 0))")
        if op == "odd?":
            return _bool_term(f"(and ({_IS_INT} {t}) (= (mod (iv {t}) 2) 1))")
        if op == "positive?":
            return _bool_term(f"(and ({_IS_INT} {t}) (> (iv {t}) 0))")
        if op == "flat-contract?":
            return _bool_term(f"(or ((_ is OpV) {t}) ((_ is LamV) {t}))")
        if op == "dep-contract?":
            return _bool_term(f"((_ is GrdV) {t})")
        if op == "add1":
            return f"(ite ({_IS_INT} {t}) (IntV (+ (iv {t}) 1)) (IntV 0))"
        if op == "sub1":
            return f"(ite ({_IS_INT} {t}) (IntV (- (iv {t}) 1)) (IntV 0))"
        return ctx.fresh()

    def binary(op: str, a: str, b: str) -> str:
        both_int = f"(and ({_IS_INT} {a}) ({_IS_INT} {b}))"
        if op in _ARITH:
            return f"(ite {both_int} (IntV ({_ARITH[op]} (iv {a}) (iv {b}))) (IntV 0))"
        if op in _CMP:
            return _bool_term(f"(and {both_int} ({_CMP[op]} (iv {a}) (iv {b})))")
        # division and anything else: existentialize the result
        return ctx.fresh()

    return go(e), ctx


def translate_pc(pc: frozenset) -> Formula:
    """Assert that every path-condition member is not `Int 0`."""
    ctx = _Translation()
    assertions = []
    for e in sorted(pc, key=print_expr):
        term, _ = translate_expr(e, ctx)
        assertions.append(f"(not (= {term} (IntV 0)))")
    return Formula(tuple(ctx.consts), tuple(assertions))


# --------------------------------------------------------------------------
# Solver client
# --------------------------------------------------------------------------


def _solver_argv(path: str) -> list[str]:
    base = path.rsplit("/", 1)[-1]
    if base.startswith("z3"):
        return [path, "-in", "-smt2"]
    if base.startswith("cvc"):
        return [path, "--lang", "smt2", "--incremental"]
    return [path]


class SolverClient:
    """One solver per run, queried with SMT-LIB text with push/pop around
    every check.  `builtin` is the bundled `MiniSolver`, run in this
    process; any other path names an external solver binary, run as one
    child process.  Failures degrade to `unknown` verdicts, and `failures`
    counts the checks answered that way."""

    def __init__(self, path: str, timeout: float = 10.0):
        self.path = path
        self.timeout = timeout
        self.cache: dict[tuple, str] = {}
        self.queries = 0
        self.failures = 0
        self.proc: Optional[subprocess.Popen] = None
        self._dead = False
        self._mini: Optional[MiniSolver] = None
        if path == "builtin":
            self._mini = MiniSolver()
            self._mini.execute(parse_sexprs(tokenize(DATATYPE_DECL))[0])
            return
        self._start()
        if self.proc is not None:
            atexit.register(self.close)

    def _start(self) -> None:
        try:
            self.proc = subprocess.Popen(
                _solver_argv(self.path),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
            self._send("(set-logic ALL)")
            self._send(DATATYPE_DECL)
        except OSError:
            self.proc = None
            self._dead = True

    def _send(self, line: str) -> None:
        assert self.proc is not None and self.proc.stdin is not None
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def _read_verdict(self) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], self.timeout)
        if not ready:  # timed out
            return self._mark_dead()
        line = self.proc.stdout.readline().strip()
        if not line:  # closed its output
            return self._mark_dead()
        return line if line in (SAT, UNSAT, UNKNOWN) else UNKNOWN

    def _mark_dead(self) -> str:
        """Stop using the external solver and count the check it failed."""
        self._dead = True
        self.failures += 1
        return UNKNOWN

    def check(self, formula: Formula) -> str:
        key = formula.key()
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        verdict = self._check_uncached(formula)
        self.cache[key] = verdict
        return verdict

    def _check_uncached(self, formula: Formula) -> str:
        if self._mini is not None:
            self.queries += 1
            return self._decide(formula)
        if self._dead or self.proc is None or self.proc.poll() is not None:
            return self._mark_dead()
        self.queries += 1
        try:
            self._send("(push 1)")
            for line in formula.lines():
                self._send(line)
            self._send("(check-sat)")
            verdict = self._read_verdict()
            if not self._dead:
                self._send("(pop 1)")
            return verdict
        except (OSError, BrokenPipeError):
            return self._mark_dead()

    def _decide(self, formula: Formula) -> str:
        """The bundled solver's verdict on the text an external solver
        would read.  Only declarations and assertions are run, so the query
        cannot disturb the base frame; any failure is counted and answers
        `unknown`, and the check's frame is always popped."""
        solver = self._mini
        solver.execute(["push", "1"])
        try:
            for form in parse_sexprs(tokenize("\n".join(formula.lines()))):
                if not (isinstance(form, list) and form and form[0] in ("declare-const", "assert")):
                    self.failures += 1
                    return UNKNOWN
                solver.execute(form)
            return solver.check_sat()
        except Exception:
            self.failures += 1
            return UNKNOWN
        finally:
            solver.execute(["pop", "1"])

    def close(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            try:
                self._send("(exit)")
            except (OSError, BrokenPipeError, AssertionError):
                pass
            try:
                self.proc.terminate()
            except OSError:
                pass
        self.proc = None
        atexit.unregister(self.close)


def open_solver(name_or_path: Optional[str]) -> Optional[SolverClient]:
    """Resolve a solver name to a running client; None means no solver.
    Raises `SolverNotFound` for a name that names no solver."""
    if name_or_path is None:
        return None
    if name_or_path != "builtin" and shutil.which(name_or_path) is None:
        raise SolverNotFound(name_or_path)
    return SolverClient(name_or_path)


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
