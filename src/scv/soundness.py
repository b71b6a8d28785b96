"""Executable soundness harness.

The verifier's guarantee is blame soundness: if any instantiation of a
program's holes can make a transparent label blamed, the symbolic run of
the holed program reports that blame.  This module makes the guarantee
testable: it defines the approximation order between an instantiated
program and its holed original, generates random hole instantiations
(literal base values, primitives, or syntactically closed lambdas whose
applications carry the unknown-context label), runs them concretely, and
checks every transparent concrete blame against the symbolic blame set.

The per-step preservation lemma behind the theorem is exercised
indirectly through these end-to-end runs; the approximation order is
checked directly only on expressions, by `approx_expr`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .abstraction import run_concrete, run_fixpoint
from .config import Config
from .primitives import surface_prims
from .syntax import (
    App,
    DepCon,
    Definition,
    Expr,
    If,
    Lam,
    Mon,
    Num,
    OPAQUE_LABEL,
    Opq,
    Prim,
    Ref,
    Set,
    SurfaceProgram,
    alpha_rename,
    desugar,
)

__all__ = [
    "is_oexpr",
    "approx_expr",
    "instantiate_expr",
    "instantiate_program",
    "generate_hole_program",
    "differential_check",
    "DifferentialReport",
]


# --------------------------------------------------------------------------
# The instantiation grammar and expression approximation
# --------------------------------------------------------------------------


def is_oexpr(e: Expr, scope: frozenset) -> bool:
    """Instantiation-grammar membership: no holes, monitors, or contracts;
    every application labeled with the unknown-context party; variables
    drawn from the given scope only."""
    if isinstance(e, (Num, Prim)):
        return True
    if isinstance(e, Ref):
        return e.x in scope
    if isinstance(e, Lam):
        return is_oexpr(e.body, scope | {e.x})
    if isinstance(e, App):
        return e.label == OPAQUE_LABEL and is_oexpr(e.fn, scope) and is_oexpr(e.arg, scope)
    if isinstance(e, If):
        return all(is_oexpr(x, scope) for x in (e.cond, e.then, e.orelse))
    if isinstance(e, Set):
        return e.x in scope and is_oexpr(e.expr, scope)
    return False


def approx_expr(a: Expr, b: Expr) -> bool:
    """Does `b` approximate `a`?  Structural congruence, except a hole on
    the right covers literal base values and syntactically closed lambdas
    built from the instantiation grammar."""
    if isinstance(b, Opq):
        if isinstance(a, (Num, Prim, Opq)):
            return True
        if isinstance(a, Lam):
            return is_oexpr(a.body, frozenset({a.x}))
        return False
    # same kind, same names and labels
    if type(a) is not type(b) or a.rebuild(b.children()) != b:
        return False
    if isinstance(a, App) and a.label == OPAQUE_LABEL:
        return False
    if isinstance(a, Mon) and OPAQUE_LABEL in (a.pos_label, a.neg_label):
        return False
    return all(approx_expr(x, y) for x, y in zip(a.children(), b.children()))


# --------------------------------------------------------------------------
# Hole instantiation
# --------------------------------------------------------------------------

_GEN_PRIMS = tuple(sorted(surface_prims()))


def _gen_oexpr(rng: random.Random, scope: tuple, budget: int) -> Expr:
    """Random instantiation-grammar expression over the given scope."""
    if budget <= 1 or rng.random() < 0.35:
        kind = rng.random()
        if kind < 0.45:
            return Num(rng.randint(-3, 3))
        if kind < 0.6 and scope:
            return Ref(rng.choice(scope))
        if kind < 0.75:
            return Prim(rng.choice(_GEN_PRIMS))
        return Num(rng.randint(-3, 3))
    roll = rng.random()
    if roll < 0.4:
        fn = _gen_oexpr(rng, scope, budget // 2)
        arg = _gen_oexpr(rng, scope, budget // 2)
        return App(fn, arg, OPAQUE_LABEL)
    if roll < 0.6:
        return If(
            _gen_oexpr(rng, scope, budget // 3),
            _gen_oexpr(rng, scope, budget // 3),
            _gen_oexpr(rng, scope, budget // 3),
        )
    if roll < 0.75 and scope:
        return Set(rng.choice(scope), _gen_oexpr(rng, scope, budget - 1))
    x = f"h{rng.randint(0, 999)}"
    return Lam(x, _gen_oexpr(rng, scope + (x,), budget - 1))


def _gen_instantiation(rng: random.Random, budget: int) -> Expr:
    roll = rng.random()
    if roll < 0.4:
        return Num(rng.randint(-3, 3))
    if roll < 0.55:
        return Prim(rng.choice(_GEN_PRIMS))
    x = f"h{rng.randint(0, 999)}"
    return Lam(x, _gen_oexpr(rng, (x,), budget))


def instantiate_expr(e: Expr, rng: random.Random, budget: int = 12) -> Expr:
    """Replace every hole with a generated closed value."""
    if isinstance(e, Opq):
        return _gen_instantiation(rng, budget)
    return e.rebuild([instantiate_expr(c, rng, budget) for c in e.children()])


def instantiate_program(program: SurfaceProgram, rng: random.Random, budget: int = 12) -> SurfaceProgram:
    defs = tuple(
        Definition(
            d.name,
            instantiate_expr(d.expr, rng, budget),
            None if d.contract is None else instantiate_expr(d.contract, rng, budget),
            d.pos,
        )
        for d in program.definitions
    )
    return SurfaceProgram(defs, instantiate_expr(program.main, rng, budget))


# --------------------------------------------------------------------------
# Random programs with holes
# --------------------------------------------------------------------------

_FLAT_CONTRACTS = ("int?", "even?", "odd?", "positive?", "proc?")


def _gen_expr(rng: random.Random, scope: tuple, budget: int, holes: bool) -> Expr:
    """Random surface-level expression; primitive references resolve to
    their guarded versions during desugaring."""
    if budget <= 1 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.35:
            return Num(rng.randint(-3, 3))
        if roll < 0.6 and scope:
            return Ref(rng.choice(scope))
        if roll < 0.75:
            return Ref(rng.choice(("add1", "sub1", "+", "-", "*", "/", "<", "<=", "=", "int?", "zero?", "even?", "positive?", "proc?")))
        if holes and roll < 0.9:
            return Opq()
        return Num(rng.randint(-3, 3))
    roll = rng.random()
    if roll < 0.45:
        return App(
            _gen_expr(rng, scope, budget // 2, holes),
            _gen_expr(rng, scope, budget // 2, holes),
            _fresh_site(rng),
        )
    if roll < 0.65:
        return If(
            _gen_expr(rng, scope, budget // 3, holes),
            _gen_expr(rng, scope, budget // 3, holes),
            _gen_expr(rng, scope, budget // 3, holes),
        )
    if roll < 0.75 and scope:
        return Set(rng.choice(scope), _gen_expr(rng, scope, budget - 1, holes))
    if roll < 0.83:
        x = f"v{rng.randint(0, 99)}"
        body = _gen_expr(rng, scope + (x,), budget - 2, holes)
        rhs = _gen_expr(rng, scope, budget // 2, holes)
        return App(Lam(x, body), rhs, _fresh_site(rng))
    if roll < 0.9:
        from .syntax import Label

        pos = Label(f"p{rng.randint(0, 9)}", "transparent")
        neg = Label(f"q{rng.randint(0, 9)}", "transparent")
        return Mon(pos, neg, _gen_contract(rng), _gen_expr(rng, scope, budget - 2, holes))
    x = f"v{rng.randint(0, 99)}"
    return Lam(x, _gen_expr(rng, scope + (x,), budget - 1, holes))


_site_counter = [0]


def _fresh_site(rng: random.Random):
    from .syntax import Label, Position

    _site_counter[0] += 1
    n = _site_counter[0]
    return Label(f"gen@{n}", "transparent", Position(900 + n // 80, n % 80))


def _gen_contract(rng: random.Random) -> Expr:
    if rng.random() < 0.6:
        return Prim(rng.choice(_FLAT_CONTRACTS))
    return DepCon(Prim(rng.choice(_FLAT_CONTRACTS)), "_c", Prim(rng.choice(_FLAT_CONTRACTS)))


def generate_hole_program(rng: random.Random, size: int = 14, holes: bool = True) -> SurfaceProgram:
    """A small random program: up to two definitions (possibly contracted)
    plus a main expression, with holes sprinkled through transparent code."""
    from .syntax import Position

    defs = []
    names: tuple = ()
    for i in range(rng.randint(0, 2)):
        name = f"d{i}"
        body = Lam(f"p{i}", _gen_expr(rng, names + (f"p{i}",), size // 2, holes))
        contract = _gen_contract(rng) if rng.random() < 0.6 else None
        defs.append(Definition(name, body, contract, Position(1 + i, 1)))
        names = names + (name,)
    main = _gen_expr(rng, names, size, holes)
    return SurfaceProgram(tuple(defs), main)


# --------------------------------------------------------------------------
# Differential checking
# --------------------------------------------------------------------------


@dataclass
class DifferentialReport:
    program: SurfaceProgram
    symbolic_blames: frozenset
    trials: int = 0
    skipped: int = 0
    inconclusive: bool = False
    violations: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations and not self.inconclusive


def differential_check(
    program: SurfaceProgram,
    trials: int,
    rng: random.Random,
    config: Optional[Config] = None,
) -> DifferentialReport:
    """Run the holed program symbolically, then concretely under `trials`
    random instantiations, each within `config.step_budget`.  Every
    transparent blame reached concretely must be in the symbolic blame set;
    instantiations that exhaust the budget are skipped."""
    config = config or Config(step_budget=300_000)
    core = alpha_rename(desugar(program))
    result = run_fixpoint(core, config)
    blames = result.blame_pairs()
    report = DifferentialReport(program, blames, inconclusive=result.inconclusive)
    if result.inconclusive:
        return report
    for _ in range(trials):
        report.trials += 1
        inst = instantiate_program(program, rng)
        inst_core = alpha_rename(desugar(inst))
        outcome = run_concrete(inst_core, config)
        if outcome.kind == "timeout":
            report.skipped += 1
            continue
        if outcome.kind == "blame" and outcome.transparent:
            if (outcome.positive, outcome.negative) not in blames:
                report.violations.append((inst, outcome.positive, outcome.negative))
    return report
