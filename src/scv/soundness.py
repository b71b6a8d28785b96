"""Executable soundness harness.

The verifier's guarantee is blame soundness: if any instantiation of a
program's holes can make a transparent label blamed, the symbolic run of
the holed program reports that blame.  This module makes the guarantee
testable: it defines the approximation order between an instantiated
program and its holed original, generates random hole instantiations
(literal base values, primitives, or syntactically closed lambdas whose
applications carry the unknown-context label), runs them concretely, and
checks every transparent concrete blame against the symbolic blame set.

A differential check compiles the holed program once (`Holed`: desugar and
rename) and runs the symbolic analysis on that core.  Each trial then only
fills the holes (`instantiate_program`): it draws the values, renames their
binders apart from the core's, and rebuilds the core nodes above a hole,
so every other node, with its memoized facts, is shared by all trials.
Trials that draw the same values share one concrete run; the report still
counts every trial.

The per-step preservation lemma behind the theorem is exercised
indirectly through these end-to-end runs; the approximation order is
checked directly only on expressions, by `approx_expr`.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from .abstraction import run_concrete, run_fixpoint
from .config import Config
from .primitives import surface_prims
from .record import Record
from .syntax import (
    App,
    DepCon,
    Definition,
    Expr,
    If,
    Label,
    Lam,
    Mon,
    Num,
    OPAQUE_LABEL,
    Opq,
    Position,
    Prim,
    Ref,
    Renamer,
    Set,
    SurfaceProgram,
    alpha_rename,
    desugar,
)

__all__ = [
    "is_oexpr",
    "approx_expr",
    "Holed",
    "Instance",
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


def _map_holes(program: SurfaceProgram, f) -> SurfaceProgram:
    """`program` with every hole `h` replaced by `f(h)`, called in drawing
    order: each definition's expression, then its contract, then main, each
    in pre-order."""

    def put(e: Expr) -> Expr:
        return f(e) if isinstance(e, Opq) else e.rebuild([put(c) for c in e.children()])

    defs = tuple(
        Definition(d.name, put(d.expr), None if d.contract is None else put(d.contract), d.pos)
        for d in program.definitions
    )
    return SurfaceProgram(defs, put(program.main))


class Holed:
    """A holed program compiled once for many instantiations.

    Every hole is replaced by its own fresh `Opq` node, so `holes` lists
    them in drawing order.  `core` is the desugared and renamed program;
    since desugaring and renaming return `Opq` nodes unchanged, it holds
    these same hole objects.  `binders` are the core's binder names, and
    `above` holds the ids of the core nodes that lie above a hole: the only
    ones an instantiation rebuilds."""

    def __init__(self, program: SurfaceProgram) -> None:
        holes: list[Opq] = []

        def own(hole: Opq) -> Opq:
            holes.append(Opq(hole.pos))
            return holes[-1]

        self.program = _map_holes(program, own)
        self.holes = tuple(holes)
        self.core = alpha_rename(desugar(self.program))
        hole_ids = {id(h) for h in holes}
        binders: set[str] = set()
        self.above: set[int] = set()

        def scan(e: Expr) -> bool:
            if id(e) in hole_ids:
                return True
            if isinstance(e, (Lam, DepCon)):
                binders.add(e.x)
            hit = False
            for c in e.children():
                hit = scan(c) or hit
            if hit:
                self.above.add(id(e))
            return hit

        scan(self.core)
        self.binders = frozenset(binders)


class Instance(Record):
    """One instantiation of a `Holed` program: the value drawn for each
    hole, in hole order, and the core that runs."""

    __slots__ = ("holed", "draws", "core")

    @property
    def program(self) -> SurfaceProgram:
        """The surface instantiation, built on demand."""
        fill = dict(zip(map(id, self.holed.holes), self.draws))
        return _map_holes(self.holed.program, lambda hole: fill[id(hole)])


def instantiate_program(holed: Holed, rng: random.Random, budget: int = 12) -> Instance:
    """Draw a closed value for every hole, in hole order, and put the values
    into the compiled core, rebuilding only the nodes above a hole.  The
    values' binders are renamed apart from the core's in the core's
    pre-order, the order in which renaming the whole instantiation would
    name them."""
    draws = tuple(_gen_instantiation(rng, budget) for _ in holed.holes)
    fill = dict(zip(map(id, holed.holes), draws))
    renamer = Renamer(holed.binders)
    above = holed.above

    def put(e: Expr) -> Expr:
        if id(e) in above:
            return e.rebuild([put(c) for c in e.children()])
        drawn = fill.get(id(e))
        return e if drawn is None else renamer.walk(drawn, {})

    return Instance(holed, draws, put(holed.core))


# --------------------------------------------------------------------------
# Random programs with holes
# --------------------------------------------------------------------------

_FLAT_CONTRACTS = ("int?", "even?", "odd?", "positive?", "proc?")


def _gen_expr(rng: random.Random, scope: tuple, budget: int, holes: bool, sites) -> Expr:
    """Random surface-level expression; primitive references resolve to
    their guarded versions during desugaring.  Application sites are
    numbered by the counter `sites`."""
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
            _gen_expr(rng, scope, budget // 2, holes, sites),
            _gen_expr(rng, scope, budget // 2, holes, sites),
            _site(next(sites)),
        )
    if roll < 0.65:
        return If(
            _gen_expr(rng, scope, budget // 3, holes, sites),
            _gen_expr(rng, scope, budget // 3, holes, sites),
            _gen_expr(rng, scope, budget // 3, holes, sites),
        )
    if roll < 0.75 and scope:
        return Set(rng.choice(scope), _gen_expr(rng, scope, budget - 1, holes, sites))
    if roll < 0.83:
        x = f"v{rng.randint(0, 99)}"
        body = _gen_expr(rng, scope + (x,), budget - 2, holes, sites)
        rhs = _gen_expr(rng, scope, budget // 2, holes, sites)
        return App(Lam(x, body), rhs, _site(next(sites)))
    if roll < 0.9:
        pos = Label(f"p{rng.randint(0, 9)}")
        neg = Label(f"q{rng.randint(0, 9)}")
        return Mon(pos, neg, _gen_contract(rng), _gen_expr(rng, scope, budget - 2, holes, sites))
    x = f"v{rng.randint(0, 99)}"
    return Lam(x, _gen_expr(rng, scope + (x,), budget - 1, holes, sites))


def _site(n: int) -> Label:
    return Label(f"gen@{n}", pos=Position(900 + n // 80, n % 80))


def _gen_contract(rng: random.Random) -> Expr:
    if rng.random() < 0.6:
        return Prim(rng.choice(_FLAT_CONTRACTS))
    return DepCon(Prim(rng.choice(_FLAT_CONTRACTS)), "_c", Prim(rng.choice(_FLAT_CONTRACTS)))


def generate_hole_program(rng: random.Random, size: int = 14, holes: bool = True) -> SurfaceProgram:
    """A small random program: up to two definitions (possibly contracted)
    plus a main expression, with holes sprinkled through transparent code.
    Its application sites are numbered from 1, so equal seeds give equal
    programs."""
    sites = itertools.count(1)
    defs = []
    names: tuple = ()
    for i in range(rng.randint(0, 2)):
        name = f"d{i}"
        body = Lam(f"p{i}", _gen_expr(rng, names + (f"p{i}",), size // 2, holes, sites))
        contract = _gen_contract(rng) if rng.random() < 0.6 else None
        defs.append(Definition(name, body, contract, Position(1 + i, 1)))
        names = names + (name,)
    main = _gen_expr(rng, names, size, holes, sites)
    return SurfaceProgram(tuple(defs), main)


# --------------------------------------------------------------------------
# Differential checking
# --------------------------------------------------------------------------


class DifferentialReport(Record):
    """The outcome of `differential_check` on `program`: the symbolic blame
    pairs, the trials run and skipped, and a tuple of violations, each an
    instantiation with the concrete blame pair the symbolic run missed."""

    __slots__ = ("program", "symbolic_blames", "trials", "skipped", "inconclusive", "violations")
    _defaults = (0, 0, False, ())

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
    instantiations that exhaust the budget are skipped.

    Each distinct instantiation runs once: a trial whose draws equal an
    earlier trial's reuses that trial's outcome.  Equal draws give equal
    cores, since renaming is deterministic, and a concrete run is a
    deterministic function of its core.  The report still counts every
    trial: each one counts toward `trials` and `skipped` and adds its own
    violation."""
    config = config or Config(step_budget=300_000)
    holed = Holed(program)
    result = run_fixpoint(holed.core, config)
    blames = result.blame_pairs()
    if result.inconclusive:
        return DifferentialReport(program, blames, inconclusive=True)
    skipped = 0
    violations = []
    outcomes = {}  # draws -> the concrete outcome of the first trial that drew them
    for _ in range(trials):
        inst = instantiate_program(holed, rng)
        outcome = outcomes.get(inst.draws)
        if outcome is None:
            outcome = outcomes[inst.draws] = run_concrete(inst.core, config)
        if outcome.kind == "timeout":
            skipped += 1
        elif outcome.kind == "blame" and outcome.transparent:
            if (outcome.positive, outcome.negative) not in blames:
                violations.append((inst.program, outcome.positive, outcome.negative))
    return DifferentialReport(program, blames, trials, skipped, False, tuple(violations))
