import itertools
import random

import pytest

from conftest import compile_text, corpus_text, fresh_config
from reference_eval import BlameSignal, OutOfFuel, evaluate
from scv.abstraction import alloc, kont_alloc, run_concrete, run_fixpoint, widen
from scv.config import ABSTRACT, Config, RunCtx
from scv.machine import Env, VClo, VNum, VOpq, VPrim
from scv.primitives import BASE_VOCAB, satisfies
from scv.soundness import generate_hole_program
from scv.syntax import Label, Num, alpha_rename, desugar, parse_expr


def test_abstract_alloc_deterministic():
    h = frozenset({(Label("l1"), Num(1))})
    ctx = RunCtx(config=Config(mode=ABSTRACT))
    assert alloc("z", h, ctx) == alloc("z", h, ctx)
    assert alloc("z", h, ctx) != alloc("z", frozenset(), ctx)


def test_concrete_alloc_fresh():
    ctx = RunCtx(config=Config(), fresh_addrs=itertools.count())
    assert alloc("z", frozenset(), ctx) != alloc("z", frozenset(), ctx)


def test_kont_alloc_keys_on_body_and_env():
    body = parse_expr("(add1 x)")
    e1 = Env({"x": ("var", "x", frozenset())})
    e2 = Env({"x": ("var", "y", frozenset())})
    ctx = RunCtx(config=Config(mode=ABSTRACT))
    assert kont_alloc(body, e1, ctx) == kont_alloc(body, e1, ctx)
    assert kont_alloc(body, e1, ctx) != kont_alloc(body, e2, ctx)


def test_loop_reuses_addresses_and_widens():
    """Recursion stabilizes the transfer set, so the recursive binding
    reuses one address whose content widens."""
    from scv.machine import GlobalStores, load
    core = compile_text(corpus_text("factorial.lms"), escapes=True)
    res = run_fixpoint(core, fresh_config(no_solver=True))
    assert res.verified and not res.inconclusive


def test_widen_collapse_cases():
    w24, rep = widen(frozenset({VNum(2)}), VNum(4))
    assert w24 == frozenset({VOpq(frozenset({"int?", "even?", "positive?"}))})
    stable, rep = widen(frozenset({VOpq(frozenset({"int?", "even?"}))}), VNum(6))
    assert stable == frozenset({VOpq(frozenset({"int?", "even?"}))})
    assert rep == VOpq(frozenset({"int?", "even?"}))


def test_widen_monotone_under_repeated_joins():
    rng = random.Random(3)
    values = [VNum(n) for n in range(-3, 4)] + [
        VOpq(), VOpq(frozenset({"int?"})), VOpq(frozenset({"proc?"})),
        VPrim("+", VNum(1)), VPrim("+", VNum(2)), VPrim("add1"),
        VClo("x", Num(0), Env(), frozenset()),
    ]
    for _ in range(200):
        vs = frozenset()
        for _ in range(8):
            v = rng.choice(values)
            vs2, rep = widen(vs, v)
            # joining the representative back must be a no-op
            vs3, _ = widen(vs2, rep)
            assert vs3 == vs2
            # and rejoining the original value must also be stable now
            vs4, _ = widen(vs2, v)
            assert vs4 == vs2
            vs = vs2


def _concretization_holds(members, witness) -> bool:
    """Is `witness` covered by some member of the widened set?"""
    for m in members:
        if m == witness:
            return True
        if isinstance(m, VOpq) and all(satisfies(witness, p) for p in m.refinements):
            return True
    return False


def test_widening_concretization_sound_exhaustive():
    universe = [VNum(n) for n in range(-3, 4)] + [VPrim("add1"), VClo("x", Num(0), Env(), frozenset())]
    violations = []
    for size in (1, 2, 3):
        for combo in itertools.combinations(universe, size):
            vs = frozenset()
            for v in combo:
                vs, _ = widen(vs, v)
            for v in combo:
                if not _concretization_holds(vs, v):
                    violations.append((combo, v, vs))
    assert not violations, violations[:3]


def test_straight_line_program_single_answer():
    res = run_fixpoint(compile_text("(+ (add1 1) (* 2 3))"), fresh_config(no_solver=True))
    assert res.verified
    assert res.final_values == ("n:8",)


def test_budget_exhaustion_is_inconclusive_never_verified():
    core = compile_text(corpus_text("factorial.lms"), escapes=True)
    res = run_fixpoint(core, fresh_config(no_solver=True, step_budget=20))
    assert res.inconclusive and not res.verified


def test_abstract_covers_concrete_blames_on_random_programs():
    """On hole-free programs, abstract-mode blames include the concrete
    outcome's blame, and concrete equals the reference evaluator."""
    rng = random.Random(99)
    checked = 0
    for _ in range(60):
        program = generate_hole_program(rng, size=12, holes=False)
        core = alpha_rename(desugar(program))
        concrete = run_concrete(core, Config(step_budget=40_000))
        if concrete.kind == "timeout":
            continue
        abstract = run_fixpoint(core, fresh_config(no_solver=True, step_budget=300_000))
        if abstract.inconclusive:
            continue
        checked += 1
        if concrete.kind == "blame" and concrete.transparent:
            assert (concrete.positive, concrete.negative) in abstract.blame_pairs()
    assert checked >= 40


def test_sym_truncation_is_sound_on_corpus():
    """Cutting symbolic names to depth 1 only loses pruning power: every
    blame found at the default depth is still found."""
    from conftest import CORPUS_EXPECTED, corpus_text

    for name in sorted(CORPUS_EXPECTED):
        core = compile_text(corpus_text(name), escapes=True)
        deep = run_fixpoint(core, fresh_config())
        shallow = run_fixpoint(core, fresh_config(max_sym_depth=1))
        assert not shallow.inconclusive, name
        assert deep.blame_pairs() <= shallow.blame_pairs(), name


def test_escaped_divider_blamed_though_closed_run_returns():
    """The division by the decremented counter fails only once a context
    calls `f`: verification, which lets `f` escape, blames it, while the
    closed program never calls `f` and runs to its value."""
    text = """
(define n 1)
(define/contract f (->d int? _ int?)
  (λ (u) (begin (set! n (- n 1)) (/ 100 n))))
7
"""
    res = run_fixpoint(compile_text(text, escapes=True), fresh_config())
    assert any(pos.startswith("/@") for pos, _ in res.blame_pairs())
    out = run_concrete(compile_text(text))
    assert out.kind == "value" and out.value.value == VNum(7)


def test_run_concrete_stops_at_the_step_budget():
    core = compile_text("(define f (λ (x) (f x))) (f 0)")
    out = run_concrete(core, Config(step_budget=1000))
    assert out.kind == "timeout" and out.steps == 1000


def test_run_fixpoint_is_the_abstract_driver_only():
    core = compile_text("(add1 1)")
    with pytest.raises(ValueError, match="run_concrete"):
        run_fixpoint(core, Config(mode="concrete"))
