import random

import pytest

from conftest import compile_text, corpus_text, fresh_config
from scv.abstraction import run_concrete, run_fixpoint
from scv.config import Config
import scv.soundness
from scv.soundness import (
    Holed,
    _gen_instantiation,
    approx_expr,
    differential_check,
    generate_hole_program,
    instantiate_program,
    is_oexpr,
)
from scv.syntax import (
    App,
    DepCon,
    Definition,
    If,
    Label,
    Lam,
    Mon,
    Num,
    OPAQUE_LABEL,
    Opq,
    Ref,
    Set,
    SurfaceProgram,
    alpha_rename,
    desugar,
    node_kinds,
    parse,
    parse_expr,
    print_expr,
    subterms,
)


def test_approx_expr_hole_rules():
    assert approx_expr(parse_expr("(λ (x) x)"), Opq())
    assert not approx_expr(parse_expr("(λ (x) y)"), Opq())  # y is free
    assert approx_expr(Num(3), Num(3))
    assert not approx_expr(Num(3), Num(4))
    assert approx_expr(Num(3), Opq())


_F, _ONE = Ref("f"), Num(1)
_P, _Q = Label("p"), Label("q")


@pytest.mark.parametrize(
    "a, b, expected",
    [
        pytest.param(_ONE, Ref("x"), False, id="other-kind"),
        pytest.param(_ONE, Num(1), True, id="same-kind"),
        pytest.param(Lam("x", _ONE), Lam("y", _ONE), False, id="other-lam-binder"),
        pytest.param(Lam("x", _ONE), Lam("x", _ONE), True, id="same-lam-binder"),
        pytest.param(DepCon(_F, "x", _F), DepCon(_F, "y", _F), False, id="other-depcon-binder"),
        pytest.param(DepCon(_F, "x", _F), DepCon(_F, "x", _F), True, id="same-depcon-binder"),
        pytest.param(Set("f", _ONE), Set("g", _ONE), False, id="other-set-target"),
        pytest.param(Set("f", _ONE), Set("f", _ONE), True, id="same-set-target"),
        pytest.param(App(_F, _ONE, OPAQUE_LABEL), App(_F, _ONE, OPAQUE_LABEL), False, id="opaque-app"),
        pytest.param(App(_F, _ONE, _P), App(_F, _ONE, _P), True, id="transparent-app"),
        pytest.param(Mon(_P, OPAQUE_LABEL, _F, _ONE), Mon(_P, OPAQUE_LABEL, _F, _ONE), False, id="opaque-mon-party"),
        pytest.param(Mon(_P, _Q, _F, _ONE), Mon(_P, _Q, _F, _ONE), True, id="transparent-mon-parties"),
        pytest.param(Mon(_P, _Q, _F, _ONE), Mon(_Q, _P, _F, _ONE), False, id="other-mon-parties"),
        pytest.param(Mon(_P, _Q, _F, _ONE), Mon(_P, _Q, _F, Opq()), True, id="hole-in-mon-body"),
        pytest.param(If(_ONE, _ONE, _F), If(_ONE, _ONE, Ref("g")), False, id="other-child"),
        pytest.param(If(_ONE, _ONE, _ONE), If(_ONE, _ONE, Opq()), True, id="hole-child"),
    ],
)
def test_approx_expr_congruence_rules(a, b, expected):
    assert approx_expr(a, b) is expected


def test_approx_expr_structural_with_labels():
    a = parse("(define f (λ (x) (f x))) (f 1)")
    b = parse("(define f (λ (x) (f x))) (f 1)")
    assert approx_expr(desugar(a), desugar(b))
    # mismatched call labels break approximation
    c = parse("(define f (λ (x) (f  x))) (f 1)")  # shifted position
    assert not approx_expr(desugar(a), desugar(c))


def test_is_oexpr_accepts_grammar_and_rejects_monitors():
    self_app = Lam("x", App(Ref("x"), Ref("x"), OPAQUE_LABEL))
    assert is_oexpr(self_app, frozenset())
    assert not is_oexpr(parse_expr("(mon p q int? 5)"), frozenset())
    assert not is_oexpr(parse_expr("(f x)"), frozenset({"f", "x"}))  # transparent label


def _reference_instantiation(program, rng, budget=12):
    """The whole-program pipeline that `instantiate_program` replaces: draw
    a value per hole occurrence of the surface program, then desugar and
    rename the result."""

    def put(e):
        if isinstance(e, Opq):
            return _gen_instantiation(rng, budget)
        return e.rebuild([put(c) for c in e.children()])

    defs = tuple(
        Definition(d.name, put(d.expr), None if d.contract is None else put(d.contract), d.pos)
        for d in program.definitions
    )
    surface = SurfaceProgram(defs, put(program.main))
    return surface, alpha_rename(desugar(surface))


def _assert_matches_reference(program, rng, trials):
    holed = Holed(program)
    ref_rng = random.Random()
    for _ in range(trials):
        ref_rng.setstate(rng.getstate())
        inst = instantiate_program(holed, rng)
        surface, core = _reference_instantiation(program, ref_rng)
        assert inst.core == core and repr(inst.core) == repr(core)
        assert inst.program == surface
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("seed", [20260811, 4])
def test_instantiation_matches_the_whole_program_pipeline(seed):
    """Filling the compiled core gives exactly the core, surface program and
    random-stream position of instantiating, desugaring and renaming the
    whole program, on the criterion-2 population."""
    rng = random.Random(seed)
    for _ in range(100):
        _assert_matches_reference(generate_hole_program(rng, size=16), rng, trials=10)


def test_one_hole_object_twice_gets_two_draws():
    hole = Opq()
    program = SurfaceProgram((), If(hole, hole, Num(0)))
    holed = Holed(program)
    assert len(holed.holes) == 2 and holed.holes[0] is not holed.holes[1]
    _assert_matches_reference(program, random.Random(5), trials=50)
    rng = random.Random(5)
    draws = [instantiate_program(holed, rng).draws for _ in range(50)]
    assert all(len(d) == 2 for d in draws)
    assert any(a != b for a, b in draws)


def test_instantiated_binders_are_unique():
    """Drawn values whose binders would be renamed to a name of the
    program's own renamed binders (h5 -> h50, h12 -> h120) get other names,
    and the instance runs as the renamed whole program does."""
    program = parse(
        """
        (define h5 (λ (h50) (if (int? h50) (+ h50 •) 0)))
        (let ([h12 •]) (h5 (• h12)))
        """
    )
    holed = Holed(program)
    assert {"h50", "h500", "h120"} <= holed.binders
    rng = random.Random(11)
    renamed_apart = 0
    for trial in range(3000):
        inst = instantiate_program(holed, rng)
        binders = [e.x for e in subterms(inst.core) if isinstance(e, (Lam, DepCon))]
        assert len(binders) == len(set(binders)), print_expr(inst.core)
        drawn = {e.x for v in inst.draws for e in subterms(v) if isinstance(e, Lam)}
        collides = any(f"{x}0" in holed.binders for x in drawn)
        renamed_apart += collides
        if trial < 200 or collides:
            config = Config(step_budget=20_000)
            a = run_concrete(inst.core, config)
            b = run_concrete(alpha_rename(desugar(inst.program)), config)
            assert (a.kind, a.positive, a.negative, a.steps) == (b.kind, b.positive, b.negative, b.steps)
    assert renamed_apart > 0


def test_differential_check_compiles_once(monkeypatch):
    """One desugar and one renaming per check, one instantiation and one
    concrete run per trial: the span layout that traced fuzzing reads."""
    calls = {}
    for name in ("desugar", "alpha_rename", "instantiate_program", "run_concrete"):
        original = getattr(scv.soundness, name)

        def counted(*args, _name=name, _original=original, **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kw)

        monkeypatch.setattr(scv.soundness, name, counted)
    program = parse("(define f (λ (x) (+ x 1))) (f •)")
    rep = differential_check(program, trials=7, rng=random.Random(3), config=fresh_config(step_budget=300_000))
    assert rep.trials == 7 and not rep.inconclusive
    assert calls == {"desugar": 1, "alpha_rename": 1, "instantiate_program": 7, "run_concrete": 7}


def test_instantiate_postconditions():
    rng = random.Random(4)
    for _ in range(150):
        program = generate_hole_program(rng, size=14)
        inst = instantiate_program(Holed(program), rng).program
        for a, b in [(inst.main, program.main)] + [
            (x.expr, y.expr) for x, y in zip(inst.definitions, program.definitions)
        ]:
            assert "Opq" not in node_kinds(a)
            assert approx_expr(a, b), (print_expr(a), print_expr(b))


def test_differential_on_unsafe_corpus_program():
    """A hand-built context triggers the callback-counter range blame; the
    symbolic analysis of the holed program must already report it."""
    program = parse(corpus_text("callback-counter.lms"))
    core_holed = alpha_rename(desugar(program))
    res = run_fixpoint(core_holed, fresh_config())
    holed_with_escapes = compile_text(corpus_text("callback-counter.lms"), escapes=True)
    res_escaped = run_fixpoint(holed_with_escapes, fresh_config())
    assert ("f", "•ctx") in res_escaped.blame_pairs()

    trigger = """
    (define/contract f
      (->d (->d (->d int? _ int?) _ int?) _ (λ (r) (if (int? r) (if (<= r 2) 1 0) 0)))
      (λ (g)
        (let ([n 0])
          (let ([inc! (λ (u) (begin (set! n (+ 1 n)) 0))])
            (begin
              (g inc!)
              (if (< n 2)
                  (begin (g (λ (u) 0)) n)
                  2))))))
    (define saved (λ (z) z))
    (define first-time (λ (z) z))
    (let ([st (box 0)])
      (let ([cb (box (λ (u) 0))])
        (f (λ (k)
             (if (unbox st)
                 (begin ((unbox cb) 0) (begin ((unbox cb) 0) (begin ((unbox cb) 0) 0)))
                 (begin (set-box! cb k) (begin (set-box! st 1) 0)))))))
    """
    concrete = run_concrete(compile_text(trigger))
    assert concrete.kind == "blame"
    assert (concrete.positive, concrete.negative) == ("f", "•ctx")
    assert (concrete.positive, concrete.negative) in res_escaped.blame_pairs()


def test_differential_no_holes_agrees_exactly():
    rng = random.Random(17)
    program = generate_hole_program(rng, size=12, holes=False)
    rep = differential_check(program, trials=5, rng=rng, config=fresh_config(step_budget=300_000))
    assert rep.ok()


def test_differential_random_sweep():
    rng = random.Random(2024)
    for _ in range(40):
        program = generate_hole_program(rng, size=15)
        rep = differential_check(program, trials=8, rng=rng, config=fresh_config(step_budget=300_000))
        assert not rep.violations, [
            (pos, neg, print_expr(inst.main)[:200]) for inst, pos, neg in rep.violations
        ]
        assert not rep.inconclusive


def test_equal_seeds_generate_equal_programs():
    """Application sites are numbered per program, so a seed names one
    program however many were generated before it in the process."""
    first, second = (generate_hole_program(random.Random(1)) for _ in range(2))
    assert first == second
    assert alpha_rename(desugar(first)) == alpha_rename(desugar(second))
