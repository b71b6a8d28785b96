import gc
import itertools
import random
import weakref

import pytest

from scv.feasibility import (
    DATATYPE_DECL,
    SAT,
    UNKNOWN,
    UNSAT,
    SolverClient,
    encode_pred,
    feasible,
    open_solver,
    translate_expr,
    translate_pc,
)
from scv.machine import PostValue, VNum, VOpq
from scv.minismt import MiniSolver, parse_sexprs, print_sexpr, tokenize
from scv.syntax import App, Num, Prim, Ref, SYM_LABEL, parse_expr

from reference_eval import _prim, _prim2


def sym(text: str):
    # symbolic names carry raw primitive values at operator positions, so
    # resolve primitive names the way evaluated code would
    return _resolve(parse_expr(text))


def _resolve(e):
    from scv.primitives import PRIM_TABLE
    from scv.syntax import App as A, Ref as R

    if isinstance(e, R) and e.x in PRIM_TABLE:
        return Prim(e.x)
    if isinstance(e, A):
        return A(_resolve(e.fn), _resolve(e.arg), e.label)
    return e


def test_translate_pc_bare_symbol():
    f = translate_pc(frozenset({Ref("x")}))
    assert f.declarations == ("v!x",)
    assert f.assertions == (("not", ("=", "v!x", ("IntV", "0"))),)
    assert f.lines() == ["(declare-const v!x V)", "(assert (not (= v!x (IntV 0))))"]


def test_translate_pc_empty_is_trivially_sat(solver):
    assert solver.check(translate_pc(frozenset())) == SAT


def test_zero_and_nonzero_contradict(solver):
    pc = frozenset({App(Prim("zero?"), Ref("x"), SYM_LABEL), Ref("x")})
    assert solver.check(translate_pc(pc)) == UNSAT


def test_translate_expr_integer():
    term, _ = translate_expr(Num(7))
    assert term == ("IntV", "7")
    assert print_sexpr(term) == "(IntV 7)"
    term, _ = translate_expr(Num(-3))
    assert term == ("IntV", ("-", "3"))
    assert print_sexpr(term) == "(IntV (- 3))"


def test_translate_lambda_existentializes():
    lam = sym("(λ (x) x)")
    term, ctx = translate_expr(lam)
    assert term == ("LamV", "1")
    term2, _ = translate_expr(lam, ctx)
    assert term2 == term  # same literal, same id
    f = translate_pc(frozenset({App(Prim("proc?"), lam, SYM_LABEL)}))
    assert f.lines() == [
        "(assert (not (= (ite (or ((_ is OpV) (LamV 1)) ((_ is LamV) (LamV 1)) "
        "((_ is ArrV) (LamV 1))) (IntV 1) (IntV 0)) (IntV 0))))"
    ]


def test_translate_unknown_application_is_fresh():
    e = App(Opq_(), Ref("y"), SYM_LABEL)
    term, ctx = translate_expr(e)
    assert term.startswith("some")
    assert term in ctx.consts


def Opq_():
    from scv.syntax import Opq

    return Opq()


def test_feasible_concrete_nonzero():
    # a feasible concrete check extends the path condition only with facts
    # that mention a variable; the literal fact "5 is non-false" carries no
    # information beyond the check itself
    pc2 = feasible(frozenset(), "nonzero?", PostValue(VNum(5), Num(5)), None)
    assert pc2 == frozenset()
    assert feasible(frozenset(), "zero?", PostValue(VNum(5), Num(5)), None) is None


def test_feasible_refinement_table_short_circuit():
    w = PostValue(VOpq(frozenset({"proc?"})), None)
    assert feasible(frozenset(), "zero?", w, None) is None
    assert feasible(frozenset(), "proc?", w, None) is not None


def test_feasible_linear_contradiction(solver):
    prior = feasible(frozenset(), "nonzero?", PostValue(VNum(1), sym("(<= 1 x)")), solver)
    assert prior is not None
    w = PostValue(VNum(1), sym("(< x 1)"))
    assert feasible(prior, "nonzero?", w, solver) is None


def test_feasible_records_branch_facts(solver):
    w = PostValue(VOpq(), sym("(int? x)"))
    pc2 = feasible(frozenset(), "nonzero?", w, solver)
    assert pc2 == frozenset({sym("(int? x)")})


def test_ground_facts_not_recorded(solver):
    w = PostValue(VNum(1), sym("(int? 5)"))
    pc2 = feasible(frozenset(), "nonzero?", w, solver)
    assert pc2 == frozenset()


def test_solver_contradiction_and_nonlinear(solver):
    from scv.feasibility import Formula

    is_zero = ("=", "v!x", ("IntV", "0"))
    f = Formula(("v!x",), (is_zero, ("not", is_zero)))
    assert f.lines()[1:] == ["(assert (= v!x (IntV 0)))", "(assert (not (= v!x (IntV 0))))"]
    assert solver.check(f) == UNSAT
    # products of two unknowns are outside the fragment
    e = sym("(= (* x x) 2)")
    term, ctx = translate_expr(e)
    f2 = Formula(tuple(ctx.consts), (("not", ("=", term, ("IntV", "0"))),))
    assert f2.lines() == translate_pc(frozenset({e})).lines()
    assert solver.check(f2) in (UNKNOWN, SAT)


def test_verdict_cache(solver):
    f = translate_pc(frozenset({Ref("cachedvar")}))
    before = solver.queries
    a = solver.check(f)
    b = solver.check(f)
    assert a == b == SAT
    assert solver.queries == before + 1


def test_closed_client_is_released():
    client = open_solver("builtin")
    ref = weakref.ref(client)
    client.close()
    del client
    gc.collect()
    assert ref() is None


def test_open_solver_knows_only_the_bundled_solver():
    """`builtin` is the one solver and None means none; any other name,
    a path to an external binary included, is refused."""
    assert isinstance(open_solver("builtin"), SolverClient)
    assert open_solver(None) is None
    for name in ("z3", "/usr/bin/cvc5"):
        with pytest.raises(ValueError):
            open_solver(name)


def test_builtin_solver_starts_no_process(monkeypatch):
    """The bundled solver runs inside the analysing process, so a run that
    cannot start processes still prunes infeasible paths."""
    import subprocess

    from conftest import compile_text, corpus_text, fresh_config
    from scv.abstraction import run_fixpoint

    def no_process(*args, **kwargs):
        raise OSError("no process may be started")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    core = compile_text(corpus_text("alias-then-clobber.lms"), escapes=True)
    res = run_fixpoint(core, fresh_config())
    assert res.verified


@pytest.mark.parametrize("failure", ["raises", "malformed", "exit"])
def test_builtin_failed_check_answers_unknown_and_pops(monkeypatch, failure):
    """A check that fails inside the bundled solver answers unknown and
    leaves no assertion behind for the next check.  A query runs only its
    declarations and assertions: an atom whose printed text would close
    the assertion and issue `(exit)` stays one atom, outside the fragment,
    so it answers unknown as any unsupported term does and is no failure."""
    from scv.feasibility import Formula

    is_zero = ("=", "v!x", ("IntV", "0"))
    contradiction = (is_zero, ("not", is_zero))
    broken = {
        "raises": Formula(("v!x",), contradiction),
        # `=` without its second argument
        "malformed": Formula(("v!x",), contradiction + (("=", "v!x"),)),
        "exit": Formula(("v!x",), contradiction + ("true) (exit",)),
    }[failure]
    if failure == "raises":
        real = MiniSolver.check_sat

        def fails_once(self):
            monkeypatch.setattr(MiniSolver, "check_sat", real)
            raise RuntimeError("injected solver fault")

        monkeypatch.setattr(MiniSolver, "check_sat", fails_once)
    client = open_solver("builtin")
    executed = []
    run = client._mini.execute
    client._mini.execute = lambda form: executed.append(form[0]) or run(form)
    try:
        assert client.check(broken) == UNKNOWN
        assert set(executed) == {"push", "declare-const", "assert", "pop"}
        assert executed[-1] == "pop"
        assert client.check(Formula(("v!x",), (is_zero,))) == SAT
        y_zero = ("=", "v!y", ("IntV", "0"))
        assert client.check(Formula(("v!y",), (y_zero, ("not", y_zero)))) == UNSAT
        assert client.failures == (0 if failure == "exit" else 1)
    finally:
        client.close()


def test_failing_builtin_solver_is_reported(monkeypatch, capsys):
    """When every check raises inside the bundled solver, the run stays
    sound and the report says that the solver failed."""
    import json

    from conftest import NO_SOLVER_DEGRADATIONS, corpus_path
    from scv.cli import main
    from scv.minismt import MiniSolver

    def fails(self):
        raise RuntimeError("injected solver fault")

    monkeypatch.setattr(MiniSolver, "check_sat", fails)
    assert main(["verify", corpus_path("factorial.lms")]) == 0
    assert "warning: the solver failed on" in capsys.readouterr().out
    assert main(["verify", corpus_path("factorial.lms"), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] and doc["solver_failures"] > 0
    # without verdicts the alias program degrades as under --no-solver
    assert main(["verify", corpus_path("alias-then-clobber.lms"), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    blames = {(b["positive"], b["negative"]) for b in doc["blames"]}
    assert blames == NO_SOLVER_DEGRADATIONS["alias-then-clobber.lms"]
    assert doc["solver_failures"] > 0


def test_feasibility_monotone_on_random_chains(solver):
    """Weaker path conditions prune no more than stronger ones, on path
    conditions grown the way execution grows them (through feasible)."""
    from scv.feasibility import UNKNOWN, translate_pc

    rng = random.Random(5)
    preds = ["zero?", "nonzero?", "proc?", "nonproc?"]
    checked = 0
    for _ in range(120):
        names = [f"m{i}" for i in range(rng.randint(1, 3))]
        pc = frozenset()
        for _ in range(rng.randint(1, 4)):
            w = PostValue(VOpq(), Ref(rng.choice(names)))
            ext = feasible(pc, rng.choice(preds), w, solver)
            if ext is not None:
                pc = ext
        weak = frozenset(e for e in pc if rng.random() < 0.5)
        probe = PostValue(VOpq(), Ref(rng.choice(names)))
        pred = rng.choice(preds)
        strong_ok = feasible(pc, pred, probe, solver)
        if strong_ok is None:
            continue
        entry = encode_pred(pred, probe.sym)
        if solver.check(translate_pc(pc | {entry})) == UNKNOWN:
            continue  # feasibility granted only by incompleteness
        checked += 1
        assert feasible(weak, pred, probe, solver) is not None
    assert checked > 20


# ---------------------------------------------------------------------------
# Brute-force soundness of infeasibility verdicts
# ---------------------------------------------------------------------------

FN_TOKEN = "fn"


def eval_sym(e, env):
    """Evaluate a symbolic-name expression under an integer/function-token
    assignment, mirroring the unsafe primitive semantics."""
    from scv.syntax import App as A, Num as N, Prim as P, Ref as R

    if isinstance(e, N):
        return e.n
    if isinstance(e, R):
        return env[e.x]
    if isinstance(e, P):
        return ("prim", e.op)
    if isinstance(e, A):
        fn = eval_sym(e.fn, env)
        arg = eval_sym(e.arg, env)
        if isinstance(fn, tuple) and fn[0] == "prim":
            op = fn[1]
            from scv.primitives import PRIM_TABLE

            if PRIM_TABLE[op].arity == 2:
                return ("partial", op, arg)
            return _prim(op, _as_value(arg))
        if isinstance(fn, tuple) and fn[0] == "partial":
            return _prim2(fn[1], _as_value(fn[2]), _as_value(arg))
        raise ValueError("not evaluable")
    raise ValueError("not evaluable")


def _as_value(x):
    if isinstance(x, int):
        return x
    return object()  # non-integer stand-in; primitives treat it as garbage


def pc_satisfiable_brute(pc, names):
    domain = list(range(-4, 5)) + [FN_TOKEN]
    for combo in itertools.product(domain, repeat=len(names)):
        env = dict(zip(names, combo))
        env = {k: (v if v != FN_TOKEN else ("prim", "add1")) for k, v in env.items()}
        try:
            if all(_truthy(eval_sym(e, env)) for e in pc):
                return True
        except ValueError:
            return True  # outside the evaluable fragment: cannot refute
    return False


def _truthy(v):
    return not (isinstance(v, int) and v == 0)


def gen_linear_pc(rng):
    names = [f"b{i}" for i in range(rng.randint(1, 3))]
    entries = set()
    for _ in range(rng.randint(1, 4)):
        name = rng.choice(names)
        kind = rng.random()
        if kind < 0.3:
            entries.add(sym(f"({rng.choice(['<', '<=', '='])} {name} {rng.randint(-3, 3)})"))
        elif kind < 0.6:
            entries.add(sym(f"({rng.choice(['<', '<='])} {rng.randint(-3, 3)} {name})"))
        elif kind < 0.8:
            entries.add(sym(f"({rng.choice(['zero?', 'int?', 'even?', 'odd?', 'positive?'])} {name})"))
        else:
            entries.add(Ref(name))
    return frozenset(entries), names


def test_infeasibility_verdicts_brute_checked(solver):
    rng = random.Random(11)
    pruned = 0
    for _ in range(200):
        pc, names = gen_linear_pc(rng)
        verdict = solver.check(translate_pc(pc))
        if verdict == UNSAT:
            pruned += 1
            assert not pc_satisfiable_brute(pc, names), sorted(map(str, pc))
    assert pruned > 0  # the check must not be vacuous


def gen_rich_pc(rng):
    """Path conditions with nested arithmetic, harder than the linear set."""
    names = [f"z{i}" for i in range(rng.randint(1, 3))]

    def term(depth):
        if depth <= 0 or rng.random() < 0.4:
            return rng.choice(names) if rng.random() < 0.7 else str(rng.randint(-3, 3))
        if rng.random() < 0.5:
            return f"({rng.choice(['add1', 'sub1'])} {term(depth - 1)})"
        return f"({rng.choice(['+', '-', '*'])} {term(depth - 1)} {term(depth - 1)})"

    def entry():
        roll = rng.random()
        t = term(2)
        if roll < 0.4:
            return f"({rng.choice(['<', '<=', '='])} {t} {term(1)})"
        if roll < 0.8:
            return f"({rng.choice(['zero?', 'int?', 'even?', 'odd?', 'positive?', 'proc?'])} {t})"
        return t

    return frozenset(sym(entry()) for _ in range(rng.randint(1, 4))), names


@pytest.mark.parametrize(
    "entries",
    [
        # criterion 4's path condition 111: the facts about b0 clash, and b1
        # and b2 add constructor choices that must not exhaust the budget
        ("(= b0 -3)", "(positive? b0)", "(zero? b1)", "(zero? b2)"),
        # the blame path of `(if (= 0 y) 0 (/ x y))`: y tested equal to 0,
        # then used as a divisor
        ("(int? ((= 0) y1))", "(zero? ((= 0) y1))", "(zero? (nonzero? y1))"),
    ],
    ids=["criterion-4-pc-111", "safe-div"],
)
def test_infeasible_path_condition_is_decided(entries):
    client = open_solver("builtin")
    try:
        assert client.check(translate_pc(frozenset(sym(t) for t in entries))) == UNSAT
    finally:
        client.close()


# The path-condition populations the solver is measured on: name -> (seed,
# size, generator), each drawn from one `random.Random(seed)`.
POPULATIONS = {
    "criterion-4": (424242, 500, gen_linear_pc),
    "linear-11": (11, 200, gen_linear_pc),
    "rich-8080": (8080, 450, gen_rich_pc),
}


def population(name: str) -> list:
    seed, size, gen = POPULATIONS[name]
    rng = random.Random(seed)
    return [translate_pc(gen(rng)[0]) for _ in range(size)]


def test_verdicts_do_not_depend_on_query_order():
    """A verdict depends only on its query: two fresh clients checking the
    criterion-4 path conditions in opposite orders agree on every one."""
    formulas = population("criterion-4")
    forward, backward = open_solver("builtin"), open_solver("builtin")
    try:
        ahead = [forward.check(f) for f in formulas]
        behind = [backward.check(f) for f in reversed(formulas)][::-1]
    finally:
        forward.close()
        backward.close()
    assert ahead == behind
    assert UNKNOWN not in ahead


@pytest.mark.parametrize(
    "name, counts",
    [
        ("criterion-4", {SAT: 398, UNSAT: 102, UNKNOWN: 0}),
        ("linear-11", {SAT: 170, UNSAT: 30, UNKNOWN: 0}),
        ("rich-8080", {SAT: 217, UNSAT: 142, UNKNOWN: 91}),
    ],
    ids=["criterion-4", "linear-11", "rich-8080"],
)
def test_verdict_counts_are_pinned(name, counts):
    """The decision procedure neither gains nor loses a verdict on the
    measured populations: a lost `unsat` is lost precision, a gained one
    would need a new proof of soundness."""
    client = open_solver("builtin")
    try:
        verdicts = [client.check(f) for f in population(name)]
    finally:
        client.close()
    assert {v: verdicts.count(v) for v in (SAT, UNSAT, UNKNOWN)} == counts


@pytest.mark.parametrize("name", ["criterion-4", "rich-8080"])
def test_printed_queries_read_back_as_executed(name):
    """`Formula.lines()` is what an external solver and the benchmark's
    replay read.  Each line parses back to exactly the command the bundled
    client ran, and a fresh solver fed the text gives the client's
    verdict."""
    client = open_solver("builtin")
    executed = []
    run = client._mini.execute
    client._mini.execute = lambda form: executed.append(form) or run(form)
    datatype = parse_sexprs(tokenize(DATATYPE_DECL))
    try:
        for formula in population(name):
            executed.clear()
            client.cache.clear()
            verdict = client.check(formula)
            lines = formula.lines()
            assert [parse_sexprs(tokenize(line)) for line in lines] == [[form] for form in executed[1:-1]]
            assert executed[0] == ("push", "1") and executed[-1] == ("pop", "1")
            fresh = MiniSolver()
            for form in datatype + parse_sexprs(tokenize("\n".join(lines))):
                fresh.execute(form)
            assert fresh.execute(("check-sat",)) == verdict, lines
    finally:
        client.close()


def test_safe_div_verifies_with_builtin_solver():
    """A division guarded by `(= 0 y)` cannot divide by zero; the builtin
    solver must refute the blame's path condition rather than give up."""
    from conftest import compile_text, fresh_config
    from scv.abstraction import run_fixpoint

    text = """(define/contract safe-div (->d int? x (->d int? y int?))
  (λ (x) (λ (y) (if (= 0 y) 0 (/ x y)))))
0
"""
    client = open_solver("builtin")
    try:
        res = run_fixpoint(compile_text(text, escapes=True), fresh_config(), solver=client)
    finally:
        client.close()
    assert res.blames == ()
    assert res.verified


def test_infeasibility_sound_on_rich_arithmetic(solver):
    rng = random.Random(8080)
    pruned = 0
    for _ in range(150):
        pc, names = gen_rich_pc(rng)
        if solver.check(translate_pc(pc)) == UNSAT:
            pruned += 1
            assert not pc_satisfiable_brute(pc, names), sorted(map(str, pc))
    assert pruned > 5
