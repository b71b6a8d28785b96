from scv.minismt import MiniSolver, parse_sexprs, tokenize

DATATYPE = (
    "(declare-datatypes ((V 0)) (((IntV (iv Int)) (OpV (ov Int)) "
    "(LamV (lv Int)) (ArrV (av Int)) (GrdV (gv Int)))))"
)


def fresh_solver() -> MiniSolver:
    s = MiniSolver()
    for form in parse_sexprs(tokenize(DATATYPE)):
        s.execute(form)
    return s


def check(s: MiniSolver, *lines: str) -> str:
    for line in lines:
        for form in parse_sexprs(tokenize(line)):
            out = s.execute(form)
            if out is not None:
                return out
    raise AssertionError("no check-sat issued")


def test_empty_sat():
    assert check(fresh_solver(), "(check-sat)") == "sat"


def test_simple_contradiction():
    assert check(
        fresh_solver(),
        "(declare-const x V)",
        "(assert (= x (IntV 0)))",
        "(assert (not (= x (IntV 0))))",
        "(check-sat)",
    ) == "unsat"


def test_linear_arithmetic_over_payloads():
    assert check(
        fresh_solver(),
        "(declare-const x V)",
        "(assert (and ((_ is IntV) x) (< (iv x) 1)))",
        "(assert (<= 1 (iv x)))",
        "(check-sat)",
    ) == "unsat"


def test_integer_strictness():
    # 0 < p and p < 1 has no integer solution
    assert check(
        fresh_solver(),
        "(declare-const x V)",
        "(assert ((_ is IntV) x))",
        "(assert (< 0 (iv x)))",
        "(assert (< (iv x) 1))",
        "(check-sat)",
    ) == "unsat"


def test_parity_contradiction():
    assert check(
        fresh_solver(),
        "(declare-const x V)",
        "(assert ((_ is IntV) x))",
        "(assert (= (mod (iv x) 2) 0))",
        "(assert (= (mod (iv x) 2) 1))",
        "(check-sat)",
    ) == "unsat"


def test_constructor_case_split():
    assert check(
        fresh_solver(),
        "(declare-const x V)",
        "(assert (or ((_ is OpV) x) ((_ is LamV) x)))",
        "(assert ((_ is IntV) x))",
        "(check-sat)",
    ) == "unsat"


def test_nonlinear_degrades_to_unknown():
    verdict = check(
        fresh_solver(),
        "(declare-const x V)",
        "(assert ((_ is IntV) x))",
        "(assert (= (* (iv x) (iv x)) 2))",
        "(check-sat)",
    )
    assert verdict in ("unknown", "sat")  # never a wrong unsat


def test_push_pop_isolate_assertions():
    s = fresh_solver()
    assert check(s, "(declare-const x V)", "(push 1)",
                 "(assert (= x (IntV 0)))", "(assert (not (= x (IntV 0))))",
                 "(check-sat)") == "unsat"
    for form in parse_sexprs(tokenize("(pop 1)")):
        s.execute(form)
    assert check(s, "(check-sat)") == "sat"


def test_equality_with_a_non_unit_coefficient():
    """2p = 4 fixes p at 2: substituting it multiplies the other
    constraints by 2, so p <= 2 stays satisfiable and 2 < p does not."""
    pinned = (
        "(declare-const x V)",
        "(assert ((_ is IntV) x))",
        "(assert (= (* 2 (iv x)) 4))",
    )
    assert check(fresh_solver(), *pinned, "(assert (<= (iv x) 2))", "(check-sat)") == "sat"
    assert check(fresh_solver(), *pinned, "(assert (< 2 (iv x)))", "(check-sat)") == "unsat"


def test_elimination_is_not_rounded():
    """Elimination is exact over the rationals: this system forces
    2q = 1, which only q = 1/2 solves.  Rounding the combined constraints
    to integer cuts would answer unsat; the solver answers sat."""
    assert check(
        fresh_solver(),
        "(declare-const x V)",
        "(declare-const y V)",
        "(assert (and ((_ is IntV) x) ((_ is IntV) y)))",
        "(assert (<= 0 (iv x)))",
        "(assert (<= (iv x) 0))",
        "(assert (<= (+ (iv x) (* 2 (iv y))) 1))",
        "(assert (<= 1 (+ (iv x) (* 2 (iv y)))))",
        "(check-sat)",
    ) == "sat"
