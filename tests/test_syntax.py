import pytest

from scv.syntax import (
    App,
    DepCon,
    DesugarError,
    Expr,
    If,
    LANGUAGE_LABEL,
    Lam,
    Mon,
    Num,
    OPAQUE_LABEL,
    Opq,
    ParseError,
    Position,
    Prim,
    Ref,
    Set,
    alpha_rename,
    assigned_vars,
    desugar,
    free_vars,
    node_kinds,
    parse,
    parse_expr,
    print_expr,
    toplevel_names,
    with_escapes,
)

CORE_KINDS = {"Num", "Prim", "Opq", "Lam", "Ref", "App", "If", "Set", "DepCon", "Mon"}


def eq_mod_labels(a, b) -> bool:
    """Structural equality ignoring application labels (labels regenerate
    from source positions on reparse)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, App):
        return eq_mod_labels(a.fn, b.fn) and eq_mod_labels(a.arg, b.arg)
    if isinstance(a, Lam):
        return a.x == b.x and eq_mod_labels(a.body, b.body)
    if isinstance(a, If):
        return all(eq_mod_labels(x, y) for x, y in
                   ((a.cond, b.cond), (a.then, b.then), (a.orelse, b.orelse)))
    if isinstance(a, Set):
        return a.x == b.x and eq_mod_labels(a.expr, b.expr)
    if isinstance(a, Mon):
        return (a.pos_label == b.pos_label and a.neg_label == b.neg_label
                and eq_mod_labels(a.contract, b.contract) and eq_mod_labels(a.expr, b.expr))
    if hasattr(a, "dom"):
        return a.x == b.x and eq_mod_labels(a.dom, b.dom) and eq_mod_labels(a.rng, b.rng)
    return a == b


def test_parse_application_with_label_position():
    e = parse_expr("(add1 5)")
    assert isinstance(e, App)
    assert isinstance(e.fn, Ref) and e.fn.x == "add1"
    assert isinstance(e.arg, Num) and e.arg.n == 5
    assert e.label.is_transparent()
    assert e.label.pos.line == 1


def test_parse_hole():
    assert isinstance(parse_expr("•"), Opq)
    assert isinstance(parse_expr("hole"), Opq)


def test_parse_mon_parties():
    e = parse_expr("(mon f g int? (λ (x) x))")
    assert isinstance(e, Mon)
    assert e.pos_label.name == "f" and e.neg_label.name == "g"
    assert isinstance(e.contract, Ref) and e.contract.x == "int?"
    assert isinstance(e.expr, Lam)


def test_reserved_names_rejected():
    with pytest.raises(ParseError):
        parse_expr("(mon •ctx g int? 5)")
    with pytest.raises(ParseError):
        parse_expr("(mon Λ g int? 5)")
    with pytest.raises(ParseError):
        parse_expr("(λ (•) 1)")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_expr("(if 1 2)")
    assert "1:1" in str(exc.value)


def test_let_expands_to_application():
    e = parse_expr("(let ([x 1]) x)")
    assert isinstance(e, App) and isinstance(e.fn, Lam)
    assert e.fn.x == "x" and isinstance(e.arg, Num)


def test_begin_expands_with_fresh_binder():
    e = parse_expr("(begin a b)")
    # parse keeps unresolved refs; shape is ((λ (_) b) a)
    assert isinstance(e, App) and isinstance(e.fn, Lam)
    assert isinstance(e.fn.body, Ref) and e.fn.body.x == "b"
    assert isinstance(e.arg, Ref) and e.arg.x == "a"
    assert e.fn.x not in free_vars(e.fn.body)


def test_nary_application_curried():
    e = parse_expr("(+ 1 2)")
    assert isinstance(e, App) and isinstance(e.fn, App)


def test_box_sugar_roundtrip_behavior():
    text = "(let ([b (box 5)]) (begin (set-box! b 9) (unbox b)))"
    core = alpha_rename(desugar(parse(text)))
    assert node_kinds(core) <= CORE_KINDS
    from scv.abstraction import run_concrete

    out = run_concrete(core)
    assert out.kind == "value" and repr(out.value.value) == "9"


def test_duplicate_let_binder_rejected():
    with pytest.raises(ParseError):
        parse_expr("(let ([x 1] [x 2]) x)")


def test_unbound_variable_rejected_at_desugar():
    with pytest.raises(DesugarError):
        desugar(parse("(add1 y)"))


def _run(text: str):
    from scv.abstraction import run_concrete

    return run_concrete(alpha_rename(desugar(parse(text))))


def test_surface_aliases_run_like_their_primitives():
    for alias, canonical in (("≤", "<="), ("−", "-")):
        for args in ("1 2", "5 3", "2 2"):
            a = _run(f"({alias} {args})").value.value
            assert a == _run(f"({canonical} {args})").value.value, (alias, args)
        # a misused alias blames its own call site, as the primitive does
        text = f"(define f (λ (x) ({alias} x 1)))\n(f add1)"
        got = _run(text)
        assert got.kind == "blame" and got.positive == f"{canonical}@1:19"
        assert got == _run(text.replace(alias, canonical))


def test_program_binding_of_an_alias_shadows_it():
    assert _run("(define ≤ (λ (x) (λ (y) 7))) (≤ 1 2)").value.value.n == 7


def test_internal_predicates_are_not_source_names():
    for name in ("nonzero?", "nonproc?"):
        with pytest.raises(DesugarError, match="unbound variable"):
            desugar(parse(f"({name} 5)"))


def test_forward_reference_rejected():
    with pytest.raises(DesugarError):
        desugar(parse("(define a (add1 b)) (define b 1) a"))


def test_self_reference_allowed():
    core = desugar(parse("(define f (λ (x) (f x))) 0"))
    assert node_kinds(core) <= CORE_KINDS


def test_desugar_only_core_forms_survive():
    text = """
    (define/contract f (->d int? x int?) (λ (x) (let* ([y x] [z y]) (begin (set! y 1) z))))
    (f (box 2))
    """
    core = desugar(parse(text))
    assert node_kinds(core) <= CORE_KINDS


def test_partial_prims_guarded_total_preds_raw():
    core = desugar(parse("(add1 (int? 5))"))
    kinds = node_kinds(core)
    assert "Mon" in kinds  # add1 reference got its guard
    # int? stays a bare primitive
    found = []

    def walk(e):
        if isinstance(e, Prim):
            found.append(e.op)
        for attr in ("fn", "arg", "body", "cond", "then", "orelse", "expr", "contract", "dom", "rng"):
            child = getattr(e, attr, None)
            if child is not None and hasattr(child, "_key"):
                walk(child)

    walk(core)
    assert "int?" in found and "add1" in found


def test_alpha_rename_unique_binders():
    e = parse_expr("(λ (x) (λ (x) x))")
    renamed = alpha_rename(e)
    assert isinstance(renamed, Lam) and isinstance(renamed.body, Lam)
    assert renamed.x != renamed.body.x
    assert isinstance(renamed.body.body, Ref) and renamed.body.body.x == renamed.body.x


def test_alpha_rename_preserves_free_vars():
    e = parse_expr("(λ (x) (y (λ (y) (x y))))")
    assert free_vars(alpha_rename(e)) == free_vars(e) == frozenset({"y"})


def test_alpha_rename_depth_three_shadowing():
    e = parse_expr("(λ (x) (λ (x) (λ (x) x)))")
    binders = []
    cur = alpha_rename(e)
    while isinstance(cur, Lam):
        binders.append(cur.x)
        cur = cur.body
    assert len(set(binders)) == 3


def test_alpha_rename_idempotent_up_to_suffix():
    e = alpha_rename(parse_expr("(λ (x) (λ (y) (x y)))"))
    again = alpha_rename(e)
    assert free_vars(again) == free_vars(e)
    assert print_expr(again).count("λ") == 2


def test_free_vars_basic_cases():
    assert free_vars(parse_expr("(λ (x) x)")) == frozenset()
    assert free_vars(parse_expr("(λ (x) y)")) == frozenset({"y"})
    assert free_vars(Set("x", Num(5))) == frozenset({"x"})


_LEAVES = (Num(1), Ref("y"), Opq())
_POS = Position(3, 7)
NODE_SAMPLES = [
    Num(1, _POS),
    Prim("add1", _POS),
    Opq(_POS),
    Ref("x", _POS),
    Lam("x", _LEAVES[0], _POS),
    App(*_LEAVES[:2], OPAQUE_LABEL, _POS),
    If(*_LEAVES, _POS),
    Set("x", _LEAVES[0], _POS),
    DepCon(_LEAVES[0], "x", _LEAVES[1], _POS),
    Mon(OPAQUE_LABEL, LANGUAGE_LABEL, *_LEAVES[:2], _POS),
]


def test_node_samples_cover_core_kinds():
    assert {type(e).__name__ for e in NODE_SAMPLES} == CORE_KINDS


@pytest.mark.parametrize("node", NODE_SAMPLES, ids=lambda e: type(e).__name__)
def test_children_are_exactly_the_expr_fields(node):
    fields = [getattr(node, name) for name in type(node).__slots__]
    expected = [f for f in fields if isinstance(f, Expr)]
    children = node.children()
    assert len(children) == len(expected)
    assert all(c is f for c, f in zip(children, expected))
    assert node.rebuild(children) is node
    # fresh kids land in the fields children() read; names, labels and pos stay
    fresh = [Num(100 + i) for i in range(len(children))]
    rebuilt = node.rebuild(fresh)
    assert type(rebuilt) is type(node)
    kids = iter(fresh)
    for name in type(node).__slots__:
        old = getattr(node, name)
        assert getattr(rebuilt, name) is (next(kids) if isinstance(old, Expr) else old), name
    with pytest.raises(AttributeError):
        node.pos = Position(1, 1)


def test_assigned_vars_sees_set_under_lambda():
    e = parse_expr("(λ (x) (λ (y) (if x (set! x (λ (z) (set! y z))) 0)))")
    assert assigned_vars(e) == frozenset({"x", "y"})
    inner = e.body.body.then.expr
    assert isinstance(inner, Lam) and assigned_vars(inner) == frozenset({"y"})
    assert assigned_vars(parse_expr("(λ (x) x)")) == frozenset()


def test_print_parse_round_trip():
    texts = [
        "(λ (x) (if (zero? x) 1 (add1 x)))",
        "(mon f g (->d int? x (λ (r) (int? r))) (λ (x) x))",
        "(set! x (+ 1 •))",
    ]
    for text in texts:
        e = desugar_free_parse(text)
        printed = print_expr(e)
        again = desugar_free_parse(printed)
        assert eq_mod_labels(e, again), printed


def desugar_free_parse(text):
    return parse_expr(text)


def test_with_escapes_adds_context_applications():
    program = with_escapes(parse("(define a 1) (define b (λ (x) x)) 0"))
    core = desugar(program)
    # both definitions flow into unknown-context applications
    count = print_expr(core).count("(• ")
    assert count == 2


def test_toplevel_names_after_rename():
    core = alpha_rename(desugar(parse("(define a 1) (define f (λ (x) (f x))) 0")))
    names = toplevel_names(core)
    assert len(names) == 2
    assert any(n.startswith("a") for n in names)
    assert any(n.startswith("f") for n in names)
