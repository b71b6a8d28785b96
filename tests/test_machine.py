import pytest

from scv.abstraction import AnalysisResult, BlameInfo, ConcreteOutcome, widen
from scv.config import Config, RunCtx
from scv.feasibility import Formula
from scv.machine import (
    Cache,
    CBlame,
    CEval,
    CVal,
    Env,
    FAppArg,
    FAppFn,
    FArrDom,
    FArrRng,
    FGrd,
    FIf,
    FMonC,
    FMonV,
    FRt,
    FSet,
    GlobalStores,
    HALT,
    LEAK_ADDR,
    MachineState,
    PostValue,
    Record,
    VArr,
    VClo,
    VGrd,
    VNum,
    VOpq,
    VPrim,
    join_values,
    load,
    state_to_dict,
)
from scv.primitives import PrimSpec
from scv.soundness import DifferentialReport, Instance
from scv.syntax import Definition, Label, Num, Opq, Position, Ref, SExpr, SurfaceProgram, parse_expr

POS, NEG = Label("f"), Label("g")


def _w():
    return PostValue(VNum(1), Ref("x"))


# One instance of each record class in scv: its class, one field name, and
# a factory for its full field tuple (each call builds fresh, equal objects).
RECORDS = [
    (VNum, "n", lambda: (1,)),
    (VPrim, "op", lambda: ("add", VNum(1))),
    (VClo, "x", lambda: ("x", Num(1), Env({"y": ("var", "y", frozenset())}), frozenset({Ref("y")}))),
    (VGrd, "a_dom", lambda: (("node", "d"), ("node", "r"))),
    (VArr, "pos_label", lambda: (POS, NEG, ("node", "c"), ("node", "f"))),
    (VOpq, "refinements", lambda: (frozenset({"int?"}),)),
    (PostValue, "value", lambda: (VNum(1), Ref("x"))),
    (FAppArg, "pending", lambda: (CEval(Num(1), Env()), POS)),
    (FAppFn, "fn", lambda: (_w(), POS)),
    (FIf, "then", lambda: (CEval(Num(1), Env()), CVal(_w()))),
    (FSet, "x", lambda: ("x", Env())),
    (FGrd, "x", lambda: ("x", Num(1), Env(), Num(2))),
    (FMonC, "pending", lambda: (POS, NEG, CBlame(POS, NEG), Num(3))),
    (FMonV, "contract", lambda: (POS, NEG, _w(), ("node", "c"))),
    (FArrDom, "rng_maker", lambda: (POS, NEG, _w(), _w(), POS, Num(4))),
    (FArrRng, "checked", lambda: (POS, NEG, _w(), _w(), POS, Num(4))),
    (FRt, "saved_cache", lambda: ("x", frozenset({"y"}), Cache({"y": _w()}), True)),
    (CEval, "expr", lambda: (Num(1), Env())),
    (CVal, "w", lambda: (_w(),)),
    (CBlame, "neg_label", lambda: (POS, NEG)),
    (MachineState, "frames", lambda: (CVal(_w()), Cache(), frozenset(), (FAppFn(_w(), POS),), HALT, frozenset())),
    (Position, "col", lambda: (3, 4)),
    (Label, "pos", lambda: ("f", "opaque-sentinel", Position(3, 4))),
    (SExpr, "value", lambda: (("define", "x"), Position(1, 1))),
    (Definition, "contract", lambda: ("d", Num(1), None, Position(2, 1))),
    (SurfaceProgram, "main", lambda: ((Definition("d", Num(1), None, Position(2, 1)),), Ref("d"))),
    (Config, "step_budget", lambda: ("abstract", 2, 500, "builtin", False, False, "trace.jsonl")),
    (RunCtx, "toplevel", lambda: (Config(), None, frozenset({"d"}), None, None)),
    (BlameInfo, "position", lambda: ("f", "•ctx", "3:4", ("(int? x)",))),
    (AnalysisResult, "verified", lambda: ((), 12, True, False, (VNum(1),), 0)),
    (ConcreteOutcome, "steps", lambda: ("blame", None, "f", "g", True, 9)),
    (Formula, "assertions", lambda: (("x0",), ("(is-IntV x0)",))),
    (PrimSpec, "arity", lambda: ("abs", 1, "arith", abs, None, None, None, None)),
    (Instance, "draws", lambda: (None, (Num(1),), Num(1))),
    (DifferentialReport, "violations", lambda: (SurfaceProgram((), Num(1)), frozenset({("f", "g")}), 3, 1, False, ())),
]


def _compared(cls, values: tuple) -> tuple:
    """The fields a record compares and hashes on: all of them, except that
    a Label ignores its position."""
    return values[:2] if cls is Label else values


@pytest.mark.parametrize("cls, field, make", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_contract(cls, field, make):
    """Records hash as the tuple of the fields they compare (so every set
    iterates in the same order whatever the record implementation), compare
    by class and fields, and are immutable."""
    r = cls(*make())
    assert hash(r) == hash(_compared(cls, make()))
    copy = cls(*make())
    assert copy is not r and copy == r and hash(copy) == hash(r)
    with pytest.raises(AttributeError):
        setattr(r, field, getattr(r, field))
    w = _w()
    assert FAppArg(w, POS) != FAppFn(w, POS)
    assert VOpq() == VOpq(frozenset()) and VPrim("add1").arg0 is None


@pytest.mark.parametrize(
    "record, key, same, other",
    [
        (Label("f", "transparent", Position(3, 4)), ("f", "transparent"), Label("f"), Label("f", "opaque-sentinel", Position(3, 4))),
        (Label("•ctx", "opaque-sentinel"), ("•ctx", "opaque-sentinel"), Label("•ctx", "opaque-sentinel", Position(1, 1)), Label("g", "opaque-sentinel")),
        (Position(3, 4), (3, 4), Position(3, 4), Position(4, 3)),
    ],
    ids=["Label", "Label-default-pos", "Position"],
)
def test_record_hash_pins(record, key, same, other):
    """Labels hash and compare by (name, kind), whatever their position;
    positions by (line, col)."""
    assert hash(record) == hash(key) == hash(same) and record == same and record != other


def _record_classes(cls=Record) -> list:
    """Every record class that has fields of its own."""
    out = []
    for sub in cls.__subclasses__():
        if sub.__slots__:
            out.append(sub)
        out.extend(_record_classes(sub))
    return out


def test_every_record_class_has_its_own_constructor():
    classes = _record_classes()
    assert set(classes) == {cls for cls, _, _ in RECORDS}
    inits = [cls.__dict__.get("__init__") for cls in classes]
    assert None not in inits and len(set(inits)) == len(classes)


@pytest.mark.parametrize("cls, field, make", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_constructor_arity(cls, field, make):
    """A record takes its fields positionally: too many or too few is a
    TypeError, and trailing fields left out take their `_defaults`."""
    values = make()
    with pytest.raises(TypeError):
        cls(*values, None)
    required = len(values) - len(cls._defaults)
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])
    if cls._defaults:
        r = cls(*values[:required])
        assert tuple(getattr(r, f) for f in cls.__slots__[required:]) == cls._defaults
        assert r == cls(*values[:required], *cls._defaults)


def test_load_initial_state_shape():
    state, stores = load(Num(5))
    assert isinstance(state.control, CEval)
    assert state.control.expr == Num(5)
    assert len(state.control.env) == 0
    assert len(state.cache) == 0
    assert state.pc == frozenset()
    assert state.frames == () and state.kaddr == HALT
    assert stores.lookup(LEAK_ADDR) == frozenset({VOpq()})
    assert set(stores.values) == {LEAK_ADDR}


def test_load_hole_first_step_gives_nameless_unknown():
    from scv.config import Config, RunCtx
    from scv.semantics import step

    state, stores = load(Opq())
    ctx = RunCtx(config=Config())
    (succ,) = step(state, stores, ctx)
    assert succ.control.w == PostValue(VOpq(), None)


def test_join_values_concrete_is_set_union():
    vs, rep = join_values(frozenset({VNum(2)}), VNum(4), None)
    assert vs == frozenset({VNum(2), VNum(4)}) and rep == VNum(4)


def test_join_values_identity():
    vs, rep = join_values(frozenset({VNum(2)}), VNum(2), widen)
    assert vs == frozenset({VNum(2)}) and rep == VNum(2)


def test_join_values_two_numbers_widen():
    vs, rep = join_values(frozenset({VNum(2)}), VNum(4), widen)
    assert vs == frozenset({VOpq(frozenset({"int?", "even?", "positive?"}))})
    assert rep == VOpq(frozenset({"int?", "even?", "positive?"}))


def test_join_values_closure_kept_distinct():
    # a closure carries behavior, so it is never collapsed into an unknown
    clo = VClo("x", Num(1), Env(), frozenset())
    vs, rep = join_values(frozenset({VOpq(frozenset({"int?"}))}), clo, widen)
    assert clo in vs and VOpq(frozenset({"int?"})) in vs
    assert rep == clo


def test_cache_and_env_are_value_maps():
    m = Cache({"x": PostValue(VNum(1), None)})
    m2 = m.set("y", PostValue(VNum(2), None))
    assert m2.get("x").value == VNum(1)
    assert m2.get("y").value == VNum(2)
    assert "y" not in m
    assert m2.remove("y") == m
    e = Env({"x": ("var", "x", frozenset())})
    assert hash(e) == hash(Env({"x": ("var", "x", frozenset())}))


def test_state_identity_and_hash():
    s1, _ = load(parse_expr("(add1 1)"))
    s2, _ = load(parse_expr("(add1 1)"))
    s3, _ = load(parse_expr("(add1 2)"))
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1 != s3


def test_store_growth_logs_changes():
    stores = GlobalStores()
    stores.join_value(("var", "x", frozenset()), VNum(1))
    assert stores.changed == [("var", "x", frozenset())]
    stores.changed.clear()
    stores.join_value(("var", "x", frozenset()), VNum(1))
    assert stores.changed == []


def test_assign_without_widening_replaces():
    x = ("fresh", "x", 0)
    stores = GlobalStores()
    stores.join_value(x, VNum(1))
    stores.changed.clear()
    assert stores.assign(x, VNum(2)) == VNum(2)
    assert stores.lookup(x) == frozenset({VNum(2)})
    assert stores.changed == [x]


def test_assign_with_widening_joins():
    x = ("var", "x", frozenset())
    stores = GlobalStores(widen)
    stores.join_value(x, VNum(2))
    rep = stores.assign(x, VNum(4))
    assert rep == VOpq(frozenset({"int?", "even?", "positive?"}))
    assert stores.lookup(x) == frozenset({rep})


def test_assign_of_the_same_value_logs_no_change():
    for policy in (None, widen):
        stores = GlobalStores(policy)
        x = ("var", "x", frozenset())
        stores.assign(x, VNum(1))
        stores.changed.clear()
        stores.assign(x, VNum(1))
        assert stores.changed == [], policy


def test_leak_set_only_grows():
    from scv.havoc import leak

    stores = GlobalStores(widen)
    stores.values[LEAK_ADDR] = frozenset({VOpq()})
    sizes = []
    for v in (VNum(3), VPrim("add1"), VClo("x", Num(0), Env(), frozenset())):
        leak(stores, v)
        sizes.append(len(stores.lookup(LEAK_ADDR)))
    assert sizes == sorted(sizes)


def test_state_dump_schema():
    state, _ = load(parse_expr("(add1 1)"))
    doc = state_to_dict(state)
    assert doc["control"]["kind"] == "eval"
    assert doc["pc"] == []
    assert doc["cache"] == {}
