from scv.abstraction import widen
from scv.machine import (
    Cache,
    CEval,
    Env,
    GlobalStores,
    HALT,
    LEAK_ADDR,
    MachineState,
    PostValue,
    VClo,
    VNum,
    VOpq,
    VPrim,
    join_values,
    load,
    state_to_dict,
)
from scv.syntax import Num, Opq, parse_expr


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
    state, stores = load(parse_expr("(add1 1)"))
    doc = state_to_dict(state, stores)
    assert doc["control"]["kind"] == "eval"
    assert doc["pc"] == []
    assert doc["cache"] == {}
    assert doc["store"]["addresses"] == 1
