import re

from conftest import CORPUS_EXPECTED, compile_text, corpus_text, fresh_config
from scv.abstraction import run_fixpoint, widen
from scv.config import Config, RunCtx
from scv.havoc import (
    HavocMemo,
    context_mutable_vars,
    fingerprint,
    leak,
    should_rerun,
)
from scv.machine import (
    Cache,
    CVal,
    DETACHED,
    Env,
    GlobalStores,
    LEAK_ADDR,
    MachineState,
    PostValue,
    VClo,
    VNum,
    VOpq,
)
from scv.syntax import Num, Set, parse


def fresh_stores(policy=None) -> GlobalStores:
    stores = GlobalStores(policy)
    stores.values[LEAK_ADDR] = frozenset({VOpq()})
    return stores


def test_leak_concrete_keeps_value():
    stores = fresh_stores()
    leak(stores, VNum(5))  # no widening hook: plain set union
    assert VNum(5) in stores.lookup(LEAK_ADDR)
    size = len(stores.lookup(LEAK_ADDR))
    leak(stores, VNum(5))
    assert len(stores.lookup(LEAK_ADDR)) == size  # set semantics


def test_leak_abstract_widens_numbers_into_unknown():
    stores = fresh_stores(widen)
    leak(stores, VNum(5))
    covered = stores.lookup(LEAK_ADDR)
    assert any(isinstance(v, VOpq) for v in covered)


def nested_closure(stores: GlobalStores) -> tuple:
    """A closure reaching three addresses, the last through a closure stored
    in the second; returns the closure and the addresses."""
    a1, a2, a3 = ("var", "a", frozenset()), ("var", "b", frozenset()), ("var", "c", frozenset())
    inner = VClo("y", Num(0), Env({"c": a3}), frozenset())
    stores.values[a1] = frozenset({VNum(1)})
    stores.values[a2] = frozenset({inner})
    stores.values[a3] = frozenset({VNum(7)})
    return VClo("x", Num(0), Env({"a": a1, "b": a2}), frozenset()), (a1, a2, a3)


def reachable_addrs(v, stores: GlobalStores) -> set:
    """The addresses of the store slice in `v`'s fingerprint."""
    return {addr for addr, _ in fingerprint(v, stores)[0]}


def test_closure_reachability_enters_fingerprint():
    stores = fresh_stores()
    clo, (a1, a2, a3) = nested_closure(stores)
    assert reachable_addrs(clo, stores) == {a1, a2, a3}
    fp1 = fingerprint(clo, stores)
    stores.values[a3] = frozenset({VNum(8)})
    assert fingerprint(clo, stores) != fp1


def test_should_rerun_records_every_reachable_read():
    """The driver revisits an escape point when an address it read grows, so
    `should_rerun` must read the whole slice, whether it reruns or skips."""
    stores = fresh_stores()
    memo = HavocMemo()
    clo, addrs = nested_closure(stores)
    for expected in (True, False):
        stores.reads = set()
        assert should_rerun(clo, stores, memo) is expected
        assert stores.reads >= set(addrs)


def test_memo_tells_apart_cache_entries_with_equal_hashes():
    """CPython hashes -1 and -2 alike, so contexts that differ only in
    `n -> -1` against `n -> -2` must be told apart by equality."""
    assert hash(-1) == hash(-2)
    stores = fresh_stores()
    memo = HavocMemo()
    clo = VClo("x", Num(0), Env(), frozenset())
    toplevel = frozenset({"n"})

    def detached_run(n: int) -> MachineState:
        cache = Cache({"n": PostValue(VNum(n), None)})
        return MachineState(CVal(PostValue(VOpq(), None)), cache, frozenset(), (), DETACHED, frozenset())

    minus_one, minus_two = detached_run(-1), detached_run(-2)
    assert should_rerun(clo, stores, memo, minus_one, toplevel)
    assert should_rerun(clo, stores, memo, minus_two, toplevel)
    assert not should_rerun(clo, stores, memo, minus_two, toplevel)


def test_should_rerun_first_then_memoized():
    stores = fresh_stores()
    memo = HavocMemo()
    clo = VClo("x", Num(0), Env(), frozenset())
    assert should_rerun(clo, stores, memo)
    assert not should_rerun(clo, stores, memo)


def test_should_rerun_after_reachable_mutation():
    stores = fresh_stores(widen)
    memo = HavocMemo()
    addr = ("var", "n", frozenset())
    stores.values[addr] = frozenset({VNum(1)})
    clo = VClo("x", Num(0), Env({"n": addr}), frozenset())
    assert should_rerun(clo, stores, memo)
    assert not should_rerun(clo, stores, memo)
    stores.join_value(addr, VNum(0))  # a mutation widened the cell
    assert should_rerun(clo, stores, memo)


def test_context_mutable_vars_follows_reachable_bodies():
    stores = fresh_stores()
    mutator = VClo("u", Set("n", Num(1)), Env({"n": ("var", "n", frozenset())}), frozenset())
    leak(stores, mutator)
    assert "n" in context_mutable_vars(stores)


def test_context_mutable_vars_sees_a_join_at_a_reached_address():
    """A walk that reached an address, present or missing, is not reused
    once a join changes that address."""
    for present in (False, True):
        stores = fresh_stores(widen)
        cell = ("var", "k", frozenset())
        if present:
            stores.join_value(cell, VNum(1))
        leak(stores, VClo("u", Num(0), Env({"k": cell}), frozenset()))
        assert "m" not in context_mutable_vars(stores)
        mutator = VClo("v", Set("m", Num(1)), Env({"m": ("var", "m", frozenset())}), frozenset())
        stores.join_value(cell, mutator)
        assert "m" in context_mutable_vars(stores), present


def test_fingerprint_changes_after_a_join_at_a_reachable_address():
    stores = fresh_stores(widen)
    clo, (_, _, a3) = nested_closure(stores)
    before = fingerprint(clo, stores)
    assert fingerprint(clo, stores) == before
    stores.join_value(a3, VClo("z", Num(0), Env(), frozenset()))
    assert fingerprint(clo, stores) != before


def test_a_reused_walk_logs_the_reads_of_a_fresh_walk():
    """The driver's dependencies come from the read log, so a reused walk
    must log every address the walk it stands for read.  A missing address
    does not stop the reuse."""
    stores = fresh_stores()
    clo, addrs = nested_closure(stores)
    missing = ("var", "d", frozenset())
    clo = VClo(clo.x, clo.body, clo.env.set("d", missing), clo.pc)
    addrs += (missing,)
    leak(stores, clo)
    for root, walk in ((clo, lambda: fingerprint(clo, stores)), (LEAK_ADDR, lambda: context_mutable_vars(stores))):
        stores.walks.clear()
        stores.reads = set()
        fresh = walk()
        fresh_reads, entry = stores.reads, stores.walks[root]
        stores.reads = set()
        assert walk() == fresh
        assert stores.walks[root] is entry  # reused, not walked again
        assert stores.reads == fresh_reads >= set(addrs)


_TOKEN = re.compile(r"[^\s()\[\];]+")


def copies(name: str, n: int) -> str:
    """`n` copies of a corpus file's definitions, with the top-level names
    of copy k suffixed by `-k`, and main `0`."""
    text = "\n".join(line.split(";", 1)[0] for line in corpus_text(name).splitlines())
    program = parse(text)
    assert program.main == Num(0)
    names = {d.name for d in program.definitions}
    defs = text[: text.rindex("0")]
    return "".join(
        _TOKEN.sub(lambda m: f"{m.group()}-{k}" if m.group() in names else m.group(), defs) for k in range(n)
    ) + "0\n"


def test_every_reused_walk_equals_a_fresh_walk(monkeypatch, solver):
    """Cross-check of walk reuse on whole analyses: each time a walk is
    reused, a fresh walk from the same root gives the same result and reads
    the same addresses."""
    walk = GlobalStores.walk
    reused = []

    def checked(self, root, fresh):
        entry = self.walks.get(root)
        outer, self.reads = self.reads, set()
        result = walk(self, root, fresh)
        logged = self.reads
        if entry is not None and self.walks[root] is entry:
            self.reads = set()
            again, _ = fresh(self, root)
            assert again == result and self.reads == logged, root
            reused.append(root)
        if outer is not None:
            outer |= logged
        self.reads = outer
        return result

    monkeypatch.setattr(GlobalStores, "walk", checked)
    programs = [(corpus_text(name), len(CORPUS_EXPECTED[name])) for name in sorted(CORPUS_EXPECTED)]
    programs += [(copies("callback-counter.lms", 4), 4), (copies("divider-and-stepper.lms", 2), 2)]
    for text, blames in programs:
        res = run_fixpoint(compile_text(text, escapes=True), fresh_config(), solver=solver)
        assert len(res.blame_pairs()) == blames and not res.inconclusive, text
    assert reused


def test_corpus_havoc_blames():
    for name, expected in (("countdown-divider.lms", {("/@5:35", "Λ")}),
                           ("divider-and-stepper.lms", {("/@5:16", "Λ")})):
        core = compile_text(corpus_text(name), escapes=True)
        res = run_fixpoint(core, fresh_config(no_solver=True))
        assert res.blame_pairs() == expected, name
        assert not res.inconclusive


def test_no_opaque_positive_blame_reported():
    # applying a bare unknown context is full of sentinel-party blames, none
    # of which may surface
    core = compile_text(corpus_text("callback-doubler.lms"), escapes=True)
    res = run_fixpoint(core, fresh_config(no_solver=True))
    assert all(pos != "•ctx" for pos, _ in res.blame_pairs())
    assert res.verified


def test_memo_is_a_pure_filter_on_corpus():
    import os

    from conftest import CORPUS_DIR

    for name in sorted(os.listdir(CORPUS_DIR)):
        core = compile_text(corpus_text(name), escapes=True)
        with_memo = run_fixpoint(core, fresh_config(no_solver=True, havoc_memo=True))
        without = run_fixpoint(core, fresh_config(no_solver=True, havoc_memo=False, step_budget=2_000_000))
        assert with_memo.blame_pairs() == without.blame_pairs(), name
        assert with_memo.explored_states <= without.explored_states, name


def test_run_fixpoint_leaves_value_key_cache_empty():
    """The value-key cache lives for one analysis only, so a later analysis
    in the same process does not start out slower."""
    import scv.havoc

    core = compile_text(corpus_text("callback-counter.lms"), escapes=True)
    res = run_fixpoint(core, fresh_config(no_solver=True))
    assert res.explored_states > 0
    assert not scv.havoc._KEY_CACHE
