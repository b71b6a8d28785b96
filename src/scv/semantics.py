"""The small-step reduction relation.

`step` maps one machine state (plus the global stores) to the set of its
successor states, implementing literal evaluation, variable lookup and
mutation, conditionals guarded by the feasibility relation, flat and
higher-order contract monitoring, application of primitives, closures,
guarded functions and unknown values, and function return.  Monitoring a
guarded application decomposes into a reversed-party domain check, the
range-maker application, the wrapped call, and a range check, in that
order.  Applying an unknown value defers to the havoc module.

Store joins go through the driver-owned global stores, which track growth
and own the run's join policy; aside from that, successors are pure data.
"""

from __future__ import annotations

from typing import Optional

from . import havoc
from .abstraction import alloc, kont_alloc
from .config import RunCtx
from .feasibility import feasible
from .machine import (
    Cache,
    CBlame,
    CEval,
    Control,
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
    Frame,
    GlobalStores,
    HALT,
    MachineState,
    PostValue,
    VArr,
    VClo,
    VGrd,
    VNum,
    VOpq,
    VPrim,
    Value,
)
from .primitives import BASE_VOCAB, delta, satisfies
from .syntax import (
    App,
    DepCon,
    Expr,
    If,
    Label,
    Lam,
    Mon,
    Num,
    OPAQUE_KIND,
    Opq,
    Prim,
    Ref,
    Set,
    SYM_LABEL,
    LANGUAGE_LABEL,
    expr_depth,
    free_vars,
)

__all__ = ["step", "lit", "lookup", "ap_sym", "distr", "InternalError", "effective_sym"]


class InternalError(Exception):
    """Invariant violation inside the machine (allocator or frame bugs)."""


# --------------------------------------------------------------------------
# Small helpers from the figure-level metafunctions
# --------------------------------------------------------------------------


def lit(u: Expr, env: Env, pc: frozenset) -> PostValue:
    """Literal evaluation: numbers and operations name themselves, lambdas
    close over their free variables and the current path condition, holes
    are nameless unknowns."""
    if isinstance(u, Num):
        return PostValue(VNum(u.n), u)
    if isinstance(u, Prim):
        return PostValue(VPrim(u.op), u)
    if isinstance(u, Opq):
        return PostValue(VOpq(), None)
    if isinstance(u, Lam):
        fv = free_vars(u)
        restricted = Env({x: env[x] for x in fv if x in env})
        return PostValue(VClo(u.x, u.body, restricted, pc), u)
    raise InternalError(f"not a literal: {u!r}")


def lookup(stores: GlobalStores, env: Env, cache: Cache, x: str) -> list[PostValue]:
    """Cache hit gives the one precise post-value; otherwise every store
    member, nameless."""
    hit = cache.get(x)
    if hit is not None:
        return [hit]
    addr = env.get(x)
    if addr is None:
        raise InternalError(f"unbound variable at runtime: {x}")
    values = stores.lookup(addr)
    if not values:
        raise InternalError(f"address of {x} missing from store")
    return [PostValue(v, None) for v in values]


def effective_sym(w: PostValue, max_depth: int) -> Optional[Expr]:
    """A post-value's symbolic name, falling back to the literal itself for
    self-naming values: numbers, primitives, and partial applications of
    primitives to self-naming values."""
    if w.sym is not None:
        return w.sym
    return _self_name(w.value, max_depth)


def _self_name(v: Value, max_depth: int) -> Optional[Expr]:
    if isinstance(v, VNum):
        return Num(v.n)
    if isinstance(v, VPrim):
        if v.arg0 is None:
            return Prim(v.op)
        inner = _self_name(v.arg0, max_depth)
        if inner is None:
            return None
        e = App(Prim(v.op), inner, SYM_LABEL)
        return e if expr_depth(e) <= max_depth else None
    return None


def ap_sym(s_fn: Optional[Expr], s_arg: Optional[Expr], max_depth: int) -> Optional[Expr]:
    """Reconstruct an application as a symbolic name; None if either side is
    nameless, the name would be too deep, or the operator is not a chain of
    primitive applications (anything else existentializes in the logic, so
    such a name could never constrain a path)."""
    if s_fn is None or s_arg is None:
        return None
    head = s_fn
    while isinstance(head, App):
        head = head.fn
    if not isinstance(head, Prim):
        return None
    e = App(s_fn, s_arg, SYM_LABEL)
    if expr_depth(e) > max_depth:
        return None
    return e


def distr(e: Expr, env: Env) -> tuple[Control, tuple[Frame, ...]]:
    """Focus the first sub-term of a compound form and push the frames that
    remember the rest: functions before arguments, contracts before
    monitored expressions."""
    if isinstance(e, App):
        return CEval(e.fn, env), (FAppArg(CEval(e.arg, env), e.label),)
    if isinstance(e, If):
        return CEval(e.cond, env), (FIf(CEval(e.then, env), CEval(e.orelse, env)),)
    if isinstance(e, Set):
        return CEval(e.expr, env), (FSet(e.x, env),)
    if isinstance(e, DepCon):
        return CEval(e.dom, env), (FGrd(e.x, e.rng, env, e),)
    if isinstance(e, Mon):
        return CEval(e.contract, env), (FMonC(e.pos_label, e.neg_label, CEval(e.expr, env), e),)
    raise InternalError(f"not a compound form: {e!r}")


# --------------------------------------------------------------------------
# The step relation
# --------------------------------------------------------------------------


def step(state: MachineState, stores: GlobalStores, ctx: RunCtx) -> list[MachineState]:
    control = state.control
    if isinstance(control, CBlame):
        return []
    if isinstance(control, CEval):
        return _step_eval(state, control, stores, ctx)
    assert isinstance(control, CVal)
    if state.frames:
        return _step_frame(state, control.w, stores, ctx)
    if state.kaddr == HALT:
        return []
    # continuation-store pop: resume every stored continuation
    out = []
    for frames, kaddr in stores.lookup_kont(state.kaddr):
        out.append(_update(state, frames=frames, kaddr=kaddr))
    return out


def _update(
    state: MachineState,
    control=None,
    cache=None,
    pc=None,
    frames=None,
    kaddr=None,
    history=None,
) -> MachineState:
    return MachineState(
        state.control if control is None else control,
        state.cache if cache is None else cache,
        state.pc if pc is None else pc,
        state.frames if frames is None else frames,
        state.kaddr if kaddr is None else kaddr,
        state.history if history is None else history,
    )


def _step_eval(state: MachineState, control: CEval, stores: GlobalStores, ctx: RunCtx) -> list[MachineState]:
    e, env = control.expr, control.env
    if isinstance(e, (Num, Prim, Opq, Lam)):
        return [_update(state, control=CVal(lit(e, env, state.pc)))]
    if isinstance(e, Ref):
        return [
            _update(state, control=CVal(w)) for w in lookup(stores, env, state.cache, e.x)
        ]
    focus, pushed = distr(e, env)
    return [_update(state, control=focus, frames=pushed + state.frames)]


def _step_frame(state: MachineState, w: PostValue, stores: GlobalStores, ctx: RunCtx) -> list[MachineState]:
    frame = state.frames[0]
    rest = state.frames[1:]
    base = _update(state, frames=rest)

    if isinstance(frame, FAppArg):
        return [
            _update(base, control=frame.pending, frames=(FAppFn(w, frame.label),) + rest)
        ]

    if isinstance(frame, FAppFn):
        return _apply(base, frame.fn, w, frame.label, stores, ctx)

    if isinstance(frame, FIf):
        out = []
        depth = ctx.config.max_sym_depth
        pc_then = feasible(state.pc, "nonzero?", w, ctx.solver, depth)
        if pc_then is not None:
            out.append(_update(base, control=frame.then, pc=pc_then))
        pc_else = feasible(state.pc, "zero?", w, ctx.solver, depth)
        if pc_else is not None:
            out.append(_update(base, control=frame.orelse, pc=pc_else))
        return out

    if isinstance(frame, FSet):
        addr = frame.env.get(frame.x)
        if addr is None:
            raise InternalError(f"set! of unbound {frame.x}")
        rep = stores.assign(addr, w.value)
        cache = state.cache.set(frame.x, PostValue(rep, _truncate(w.sym, ctx)))
        result = PostValue(VNum(1), None)
        return [_update(base, control=CVal(result), cache=cache)]

    if isinstance(frame, FGrd):
        a_dom = alloc((frame.node, "dom"), state.history, ctx)
        a_rng = alloc((frame.node, "rng"), state.history, ctx)
        stores.join_value(a_dom, w.value)
        fv = free_vars(frame.rng_body) - {frame.x}
        restricted = Env({x: frame.env[x] for x in fv if x in frame.env})
        maker = VClo(frame.x, frame.rng_body, restricted, state.pc)
        stores.join_value(a_rng, maker)
        return [_update(base, control=CVal(PostValue(VGrd(a_dom, a_rng), None)))]

    if isinstance(frame, FMonC):
        return [
            _update(
                base,
                control=frame.pending,
                frames=(FMonV(frame.pos_label, frame.neg_label, w, frame.node),) + rest,
            )
        ]

    if isinstance(frame, FMonV):
        return _monitor(base, frame, w, stores, ctx)

    if isinstance(frame, FArrDom):
        pushed = (FArrRng(frame.pos_label, frame.neg_label, frame.fn, w, frame.label, frame.node),) + rest
        return _apply(_update(base, frames=pushed), frame.rng_maker, w, frame.label, stores, ctx)

    if isinstance(frame, FArrRng):
        pushed = (
            FAppFn(frame.fn, frame.label),
            FMonV(frame.pos_label, frame.neg_label, w, frame.node),
        ) + rest
        return [_update(base, control=CVal(frame.checked), frames=pushed)]

    if isinstance(frame, FRt):
        return _return(base, frame, w, ctx)

    raise InternalError(f"unknown frame {frame!r}")


def _truncate(sym: Optional[Expr], ctx: RunCtx) -> Optional[Expr]:
    if sym is not None and expr_depth(sym) > ctx.config.max_sym_depth:
        return None
    return sym


# --------------------------------------------------------------------------
# Application
# --------------------------------------------------------------------------


def _apply(
    state: MachineState,
    fnw: PostValue,
    argw: PostValue,
    label: Label,
    stores: GlobalStores,
    ctx: RunCtx,
) -> list[MachineState]:
    fn = fnw.value
    depth = ctx.config.max_sym_depth
    out: list[MachineState] = []

    if isinstance(fn, VPrim):
        s = ap_sym(effective_sym(fnw, depth), effective_sym(argw, depth), depth)
        for v in delta(fn, argw.value):
            out.append(_update(state, control=CVal(PostValue(v, s))))
        return out

    if isinstance(fn, VClo):
        return [_apply_closure(state, fn, fnw, argw, label, stores, ctx)]

    if isinstance(fn, VArr):
        return _apply_guarded(state, fn, argw, label, stores, ctx)

    # unknown or non-functional value: havoc and blame possibilities
    pc_proc = feasible(state.pc, "proc?", fnw, ctx.solver, depth)
    if pc_proc is not None and isinstance(fn, VOpq):
        out.extend(havoc.opaque_application(state, argw, pc_proc, stores, ctx))
    pc_non = feasible(state.pc, "nonproc?", fnw, ctx.solver, depth)
    if pc_non is not None:
        out.append(
            _update(state, control=CBlame(label, LANGUAGE_LABEL), pc=pc_non)
        )
    return out


def _apply_closure(
    state: MachineState,
    clo: VClo,
    fnw: PostValue,
    argw: PostValue,
    label: Label,
    stores: GlobalStores,
    ctx: RunCtx,
) -> MachineState:
    # Transfers made by the unknown context carry no loop structure worth
    # distinguishing; recording them would only multiply addresses across
    # havoc interleavings.  Program-labeled transfers key the polyvariance.
    if label.kind == OPAQUE_KIND:
        history = state.history
    else:
        history = state.history | {(label, clo.body)}
    addr = alloc(clo.x, history, ctx)
    rep = stores.join_value(addr, argw.value)
    env2 = clo.env.set(clo.x, addr)

    shared = isinstance(fnw.sym, Lam)
    ys = frozenset(clo.env)
    cache = state.cache
    if not shared:
        # the callee's free variables may alias different locations; their
        # entries stop being trustworthy (absence means invalidated)
        doomed = [y for y in ys if y not in ctx.toplevel and y in cache]
        for y in doomed:
            cache = cache.remove(y)
    if clo.x in free_vars(clo.body):
        cache = cache.set(clo.x, PostValue(rep, Ref(clo.x)))
    elif clo.x in cache:
        # dead binder (sequencing sugar and the like): nothing reads it, so
        # a cache entry would only multiply state identities
        cache = cache.remove(clo.x)

    pc = (clo.pc | state.pc) if shared else clo.pc
    rt = FRt(clo.x, ys, state.cache, shared)
    kaddr = kont_alloc(clo.body, env2, ctx)
    stores.join_kont(kaddr, ((rt,) + state.frames, state.kaddr))
    return _update(
        state,
        control=CEval(clo.body, env2),
        cache=cache,
        pc=pc,
        frames=(),
        kaddr=kaddr,
        history=history,
    )


def _apply_guarded(
    state: MachineState,
    arr: VArr,
    argw: PostValue,
    label: Label,
    stores: GlobalStores,
    ctx: RunCtx,
) -> list[MachineState]:
    out = []
    fns = stores.lookup(arr.a_fn)
    for con in stores.lookup(arr.a_con):
        if isinstance(con, VGrd):
            doms = stores.lookup(con.a_dom)
            makers = stores.lookup(con.a_rng)
            pairs = [(d, r) for d in doms for r in makers]
        elif isinstance(con, VOpq):
            # unknown contract decomposes into unknown domain and range
            pairs = [(VOpq(), VOpq())]
        else:
            continue
        for v_dom, v_maker in pairs:
            for v_fn in fns:
                frames = (
                    FMonV(arr.neg_label, arr.pos_label, PostValue(v_dom, None), (arr.a_con, "dom")),
                    FArrDom(
                        arr.pos_label,
                        arr.neg_label,
                        PostValue(v_maker, None),
                        PostValue(v_fn, None),
                        label,
                        (arr.a_con, "rng"),
                    ),
                ) + state.frames
                out.append(_update(state, control=CVal(argw), frames=frames))
    return out


# --------------------------------------------------------------------------
# Contract monitoring
# --------------------------------------------------------------------------


def _refine_opaque(v: Value, contract: Value) -> Value:
    """On a passed flat check, record the predicate in the value's
    refinements when that is sound: vocabulary predicates always, closure
    contracts only when they are pure functions of their argument."""
    if not isinstance(v, VOpq):
        return v
    if isinstance(contract, VPrim) and contract.arg0 is None and contract.op in BASE_VOCAB:
        return VOpq(v.refinements | {contract.op})
    if isinstance(contract, VClo) and _pure_contract(contract):
        token = Lam(contract.x, contract.body)
        return VOpq(v.refinements | {token})
    return v


def _pure_contract(clo: VClo) -> bool:
    """A contract closure whose verdict depends only on its argument: no
    mutation, no holes, no free variables, applications only of primitive
    chains."""
    if free_vars(Lam(clo.x, clo.body)):
        return False

    def ok(e: Expr) -> bool:
        if isinstance(e, (Num, Prim, Ref)):
            return True
        if isinstance(e, If):
            return ok(e.cond) and ok(e.then) and ok(e.orelse)
        if isinstance(e, App):
            return _prim_chain(e.fn) and ok(e.arg)
        return False

    def _prim_chain(f: Expr) -> bool:
        if isinstance(f, Prim):
            return True
        if isinstance(f, Mon):
            return isinstance(f.expr, Prim)  # guarded primitive reference
        if isinstance(f, App):
            return _prim_chain(f.fn) and ok(f.arg)
        return False

    return ok(clo.body)


def _monitor(
    state: MachineState,
    frame: FMonV,
    w: PostValue,
    stores: GlobalStores,
    ctx: RunCtx,
) -> list[MachineState]:
    c = frame.contract.value
    pos, neg = frame.pos_label, frame.neg_label
    out: list[MachineState] = []

    def flat_check(base: MachineState) -> list[MachineState]:
        # short-circuit a known-satisfied contract
        if isinstance(w.value, VOpq):
            if isinstance(c, VPrim) and c.arg0 is None and satisfies(w.value, c.op):
                return [_update(base, control=CVal(w))]
            if isinstance(c, VClo) and satisfies(w.value, Lam(c.x, c.body)):
                return [_update(base, control=CVal(w))]
        passed = PostValue(_refine_opaque(w.value, c), w.sym)
        frames = (FIf(CVal(passed), CBlame(pos, neg)),) + base.frames
        return _apply(_update(base, frames=frames), frame.contract, w, pos, stores, ctx)

    def fun_wrap(base: MachineState, contract_value: Value) -> list[MachineState]:
        depth = ctx.config.max_sym_depth
        res = []
        pc_proc = feasible(base.pc, "proc?", w, ctx.solver, depth)
        if pc_proc is not None:
            a_con = alloc((frame.node, pos, neg, "c"), base.history, ctx)
            a_fn = alloc((frame.node, pos, neg, "f"), base.history, ctx)
            stores.join_value(a_con, contract_value)
            wrapped = w.value
            if isinstance(wrapped, VOpq):
                wrapped = VOpq(wrapped.refinements | {"proc?"})
            stores.join_value(a_fn, wrapped)
            arr = VArr(pos, neg, a_con, a_fn)
            res.append(_update(base, control=CVal(PostValue(arr, None)), pc=pc_proc))
        pc_non = feasible(base.pc, "nonproc?", w, ctx.solver, depth)
        if pc_non is not None:
            res.append(_update(base, control=CBlame(pos, neg), pc=pc_non))
        return res

    if isinstance(c, VGrd):
        return fun_wrap(state, c)
    if isinstance(c, VOpq):
        # Unknown contract: both a flat use and a function-contract use are
        # plausible; explore each.
        out.extend(flat_check(state))
        out.extend(fun_wrap(state, c))
        return out
    # Flat values: primitives, closures, and anything applicable; numbers
    # and the like fail at application with a blame on the language party.
    return flat_check(state)


# --------------------------------------------------------------------------
# Return
# --------------------------------------------------------------------------


def _return(state: MachineState, rt: FRt, w: PostValue, ctx: RunCtx) -> list[MachineState]:
    """Restore the caller's view: the parameter entry comes back from the
    saved cache, the callee's free variables are conservatively dropped
    (they may have been mutated), everything else keeps the callee's
    current knowledge.  Entries for variables outside the caller's scope
    are dropped entirely; only top-level ones ride along.  The value comes
    back nameless: a name from the callee speaks about its own binders."""
    callee = state.cache
    saved = rt.saved_cache
    out = {}
    for y, v in saved.items():
        if y == rt.x:
            out[y] = v
            continue
        if not rt.shared and y in rt.ys and y not in ctx.toplevel:
            continue
        cv = callee.get(y)
        if cv is not None:
            out[y] = cv
    for y in ctx.toplevel:
        if y not in out and y != rt.x:
            cv = callee.get(y)
            if cv is not None:
                out[y] = cv
    return [_update(state, control=CVal(PostValue(w.value, None)), cache=Cache(out))]
