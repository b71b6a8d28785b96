"""Surface syntax, core expressions, parser, desugarer, and renaming.

The core language is a unary untyped lambda calculus with mutable variables,
first-class dependent function contracts, monitors with blame labels, and an
unknown-value literal written `•`.  Surface files (`.lms`) are parenthesized
prefix notation:

    program := def* expr
    def     := (define ID expr) | (define/contract ID contract expr)
    expr    := NUM | ID | • | (λ (ID ...) expr) | (expr expr ...)
             | (if expr expr expr) | (set! ID expr)
             | (->d expr ID expr) | (mon ID ID expr expr) | sugar
    sugar   := (let ([ID expr] ...) expr ...) | (let* ...) | (begin expr ...)
             | (box expr) | (unbox expr) | (set-box! expr expr)

Sugar is expanded structurally while reading: `let`/`let*` become nested
unary applications, `begin` sequences through a throwaway binder, boxes use
the closure-plus-mutation encoding, n-ary applications and lambdas curry.
Application labels are generated from source positions and are the blame
parties for runtime type errors at that site.  The two sentinel labels (the
unknown-context party and the language party) can never be written in
source text.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Iterator

from .record import Record

__all__ = [
    "Position",
    "Label",
    "OPAQUE_LABEL",
    "LANGUAGE_LABEL",
    "SYM_LABEL",
    "Expr",
    "Num",
    "Prim",
    "Opq",
    "Lam",
    "Ref",
    "App",
    "If",
    "Set",
    "DepCon",
    "Mon",
    "SurfaceProgram",
    "Definition",
    "ParseError",
    "DesugarError",
    "parse",
    "parse_expr",
    "desugar",
    "alpha_rename",
    "Renamer",
    "free_vars",
    "print_expr",
    "expr_depth",
    "subterms",
    "node_kinds",
    "assigned_vars",
    "with_escapes",
    "toplevel_names",
]


class ParseError(Exception):
    """Malformed surface text; message carries line/column."""


class DesugarError(Exception):
    """Well-formed text that violates binding or program structure rules."""


class Position(Record):
    __slots__ = ("line", "col")

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_POS = Position(0, 0)

TRANSPARENT = "transparent"
OPAQUE_KIND = "opaque-sentinel"
LANGUAGE_KIND = "language-sentinel"


class Label(Record):
    """Blame party `name` of kind `kind`, written at `pos`.  Equality and
    hash ignore the position."""

    __slots__ = ("name", "kind", "pos")
    _defaults = (TRANSPARENT, NO_POS)
    _values = operator.attrgetter("name", "kind")

    def is_transparent(self) -> bool:
        return self.kind == TRANSPARENT

    def __str__(self) -> str:
        return self.name


# The two sentinels: the unknown-context party and the language/primitive
# party.  Exactly one of each exists; user source can never mention them.
OPAQUE_LABEL = Label("•ctx", OPAQUE_KIND)
LANGUAGE_LABEL = Label("Λ", LANGUAGE_KIND)
# Neutral label used for application expressions reconstructed as symbolic
# names; such expressions are never evaluated, only compared and translated.
SYM_LABEL = Label("sym", TRANSPARENT)


def _per_node(slot: str):
    """Memoize a function of one expression in a slot of that node, so the
    result lives exactly as long as the node does."""

    def wrap(fn):
        @functools.wraps(fn)
        def memo(e):
            try:
                return getattr(e, slot)
            except AttributeError:
                result = fn(e)
                object.__setattr__(e, slot, result)
                return result

        return memo

    return wrap


class Expr:
    """Base class for core expressions.  Instances are immutable, so the hash
    and the facts derived below (free variables, printed text, set! targets,
    depth) are computed once per node and kept in its slots."""

    __slots__ = ("_hash", "_fv", "_text", "_assigned", "_depth")

    def _key(self) -> tuple:
        raise NotImplementedError

    def children(self) -> tuple[Expr, ...]:
        """The sub-expressions, in field order."""
        return ()

    def rebuild(self, kids) -> Expr:
        """This node with the sequence `kids` in place of `children()`: the
        node itself when every kid is its current child, else a new node of
        the same kind with the same names, labels and position."""
        if all(map(operator.is_, kids, self.children())):
            return self
        return self._make(*kids)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("immutable")

    @_per_node("_hash")
    def __hash__(self) -> int:
        return hash(self._key())

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]
        )

    def __repr__(self) -> str:
        return print_expr(self)


class Num(Expr):
    __slots__ = ("n", "pos")

    def __init__(self, n: int, pos: Position = NO_POS):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pos", pos)

    def _key(self):
        return ("num", self.n)


class Prim(Expr):
    __slots__ = ("op", "pos")

    def __init__(self, op: str, pos: Position = NO_POS):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "pos", pos)

    def _key(self):
        return ("prim", self.op)


class Opq(Expr):
    """The unknown-value literal `•`."""

    __slots__ = ("pos",)

    def __init__(self, pos: Position = NO_POS):
        object.__setattr__(self, "pos", pos)

    def _key(self):
        return ("opq",)


class Lam(Expr):
    __slots__ = ("x", "body", "pos")

    def __init__(self, x: str, body: Expr, pos: Position = NO_POS):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "pos", pos)

    def _key(self):
        return ("lam", self.x, self.body)

    def children(self):
        return (self.body,)

    def _make(self, body):
        return Lam(self.x, body, self.pos)


class Ref(Expr):
    __slots__ = ("x", "pos")

    def __init__(self, x: str, pos: Position = NO_POS):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "pos", pos)

    def _key(self):
        return ("ref", self.x)


class App(Expr):
    __slots__ = ("fn", "arg", "label", "pos")

    def __init__(self, fn: Expr, arg: Expr, label: Label, pos: Position = NO_POS):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "pos", pos)

    def _key(self):
        return ("app", self.fn, self.arg, self.label)

    def children(self):
        return (self.fn, self.arg)

    def _make(self, fn, arg):
        return App(fn, arg, self.label, self.pos)


class If(Expr):
    __slots__ = ("cond", "then", "orelse", "pos")

    def __init__(self, cond: Expr, then: Expr, orelse: Expr, pos: Position = NO_POS):
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "then", then)
        object.__setattr__(self, "orelse", orelse)
        object.__setattr__(self, "pos", pos)

    def _key(self):
        return ("if", self.cond, self.then, self.orelse)

    def children(self):
        return (self.cond, self.then, self.orelse)

    def _make(self, cond, then, orelse):
        return If(cond, then, orelse, self.pos)


class Set(Expr):
    __slots__ = ("x", "expr", "pos")

    def __init__(self, x: str, expr: Expr, pos: Position = NO_POS):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "pos", pos)

    def _key(self):
        return ("set", self.x, self.expr)

    def children(self):
        return (self.expr,)

    def _make(self, expr):
        return Set(self.x, expr, self.pos)


class DepCon(Expr):
    """Dependent function contract: domain plus a range maker binding `x`."""

    __slots__ = ("dom", "x", "rng", "pos")

    def __init__(self, dom: Expr, x: str, rng: Expr, pos: Position = NO_POS):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "rng", rng)
        object.__setattr__(self, "pos", pos)

    def _key(self):
        return ("depcon", self.dom, self.x, self.rng)

    def children(self):
        return (self.dom, self.rng)

    def _make(self, dom, rng):
        return DepCon(dom, self.x, rng, self.pos)


class Mon(Expr):
    """Contract monitor.  `pos_label` is blamed if the monitored expression
    breaks the contract, `neg_label` if the consuming context does."""

    __slots__ = ("pos_label", "neg_label", "contract", "expr", "pos")

    def __init__(
        self,
        pos_label: Label,
        neg_label: Label,
        contract: Expr,
        expr: Expr,
        pos: Position = NO_POS,
    ):
        object.__setattr__(self, "pos_label", pos_label)
        object.__setattr__(self, "neg_label", neg_label)
        object.__setattr__(self, "contract", contract)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "pos", pos)

    def _key(self):
        return ("mon", self.pos_label, self.neg_label, self.contract, self.expr)

    def children(self):
        return (self.contract, self.expr)

    def _make(self, contract, expr):
        return Mon(self.pos_label, self.neg_label, contract, expr, self.pos)


# --------------------------------------------------------------------------
# S-expression reader
# --------------------------------------------------------------------------

_DELIMS = "()[]"
_LAMBDA_NAMES = ("λ", "lambda")
_HOLE_NAMES = ("•", "hole")
# Names that would collide with the reserved sentinel parties.
_RESERVED_LABELS = {"•ctx", "Λ", "•"}


class SExpr(Record):
    """Either an atom (a string `value`) or a list of S-expressions (a tuple
    `value`), with a position."""

    __slots__ = ("value", "pos")

    def is_atom(self) -> bool:
        return isinstance(self.value, str)


def _tokenize(text: str) -> Iterator[tuple[str, Position]]:
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in _DELIMS:
            yield ch, Position(line, col)
            col += 1
            i += 1
        else:
            start, start_col = i, col
            while i < n and not text[i].isspace() and text[i] not in _DELIMS and text[i] != ";":
                i += 1
                col += 1
            yield text[start:i], Position(line, start_col)


def _read_all(text: str) -> list[SExpr]:
    stack: list[tuple[list, Position, str]] = []
    top: list[SExpr] = []
    for tok, pos in _tokenize(text):
        if tok in "([":
            stack.append(([], pos, ")" if tok == "(" else "]"))
        elif tok in ")]":
            if not stack:
                raise ParseError(f"{pos}: unexpected '{tok}'")
            items, open_pos, want = stack.pop()
            if tok != want:
                raise ParseError(f"{pos}: mismatched '{tok}' for group opened at {open_pos}")
            node = SExpr(tuple(items), open_pos)
            (stack[-1][0] if stack else top).append(node)
        else:
            node = SExpr(tok, pos)
            (stack[-1][0] if stack else top).append(node)
    if stack:
        raise ParseError(f"{stack[-1][1]}: unclosed '('")
    return top


def _is_number(tok: str) -> bool:
    body = tok[1:] if tok[:1] in "+-" else tok
    return body.isdigit() and body != ""


def _fresh_namer():
    counter = [0]

    def fresh(base: str = "_") -> str:
        counter[0] += 1
        return f"{base}%{counter[0]}"

    return fresh


# --------------------------------------------------------------------------
# Surface expression translation (sugar expands here)
# --------------------------------------------------------------------------


class _Reader:
    def __init__(self) -> None:
        self.fresh = _fresh_namer()

    def site_label(self, pos: Position) -> Label:
        return Label(f"ℓ@{pos}", TRANSPARENT, pos)

    def expr(self, sx: SExpr) -> Expr:
        if sx.is_atom():
            tok = sx.value
            assert isinstance(tok, str)
            if _is_number(tok):
                return Num(int(tok), sx.pos)
            if tok in _HOLE_NAMES:
                return Opq(sx.pos)
            if tok in _RESERVED_LABELS:
                raise ParseError(f"{sx.pos}: reserved name '{tok}' cannot appear in source")
            return Ref(tok, sx.pos)
        items = sx.value
        assert isinstance(items, tuple)
        if not items:
            raise ParseError(f"{sx.pos}: empty application")
        head = items[0]
        if head.is_atom():
            form = head.value
            handler = _FORMS.get(form)  # type: ignore[arg-type]
            if handler is not None:
                return handler(self, sx)
        return self._application(sx)

    def _application(self, sx: SExpr) -> Expr:
        items = sx.value
        if len(items) < 2:
            raise ParseError(f"{sx.pos}: application needs at least one argument")
        e = self.expr(items[0])
        for arg_sx in items[1:]:
            e = App(e, self.expr(arg_sx), self.site_label(arg_sx.pos), sx.pos)
        return e

    # -- core forms ------------------------------------------------------

    def _lambda(self, sx: SExpr) -> Expr:
        items = sx.value
        if len(items) != 3 or items[1].is_atom():
            raise ParseError(f"{sx.pos}: malformed lambda")
        params = [self._binder(p) for p in items[1].value]
        if not params:
            raise ParseError(f"{sx.pos}: lambda needs at least one parameter")
        if len(set(params)) != len(params):
            raise ParseError(f"{sx.pos}: duplicate parameter in lambda")
        body = self.expr(items[2])
        for p in reversed(params):
            body = Lam(p, body, sx.pos)
        return body

    def _binder(self, sx: SExpr) -> str:
        if not sx.is_atom() or _is_number(sx.value):
            raise ParseError(f"{sx.pos}: expected an identifier")
        name = sx.value
        assert isinstance(name, str)
        if name in _RESERVED_LABELS or name in _HOLE_NAMES:
            raise ParseError(f"{sx.pos}: '{name}' cannot be bound")
        return name

    def _if(self, sx: SExpr) -> Expr:
        items = sx.value
        if len(items) != 4:
            raise ParseError(f"{sx.pos}: if takes exactly three sub-expressions")
        return If(self.expr(items[1]), self.expr(items[2]), self.expr(items[3]), sx.pos)

    def _set(self, sx: SExpr) -> Expr:
        items = sx.value
        if len(items) != 3:
            raise ParseError(f"{sx.pos}: set! takes a variable and an expression")
        return Set(self._binder(items[1]), self.expr(items[2]), sx.pos)

    def _depcon(self, sx: SExpr) -> Expr:
        items = sx.value
        if len(items) != 4:
            raise ParseError(f"{sx.pos}: ->d takes domain, binder, and range")
        return DepCon(self.expr(items[1]), self._binder(items[2]), self.expr(items[3]), sx.pos)

    def _mon(self, sx: SExpr) -> Expr:
        items = sx.value
        if len(items) != 5:
            raise ParseError(f"{sx.pos}: mon takes two labels, a contract, and an expression")
        labels = []
        for lab_sx in items[1:3]:
            if not lab_sx.is_atom() or _is_number(lab_sx.value):
                raise ParseError(f"{lab_sx.pos}: blame party must be an identifier")
            name = lab_sx.value
            if name in _RESERVED_LABELS or name in _HOLE_NAMES:
                raise ParseError(f"{lab_sx.pos}: '{name}' is a reserved blame party")
            labels.append(Label(name, TRANSPARENT, lab_sx.pos))
        return Mon(labels[0], labels[1], self.expr(items[3]), self.expr(items[4]), sx.pos)

    # -- sugar -----------------------------------------------------------

    def _let(self, sx: SExpr) -> Expr:
        # Unary core: multi-binding let expands to nested single lets, so
        # let and let* coincide; corpus files use distinct names anyway.
        items = sx.value
        if len(items) < 3 or items[1].is_atom():
            raise ParseError(f"{sx.pos}: malformed let")
        bindings = []
        for b in items[1].value:
            if b.is_atom() or len(b.value) != 2:
                raise ParseError(f"{b.pos}: let binding must be [name expr]")
            bindings.append((self._binder(b.value[0]), self.expr(b.value[1]), b.pos))
        names = [n for n, _, _ in bindings]
        if sx.value[0].value == "let" and len(set(names)) != len(names):
            raise ParseError(f"{sx.pos}: duplicate binder in let")
        body = self._body_seq(items[2:], sx.pos)
        for name, rhs, bpos in reversed(bindings):
            body = App(Lam(name, body, bpos), rhs, self.site_label(bpos), bpos)
        return body

    def _begin(self, sx: SExpr) -> Expr:
        items = sx.value
        if len(items) < 2:
            raise ParseError(f"{sx.pos}: begin needs at least one expression")
        return self._body_seq(items[1:], sx.pos)

    def _body_seq(self, sxs: tuple, pos: Position) -> Expr:
        exprs = [self.expr(s) for s in sxs]
        result = exprs[-1]
        for e in reversed(exprs[:-1]):
            result = App(Lam(self.fresh(), result, pos), e, self.site_label(pos), pos)
        return result

    def _box(self, sx: SExpr) -> Expr:
        # (box e): a closure over a mutable cell answering 0 -> read and
        # 1 -> a writer taking the new content.
        items = sx.value
        if len(items) != 2:
            raise ParseError(f"{sx.pos}: box takes one expression")
        pos = sx.pos
        lab = lambda: self.site_label(pos)  # noqa: E731 - local shorthand
        cell = self.fresh("contents")
        cmd = self.fresh("cmd")
        val = self.fresh("v")
        dummy = self.fresh()
        writer = Lam(val, App(Lam(dummy, Num(0, pos), pos), Set(cell, Ref(val, pos), pos), lab(), pos), pos)
        dispatch = Lam(cmd, If(Ref(cmd, pos), writer, Ref(cell, pos), pos), pos)
        return App(Lam(cell, dispatch, pos), self.expr(items[1]), lab(), pos)

    def _unbox(self, sx: SExpr) -> Expr:
        items = sx.value
        if len(items) != 2:
            raise ParseError(f"{sx.pos}: unbox takes one expression")
        return App(self.expr(items[1]), Num(0, sx.pos), self.site_label(sx.pos), sx.pos)

    def _set_box(self, sx: SExpr) -> Expr:
        items = sx.value
        if len(items) != 3:
            raise ParseError(f"{sx.pos}: set-box! takes a box and a value")
        box_read = App(self.expr(items[1]), Num(1, sx.pos), self.site_label(sx.pos), sx.pos)
        return App(box_read, self.expr(items[2]), self.site_label(sx.pos), sx.pos)


_FORMS = {
    "λ": _Reader._lambda,
    "lambda": _Reader._lambda,
    "if": _Reader._if,
    "set!": _Reader._set,
    "->d": _Reader._depcon,
    "mon": _Reader._mon,
    "let": _Reader._let,
    "let*": _Reader._let,
    "begin": _Reader._begin,
    "box": _Reader._box,
    "unbox": _Reader._unbox,
    "set-box!": _Reader._set_box,
}


class Definition(Record):
    """`(define name expr)`, or `(define/contract name contract expr)` when
    `contract` is not None."""

    __slots__ = ("name", "expr", "contract", "pos")


class SurfaceProgram(Record):
    """A tuple of `Definition`s and the main expression."""

    __slots__ = ("definitions", "main")


def parse(text: str) -> SurfaceProgram:
    """Parse surface text into definitions plus a main expression."""
    forms = _read_all(text)
    if not forms:
        raise ParseError("1:1: empty program")
    reader = _Reader()
    defs: list[Definition] = []
    seen: set[str] = set()
    for form in forms[:-1]:
        if form.is_atom() or not form.value or not form.value[0].is_atom() or form.value[0].value not in ("define", "define/contract"):
            raise ParseError(f"{form.pos}: expected a definition before the main expression")
        items = form.value
        kind = items[0].value
        if kind == "define":
            if len(items) != 3:
                raise ParseError(f"{form.pos}: define takes a name and an expression")
            name = reader._binder(items[1])
            definition = Definition(name, reader.expr(items[2]), None, form.pos)
        else:
            if len(items) != 4:
                raise ParseError(f"{form.pos}: define/contract takes a name, a contract, and an expression")
            name = reader._binder(items[1])
            definition = Definition(name, reader.expr(items[3]), reader.expr(items[2]), form.pos)
        if name in seen:
            raise ParseError(f"{form.pos}: duplicate definition of '{name}'")
        seen.add(name)
        defs.append(definition)
    main = forms[-1]
    if not main.is_atom() and main.value and main.value[0].is_atom() and main.value[0].value in ("define", "define/contract"):
        raise ParseError(f"{main.pos}: program must end with a main expression")
    return SurfaceProgram(tuple(defs), reader.expr(main))


def parse_expr(text: str) -> Expr:
    """Parse a single expression (convenience for tests and the REPL-less)."""
    program = parse(text)
    if program.definitions:
        raise ParseError("expected a single expression, found definitions")
    return program.main


# --------------------------------------------------------------------------
# Desugaring: program assembly plus primitive guarding
# --------------------------------------------------------------------------


def desugar(program: SurfaceProgram) -> Expr:
    """Assemble a surface program into one closed core expression.

    Definitions become a nested chain of unary applications whose cells are
    tied with set! so recursive references work; define/contract wraps the
    right-hand side in a monitor whose negative party is the unknown-context
    sentinel.  References to partial primitives are replaced by their
    contract-guarded versions; total predicates stay raw.  Raises on unbound
    variables and forward references.
    """
    from . import primitives  # local import to avoid a cycle

    def_names = [d.name for d in program.definitions]

    # Spelled out per kind, not through `rebuild`, as `Renamer.walk` is:
    # routing both walks through `rebuild` made the front end about 1.6x
    # slower (CPython 3.11).
    def guard_prims(e: Expr, scope: frozenset[str]) -> Expr:
        if isinstance(e, Ref):
            if e.x in scope:
                return e
            spec = primitives.surface_spec(e.x)
            if spec is None:
                raise DesugarError(f"{e.pos}: unbound variable '{e.x}'")
            if spec.guard_contract is None:
                return Prim(spec.name, e.pos)
            site = Label(f"{spec.name}@{e.pos}", TRANSPARENT, e.pos)
            return Mon(LANGUAGE_LABEL, site, spec.guard_contract, Prim(spec.name, e.pos), e.pos)
        if isinstance(e, (Num, Prim, Opq)):
            return e
        if isinstance(e, Lam):
            return Lam(e.x, guard_prims(e.body, scope | {e.x}), e.pos)
        if isinstance(e, App):
            return App(guard_prims(e.fn, scope), guard_prims(e.arg, scope), e.label, e.pos)
        if isinstance(e, If):
            return If(guard_prims(e.cond, scope), guard_prims(e.then, scope), guard_prims(e.orelse, scope), e.pos)
        if isinstance(e, Set):
            if e.x not in scope:
                raise DesugarError(f"{e.pos}: set! of unbound variable '{e.x}'")
            return Set(e.x, guard_prims(e.expr, scope), e.pos)
        if isinstance(e, DepCon):
            return DepCon(guard_prims(e.dom, scope), e.x, guard_prims(e.rng, scope | {e.x}), e.pos)
        if isinstance(e, Mon):
            return Mon(e.pos_label, e.neg_label, guard_prims(e.contract, scope), guard_prims(e.expr, scope), e.pos)
        raise AssertionError(f"unexpected node {type(e).__name__}")

    fresh = _fresh_namer()

    def seq(first: Expr, rest: Expr, pos: Position) -> Expr:
        return App(Lam(fresh(), rest, pos), first, Label(f"ℓ@{pos}", TRANSPARENT, pos), pos)

    # A definition may refer to itself and to earlier definitions only.
    # Self-referential ones bind a dummy cell and tie the knot with set!;
    # the rest apply their right-hand side directly.
    core = program.main
    scope_for_main = frozenset(def_names)
    core = guard_prims(core, scope_for_main)
    for i in reversed(range(len(program.definitions))):
        d = program.definitions[i]
        scope = frozenset(def_names[: i + 1])
        rhs = guard_prims(d.expr, scope)
        if d.contract is not None:
            contract = guard_prims(d.contract, scope)
            rhs = Mon(Label(d.name, TRANSPARENT, d.pos), OPAQUE_LABEL, contract, rhs, d.pos)
        def_label = Label(f"def-{d.name}", TRANSPARENT, d.pos)
        if d.name in free_vars(rhs):
            body = seq(Set(d.name, rhs, d.pos), core, d.pos)
            core = App(Lam(d.name, body, d.pos), Num(0, d.pos), def_label, d.pos)
        else:
            core = App(Lam(d.name, core, d.pos), rhs, def_label, d.pos)

    remaining = free_vars(core)
    if remaining:
        raise DesugarError(f"unbound variables: {sorted(remaining)}")
    return core


def with_escapes(program: SurfaceProgram) -> SurfaceProgram:
    """Extend main so every top-level definition escapes to the unknown
    context: after main runs, each definition is applied by a hole under the
    unknown-context label.  This is the verification entry point; blames
    raised by the synthetic applications themselves fall on the sentinel
    party and are never reported."""
    body: Expr = Num(0)
    for d in reversed(program.definitions):
        leak = App(Opq(d.pos), Ref(d.name, d.pos), OPAQUE_LABEL, d.pos)
        body = App(Lam(f"esc%{d.name}", body, d.pos), leak, OPAQUE_LABEL, d.pos)
    main = App(Lam("esc%main", body), program.main, OPAQUE_LABEL)
    return SurfaceProgram(program.definitions, main)


def toplevel_names(e: Expr) -> frozenset[str]:
    """Binder names of the definition spine produced by desugar, after any
    renaming.  These are bound exactly once per run, which the machine uses
    to keep cache entries valid across calls."""
    names: list[str] = []
    cur = e
    while (
        isinstance(cur, App)
        and isinstance(cur.fn, Lam)
        and cur.label.name.startswith("def-")
    ):
        lam = cur.fn
        names.append(lam.x)
        body = lam.body
        if (
            isinstance(body, App)
            and isinstance(body.fn, Lam)
            and isinstance(body.arg, Set)
            and body.arg.x == lam.x
        ):
            cur = body.fn.body  # knot-tied definition: skip the sequencer
        else:
            cur = body
    return frozenset(names)


# --------------------------------------------------------------------------
# Alpha renaming and free variables
# --------------------------------------------------------------------------


class Renamer:
    """Gives binders globally unique, deterministic names: the original
    identifier plus a numeric suffix, so symbolic names in reports stay
    readable.  No name in `avoid` is ever given out, so trees renamed by
    different renamers can share a program when each avoids the others'
    binders."""

    def __init__(self, avoid: Iterable[str] = ()) -> None:
        self.used: set[str] = set(avoid)
        self.counters: dict[str, int] = {}

    def fresh(self, base: str) -> str:
        root = base.split("%")[0] or "_"
        i = self.counters.get(root, 0)
        while True:
            candidate = f"{root}{i}"
            i += 1
            if candidate not in self.used:
                self.counters[root] = i
                self.used.add(candidate)
                return candidate

    def walk(self, e: Expr, env: dict[str, str]) -> Expr:
        """`e` with every binder renamed, in pre-order; `env` maps the names
        bound around `e` to their new names."""
        # Spelled out per kind, not through `rebuild`, for speed.
        walk = self.walk
        if isinstance(e, (Num, Prim, Opq)):
            return e
        if isinstance(e, Ref):
            return Ref(env[e.x], e.pos) if e.x in env else e
        if isinstance(e, Lam):
            nx = self.fresh(e.x)
            return Lam(nx, walk(e.body, {**env, e.x: nx}), e.pos)
        if isinstance(e, App):
            return App(walk(e.fn, env), walk(e.arg, env), e.label, e.pos)
        if isinstance(e, If):
            return If(walk(e.cond, env), walk(e.then, env), walk(e.orelse, env), e.pos)
        if isinstance(e, Set):
            return Set(env.get(e.x, e.x), walk(e.expr, env), e.pos)
        if isinstance(e, DepCon):
            nx = self.fresh(e.x)
            return DepCon(walk(e.dom, env), nx, walk(e.rng, {**env, e.x: nx}), e.pos)
        if isinstance(e, Mon):
            return Mon(e.pos_label, e.neg_label, walk(e.contract, env), walk(e.expr, env), e.pos)
        raise AssertionError(f"unexpected node {type(e).__name__}")


def alpha_rename(e: Expr) -> Expr:
    """Give every binder of `e` a globally unique, deterministic name."""
    return Renamer().walk(e, {})


@_per_node("_fv")
def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Ref):
        return frozenset((e.x,))
    if isinstance(e, Set):
        return free_vars(e.expr) | {e.x}
    if isinstance(e, Lam):
        return free_vars(e.body) - {e.x}
    if isinstance(e, DepCon):
        return free_vars(e.dom) | (free_vars(e.rng) - {e.x})
    fv = frozenset()
    for kid in e.children():
        fv |= free_vars(kid)
    return fv


@_per_node("_text")
def print_expr(e: Expr) -> str:
    if isinstance(e, Num):
        return str(e.n)
    if isinstance(e, Prim):
        return e.op
    if isinstance(e, Opq):
        return "•"
    if isinstance(e, Ref):
        return e.x
    if isinstance(e, Lam):
        return f"(λ ({e.x}) {print_expr(e.body)})"
    if isinstance(e, App):
        return f"({print_expr(e.fn)} {print_expr(e.arg)})"
    if isinstance(e, If):
        return f"(if {print_expr(e.cond)} {print_expr(e.then)} {print_expr(e.orelse)})"
    if isinstance(e, Set):
        return f"(set! {e.x} {print_expr(e.expr)})"
    if isinstance(e, DepCon):
        return f"(->d {print_expr(e.dom)} {e.x} {print_expr(e.rng)})"
    if isinstance(e, Mon):
        return f"(mon {e.pos_label} {e.neg_label} {print_expr(e.contract)} {print_expr(e.expr)})"
    raise AssertionError(f"unexpected node {type(e).__name__}")


@_per_node("_depth")
def expr_depth(e: Expr) -> int:
    return 1 + max(map(expr_depth, e.children()), default=0)


def subterms(e: Expr) -> Iterator[Expr]:
    """Every node of the tree rooted at `e`, each before its children."""
    stack = [e]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(cur.children()))


def node_kinds(e: Expr) -> set[str]:
    """All node kind tags in a tree; used to check that no sugar survives."""
    return {type(sub).__name__ for sub in subterms(e)}


@_per_node("_assigned")
def assigned_vars(e: Expr) -> frozenset[str]:
    """Variables that some set! inside `e` assigns."""
    return frozenset(sub.x for sub in subterms(e) if isinstance(sub, Set))
