"""A small SMT-LIB v2 solver for one datatype plus linear integer arithmetic.

This is scv's one solver, `builtin`: `feasibility.SolverClient` runs it
in the analysing process.  Commands are s-expression terms, nested tuples
of string atoms: the client hands it the terms `feasibility.translate_pc`
builds.  `print_sexpr` writes a term as SMT-LIB text and `parse_sexprs`
reads the same shape back; besides the client's one read of the datatype
declaration, only the benchmark's trace replay (perfbench) and the tests
use that text.  It decides that fragment and no more: one declared
algebraic datatype whose constructors each carry a single Int field,
constants of that sort and Int, and assertions built from ite / and / or /
not / = / < / <= / > / + - * / (mod _ 2) over them.

Decision method: a depth-first search picks one datatype constant's
constructor at a time and translates each assertion as soon as all of its
constants are chosen; a partial conjunction that folds to false cuts the
whole subtree.  Atoms over constants fold to true or false while they are
built, so `(not (= (ite c (IntV 1) (IntV 0)) (IntV 0)))` becomes `c`.  Under
a full assignment the formula is lifted to linear atoms and searched
depth-first over its disjunctions; before each split the atoms collected so
far are checked, and an infeasible prefix cuts the branch (DPLL(T)'s early
theory check, Nieuwenhuis, Oliveras and Tinelli, JACM 2006).  A conjunction
of atoms is decided by Fourier-Motzkin elimination after substituting
equalities, with strict comparisons tightened to non-strict over the
integers first.  Both steps stay in integer arithmetic: a substitution
multiplies through by the eliminated coefficient's magnitude and an
elimination combines two constraints with positive integer multipliers,
so every constraint is a positive multiple of its rational counterpart
and a contradiction is exact.  No constraint is rounded.  Parity
congruences are checked for direct contradictions.  Anything outside the
fragment degrades to `unknown`, never to a wrong `unsat`: an `unsat` answer
is always a real one.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["MiniSolver"]

MAX_DT_VARS = 8
MAX_CONSTRAINTS = 4000
MAX_WORK = 400_000  # rough operation budget per check-sat


# --------------------------------------------------------------------------
# S-expression reading
# --------------------------------------------------------------------------


def tokenize(text: str) -> list[str]:
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            out.append(ch)
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def parse_sexprs(tokens: list[str]) -> list:
    """The terms of a token list: an atom is its string, a list a tuple."""
    pos = 0

    def rec():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while tokens[pos] != ")":
                items.append(rec())
            pos += 1
            return tuple(items)
        if tok == ")":
            raise ValueError("unbalanced ')'")
        return tok

    forms = []
    while pos < len(tokens):
        forms.append(rec())
    return forms


def print_sexpr(term) -> str:
    """SMT-LIB text of a term; `parse_sexprs(tokenize(...))` reads it back."""
    if isinstance(term, str):
        return term
    return "(" + " ".join(map(print_sexpr, term)) + ")"


def _symbols(form, out: set) -> set:
    """Every atom of an s-expression, added to `out`."""
    stack = [form]
    while stack:
        f = stack.pop()
        if isinstance(f, tuple):
            stack.extend(f)
        else:
            out.add(f)
    return out


# --------------------------------------------------------------------------
# Formula representation
# --------------------------------------------------------------------------

# Linear integer expression: {var: nonzero int} plus an int constant.
class Lin:
    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[dict] = None, const: int = 0):
        self.coeffs = {k: v for k, v in coeffs.items() if v} if coeffs else {}
        self.const = const

    @staticmethod
    def of_const(c: int) -> "Lin":
        return Lin(None, c)

    @staticmethod
    def of_var(name) -> "Lin":
        return Lin({name: 1})

    def add(self, other: "Lin") -> "Lin":
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + v
        return Lin(coeffs, self.const + other.const)

    def scale(self, c: int) -> "Lin":
        return Lin({k: v * c for k, v in self.coeffs.items()}, self.const * c)

    def is_const(self) -> bool:
        return not self.coeffs


class Unsupported(Exception):
    """Term outside the fragment; the enclosing atom becomes free."""


class OutOfBudget(Exception):
    """The check exceeded its work budget; answer unknown."""


TRUE = ("true",)
FALSE = ("false",)
# formula nodes: TRUE, FALSE, ("and", [..]), ("or", [..]), ("not", f),
# ("le", Lin)   : lin <= 0
# ("eq", Lin)   : lin = 0
# ("cong", Lin, r) : lin = r (mod 2)


def atom(tag: str, lin: Lin, r: int = 0):
    """A linear atom, folded to TRUE or FALSE when `lin` has no variables."""
    if lin.is_const():
        if tag == "le":
            holds = lin.const <= 0
        elif tag == "eq":
            holds = lin.const == 0
        else:
            holds = lin.const % 2 == r % 2
        return TRUE if holds else FALSE
    return ("cong", lin, r) if tag == "cong" else (tag, lin)


def f_not(f):
    if f == TRUE:
        return FALSE
    if f == FALSE:
        return TRUE
    if f[0] == "not":
        return f[1]
    return ("not", f)


def f_and(fs):
    out = []
    for f in fs:
        if f == FALSE:
            return FALSE
        if f != TRUE:
            out.append(f)
    if not out:
        return TRUE
    return out[0] if len(out) == 1 else ("and", out)


def f_or(fs):
    out = []
    for f in fs:
        if f == TRUE:
            return TRUE
        if f != FALSE:
            out.append(f)
    if not out:
        return FALSE
    return out[0] if len(out) == 1 else ("or", out)


# --------------------------------------------------------------------------
# The solver state
# --------------------------------------------------------------------------


class MiniSolver:
    def __init__(self) -> None:
        self.ctors: dict[str, str] = {}  # accessor -> ctor
        self.ctor_list: list[str] = []
        self.consts: dict[str, str] = {}  # name -> sort
        self.frames: list[list] = [[]]
        self._fresh = 0

    # -- command dispatch --------------------------------------------------

    def execute(self, form) -> Optional[str]:
        if not isinstance(form, tuple) or not form:
            return None
        head = form[0]
        if head == "declare-datatypes":
            self._declare_datatypes(form)
        elif head == "declare-const":
            name = form[1]
            sort = form[-1]
            self.consts[name] = sort if isinstance(sort, str) else "?"
        elif head == "assert":
            self.frames[-1].append(form[1])
        elif head == "push":
            n = int(form[1]) if len(form) > 1 else 1
            for _ in range(n):
                self.frames.append([])
        elif head == "pop":
            n = int(form[1]) if len(form) > 1 else 1
            for _ in range(n):
                if len(self.frames) > 1:
                    self.frames.pop()
        elif head == "check-sat":
            return self.check_sat()
        # set-logic: ignored
        return None

    def _declare_datatypes(self, form) -> None:
        # ((V 0)) (((IntV (iv Int)) (OpV (ov Int)) ...))
        decls = form[2][0]
        for ctor_decl in decls:
            if isinstance(ctor_decl, tuple) and ctor_decl:
                name = ctor_decl[0]
                self.ctor_list.append(name)
                for field in ctor_decl[1:]:
                    if isinstance(field, tuple) and len(field) == 2:
                        self.ctors[field[0]] = name

    def fresh(self, tag: str = "k"):
        self._fresh += 1
        return ("?", tag, self._fresh)

    # -- check-sat ----------------------------------------------------------

    def check_sat(self) -> str:
        self._work = 0
        self._fresh = 0
        try:
            return self._check_sat()
        except OutOfBudget:
            return "unknown"

    def _spend(self, n: int = 1) -> None:
        self._work += n
        if self._work > MAX_WORK:
            raise OutOfBudget()

    def _check_sat(self) -> str:
        assertions = [a for frame in self.frames for a in frame]
        mentioned = [_symbols(a, set()) for a in assertions]
        dt_vars = sorted(
            v for v in set().union(*mentioned) if self.consts.get(v, "Int") not in ("Int", "Bool")
        )
        if len(dt_vars) > MAX_DT_VARS or (assertions and not self.ctor_list):
            return "unknown"
        # Constants are chosen in reverse sorted order, and each assertion
        # is translated at the depth where the last of its constants is.
        order = dt_vars[::-1]
        depth = {v: i + 1 for i, v in enumerate(order)}
        stages: list[list] = [[] for _ in range(len(order) + 1)]
        for a, names in zip(assertions, mentioned):
            stages[max((depth[v] for v in names if v in depth), default=0)].append(a)
        return self._search(order, stages, {}, TRUE)

    def _search(self, order: list[str], stages: list[list], assign: dict, conj) -> str:
        """Constructor choices for `order[len(assign):]`, depth first, under
        the partial conjunction `conj` of the assertions translated so far."""
        self._spend(8)
        k = len(assign)
        try:
            conj = f_and([conj] + [self._formula(a, assign) for a in stages[k]])
        except Unsupported:
            return "unknown"
        if conj == FALSE:
            return "unsat"
        if k == len(order):
            return self._explore_seq([conj], [])
        saw_unknown = False
        for ctor in self.ctor_list:
            verdict = self._search(order, stages, {**assign, order[k]: ctor}, conj)
            if verdict == "sat":
                return "sat"
            if verdict == "unknown":
                saw_unknown = True
        return "unknown" if saw_unknown else "unsat"

    # -- translation to formulas under a constructor assignment -------------

    def _vterm(self, ast, assign) -> list[tuple[object, tuple]]:
        """Guarded alternatives [(guard-formula, (ctor, payload-Lin))]."""
        if isinstance(ast, str):
            if ast in self.consts:
                ctor = assign.get(ast)
                if ctor is None:
                    raise Unsupported(ast)
                return [(TRUE, (ctor, Lin.of_var(("p", ast))))]
            raise Unsupported(ast)
        if not ast:
            raise Unsupported(ast)
        head = ast[0]
        if head in self.ctor_list:
            alts = []
            for g, lin in self._iterm(ast[1], assign):
                alts.append((g, (head, lin)))
            return alts
        if head == "ite":
            cond = self._formula(ast[1], assign)
            out = []
            for g, t in self._vterm(ast[2], assign):
                out.append((f_and([cond, g]), t))
            for g, t in self._vterm(ast[3], assign):
                out.append((f_and([f_not(cond), g]), t))
            return out
        raise Unsupported(ast)

    def _iterm(self, ast, assign) -> list[tuple[object, Lin]]:
        """Guarded alternatives of integer-sort terms as linear forms."""
        if isinstance(ast, str):
            try:
                return [(TRUE, Lin.of_const(int(ast)))]
            except ValueError:
                pass
            if ast in self.consts and self.consts[ast] == "Int":
                return [(TRUE, Lin.of_var(("i", ast)))]
            raise Unsupported(ast)
        if not ast:
            raise Unsupported(ast)
        head = ast[0]
        if head in self.ctors:  # accessor
            ctor = self.ctors[head]
            out = []
            for g, (c, lin) in self._vterm(ast[1], assign):
                if c == ctor:
                    out.append((g, lin))
                else:
                    # accessor applied to the wrong constructor: unspecified
                    out.append((g, Lin.of_var(self.fresh("junk"))))
            return out
        if head == "ite":
            cond = self._formula(ast[1], assign)
            out = []
            for g, t in self._iterm(ast[2], assign):
                out.append((f_and([cond, g]), t))
            for g, t in self._iterm(ast[3], assign):
                out.append((f_and([f_not(cond), g]), t))
            return out
        if head in ("+", "-", "*"):
            args = [self._iterm(a, assign) for a in ast[1:]]
            if head == "-" and len(args) == 1:
                return [(g, t.scale(-1)) for g, t in args[0]]
            combined = args[0]
            for nxt in args[1:]:
                merged = []
                for g1, t1 in combined:
                    for g2, t2 in nxt:
                        g = f_and([g1, g2])
                        if g == FALSE:
                            continue
                        if head == "+":
                            merged.append((g, t1.add(t2)))
                        elif head == "-":
                            merged.append((g, t1.add(t2.scale(-1))))
                        else:
                            if t1.is_const():
                                merged.append((g, t2.scale(t1.const)))
                            elif t2.is_const():
                                merged.append((g, t1.scale(t2.const)))
                            else:
                                raise Unsupported(ast)
                combined = merged
            return combined
        raise Unsupported(ast)

    def _is_vsort(self, ast, assign) -> bool:
        if isinstance(ast, str):
            return ast in self.consts and self.consts[ast] not in ("Int", "Bool")
        if not isinstance(ast, tuple) or not ast:
            return False
        head = ast[0]
        if head in self.ctor_list:
            return True
        if head == "ite":
            return self._is_vsort(ast[2], assign)
        return False

    def _formula(self, ast, assign):
        if ast == "true":
            return TRUE
        if ast == "false":
            return FALSE
        if isinstance(ast, str):
            raise Unsupported(ast)
        head = ast[0]
        if head == "not":
            return f_not(self._formula(ast[1], assign))
        if head == "and":
            return f_and([self._formula(a, assign) for a in ast[1:]])
        if head == "or":
            return f_or([self._formula(a, assign) for a in ast[1:]])
        if isinstance(head, tuple) and len(head) == 3 and head[0] == "_" and head[1] == "is":
            ctor = head[2]
            alts = self._vterm(ast[1], assign)
            return f_or([g if c == ctor else FALSE for g, (c, _) in alts])
        if head == "ite":
            c = self._formula(ast[1], assign)
            return f_or([
                f_and([c, self._formula(ast[2], assign)]),
                f_and([f_not(c), self._formula(ast[3], assign)]),
            ])
        if head == "=":
            return self._equality(ast[1], ast[2], assign)
        if head in ("<", "<=", ">"):
            return self._compare(head, ast[1], ast[2], assign)
        raise Unsupported(ast)

    def _equality(self, a, b, assign):
        # (= (mod t 2) r) is the only congruence shape emitted
        for x, y in ((a, b), (b, a)):
            if isinstance(x, tuple) and x and x[0] == "mod":
                if not (isinstance(x[2], str) and x[2] == "2"):
                    raise Unsupported(x)
                rhs_alts = self._iterm(y, assign)
                t_alts = self._iterm(x[1], assign)
                out = []
                for g1, t in t_alts:
                    for g2, r in rhs_alts:
                        g = f_and([g1, g2])
                        if g == FALSE:
                            continue
                        if not r.is_const() or r.const not in (0, 1):
                            raise Unsupported(x)
                        out.append(f_and([g, atom("cong", t, r.const)]))
                return f_or(out)
        if self._is_vsort(a, assign) or self._is_vsort(b, assign):
            out = []
            for g1, (c1, l1) in self._vterm(a, assign):
                for g2, (c2, l2) in self._vterm(b, assign):
                    g = f_and([g1, g2])
                    if g == FALSE:
                        continue
                    if c1 != c2:
                        continue  # this alternative contributes falsity
                    out.append(f_and([g, atom("eq", l1.add(l2.scale(-1)))]))
            return f_or(out)
        out = []
        for g1, l1 in self._iterm(a, assign):
            for g2, l2 in self._iterm(b, assign):
                g = f_and([g1, g2])
                if g == FALSE:
                    continue
                out.append(f_and([g, atom("eq", l1.add(l2.scale(-1)))]))
        return f_or(out)

    def _compare(self, op: str, a, b, assign):
        if op == ">":
            return self._compare("<", b, a, assign)
        out = []
        for g1, l1 in self._iterm(a, assign):
            for g2, l2 in self._iterm(b, assign):
                g = f_and([g1, g2])
                if g == FALSE:
                    continue
                diff = l1.add(l2.scale(-1))
                if op == "<":
                    diff = diff.add(Lin.of_const(1))  # integer strictness
                out.append(f_and([g, atom("le", diff)]))
        return f_or(out)

    # -- satisfiability of lifted formulas -----------------------------------

    def _explore_seq(self, fs, atoms, checked: int = 0) -> str:
        """Depth-first search of the conjunction `fs` under `atoms`, whose
        first `checked` atoms are already known not to be infeasible."""
        flat_atoms = list(atoms)
        complex_fs = []
        for sub in fs:
            if sub == FALSE:
                return "unsat"
            if sub == TRUE:
                continue
            if sub[0] in ("le", "eq", "cong"):
                flat_atoms.append(sub)
            else:
                complex_fs.append(sub)
        if not complex_fs:
            return self._lin_feasible(flat_atoms)
        head, rest = complex_fs[0], complex_fs[1:]
        if head[0] == "and":
            return self._explore_seq(list(head[1]) + rest, flat_atoms, checked)
        if head[0] == "or":
            # Infeasibility only grows with the atom set, so an infeasible
            # prefix cuts every branch below it.
            if len(flat_atoms) > checked:
                if self._lin_feasible(flat_atoms) == "unsat":
                    return "unsat"
                checked = len(flat_atoms)
            saw_unknown = False
            for alt in head[1]:
                r = self._explore_seq([alt] + rest, flat_atoms, checked)
                if r == "sat":
                    return "sat"
                if r == "unknown":
                    saw_unknown = True
            return "unknown" if saw_unknown else "unsat"
        if head[0] == "not":
            return self._explore_seq([self._negate(head[1])] + rest, flat_atoms, checked)
        return "unknown"

    def _negate(self, f):
        if f == TRUE:
            return FALSE
        if f == FALSE:
            return TRUE
        tag = f[0]
        if tag == "not":
            return f[1]
        if tag == "and":
            return f_or([self._negate(x) for x in f[1]])
        if tag == "or":
            return f_and([self._negate(x) for x in f[1]])
        if tag == "le":  # not (t <= 0)  <=>  -t + 1 <= 0 over the integers
            return atom("le", f[1].scale(-1).add(Lin.of_const(1)))
        if tag == "eq":  # split into < or >
            lt = atom("le", f[1].add(Lin.of_const(1)))
            gt = atom("le", f[1].scale(-1).add(Lin.of_const(1)))
            return f_or([lt, gt])
        if tag == "cong":
            return atom("cong", f[1], 1 - f[2])
        return ("not", f)

    # -- conjunction of linear atoms ------------------------------------------

    def _lin_feasible(self, atoms) -> str:
        self._spend(4 + len(atoms))
        eqs: list[Lin] = []
        les: list[Lin] = []
        congs: dict[tuple, int] = {}
        for atom in atoms:
            if atom[0] == "eq":
                eqs.append(atom[1])
            elif atom[0] == "le":
                les.append(atom[1])
            else:
                lin, r = atom[1], atom[2]
                key = tuple(sorted((k, v) for k, v in lin.coeffs.items()))
                want = (r - lin.const) % 2
                cur = congs.get(key)
                if lin.is_const():
                    if lin.const % 2 != r % 2:
                        return "unsat"
                    continue
                if cur is not None and cur != want:
                    return "unsat"
                congs[key] = want
        # substitute equalities
        while eqs:
            eq = eqs.pop()
            if eq.is_const():
                if eq.const != 0:
                    return "unsat"
                continue
            var, a = min(eq.coeffs.items(), key=lambda kv: abs(kv[1]))
            rest = Lin({k: v for k, v in eq.coeffs.items() if k != var}, eq.const)
            mag, sign = abs(a), (1 if a > 0 else -1)

            def subst(lin: Lin) -> Lin:
                # a*var = -rest, so |a| * lin has var replaced by -sign(a)*c*rest
                c = lin.coeffs.get(var)
                if c is None:
                    return lin
                dropped = Lin({k: v * mag for k, v in lin.coeffs.items() if k != var}, lin.const * mag)
                return dropped.add(rest.scale(-sign * c))

            eqs = [subst(l) for l in eqs]
            les = [subst(l) for l in les]
        return self._fm(les)

    def _fm(self, les: list[Lin]) -> str:
        les = [l for l in les if not (l.is_const() and l.const <= 0)]
        for l in les:
            if l.is_const() and l.const > 0:
                return "unsat"
        variables = sorted({v for l in les for v in l.coeffs})
        for var in variables:
            lower, upper, rest = [], [], []
            for l in les:
                c = l.coeffs.get(var, 0)
                if c > 0:
                    upper.append(l)  # c*var + rest <= 0  => var <= -rest/c
                elif c < 0:
                    lower.append(l)
                else:
                    rest.append(l)
            new = rest
            for lo in lower:
                for up in upper:
                    self._spend()
                    cl = -lo.coeffs[var]
                    cu = up.coeffs[var]
                    combined = lo.scale(cu).add(up.scale(cl))
                    combined = Lin({k: v for k, v in combined.coeffs.items() if k != var}, combined.const)
                    new.append(combined)
            les = new
            if len(les) > MAX_CONSTRAINTS:
                return "unknown"
            for l in les:
                if l.is_const() and l.const > 0:
                    return "unsat"
            les = [l for l in les if not l.is_const()]
        return "sat"
