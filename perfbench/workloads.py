"""Inputs and answer oracles for the scv benchmark.

Everything here is a pure function of the workload seed.  Generation runs
inside worker processes during set-up, so the program under test only ever
receives finished inputs; the parent compares the digests the workers report
to make sure every worker measured the same inputs.

The oracles are the benchmark's own copies: expected corpus blames (taken
from the acceptance criteria), expected family blames derived from them by
the same renaming that builds the family, and a brute-force evaluator for
path conditions that does not use scv's primitives.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CORPUS_DIR = os.path.join(ROOT, "tests", "corpus")

# file -> exact set of (positive, negative) blame pairs with the bundled
# solver; copied from the acceptance criteria so the benchmark owns its
# oracle.  `scv verify` exits 0 when the set is empty and 1 otherwise.
CORPUS_EXPECTED = {
    "alias-then-clobber.lms": frozenset(),
    "callback-counter.lms": frozenset({("f", "•ctx")}),
    "callback-doubler.lms": frozenset(),
    "countdown-divider.lms": frozenset({("/@5:35", "Λ")}),
    "divider-and-stepper.lms": frozenset({("/@5:16", "Λ")}),
    "factorial.lms": frozenset(),
    "micro-arrow.lms": frozenset({("g", "f")}),
    "micro-flat.lms": frozenset({("f", "g")}),
}


def expected_exit(name: str) -> int:
    return 1 if CORPUS_EXPECTED[name] else 0


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def read_corpus(name: str) -> str:
    with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def corpus_digest() -> str:
    return digest(f"{n}\n{read_corpus(n)}" for n in sorted(CORPUS_EXPECTED))


def shuffled(seed: int, count: int) -> list:
    """range(count) in the seed's order."""
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


def corpus_order(rng: random.Random) -> list:
    """One round of the corpus: every file once, in a seeded order."""
    names = sorted(CORPUS_EXPECTED)
    rng.shuffle(names)
    return names


# --------------------------------------------------------------------------
# Families: N renamed copies of one corpus program
# --------------------------------------------------------------------------

_TOKEN = re.compile(r"[^\s()\[\];]+")
_SITE = re.compile(r"^(.*)@(\d+):(\d+)$")


def family(base: str, n: int, seed: int) -> tuple[str, frozenset]:
    """Text of `n` renamed copies of the definitions of corpus file `base`,
    followed by the main expression `0`, and the exact blame set expected
    from it: each copy's blames are the original file's, with definition
    names renamed and primitive-site positions moved to the copy.

    The seed picks the renaming; copies differ only in their top-level
    names, so the seed changes no exploration work.
    """
    from scv.syntax import parse

    text = read_corpus(base + ".lms")
    program = parse(text)
    names = {d.name for d in program.definitions}
    first = program.definitions[0].pos.line
    last = program.main.pos.line  # the main expression starts here
    block = [line.split(";", 1)[0].rstrip() for line in text.splitlines()[first - 1 : last - 1]]
    rng = random.Random(f"{seed}:{base}")
    salt = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))

    out_lines: list = []
    expected: set = set()
    for k in range(n):
        rename = {x: f"{x}-{salt}{k}" for x in names}
        col_maps = []
        for line in block:
            pieces, col_map, shift, at = [], {}, 0, 0
            for m in _TOKEN.finditer(line):
                pieces.append(line[at : m.start()])
                new = rename.get(m.group(), m.group())
                col_map[m.start() + 1] = m.start() + 1 + shift
                shift += len(new) - len(m.group())
                pieces.append(new)
                at = m.end()
            pieces.append(line[at:])
            col_maps.append(col_map)
            out_lines.append("".join(pieces))
        offset = len(out_lines) - len(block)

        def move(party: str) -> str:
            if party in rename:
                return rename[party]
            m = _SITE.match(party)
            if m is None:
                return party
            line, col = int(m.group(2)), int(m.group(3))
            new_col = col_maps[line - first][col]
            return f"{m.group(1)}@{line - first + 1 + offset}:{new_col}"

        for pos, neg in CORPUS_EXPECTED[base + ".lms"]:
            expected.add((move(pos), move(neg)))
    out_lines.append("0")
    return "\n".join(out_lines) + "\n", frozenset(expected)


def compile_for_verify(text: str):
    """The core program `scv verify` analyses: every definition escapes."""
    from scv.syntax import alpha_rename, desugar, parse, with_escapes

    return alpha_rename(desugar(with_escapes(parse(text))))


def node_count(e) -> int:
    from scv.syntax import Expr

    count, stack = 0, [e]
    while stack:
        cur = stack.pop()
        count += 1
        for attr in ("fn", "arg", "body", "cond", "then", "orelse", "expr", "contract", "dom", "rng"):
            child = getattr(cur, attr, None)
            if isinstance(child, Expr):
                stack.append(child)
    return count


# --------------------------------------------------------------------------
# Path conditions (the distribution of acceptance criterion 4)
# --------------------------------------------------------------------------

PC_POPULATION_SEED = 424242  # acceptance criterion 4
FN_TOKEN = "fn"


def gen_linear_pc(rng: random.Random) -> tuple[frozenset, list]:
    """One path condition as a set of entry tuples plus its variable names.

    Draws from `rng` in exactly the order the criterion-4 generator does, so
    a given seed yields the same path conditions.  Entries are
    ("cmp", op, a, b) with a or b a name, ("pred", op, name) or
    ("ref", name).
    """
    names = [f"b{i}" for i in range(rng.randint(1, 3))]
    entries = set()
    for _ in range(rng.randint(1, 4)):
        name = rng.choice(names)
        kind = rng.random()
        if kind < 0.3:
            entries.add(("cmp", rng.choice(["<", "<=", "="]), name, rng.randint(-3, 3)))
        elif kind < 0.6:
            entries.add(("cmp", rng.choice(["<", "<="]), rng.randint(-3, 3), name))
        elif kind < 0.8:
            entries.add(("pred", rng.choice(["zero?", "int?", "even?", "odd?", "positive?"]), name))
        else:
            entries.add(("ref", name))
    return frozenset(entries), names


def pc_list(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [gen_linear_pc(rng) for _ in range(count)]


def pc_text(entries: frozenset) -> str:
    def one(e):
        if e[0] == "cmp":
            return f"({e[1]} {e[2]} {e[3]})"
        if e[0] == "pred":
            return f"({e[1]} {e[2]})"
        return e[1]

    return " & ".join(sorted(one(e) for e in entries))


def pc_expr(entries: frozenset) -> frozenset:
    """The path condition as scv symbolic-name expressions."""
    from scv.syntax import SYM_LABEL, App, Num, Prim, Ref

    def atom(x):
        return Num(x) if isinstance(x, int) else Ref(x)

    out = set()
    for e in entries:
        if e[0] == "cmp":
            out.add(App(App(Prim(e[1]), atom(e[2]), SYM_LABEL), atom(e[3]), SYM_LABEL))
        elif e[0] == "pred":
            out.add(App(Prim(e[1]), Ref(e[2]), SYM_LABEL))
        else:
            out.add(Ref(e[1]))
    return frozenset(out)


def _holds(entry, env) -> bool:
    # reference semantics: comparisons and predicates on a non-integer are
    # false; a bare name is true unless it is the integer 0
    if entry[0] == "ref":
        return env[entry[1]] != 0
    if entry[0] == "pred":
        v = env[entry[2]]
        if not isinstance(v, int):
            return False
        return {
            "zero?": v == 0,
            "int?": True,
            "even?": v % 2 == 0,
            "odd?": v % 2 != 0,
            "positive?": v > 0,
        }[entry[1]]
    _, op, a, b = entry
    a = env[a] if isinstance(a, str) else a
    b = env[b] if isinstance(b, str) else b
    if not (isinstance(a, int) and isinstance(b, int)):
        return False
    return {"<": a < b, "<=": a <= b, "=": a == b}[op]


def pc_satisfiable_brute(entries: frozenset, names: list) -> bool:
    """Is some assignment of -4..4 or a function token to the names a model?"""
    domain = list(range(-4, 5)) + [FN_TOKEN]
    for combo in itertools.product(domain, repeat=len(names)):
        env = dict(zip(names, combo))
        if all(_holds(e, env) for e in entries):
            return True
    return False


# --------------------------------------------------------------------------
# Fuzz programs (the settings of acceptance criterion 2)
# --------------------------------------------------------------------------

FUZZ_POPULATION_SEED = 20260811  # acceptance criterion 2
FUZZ_SIZE = 16
FUZZ_TRIALS = 20
FUZZ_STEP_BUDGET = 400_000


def fuzz_programs(seed: int, count: int) -> list:
    from scv.soundness import generate_hole_program

    rng = random.Random(seed)
    return [generate_hole_program(rng, size=FUZZ_SIZE) for _ in range(count)]


def fuzz_trial_rng(seed: int, index: int) -> random.Random:
    """Instantiation randomness for program `index`: its own stream, so a
    program's check is the same whichever programs ran before it."""
    return random.Random(f"{seed}:{index}")


# --------------------------------------------------------------------------
# Machine speed probe
# --------------------------------------------------------------------------


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now: a record of how fast
    the machine ran during a run, independent of scv."""
    import time

    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.perf_counter() - t0
