"""Run configuration shared across the interpreter, solver, and driver."""

from __future__ import annotations

from typing import Optional

from .record import Record

ABSTRACT = "abstract"


class Config(Record):
    """The options of one run: `mode`, the symbolic-name depth bound, the
    step budget, whether to run without the solver (`no_solver`), whether
    havoc memoizes leaked values, and the trace file."""

    __slots__ = ("mode", "max_sym_depth", "step_budget", "no_solver", "havoc_memo", "trace_path")
    _defaults = (ABSTRACT, 4, 1_000_000, False, True, None)

    def resolved_solver(self) -> Optional[str]:
        return None if self.no_solver else "builtin"


class RunCtx(Record):
    """Everything one verification or execution run threads through the
    step function besides the state itself: the `config`, the `solver`
    (a feasibility.SolverClient), the `toplevel` names, the havoc `memo`
    (a havoc.HavocMemo), and `fresh_addrs`: a counter makes every
    allocation fresh (`run_concrete`); None keys addresses abstractly
    (`run_fixpoint`)."""

    __slots__ = ("config", "solver", "toplevel", "memo", "fresh_addrs")
    _defaults = (None, frozenset(), None, None)

    def fresh_addr(self, tag: str) -> tuple:
        return ("fresh", tag, next(self.fresh_addrs))
