"""Run configuration shared across the interpreter, solver, and driver."""

from __future__ import annotations

import os
from typing import Optional

from .record import Record

ABSTRACT = "abstract"

SOLVER_ENV_VAR = "SCV_SOLVER"


class SolverNotFound(LookupError):
    """A solver name that is neither `builtin`, an executable path, nor on
    `PATH`."""


class Config(Record):
    """The options of one run: `mode`, the symbolic-name depth bound, the
    step budget, the solver (`solver_path`, or none with `no_solver`),
    whether havoc memoizes leaked values, and the trace file."""

    __slots__ = ("mode", "max_sym_depth", "step_budget", "solver_path", "no_solver", "havoc_memo", "trace_path")
    _defaults = (ABSTRACT, 4, 1_000_000, None, False, True, None)

    def resolved_solver(self) -> Optional[str]:
        if self.no_solver:
            return None
        return self.solver_path or os.environ.get(SOLVER_ENV_VAR) or "builtin"


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
