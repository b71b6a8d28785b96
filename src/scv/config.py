"""Run configuration shared across the interpreter, solver, and driver."""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Optional

ABSTRACT = "abstract"

SOLVER_ENV_VAR = "SCV_SOLVER"


class SolverNotFound(LookupError):
    """A solver name that is neither `builtin`, an executable path, nor on
    `PATH`."""


@dataclass
class Config:
    mode: str = ABSTRACT
    max_sym_depth: int = 4
    step_budget: int = 1_000_000
    solver_path: Optional[str] = None
    no_solver: bool = False
    havoc_memo: bool = True
    trace_path: Optional[str] = None

    def resolved_solver(self) -> Optional[str]:
        if self.no_solver:
            return None
        return self.solver_path or os.environ.get(SOLVER_ENV_VAR) or "builtin"


@dataclass
class RunCtx:
    """Everything one verification or execution run threads through the
    step function besides the state itself."""

    config: Config
    solver: Optional[object] = None  # feasibility.SolverClient
    toplevel: frozenset = frozenset()
    memo: Optional[object] = None  # havoc.HavocMemo
    # a counter makes every allocation fresh (`run_concrete`); None keys
    # addresses abstractly (`run_fixpoint`)
    fresh_addrs: Optional[itertools.count] = None

    def fresh_addr(self, tag: str) -> tuple:
        return ("fresh", tag, next(self.fresh_addrs))
