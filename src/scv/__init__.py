"""Soft contract verifier for a stateful higher-order lambda calculus."""

from .abstraction import AnalysisResult, run_concrete, run_fixpoint
from .config import ABSTRACT, Config
from .syntax import DesugarError, ParseError, alpha_rename, desugar, parse, with_escapes

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "run_concrete",
    "run_fixpoint",
    "Config",
    "ABSTRACT",
    "parse",
    "desugar",
    "alpha_rename",
    "with_escapes",
    "ParseError",
    "DesugarError",
]
