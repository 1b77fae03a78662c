"""SDTL: parser, concrete interpreter, type analysis and soundness harness
for a small duck-typed language with currying, objects and exceptions."""

from .abstract import AnalysisResult, analyze_program
from .concrete import RunResult, run_program
from .kernel import EvalError
from .soundness import (
    abstracts_outcome,
    abstracts_value,
    differential_test,
    enumerate_programs,
)
from .syntax import ParseError, Program, parse

__all__ = [
    "AnalysisResult",
    "EvalError",
    "ParseError",
    "Program",
    "RunResult",
    "abstracts_outcome",
    "abstracts_value",
    "analyze_program",
    "differential_test",
    "enumerate_programs",
    "parse",
    "run_program",
]

__version__ = "0.1.0"
