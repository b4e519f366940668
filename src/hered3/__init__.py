"""Exact 3-coloring for graphs with no induced C5 and no induced 2P4.

The public surface is the Graph container, the class checker, the solver
entry point, and the parsing helpers used by the command line tool.
"""

from .errors import (
    ClassViolationError,
    GenerationError,
    InputError,
    ParseError,
    StageAssertionError,
)
from .formats import GraphDocument, parse_graph
from .graph import Graph
from .patterns import PatternWitness, check_class
from .solver import SolveReport, solve

__all__ = [
    "ClassViolationError",
    "GenerationError",
    "Graph",
    "GraphDocument",
    "InputError",
    "ParseError",
    "PatternWitness",
    "SolveReport",
    "StageAssertionError",
    "check_class",
    "parse_graph",
    "solve",
]

__version__ = "0.1.0"
