"""Finite-domain constraint solver laboratory.

A small solver with pluggable backtrack-memory strategies, specialised
Boolean variables, propagator queue policies, sum-constraint decomposition
modes, and two branch-and-bound modes, plus builders for the benchmark
problem classes and a harness for running experiment matrices.
"""

from .domain import BoolEvent, EventClass, VariableStore
from .model import Model
from .problems import Instance, build, check_solution, counts, parse_instance
from .restore import RestoreMode, RestoreStats
from .search import SearchStats, Solution, minimize, solve

__all__ = [
    "BoolEvent",
    "EventClass",
    "Instance",
    "Model",
    "RestoreMode",
    "RestoreStats",
    "SearchStats",
    "Solution",
    "VariableStore",
    "build",
    "check_solution",
    "counts",
    "minimize",
    "parse_instance",
    "solve",
]
