"""SAT-based key recovery: CNF encoding, solver, and the attack loop."""

from .attack import (
    AttackResult,
    CircuitOracle,
    Miter,
    attack_report,
    build_platform_instance,
    sat_attack,
    verify_recovered_key,
)
from .cnf import CnfFormula, parse_dimacs, to_dimacs, tseitin_encode
from .solver import CdclSolver, DimacsSolver, SolverBudgetExceeded, make_solver, solve

__all__ = [
    "AttackResult",
    "CircuitOracle",
    "CnfFormula",
    "CdclSolver",
    "DimacsSolver",
    "Miter",
    "SolverBudgetExceeded",
    "attack_report",
    "build_platform_instance",
    "make_solver",
    "parse_dimacs",
    "sat_attack",
    "solve",
    "to_dimacs",
    "tseitin_encode",
    "verify_recovered_key",
]
