"""Certified first-moment upper bound 4.506 for the random 3-SAT threshold.

The package re-derives the limiting signed-occurrence distribution of random
3-SAT variables, reduces the locally-maximal-solution counting problem to a
two-variable stationarity system, confines every feasible root of that
system to a tiny rectangle by verified sign exclusion, and bounds the
per-variable expectation rate over that rectangle by a number strictly
below 1, with every finite-size error factor accounted for in a ledger.
"""

from .pipeline import Certificate, certify, counting_oracle, emit_curves, empirical_report, replay
from .distribution import DerivedConstants, build_tables, kappa, kappa_tilde
from .formulas import (Assignment, Formula, binomial_large_deviation, generate, is_pps,
                       measure_omega, totally_unbalanced_representative, variable_type)
from .intervals import Interval
from .ledger import ErrorBudget, FeasibleBox, build_budget, widen_intervals
from .params import CERTIFICATION_BOX, DELTA_NUM, ModelParams
from .rootbox import ExclusionTrace, solve_reference, spiral_localize, verify_exclusion
from .stationarity import EqSystem, PhiBetaPoint, derive_point, eq1, eq2

__version__ = "0.1.0"

__all__ = [
    "Assignment", "CERTIFICATION_BOX", "Certificate", "DELTA_NUM",
    "DerivedConstants", "EqSystem", "ErrorBudget", "ExclusionTrace", "FeasibleBox",
    "Formula", "Interval", "ModelParams", "PhiBetaPoint", "binomial_large_deviation",
    "build_budget", "build_tables", "certify", "counting_oracle", "derive_point",
    "emit_curves", "empirical_report", "eq1", "eq2",
    "generate", "is_pps", "kappa", "kappa_tilde", "measure_omega",
    "replay", "solve_reference", "spiral_localize",
    "totally_unbalanced_representative", "variable_type", "verify_exclusion",
    "widen_intervals",
]
