"""Model parameters and the a-priori feasibility box.

The certified configuration is c = 4.506, x_max = 56, eps = 1e-15, for which
the tightened feasibility constants are available.  Any other density in
[3, 5] falls back to the generic a-priori intervals for the clause-type
proportions (gamma1, gamma2, gamma3) and the nonzero spread psi, shifted
outward by the accuracy transfers 3*R3 / 9*R3 / 6*R3 / R3.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

from . import ledger
from .distribution import check_x_max
from .errors import ConfigurationError
from .intervals import Interval
from .ledger import FeasibleBox

#: Documented comparison slack, always applied in the pessimistic direction.
DELTA_NUM = 1e-9

#: Widths the exclusion spiral confines the root to, in phi and in beta1.
#: The centred rectangle rate exceeds the point rate at the root (0.99991852)
#: by a term second order in the width: squares of 2e-7, 1e-5 and 1e-4 around
#: the root rate 0.9999185225, 0.9999188370 and 0.9999500580, a 1e-3 square 1.0032.
WIDTH_TARGET = 2e-7

#: Generic a-priori intervals valid for every density in [3, 5].
GENERIC_GAMMA_PSI = {
    "gamma1": (0.21, 0.65),
    "gamma2": (0.21, 0.65),
    "gamma3": (0.017, 0.32),
    "psi": (0.47, 0.68),
}

#: Tightened feasibility constants for the certified density 4.506.
CERTIFICATION_BOX = FeasibleBox(
    beta1_min=0.33018, beta1_max=0.52891,
    beta2_min=0.33018, beta2_max=0.52891,
    beta3_min=0.077639, beta3_max=0.21782,
    phi_min=0.525245, phi_max=0.619063,
)

CERTIFICATION_C = 4.506
CERTIFICATION_X_MAX = 56
CERTIFICATION_EPS = 1e-15


@dataclass(frozen=True)
class ModelParams:
    """Clause density, truncation degree, accuracy radius, and derived bounds."""

    c: float
    x_max: int = CERTIFICATION_X_MAX
    epsilon: float = CERTIFICATION_EPS

    def __post_init__(self):
        # numpy scalars are stored as the Python numbers they equal, so that
        # the certificate serialises; strings and bools stay as they are, for
        # the checks below
        for name, kind, to in (("c", numbers.Real, float), ("epsilon", numbers.Real, float),
                               ("x_max", numbers.Integral, int)):
            value = getattr(self, name)
            if isinstance(value, kind) and not isinstance(value, bool):
                object.__setattr__(self, name, to(value))
        if not (3.0 <= self.c <= 5.0):  # NaN fails too
            raise ConfigurationError(f"density c out of range [3, 5]: {self.c}")
        if not (0.0 <= self.epsilon <= 1e-6):  # NaN fails too
            raise ConfigurationError(f"epsilon out of range [0, 1e-6]: {self.epsilon}")
        check_x_max(self.x_max, self.lam)

    @cached_property
    def a_priori(self) -> FeasibleBox:
        if self.c == CERTIFICATION_C:
            return CERTIFICATION_BOX
        return ledger.widen_intervals(GENERIC_GAMMA_PSI,
                                      ledger.r3(self.epsilon, self.x_max, self.lam))

    @property
    def lam(self) -> float:
        return 3.0 * self.c

    def decimals(self, mode: str) -> tuple:
        """(c, lambda, eps) as floats, or in interval mode as outward
        enclosures of the decimal text of c and eps."""
        if mode == "float":
            return self.c, self.lam, self.epsilon
        if mode != "interval":
            raise ValueError(f"mode must be 'float' or 'interval', got {mode!r}")
        c, eps = (Interval.from_decimal(repr(v)) for v in (self.c, self.epsilon))
        return c, 3.0 * c, eps

    @classmethod
    def certification(cls) -> "ModelParams":
        return cls(c=CERTIFICATION_C, x_max=CERTIFICATION_X_MAX, epsilon=CERTIFICATION_EPS)

    def as_dict(self) -> dict:
        return {
            "c": self.c,
            "lambda": self.lam,
            "x_max": self.x_max,
            "epsilon": self.epsilon,
            "a_priori": self.a_priori.as_dict(),
        }


def clause_count(n: int, c: float) -> int:
    """Number of clauses m = round(c*n), half up; ConfigurationError names a
    density c that is not a finite number."""
    if not math.isfinite(c):
        raise ConfigurationError(f"clause density c must be finite, got {c}")
    return int(math.floor(c * n + 0.5))
