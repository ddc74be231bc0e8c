"""Finite-size error budget: every multiplicative slack factor of the certificate.

The asymptotic analysis replaces the unknown finite-n occurrence proportions
by their limiting values.  The cost of each replacement is a factor >= 1:
the tail/accuracy bounds R1, R2, R3 enter, through the x^x-replacement
helper L(eta) = (2 eta)^(-2 eta), the grouped factors G1 (sigma/tau
elimination) and G2 = GA*GB*GC (powers-and-factorials product).  Each factor
is one exp of a sum of log terms, one `log_L` per power of L, and the
prefactor's log goes into the rate as it is (`ErrorBudget.prefactor_log`).
Everything here is monotone nondecreasing in the accuracy radius eps; the
Poisson tails come from the exact integer factorials of
`distribution.log_factorial`, and interval-mode constants re-derive the
whole budget with outward rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distribution import big_d, log_factorial, p2, p3
from .errors import ConfigurationError, DomainError
from .intervals import Interval, log_of_int, lower, upper, xexp, xlog


def point_fields(phi, beta1):
    """(beta2, beta3, Y) at (phi, beta1): 3(1-phi) - 2 b1, b1 - 2 + 3 phi, 3 phi - b1.

    Generic over floats, ndarrays and Intervals.
    """
    beta2 = 3.0 * (1.0 - phi) - 2.0 * beta1
    beta3 = beta1 - 2.0 + 3.0 * phi
    Y = 3.0 * phi - beta1
    return beta2, beta3, Y


@dataclass(frozen=True)
class FeasibleBox:
    """The eight interval bounds confining (beta1, beta2, beta3, phi)."""

    beta1_min: float
    beta1_max: float
    beta2_min: float
    beta2_max: float
    beta3_min: float
    beta3_max: float
    phi_min: float
    phi_max: float

    def contains(self, phi, beta1) -> bool:
        """Whether (phi, beta1) lies in the box; an Interval point must lie in it whole."""
        beta2, beta3, _ = point_fields(phi, beta1)
        return (self.phi_min <= lower(phi) and upper(phi) <= self.phi_max
                and self.beta1_min <= lower(beta1) and upper(beta1) <= self.beta1_max
                and self.beta2_min <= lower(beta2) and upper(beta2) <= self.beta2_max
                and self.beta3_min <= lower(beta3) and upper(beta3) <= self.beta3_max)

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "beta1_min", "beta1_max", "beta2_min", "beta2_max",
            "beta3_min", "beta3_max", "phi_min", "phi_max")}


def log_L(eta):
    """log L(eta) = -2 eta log(2 eta), where L(eta) = (2 eta)^(-2 eta)
    sandwiches y^y/x^x for |x - y| <= eta <= 0.05.

    0 at eta = 0, the eta -> 0+ limit.  log_L increases on [0, 0.05], so an
    interval eta reaching down to 0 (an outward-rounded eps = 0 term) gives
    [0, log_L(upper)].  Refuses eta below 0, above 0.05 and NaN.
    """
    hi = upper(eta)
    if not (0.0 <= hi <= 0.05):  # NaN fails too
        raise DomainError(f"L is only available for eta in [0, 0.05], got {eta}")
    if hi == 0.0:
        return 0.0
    if isinstance(eta, Interval) and eta.lower() <= 0.0:
        return Interval(0.0, log_L(Interval(hi)).hi)
    two_eta = 2.0 * eta
    return -two_eta * xlog(two_eta)


def _poisson_tail(power: int, x: int, eps, lam):
    """lam^power / x!, enclosed when lam or eps is an Interval."""
    as_iv = isinstance(lam, Interval) or isinstance(eps, Interval)
    return xexp(power * xlog(lam) - log_factorial(x, as_iv))


def r1(eps, x_max: int, lam):
    """Tail bound on the heavy-variable proportion tau."""
    return _poisson_tail(x_max + 1, x_max + 1, eps, lam) + eps * float(big_d(x_max))


def r2(eps, x_max: int, lam):
    """Bound on the heavy-occurrence proportion sigma."""
    return _poisson_tail(x_max + 1, x_max, eps, lam) + eps * p2(x_max)


def r3(eps, x_max: int, lam):
    """Accuracy radius transferred to (phi, beta_j): |phi - psi| <= R3 etc."""
    return _poisson_tail(x_max, x_max, eps, lam) + (eps / lam) * (p2(x_max) + p3(x_max))


def widen_intervals(gamma_psi: dict, r3_value: float) -> FeasibleBox:
    """Shift the a-priori (gamma, psi) intervals outward by their R3 multiples.

    gamma_psi maps "gamma1"/"gamma2"/"gamma3"/"psi" to (lo, hi) pairs; the
    transfer constants are 3*R3, 9*R3, 6*R3 and R3 respectively.
    """
    g1, g2_, g3, psi = (gamma_psi[k] for k in ("gamma1", "gamma2", "gamma3", "psi"))
    r = float(upper(r3_value))
    return FeasibleBox(
        beta1_min=g1[0] - 3.0 * r, beta1_max=g1[1] + 3.0 * r,
        beta2_min=g2_[0] - 9.0 * r, beta2_max=g2_[1] + 9.0 * r,
        beta3_min=g3[0] - 6.0 * r, beta3_max=g3[1] + 6.0 * r,
        phi_min=psi[0] - r, phi_max=psi[1] + r,
    )


#: Human-readable formula text per ledger symbol, emitted alongside values.
LEDGER_FORMULAS = {
    "r1": "lam^(x_max+1)/(x_max+1)! + eps*D(x_max)",
    "r2": "lam^(x_max+1)/x_max! + eps*P2(x_max)",
    "r3": "lam^x_max/x_max! + (eps/lam)*(P2(x_max)+P3(x_max))",
    "ga": "12^eps * 2^((x_max/8)(x_max^2+2x_max-1)eps) * L(eps)^((x_max/4)(x_max+3))",
    "gb": "e^((x_max/4)(x_max+1) eps) >= (1+eps)^((x_max/4)(x_max+1)) "
          ">= prod_x (1+eps)^floor(x/2)",
    "gc": "[(x_max+1)^((x_max+2)/2) 2^((x_max/24)(x_max+1)(x_max-7)) "
          "(2^(x_max+4) [e^-lam (lam/2)^x_max]^(x_max+8))^((x_max+1)/4)]^eps",
    "g1": "2^R1 L(R1) L(R2) (18e/lam)^R2 L(R2/6)^6 "
          "[L(3 eps P3/lam) L(6 eps P3/lam)]^c [L(3R3)^2 L(9R3) L(6R3) 3^R3]^c",
    "g2": "GA * GB * GC",
    "prefactor": "G1 * G2 * exp(2 eps D / e)",
    "unbalancing": "2^(rho + eps*Delta) = e^t, t = (rho + eps*Delta) ln 2; "
                   "excess e^t - 1 <= expm1(t) (float), t(1+t) (interval)",
}

#: Upper targets the certified configuration is compared against.  The
#: unbalancing factor lies within ~50 ulp of 1.0 (one ulp there is 2.2e-16),
#: so its target bounds the excess 2^(rho + eps*Delta) - 1, which a double
#: resolves; at eps = 1e-15, Delta = 14.5 the excess is 1.00507e-14.
LEDGER_TARGETS = {"prefactor": 1.0 + 1e-7, "unbalancing_excess": 1.006e-14}

#: The ledger stage's bound on the prefactor's upper end: the rate carries the
#: prefactor itself, so it only refuses a runaway ledger.
PREFACTOR_BOUND = 1.01


def _excess_upper(t):
    """Bound on e^t - 1 that keeps its digits for tiny t >= 0.

    Float mode returns expm1(t), nearest-rounded like every float-mode ledger
    value.  Interval mode returns [t_lo, t_hi*(1 + t_hi)] rounded outward,
    which encloses e^t - 1 because t <= e^t - 1 <= t + t^2 on [0, 1].
    """
    if not isinstance(t, Interval):
        return math.expm1(t)
    if not (t.lower() >= 0.0 and t.upper() <= 1.0):
        raise DomainError(f"excess bound needs 0 <= t <= 1, got {t}")
    return Interval(t.lo, (t * (1.0 + t)).hi)


@dataclass
class ErrorBudget:
    """Full ledger: the bounds R1-R3, the slack factors, the prefactor and the
    unbalancing factor, with the logs the rate adds.

    Every value is meant as an upper bound ("pessimistic direction"), so that
    multiplying certificate factors by them composes pessimistically.  Only
    interval mode certifies that: its values are outward-rounded Intervals
    whose upper endpoints bound the true quantities.  Float-mode values are
    nearest-rounded and may sit a fraction of an ulp below the true value
    (the float unbalancing factor does, by 0.26 ulp).
    """

    r1: object
    r2: object
    r3: object
    ga: object
    gb: object
    gc: object
    g1: object
    g2: object
    prefactor: object           # G1 * G2 * exp(2*eps*D/e)
    prefactor_log: object       # its log, the sum the factors are exps of
    unbalancing: object         # 2^(rho + eps*Delta)
    unbalancing_log: object     # t = (rho + eps*Delta) ln 2
    unbalancing_excess: object  # upper bound on 2^(rho + eps*Delta) - 1

    def as_dict(self) -> dict:
        """Each entry as the certificate stores it: its formula, the excess,
        target and margin where it has a target, and its upper end as a
        17-digit decimal string."""
        out = {}
        for key in ("r1", "r2", "r3", "ga", "gb", "gc", "g1", "g2", "prefactor", "unbalancing"):
            entry = {"formula": LEDGER_FORMULAS[key]}
            upper_end = checked = upper(getattr(self, key))
            target_key = key
            if key == "unbalancing":
                # the target is on the excess: a double next to 1.0 cannot resolve it
                checked = entry["excess"] = upper(self.unbalancing_excess)
                target_key = "unbalancing_excess"
            if target_key in LEDGER_TARGETS:
                entry["target"] = LEDGER_TARGETS[target_key]
                entry["margin"] = LEDGER_TARGETS[target_key] - checked
            out[key] = {**entry, "v": f"{upper_end:.17g}", "dir": "upper"}
        return out


def build_budget(params, consts) -> ErrorBudget:
    """Assemble the ledger for one parameter configuration, in the mode of its
    derived constants.

    Interval constants (`distribution.kappa_tilde_intervals`) rerun every
    formula with outward-rounded enclosures, from the decimal c and eps; the
    stored values are then Interval objects whose upper endpoints bound the
    true factors.  GB's log (x_max/4)(x_max+1) log(1+eps) is bounded by
    (x_max/4)(x_max+1) eps.  Raises ConfigurationError when an argument of L
    falls outside its domain (the accuracy radius is then too coarse for
    this x_max).
    """
    c, _, eps = params.decimals(consts.mode)
    as_iv = consts.mode == "interval"
    x, lam = params.x_max, consts.lam
    R1, R2, R3 = r1(eps, x, lam), r2(eps, x, lam), r3(eps, x, lam)
    ln2 = log_of_int(2, as_iv)
    try:
        e3 = 3.0 * eps * p3(x) / lam
        log_g1 = (R1 * ln2 + log_L(R1) + log_L(R2) + 6.0 * log_L(R2 / 6.0)
                  + R2 * (log_of_int(18, as_iv) + 1.0 - xlog(lam))
                  + c * (log_L(e3) + log_L(2.0 * e3) + 2.0 * log_L(3.0 * R3)
                         + log_L(9.0 * R3) + log_L(6.0 * R3) + R3 * log_of_int(3, as_iv)))
        log_ga = (eps * (log_of_int(12, as_iv) + (x / 8.0) * (x**2 + 2 * x - 1) * ln2)
                  + (x / 4.0) * (x + 3) * log_L(eps))
    except DomainError as exc:
        raise ConfigurationError(f"slack-factor domain violated: {exc}") from exc
    log_gb = (x / 4.0) * (x + 1) * eps
    log_inner = -lam + x * (xlog(lam) - ln2)
    log_gc = eps * (
        ((x + 2) / 2.0) * log_of_int(x + 1, as_iv)
        + (x / 24.0) * (x + 1) * (x - 7) * ln2
        + ((x + 1) / 4.0) * ((x + 4) * ln2 + (x + 8) * log_inner)
    )
    log_g2 = log_ga + log_gb + log_gc
    inv_e = xexp(Interval(-1.0) if as_iv else -1.0)
    prefactor_log = log_g1 + log_g2 + 2.0 * eps * big_d(x) * inv_e
    unbalancing_log = (consts.rho + eps * consts.delta) * ln2
    return ErrorBudget(
        r1=R1, r2=R2, r3=R3,
        ga=xexp(log_ga), gb=xexp(log_gb), gc=xexp(log_gc), g1=xexp(log_g1), g2=xexp(log_g2),
        prefactor=xexp(prefactor_log),
        prefactor_log=prefactor_log,
        unbalancing=xexp(unbalancing_log),
        unbalancing_log=unbalancing_log,
        unbalancing_excess=_excess_upper(unbalancing_log),
    )
