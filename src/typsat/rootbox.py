"""Sign-exclusion machinery confining every feasible root of (Eq1, Eq2).

Four monotone witness sequences exclude horizontal and vertical bands of
the feasibility box: the "minus" arm walks phi up / beta1 down from the
(phi_min, beta1_max) corner keeping Eq1 > 0 on its (phi_i^-, b1_i^+) pairs
and Eq2 < 0 on the staggered (phi_i^-, b1_{i+1}^+) pairs, and the "plus"
arm mirrors it from (phi_max, beta1_min).  Band exclusion then confines any
common root to the rectangle spanned by the four final values.  The spiral
construction is exploratory; `verify_exclusion` independently re-evaluates
every recorded sign with the required margin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import SingularPointError, SpiralSeedError, TraceStructureError
from .intervals import lower
from .ledger import FeasibleBox
from .params import DELTA_NUM


@dataclass
class ExclusionTrace:
    """The four witness sequences plus the sign evaluations that produced them."""

    phi_minus: list[float]   # increasing, starts at phi_min
    beta_plus: list[float]   # decreasing, starts at beta1_max
    phi_plus: list[float]    # decreasing, starts at phi_max
    beta_minus: list[float]  # increasing, starts at beta1_min
    sign_checks: list[dict] = field(default_factory=list)
    diagnostic: str = ""

    @property
    def K(self) -> int:
        return len(self.phi_minus) - 1

    @property
    def L(self) -> int:
        return len(self.phi_plus) - 1

    @property
    def rectangle(self) -> tuple[float, float, float, float]:
        """(phi_lo, phi_hi, b1_lo, b1_hi) containing every feasible common root."""
        return (self.phi_minus[-1], self.phi_plus[-1],
                self.beta_minus[-1], self.beta_plus[-1])

    def to_jsonable(self) -> dict:
        return {
            "phi_minus": self.phi_minus,
            "beta_plus": self.beta_plus,
            "phi_plus": self.phi_plus,
            "beta_minus": self.beta_minus,
            "K": self.K,
            "L": self.L,
            "rectangle": list(self.rectangle),
            "sign_checks": self.sign_checks,
            "diagnostic": self.diagnostic,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "ExclusionTrace":
        return cls(
            phi_minus=list(data["phi_minus"]),
            beta_plus=list(data["beta_plus"]),
            phi_plus=list(data["phi_plus"]),
            beta_minus=list(data["beta_minus"]),
            sign_checks=list(data.get("sign_checks", [])),
            diagnostic=data.get("diagnostic", ""),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_jsonable(), indent=1)


@dataclass
class VerificationReport:
    ok: bool
    failures: list[dict]
    checks: int

    def __bool__(self) -> bool:
        return self.ok


def _strictly(seq: list[float], direction: int) -> bool:
    return all((b - a) * direction > 0.0 for a, b in zip(seq, seq[1:]))


def verify_exclusion(trace: ExclusionTrace, eq1f, eq2f, domain: FeasibleBox,
                     delta: float = DELTA_NUM) -> VerificationReport:
    """Re-evaluate all four sign-check families with margin > delta.

    eq1f and eq2f may return floats or enclosing Intervals; a check passes
    when the lowest value of sign * Eq exceeds delta.  Structural defects
    (anchoring, monotonicity, rectangle orientation) raise
    TraceStructureError; sign failures are reported, not raised.
    """
    pm, bp, pp, bm = trace.phi_minus, trace.beta_plus, trace.phi_plus, trace.beta_minus
    if len(pm) != len(bp) or len(pp) != len(bm):
        raise TraceStructureError("witness sequences must come in equal-length pairs")
    if not pm or not pp:
        raise TraceStructureError("empty witness sequences")
    if pm[0] != domain.phi_min or bp[0] != domain.beta1_max:
        raise TraceStructureError("minus arm must start at (phi_min, beta1_max)")
    if pp[0] != domain.phi_max or bm[0] != domain.beta1_min:
        raise TraceStructureError("plus arm must start at (phi_max, beta1_min)")
    if not (_strictly(pm, +1) and _strictly(bp, -1)
            and _strictly(pp, -1) and _strictly(bm, +1)):
        raise TraceStructureError("witness sequences must be strictly monotone")
    if not (pm[-1] < pp[-1] and bm[-1] < bp[-1]):
        raise TraceStructureError("final rectangle is inverted")

    failures: list[dict] = []
    n_checks = 0

    def need(family: str, i: int, phi: float, beta1: float, fn, sign: int):
        nonlocal n_checks
        n_checks += 1
        try:
            val = fn(phi, beta1)
        except SingularPointError as exc:
            failures.append({"family": family, "index": i, "phi": phi, "beta1": beta1,
                             "value": None, "error": str(exc)})
            return
        if not lower(sign * val) > delta:
            failures.append({"family": family, "index": i, "phi": phi, "beta1": beta1,
                             "value": val, "needed_sign": sign, "margin": delta})

    for i, (f, b) in enumerate(zip(pm, bp)):
        need("eq1_minus", i, f, b, eq1f, +1)
    for i in range(len(pm) - 1):
        need("eq2_minus", i, pm[i], bp[i + 1], eq2f, -1)
    for j, (f, b) in enumerate(zip(pp, bm)):
        need("eq1_plus", j, f, b, eq1f, -1)
    for j in range(len(pp) - 1):
        need("eq2_plus", j, pp[j], bm[j + 1], eq2f, +1)
    return VerificationReport(ok=not failures, failures=failures, checks=n_checks)


def _probe(fn, phi: float, beta1: float, sign: int, delta: float) -> float | None:
    """Value if the sign is certified with margin, else None."""
    try:
        val = fn(phi, beta1)
    except SingularPointError:
        return None
    return val if val * sign > delta else None


def _bisect_coordinate(fn, fixed: float, lo: float, hi: float, *, vary: str,
                       sign: int, toward: str, delta: float, tol: float,
                       max_iter: int = 90) -> float | None:
    """Push a coordinate as far as possible while keeping a certified sign.

    vary "beta" probes fn(fixed, b); vary "phi" probes fn(f, fixed).
    toward "lo" returns the smallest certified value in (lo, hi) starting
    from a certified hi; toward "hi" the mirror image.  Returns None when
    no strictly interior point certifies.
    """
    def val(t: float) -> float | None:
        if vary == "beta":
            return _probe(fn, fixed, t, sign, delta)
        return _probe(fn, t, fixed, sign, delta)

    if toward == "lo":
        good, bad = hi, lo
    else:
        good, bad = lo, hi
    advanced = False
    for _ in range(max_iter):
        if abs(good - bad) <= tol:
            break
        mid = 0.5 * (good + bad)
        if val(mid) is not None:
            good = mid
            advanced = True
        else:
            bad = mid
    return good if advanced else None


def spiral_localize(eq1f, eq2f, domain: FeasibleBox, width_target: float,
                    delta: float = DELTA_NUM, max_cycles: int = 400) -> ExclusionTrace:
    """Generate witness sequences until the confining rectangle is narrow enough.

    Each arm step bisects one coordinate against the last opposing witness:
    the minus arm first lowers beta1 to the least value where Eq2 < -delta at
    its current phi, then raises phi to the greatest value where Eq1 > +delta
    at the new beta1; the plus arm mirrors this.  Points are accepted only at
    twice the verification margin, so re-verification (float or outward-
    rounded) always clears delta with room.  Pure function of its arguments;
    stops at width_target or when neither arm can advance.
    """
    delta_build = 2.0 * delta
    pm = [domain.phi_min]
    bp = [domain.beta1_max]
    pp = [domain.phi_max]
    bm = [domain.beta1_min]
    checks: list[dict] = []

    seed_minus = _probe(eq1f, pm[0], bp[0], +1, delta_build)
    seed_plus = _probe(eq1f, pp[0], bm[0], -1, delta_build)
    if seed_minus is None or seed_plus is None:
        raise SpiralSeedError(
            "corner sign seeds absent: need Eq1(phi_min, beta1_max) > 0 and "
            f"Eq1(phi_max, beta1_min) < 0, got {seed_minus} and {seed_plus}")
    checks.append({"family": "eq1_minus", "index": 0, "phi": pm[0], "beta1": bp[0],
                   "value": seed_minus, "margin": delta})
    checks.append({"family": "eq1_plus", "index": 0, "phi": pp[0], "beta1": bm[0],
                   "value": seed_plus, "margin": delta})

    tol = max(width_target / 64.0, 1e-14)
    diagnostic = ""
    for _ in range(max_cycles):
        width_phi = pp[-1] - pm[-1]
        width_b = bp[-1] - bm[-1]
        if width_phi <= width_target and width_b <= width_target:
            break
        moved = False

        # minus arm: lower beta1 with Eq2 < 0 at current phi, then raise phi
        # with Eq1 > 0 at the new beta1.
        f = pm[-1]
        b_new = _bisect_coordinate(eq2f, f, bm[-1], bp[-1], vary="beta", sign=-1,
                                   toward="lo", delta=delta_build, tol=tol)
        if b_new is not None and b_new < bp[-1]:
            f_new = _bisect_coordinate(eq1f, b_new, f, pp[-1], vary="phi", sign=+1,
                                       toward="hi", delta=delta_build, tol=tol)
            if f_new is None and _probe(eq1f, f, b_new, +1, delta_build) is not None:
                f_new = None  # beta1 moved but phi cannot; pair must advance together
            if f_new is not None and f_new > f:
                checks.append({"family": "eq2_minus", "index": len(pm) - 1, "phi": f,
                               "beta1": b_new, "value": eq2f(f, b_new), "margin": delta})
                pm.append(f_new)
                bp.append(b_new)
                checks.append({"family": "eq1_minus", "index": len(pm) - 1, "phi": f_new,
                               "beta1": b_new, "value": eq1f(f_new, b_new), "margin": delta})
                moved = True

        # plus arm: raise beta1 with Eq2 > 0 at current phi, then lower phi
        # with Eq1 < 0 at the new beta1.
        f = pp[-1]
        b_new = _bisect_coordinate(eq2f, f, bm[-1], bp[-1], vary="beta", sign=+1,
                                   toward="hi", delta=delta_build, tol=tol)
        if b_new is not None and b_new > bm[-1]:
            f_new = _bisect_coordinate(eq1f, b_new, pm[-1], f, vary="phi", sign=-1,
                                       toward="lo", delta=delta_build, tol=tol)
            if f_new is not None and f_new < f:
                checks.append({"family": "eq2_plus", "index": len(pp) - 1, "phi": f,
                               "beta1": b_new, "value": eq2f(f, b_new), "margin": delta})
                pp.append(f_new)
                bm.append(b_new)
                checks.append({"family": "eq1_plus", "index": len(pp) - 1, "phi": f_new,
                               "beta1": b_new, "value": eq1f(f_new, b_new), "margin": delta})
                moved = True

        if not moved:
            diagnostic = (
                f"arms stalled at rectangle widths ({pp[-1] - pm[-1]:.3e}, "
                f"{bp[-1] - bm[-1]:.3e}) before reaching {width_target:.3e}")
            break

    return ExclusionTrace(phi_minus=pm, beta_plus=bp, phi_plus=pp, beta_minus=bm,
                          sign_checks=checks, diagnostic=diagnostic)


def solve_reference(eq1f, eq2f, rectangle: tuple[float, float, float, float],
                    residual_target: float = 1e-10) -> dict:
    """Nested-bisection root inside a verified rectangle (sanity oracle only).

    The inner bisection solves Eq1(., b1) = 0 in phi; the outer one drives
    Eq2 along that locus.  Never feeds the certificate.
    """
    phi_lo, phi_hi, b_lo, b_hi = rectangle
    pad_f = 50.0 * (phi_hi - phi_lo) + 1e-9
    pad_b = 50.0 * (b_hi - b_lo) + 1e-9

    def phi_root(b: float) -> float | None:
        lo, hi = phi_lo - pad_f, phi_hi + pad_f
        try:
            flo, fhi = eq1f(lo, b), eq1f(hi, b)
        except SingularPointError:
            return None
        if flo * fhi > 0.0:
            return None
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            fm = eq1f(mid, b)
            if fm == 0.0:
                return mid
            if flo * fm < 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        return 0.5 * (lo + hi)

    def g(b: float) -> float | None:
        f = phi_root(b)
        return None if f is None else eq2f(f, b)

    lo, hi = b_lo - pad_b, b_hi + pad_b
    glo, ghi = g(lo), g(hi)
    if glo is None or ghi is None or glo * ghi > 0.0:
        return {"found": False, "reason": "no sign change across the rectangle"}
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        gm = g(mid)
        if gm == 0.0:
            lo = hi = mid
            break
        if glo * gm < 0.0:
            hi = mid
        else:
            lo, glo = mid, gm
    b1 = 0.5 * (lo + hi)
    phi = phi_root(b1)
    r1, r2 = eq1f(phi, b1), eq2f(phi, b1)
    return {
        "found": True,
        "phi": phi,
        "beta1": b1,
        "residual_eq1": r1,
        "residual_eq2": r2,
        "within_target": max(abs(r1), abs(r2)) < residual_target,
        "inside_rectangle": bool(phi_lo <= phi <= phi_hi and b_lo <= b1 <= b_hi),
    }
