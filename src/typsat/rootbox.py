"""Sign-exclusion machinery confining every feasible root of (Eq1, Eq2).

Four monotone witness sequences exclude horizontal and vertical bands of
the feasibility box: the "minus" arm walks phi up / beta1 down from the
(phi_min, beta1_max) corner keeping Eq1 > 0 on its (phi_i^-, b1_i^+) pairs
and Eq2 < 0 on the staggered (phi_i^-, b1_{i+1}^+) pairs, and the "plus"
arm mirrors it from (phi_max, beta1_min).  Band exclusion then confines any
common root to the rectangle spanned by the four final values.  The spiral
construction is the search; `verify_exclusion` is the check: it builds
every sign the sequences claim and compares its value with the required
margin, and alone decides whether a trace holds.  A float certify hands it
the spiral's values at the same exact points (`pipeline._memoized`); a
replay evaluates every claim, and an interval check computes, for each
claim, only the end of its enclosure that the claimed sign reads (one float
corner sum, not two).  The spiral's Newton
root stays on the in-memory trace as a record of the search; a certificate
does not store it, and the check never reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularPointError, SpiralSeedError, TraceStructureError
from .intervals import Interval
from .ledger import FeasibleBox
from .params import DELTA_NUM

#: Step caps of `_push` and `spiral_localize`.
PUSH_MAX_ITER = 90
SPIRAL_MAX_CYCLES = 400
#: The spiral predicts each push from one linearisation and probes it
#: PREDICT_SHARE of the push's gap back toward the certified side.
PREDICT_SHARE = 1.0 / 64.0
#: `solve_reference`'s forward-difference increment, convergence step and step cap.
NEWTON_INCREMENT = 1e-7
NEWTON_STEP_TOL = 1e-12
NEWTON_MAX_ITER = 8
#: The witness sequences, in ExclusionTrace's field order.
SEQUENCES = ("phi_minus", "beta_plus", "phi_plus", "beta_minus")


@dataclass
class ExclusionTrace:
    """The four witness sequences, and the Newton root the spiral linearised
    about (None for a trace that no spiral made, or one read from JSON)."""

    phi_minus: list[float]   # increasing, starts at phi_min
    beta_plus: list[float]   # decreasing, starts at beta1_max
    phi_plus: list[float]    # decreasing, starts at phi_max
    beta_minus: list[float]  # increasing, starts at beta1_min
    diagnostic: str = ""
    root: NewtonRoot | None = None

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
        return {**{name: getattr(self, name) for name in SEQUENCES}, "K": self.K, "L": self.L,
                "diagnostic": self.diagnostic}

    @classmethod
    def from_jsonable(cls, data: dict) -> "ExclusionTrace":
        """The trace of to_jsonable's dict, with no root; other keys (an older
        certificate's `root`, `sign_checks` or `rectangle` record) are
        ignored, and a missing or empty sequence raises TraceStructureError."""
        if not all(data.get(name) for name in SEQUENCES):
            raise TraceStructureError("missing or empty witness sequences")
        return cls(*(list(data[name]) for name in SEQUENCES), diagnostic=data.get("diagnostic", ""))


@dataclass
class VerificationReport:
    ok: bool
    failures: list[dict]
    checks: int
    min_margin: float  # smallest lower end of sign * Eq over the evaluated checks


def _strictly(seq: list[float], direction: int) -> bool:
    return all((b - a) * direction > 0.0 for a, b in zip(seq, seq[1:]))


def _sign_claims(trace: ExclusionTrace) -> list[tuple]:
    """Every (family, index, phi, beta1, sign) claim of the trace, in report order."""
    pm, bp, pp, bm = trace.phi_minus, trace.beta_plus, trace.phi_plus, trace.beta_minus
    return ([("eq1_minus", i, f, b, +1) for i, (f, b) in enumerate(zip(pm, bp))]
            + [("eq2_minus", i, pm[i], bp[i + 1], -1) for i in range(len(pm) - 1)]
            + [("eq1_plus", j, f, b, -1) for j, (f, b) in enumerate(zip(pp, bm))]
            + [("eq2_plus", j, pp[j], bm[j + 1], +1) for j in range(len(pp) - 1)])


def values_where_defined(fn, phis: np.ndarray, betas: np.ndarray, signs=None) -> tuple:
    """fn(phi, beta1, sign) at each point of the equal-length arrays phis and
    betas: (values, errors).  `signs`, one a point or None, are the signs
    the caller's checks claim, so an interval fn computes only the end each
    check reads (`stationarity.eq1`).  values is one batch, a float array or
    an Interval of arrays; errors has one entry a point.  One batched call,
    or, if the batch has a singular point, one scalar call a point with its
    own sign, so that the point fails alone: its value is NaN and its error
    the SingularPointError's message.  Every other error is None."""
    try:
        return fn(phis, betas, signs), [None] * len(phis)
    except SingularPointError:
        pass
    values, errors = [], []
    for phi, beta1, sign in zip(phis.tolist(), betas.tolist(),
                                [None] * len(phis) if signs is None else signs.tolist()):
        try:
            values.append(fn(phi, beta1, sign))
            errors.append(None)
        except SingularPointError as exc:
            values.append(math.nan)
            errors.append(str(exc))
    if any(isinstance(v, Interval) for v in values):
        return Interval(*(np.array([getattr(v, end, v) for v in values], dtype=np.float64)
                          for end in ("lo", "hi"))), errors
    return np.array(values, dtype=np.float64), errors


def verify_exclusion(trace: ExclusionTrace, eq1f, eq2f, domain: FeasibleBox) -> VerificationReport:
    """Check all four sign-check families with margin > DELTA_NUM.

    eq1f and eq2f take equal-shape arrays of phi, beta1 and the claimed
    signs and return one float or enclosing Interval per point; each
    equation's checks are evaluated in one call (`values_where_defined`).
    A check passes when the lowest value of sign * Eq exceeds DELTA_NUM; an
    interval system computes only that end, so the `value` of an interval
    failure record may have one trivial end (+-inf, or a bound from a cell
    sum of 0).  Structural defects (anchoring,
    monotonicity, rectangle orientation) raise TraceStructureError; sign
    failures are reported, not raised.
    """
    pm, bp, pp, bm = trace.phi_minus, trace.beta_plus, trace.phi_plus, trace.beta_minus
    if len(pm) != len(bp) or len(pp) != len(bm):
        raise TraceStructureError("witness sequences must come in equal-length pairs")
    if pm[0] != domain.phi_min or bp[0] != domain.beta1_max:
        raise TraceStructureError("minus arm must start at (phi_min, beta1_max)")
    if pp[0] != domain.phi_max or bm[0] != domain.beta1_min:
        raise TraceStructureError("plus arm must start at (phi_max, beta1_min)")
    if not (_strictly(pm, +1) and _strictly(bp, -1)
            and _strictly(pp, -1) and _strictly(bm, +1)):
        raise TraceStructureError("witness sequences must be strictly monotone")
    if not (pm[-1] < pp[-1] and bm[-1] < bp[-1]):
        raise TraceStructureError("final rectangle is inverted")

    claims = _sign_claims(trace)
    # claim index -> (lower end of sign * Eq, error, the equation's values, position in them)
    results: dict[int, tuple] = {}
    for fn, prefix in ((eq1f, "eq1"), (eq2f, "eq2")):
        order = [k for k, claim in enumerate(claims) if claim[0].startswith(prefix)]
        phis, betas, signs = (np.array([claims[k][col] for k in order]) for col in (2, 3, 4))
        vals, errors = values_where_defined(fn, phis, betas, signs)
        # sign * Eq for signs +-1 is an exact negation: an Interval's lower end
        # for +1 and minus its upper end for -1, one array op for all the checks
        lows = (np.where(signs > 0, vals.lo, -vals.hi) if isinstance(vals, Interval)
                else signs * vals)
        for j, (k, low, error) in enumerate(zip(order, lows.tolist(), errors)):
            results[k] = (low, error, vals, j)

    failures: list[dict] = []
    for k, (family, i, phi, beta1, sign) in enumerate(claims):
        low, error, vals, j = results[k]
        if error is not None:
            failures.append({"family": family, "index": i, "phi": phi, "beta1": beta1,
                             "value": None, "error": error})
        elif not low > DELTA_NUM:
            failures.append({"family": family, "index": i, "phi": phi, "beta1": beta1,
                             "value": vals[j], "needed_sign": sign, "margin": DELTA_NUM})
    lows = [low for low, error, _, _ in results.values() if error is None]
    return VerificationReport(ok=not failures, failures=failures, checks=len(claims),
                              min_margin=min(lows, default=math.nan))


def _probe(fn, phi: float, beta1: float, sign: int, delta: float) -> bool:
    """Whether sign * fn(phi, beta1) exceeds delta; False at a singular point."""
    try:
        return fn(phi, beta1) * sign > delta
    except SingularPointError:
        return False


def _push(probe, good: float, bad: float, tol: float) -> float | None:
    """Bisect from the certified end `good` toward `bad` while probe certifies.

    probe(t) says whether the sign at coordinate t is certified.  Stops once
    some probe has certified and the bracket is within 1/32 of its starting
    width, or in any case once it is within tol.  Returns the last certified
    probe point, or None when no strictly interior point certifies.
    """
    rel_tol = abs(bad - good) / 32.0
    best = None
    for _ in range(PUSH_MAX_ITER):
        gap = abs(good - bad)
        if gap <= tol or (best is not None and gap <= rel_tol):
            break
        mid = 0.5 * (good + bad)
        if probe(mid):
            good = best = mid
        else:
            bad = mid
    return best


class NewtonRoot(NamedTuple):
    """`solve_reference`'s result.  A root carries its residuals and the
    Jacobian of the last step, and the linearisation about it takes the
    residuals as zero; a failure carries the last iterate and its reason."""

    phi: float
    beta1: float
    residuals: tuple[float, float] | None = None               # (Eq1, Eq2) at (phi, beta1)
    jacobian: tuple[float, float, float, float] | None = None  # (d11, d12, d21, d22), last step
    reason: str | None = None                                  # why no root was found

    @property
    def found(self) -> bool:
        return self.reason is None

    def beta1_where_eq2(self, value: float, phi: float) -> float | None:
        """beta1 at which the linearised Eq2 equals value at phi; None if no
        root was found or Eq2 is flat in beta1."""
        if not self.found or self.jacobian[3] == 0.0:
            return None
        _, _, d21, d22 = self.jacobian
        return self.beta1 + (value - d21 * (phi - self.phi)) / d22

    def phi_where_eq1(self, value: float, beta1: float) -> float | None:
        """phi at which the linearised Eq1 equals value at beta1; None if no
        root was found or Eq1 is flat in phi."""
        if not self.found or self.jacobian[0] == 0.0:
            return None
        d11, d12, _, _ = self.jacobian
        return self.phi + (value - d12 * (beta1 - self.beta1)) / d11


def solve_reference(eq1f, eq2f, rectangle: tuple[float, float, float, float]) -> NewtonRoot:
    """Newton root of (Eq1, Eq2) from the centre of a rectangle.

    `spiral_localize` runs it once, on its domain, and predicts its pushes
    from the root, which its trace keeps in memory; no check reads it.  Each step
    takes a forward-difference Jacobian with increments of NEWTON_INCREMENT,
    until a step is within NEWTON_STEP_TOL in both coordinates.  A singular
    iterate (an equation that cannot be evaluated, or a degenerate
    Jacobian), one outside the rectangle widened by its own widths on each
    side, or NEWTON_MAX_ITER steps without convergence end it with a reason.
    """
    phi_lo, phi_hi, b_lo, b_hi = rectangle
    w_f, w_b = phi_hi - phi_lo, b_hi - b_lo
    h = NEWTON_INCREMENT
    phi, b1 = 0.5 * (phi_lo + phi_hi), 0.5 * (b_lo + b_hi)
    try:
        r1, r2 = eq1f(phi, b1), eq2f(phi, b1)
        for _ in range(NEWTON_MAX_ITER):
            d11 = (eq1f(phi + h, b1) - r1) / h
            d21 = (eq2f(phi + h, b1) - r2) / h
            d12 = (eq1f(phi, b1 + h) - r1) / h
            d22 = (eq2f(phi, b1 + h) - r2) / h
            det = d11 * d22 - d12 * d21
            if not (det != 0.0 and math.isfinite(det)):
                return NewtonRoot(phi, b1, reason=f"singular Jacobian at ({phi!r}, {b1!r}): "
                                                  f"det={det!r}")
            step_f = (d22 * r1 - d12 * r2) / det
            step_b = (d11 * r2 - d21 * r1) / det
            phi, b1 = phi - step_f, b1 - step_b
            if not (phi_lo - w_f <= phi <= phi_hi + w_f and b_lo - w_b <= b1 <= b_hi + w_b):
                return NewtonRoot(phi, b1, reason=f"Newton iterate ({phi!r}, {b1!r}) "
                                                  "left the rectangle")
            r1, r2 = eq1f(phi, b1), eq2f(phi, b1)
            if max(abs(step_f), abs(step_b)) <= NEWTON_STEP_TOL:
                return NewtonRoot(phi, b1, (r1, r2), (d11, d12, d21, d22))
    except SingularPointError as exc:
        return NewtonRoot(phi, b1, reason=f"singular point: {exc}")
    return NewtonRoot(phi, b1, reason=f"no convergence in {NEWTON_MAX_ITER} Newton steps")


def _first_probe(good: float, bad: float, predicted: float | None) -> float | None:
    """Where a predicted push probes first: `predicted` shifted PREDICT_SHARE
    of the gap |good - bad| back toward `good`; None without a prediction or
    when that point is not strictly between good and bad."""
    if predicted is None:
        return None
    t = predicted + PREDICT_SHARE * (good - bad)
    return t if min(good, bad) < t < max(good, bad) else None


def _predicted_push(probe, good: float, bad: float, predicted: float | None,
                    tol: float) -> tuple[float | None, bool]:
    """`_push`, first trying one probe at `_first_probe`'s point, if any.

    Returns the push's result and whether that first probe certified it;
    otherwise the push bisects from `good` as `_push` does.
    """
    t = _first_probe(good, bad, predicted)
    if t is not None and probe(t):
        return t, True
    return _push(probe, good, bad, tol), False


def _narrow(arms, width_target: float) -> bool:
    """Whether the rectangle the arms span is within width_target both ways."""
    pm, bp, pp, bm, _ = arms[0]
    return pp[-1] - pm[-1] <= width_target and bp[-1] - bm[-1] <= width_target


def _generated_cycles(eq1f, eq2f, root: NewtonRoot, arms, width_target: float,
                      max_cycles: int) -> int:
    """Extend the arms by the cycles the point-by-point loop would take if
    every push certified at its first probe; return how many are kept.

    The cycles are generated from `_first_probe` and the root's linearisation
    alone, with no evaluation, until the rectangle is within width_target (at
    a cycle boundary), after max_cycles, or up to the first first-probe point
    outside its gap.  Every generated claim is then checked at twice the
    verification margin in one call per equation (`values_where_defined`, so
    a singular point fails alone), and only the whole cycles before the first
    claim that fails stay on the arms.  Since batched and single-point values
    agree bit for bit, the kept cycles are the ones the loop would have made.
    """
    delta_build = 2.0 * DELTA_NUM
    seqs = [seq for arm in arms for seq in arm[:2]]
    starts = [len(seq) for seq in seqs]
    steps = []  # (phi, new beta1, new phi, sign), one an arm step, cycle by cycle
    cycles = 0
    while cycles < max_cycles and not _narrow(arms, width_target):
        for phis, betas, far_phis, far_betas, sign in arms:
            f = phis[-1]
            b_new = _first_probe(betas[-1], far_betas[-1],
                                 root.beta1_where_eq2(-sign * delta_build, f))
            f_new = None if b_new is None else _first_probe(
                f, far_phis[-1], root.phi_where_eq1(sign * delta_build, b_new))
            if f_new is None:
                break
            steps.append((f, b_new, f_new, sign))
            phis.append(f_new)
            betas.append(b_new)
        if len(steps) < len(arms) * (cycles + 1):
            break
        cycles += 1

    kept = cycles
    if cycles:
        f, b_new, f_new, sign = (np.array(col) for col in zip(*steps[:len(arms) * cycles]))
        for fn, phis, signs in ((eq2f, f, -sign), (eq1f, f_new, sign)):
            vals, _ = values_where_defined(fn, phis, b_new, signs)
            # a singular point's value is NaN, which certifies no sign
            failed = ~(signs * vals > delta_build)
            if failed.any():
                kept = min(kept, int(np.argmax(failed)) // len(arms))
    for seq, start in zip(seqs, starts):
        del seq[start + kept:]
    return kept


def spiral_localize(eq1f, eq2f, domain: FeasibleBox, width_target: float) -> ExclusionTrace:
    """Generate witness sequences until the confining rectangle is narrow enough.

    Each arm step pushes one coordinate against the last opposing witness:
    the minus arm first lowers beta1 toward the least value where Eq2 < -2 DELTA_NUM
    at its current phi, then raises phi toward the greatest value where
    Eq1 > +2 DELTA_NUM at the new beta1; the plus arm mirrors this.  A cycle
    is one minus-arm step and then one plus-arm step.  One `solve_reference`
    root from the domain's centre, which the trace keeps, linearises Eq1 and
    Eq2 before the first push.  Each push probes once at the linearised
    crossing, shifted PREDICT_SHARE of the gap toward the certified side, and
    a miss bisects from the last certified point (see `_push`); a failed
    Newton leaves every push bisecting.

    Cycles run point by point, one evaluation a probe, until one cycle in
    which all four pushes certify at their first probe.  The cycles after it
    are generated from the linearisation alone and checked in one batched
    call per equation (`_generated_cycles`); the whole cycles before the
    first claim that fails are kept, and the spiral goes on point by point
    from there.  Batched values equal single-point values bit for bit, so
    the trace is the one the point-by-point loop alone would make.

    Points are accepted only at twice the verification margin, so the check
    (on these float values in a float certify, on fresh float values in a
    replay, on the outward-rounded end each claim reads in interval mode)
    clears DELTA_NUM
    with room; `verify_exclusion` alone decides whether the trace holds.
    Pure function of its arguments; stops at width_target (checked between
    cycles), when neither arm can advance, or after SPIRAL_MAX_CYCLES cycles.
    """
    delta_build = 2.0 * DELTA_NUM
    pm, bp, pp, bm = [domain.phi_min], [domain.beta1_max], [domain.phi_max], [domain.beta1_min]
    if not (_probe(eq1f, pm[0], bp[0], +1, delta_build)
            and _probe(eq1f, pp[0], bm[0], -1, delta_build)):
        raise SpiralSeedError(
            "corner sign seeds absent: need Eq1(phi_min, beta1_max) > 0 and "
            "Eq1(phi_max, beta1_min) < 0, each beyond 2 DELTA_NUM")
    root = solve_reference(eq1f, eq2f, (pm[0], pp[0], bm[0], bp[0]))

    tol = max(width_target / 64.0, 1e-14)
    # minus arm (sign +1): move beta1 from bp toward bm while Eq2 < 0 at its
    # current phi, then phi from pm toward pp while Eq1 > 0 at the new beta1;
    # the plus arm (sign -1) mirrors it.
    arms = ((pm, bp, pp, bm, +1), (pp, bm, pm, bp, -1))
    diagnostic = ""
    cycles = 0
    while cycles < SPIRAL_MAX_CYCLES and not _narrow(arms, width_target):
        cycles += 1
        moved = False
        first_probes = 0  # pushes certified at their first probe
        for phis, betas, far_phis, far_betas, sign in arms:
            f = phis[-1]
            b_new, hit = _predicted_push(lambda t: _probe(eq2f, f, t, -sign, delta_build),
                                         betas[-1], far_betas[-1],
                                         root.beta1_where_eq2(-sign * delta_build, f), tol)
            if b_new is None:
                continue
            first_probes += hit
            f_new, hit = _predicted_push(lambda t: _probe(eq1f, t, b_new, sign, delta_build),
                                         f, far_phis[-1],
                                         root.phi_where_eq1(sign * delta_build, b_new), tol)
            if f_new is None:
                continue
            first_probes += hit
            phis.append(f_new)
            betas.append(b_new)
            moved = True

        if not moved:
            diagnostic = (
                f"arms stalled at rectangle widths ({pp[-1] - pm[-1]:.3e}, "
                f"{bp[-1] - bm[-1]:.3e}) before reaching {width_target:.3e}")
            break
        if first_probes == 2 * len(arms):
            cycles += _generated_cycles(eq1f, eq2f, root, arms, width_target,
                                        SPIRAL_MAX_CYCLES - cycles)

    return ExclusionTrace(phi_minus=pm, beta_plus=bp, phi_plus=pp, beta_minus=bm,
                          diagnostic=diagnostic, root=root)
