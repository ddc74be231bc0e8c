import dataclasses

import numpy as np
import pytest

from typsat import distribution as dist
from typsat import ledger as lg
from typsat import rootbox as rb
from typsat import stationarity as st
from typsat.errors import SingularPointError, SpiralSeedError, TraceStructureError
from typsat.intervals import Interval, lower, upper
from typsat.ledger import FeasibleBox
from typsat.params import CERTIFICATION_BOX, DELTA_NUM, WIDTH_TARGET, ModelParams

UNIT_BOX = FeasibleBox(beta1_min=0.0, beta1_max=1.0, beta2_min=-100.0, beta2_max=100.0,
                       beta3_min=-100.0, beta3_max=100.0, phi_min=0.0, phi_max=1.0)


# linear system crossing at (0.5, 0.5) with the orientation the exclusion
# corollary needs: eq1 positive at (phi_min, beta1_max), negative at
# (phi_max, beta1_min); both decreasing where it matters
def toy_eq1(phi, beta1):
    return -(phi - 0.5) - 0.25 * (beta1 - 0.5)


def toy_eq2(phi, beta1):
    return -(beta1 - 0.5) - 0.25 * (phi - 0.5)


def nested_bisection_root(eq1f, eq2f, rectangle):
    """Reference root (phi, beta1) for solve_reference: the inner bisection
    solves Eq1(., b1) = 0 in phi, the outer one drives Eq2 along that locus,
    both down to adjacent floats."""
    phi_lo, phi_hi, b_lo, b_hi = rectangle
    pad_f = 50.0 * (phi_hi - phi_lo) + 1e-9
    pad_b = 50.0 * (b_hi - b_lo) + 1e-9

    def bisect(fn, lo, hi):
        flo = fn(lo)
        assert flo * fn(hi) <= 0.0
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                return mid
            fm = fn(mid)
            if fm == 0.0:
                return mid
            if flo * fm < 0.0:
                hi = mid
            else:
                lo, flo = mid, fm

    def phi_root(b):
        return bisect(lambda f: eq1f(f, b), phi_lo - pad_f, phi_hi + pad_f)

    b1 = bisect(lambda b: eq2f(phi_root(b), b), b_lo - pad_b, b_hi + pad_b)
    return phi_root(b1), b1


def counted(fn, counter):
    def wrapped(phi, beta1):
        counter[0] += 1
        return fn(phi, beta1)
    return wrapped


def test_spiral_on_toy_linear_system():
    trace = rb.spiral_localize(toy_eq1, toy_eq2, UNIT_BOX, width_target=1e-6)
    rect = trace.rectangle
    assert rect[0] <= 0.5 <= rect[1]
    assert rect[2] <= 0.5 <= rect[3]
    assert rect[1] - rect[0] <= 1e-6 and rect[3] - rect[2] <= 1e-6
    report = rb.verify_exclusion(trace, toy_eq1, toy_eq2, UNIT_BOX)
    assert report.ok


def test_solve_reference_on_toy_system():
    trace = rb.spiral_localize(toy_eq1, toy_eq2, UNIT_BOX, width_target=1e-6)
    ref = rb.solve_reference(toy_eq1, toy_eq2, trace.rectangle)
    assert ref.found
    assert ref.phi == pytest.approx(0.5, abs=1e-9)
    assert ref.beta1 == pytest.approx(0.5, abs=1e-9)
    phi, b1 = nested_bisection_root(toy_eq1, toy_eq2, trace.rectangle)
    assert abs(ref.phi - phi) < 1e-12 and abs(ref.beta1 - b1) < 1e-12


def test_newton_root_agrees_with_nested_bisection(system, box, trace, root):
    # the spiral's one Newton runs from the box's centre (32 evaluations);
    # from the verified rectangle's centre it lands on the same root sooner
    evals = [0]
    eq1c, eq2c = counted(system.eq1, evals), counted(system.eq2, evals)
    ref = rb.solve_reference(eq1c, eq2c, (box.phi_min, box.phi_max, box.beta1_min, box.beta1_max))
    assert ref == trace.root
    assert ref.report(trace.rectangle) == root
    assert evals[0] <= 40
    evals[0] = 0
    again = rb.solve_reference(eq1c, eq2c, trace.rectangle)
    assert evals[0] <= 30
    assert abs(again.phi - ref.phi) < 1e-15 and abs(again.beta1 - ref.beta1) < 1e-15
    phi, b1 = nested_bisection_root(system.eq1, system.eq2, trace.rectangle)
    assert abs(root["phi"] - phi) < 1e-12 and abs(root["beta1"] - b1) < 1e-12


def _singular(phi, beta1):
    raise SingularPointError("V <= 1")


@pytest.mark.parametrize("eq1f, eq2f, rectangle, reason", [
    (toy_eq1, toy_eq2, (0.0, 0.1, 0.0, 0.1), "left the rectangle"),  # root (0.5, 0.5) outside
    (toy_eq1, _singular, (0.4, 0.6, 0.4, 0.6), "singular point"),
    (toy_eq1, toy_eq1, (0.4, 0.6, 0.4, 0.6), "singular Jacobian"),
])
def test_solve_reference_reports_failure(eq1f, eq2f, rectangle, reason):
    ref = rb.solve_reference(eq1f, eq2f, rectangle)
    assert ref.found is False
    assert reason in ref.reason
    assert ref.report(rectangle) == {"found": False, "reason": ref.reason}
    assert ref.beta1_where_eq2(0.0, 0.5) is None and ref.phi_where_eq1(0.0, 0.5) is None


def test_spiral_claims_certify_at_the_build_margin(system, box):
    # every claim of the trace was accepted at twice the verification margin
    evals = [0]
    trace = rb.spiral_localize(counted(system.eq1, evals), counted(system.eq2, evals),
                               box, width_target=WIDTH_TARGET)
    assert not trace.diagnostic
    assert evals[0] <= 400  # ~10 a step when every push bisected (1,264)
    claims = rb._sign_claims(trace)
    assert len(claims) == 2 * (trace.K + trace.L) + 2
    for family, _, phi, beta1, sign in claims:
        fn = system.eq1 if family.startswith("eq1") else system.eq2
        assert sign * fn(phi, beta1) > 2 * DELTA_NUM


def _counting_pushes(monkeypatch):
    """Record the spiral's bisecting pushes and its linearisation: (pushes,
    roots), pushes counting them {"before": n, "after": m} the first
    `solve_reference` root, roots listing every root it returned."""
    pushes = {"before": 0, "after": 0}
    linearised = []
    newton, push = rb.solve_reference, rb._push

    def recorded_newton(*args):
        root = newton(*args)
        linearised.append(root)
        return root

    def recorded_push(*args):
        pushes["after" if linearised else "before"] += 1
        return push(*args)

    monkeypatch.setattr(rb, "solve_reference", recorded_newton)
    monkeypatch.setattr(rb, "_push", recorded_push)
    return pushes, linearised


def test_spiral_predicts_linear_system_without_fallback(monkeypatch):
    pushes, linearised = _counting_pushes(monkeypatch)
    trace = rb.spiral_localize(toy_eq1, toy_eq2, UNIT_BOX, width_target=1e-6)
    assert len(linearised) == 1
    assert pushes["before"] == 0 and pushes["after"] == 0
    assert rb.verify_exclusion(trace, toy_eq1, toy_eq2, UNIT_BOX).ok


def test_spiral_falls_back_to_bisection_on_a_missed_prediction(monkeypatch):
    # the first Eq2 probe after the linearisation reads 0, which no sign
    # certifies: that push bisects from its last certified point
    pushes, linearised = _counting_pushes(monkeypatch)
    missed = []

    def eq2_missing_once(phi, beta1):
        if linearised and not missed:
            missed.append((phi, beta1))
            return 0.0
        return toy_eq2(phi, beta1)

    trace = rb.spiral_localize(toy_eq1, eq2_missing_once, UNIT_BOX, width_target=1e-6)
    assert len(missed) == 1 and pushes["after"] == 1
    rect = trace.rectangle
    assert rect[1] - rect[0] <= 1e-6 and rect[3] - rect[2] <= 1e-6
    assert rb.verify_exclusion(trace, toy_eq1, toy_eq2, UNIT_BOX).ok


def test_spiral_predictions_miss_rarely_on_the_real_system(monkeypatch, system, box):
    # the curvature of Eq1/Eq2 makes a few predicted probes miss, far from
    # the root; each such push bisects, and the trace still verifies
    pushes, linearised = _counting_pushes(monkeypatch)
    trace = rb.spiral_localize(system.eq1, system.eq2, box, width_target=WIDTH_TARGET)
    assert len(linearised) == 1 and not trace.diagnostic
    assert 0 < pushes["after"] <= 10 < 2 * (trace.K + trace.L)
    assert rb.verify_exclusion(trace, system.eq1, system.eq2, box).ok


def test_spiral_bisects_throughout_when_newton_fails(monkeypatch):
    def failing(eq1f, eq2f, rectangle):
        return rb.NewtonRoot(0.5, 0.5, reason="no root")

    monkeypatch.setattr(rb, "solve_reference", failing)
    trace = rb.spiral_localize(toy_eq1, toy_eq2, UNIT_BOX, width_target=1e-6)
    assert trace.root.reason == "no root"
    rect = trace.rectangle
    assert rect[1] - rect[0] <= 1e-6 and rect[3] - rect[2] <= 1e-6
    assert rb.verify_exclusion(trace, toy_eq1, toy_eq2, UNIT_BOX).ok


@pytest.mark.parametrize("c, below_one", [(4.5, False), (4.5055, True), (4.6, True)])
def test_spiral_across_densities_with_the_certification_box(c, below_one):
    # the 4.506 box forced at nearby densities: the rectangle rate stays on
    # the side of 1 that the bisection spiral gave (1.000534, 0.999986, 0.990478)
    params = ModelParams(c=c, a_priori=CERTIFICATION_BOX)
    _, _, consts = dist.build_tables(params)
    system = st.EqSystem.build(params, consts)
    trace = rb.spiral_localize(system.eq1, system.eq2, params.a_priori, WIDTH_TARGET)
    assert not trace.diagnostic
    assert rb.verify_exclusion(trace, system.eq1, system.eq2, params.a_priori).ok
    rate = st.rate_bound_rectangle(*trace.rectangle, system, lg.build_budget(params, consts))
    assert (rate < 1.0) == below_one


def test_spiral_seed_error():
    with pytest.raises(SpiralSeedError):
        rb.spiral_localize(lambda f, b: -1.0, toy_eq2, UNIT_BOX, width_target=1e-3)


def test_single_step_trace_is_valid():
    trace = rb.ExclusionTrace(phi_minus=[0.0], beta_plus=[1.0],
                              phi_plus=[1.0], beta_minus=[0.0])
    assert trace.K == 0 and trace.L == 0
    report = rb.verify_exclusion(trace, toy_eq1, toy_eq2, UNIT_BOX)
    assert report.ok  # only the two seed checks apply
    assert trace.rectangle == (0.0, 1.0, 0.0, 1.0)


def test_structural_errors_distinct_from_sign_failures():
    bad_anchor = rb.ExclusionTrace(phi_minus=[0.1], beta_plus=[1.0],
                                   phi_plus=[1.0], beta_minus=[0.0])
    with pytest.raises(TraceStructureError):
        rb.verify_exclusion(bad_anchor, toy_eq1, toy_eq2, UNIT_BOX)
    non_monotone = rb.ExclusionTrace(phi_minus=[0.0, 0.2, 0.1], beta_plus=[1.0, 0.9, 0.8],
                                     phi_plus=[1.0], beta_minus=[0.0])
    with pytest.raises(TraceStructureError):
        rb.verify_exclusion(non_monotone, toy_eq1, toy_eq2, UNIT_BOX)


def test_wrong_inequality_direction_reports_index():
    # negative control: swap the equations so the first sign check fails
    trace = rb.ExclusionTrace(phi_minus=[0.0, 0.1], beta_plus=[1.0, 0.9],
                              phi_plus=[1.0], beta_minus=[0.0])
    report = rb.verify_exclusion(trace, lambda f, b: -toy_eq1(f, b), toy_eq2, UNIT_BOX)
    assert not report.ok
    assert report.failures[0]["family"] == "eq1_minus"
    assert report.failures[0]["index"] == 0


def test_spiral_determinism(system, box):
    t1 = rb.spiral_localize(system.eq1, system.eq2, box, width_target=1e-4)
    t2 = rb.spiral_localize(system.eq1, system.eq2, box, width_target=1e-4)
    assert t1.phi_minus == t2.phi_minus
    assert t1.beta_plus == t2.beta_plus
    assert t1.rectangle == t2.rectangle


def test_coarse_trace_is_small_and_valid(system, box):
    trace = rb.spiral_localize(system.eq1, system.eq2, box, width_target=0.05)
    assert trace.K <= 8 and trace.L <= 8
    assert rb.verify_exclusion(trace, system.eq1, system.eq2, box).ok


def test_real_trace_verifies_and_localizes(system, box, trace):
    report = rb.verify_exclusion(trace, system.eq1, system.eq2, box)
    assert report.ok
    rect = trace.rectangle
    assert 0.5638320 <= rect[0] and rect[1] <= 0.5638326
    assert 0.4465139 <= rect[2] and rect[3] <= 0.4465149


def test_reference_root_inside_rectangle(root, trace):
    rect = trace.rectangle
    assert rect[0] <= root["phi"] <= rect[1]
    assert rect[2] <= root["beta1"] <= rect[3]
    assert abs(root["residual_eq1"]) < 1e-10
    assert abs(root["residual_eq2"]) < 1e-10


def test_sign_preservation_on_random_ordered_pairs(system, box, rng):
    """If Eq(A) > 0 and B <= A componentwise then Eq(B) > 0 (and the mirror),
    for Eq2 everywhere and Eq1 restricted to its monotone (positive) region."""
    eq1f, eq2f = system.eq1, system.eq2
    checked = 0
    for _ in range(10_000):
        fa, fb = sorted(rng.uniform(box.phi_min, box.phi_max, 2))
        ba, bb = sorted(rng.uniform(box.beta1_min, box.beta1_max, 2))
        low, high = (fa, ba), (fb, bb)
        try:
            e2_low, e2_high = eq2f(*low), eq2f(*high)
        except SingularPointError:
            continue
        checked += 1
        if e2_high > 0:
            assert e2_low > 0
        if e2_low < 0:
            assert e2_high < 0
        e1_low, e1_high = eq1f(*low), eq1f(*high)
        if e1_high > 0:
            assert e1_low > 0  # eq1 decreasing wherever positive
    assert checked > 5000


def test_band_exclusion_margins(system, trace, rng):
    """Inside every excluded band some equation stays bounded away from zero."""
    eq1f, eq2f = system.eq1, system.eq2
    pm, bp = trace.phi_minus, trace.beta_plus
    # horizontal bands excluded by the minus arm: beta1 in [bp[i+1], bp[i]]
    for i in range(0, len(pm) - 1, 6):
        for _ in range(20):
            phi = rng.uniform(pm[0], trace.phi_plus[0])
            b1 = rng.uniform(bp[i + 1], bp[i])
            try:
                vals = (abs(eq1f(phi, b1)), abs(eq2f(phi, b1)))
            except SingularPointError:
                continue
            assert max(vals) > DELTA_NUM


def test_trace_serialization_roundtrip(trace, system, box):
    data = trace.to_jsonable()
    back = rb.ExclusionTrace.from_jsonable(data)
    assert back.rectangle == trace.rectangle
    assert rb.verify_exclusion(back, system.eq1, system.eq2, box).ok
    import json
    again = rb.ExclusionTrace.from_jsonable(json.loads(json.dumps(trace.to_jsonable())))
    assert again.phi_minus == trace.phi_minus


@pytest.fixture(scope="module", params=["float", "interval"])
def system_any(request, params, consts):
    return st.EqSystem.build(params, consts, mode=request.param)


def per_point_checks(trace, eq1f, eq2f):
    """The trace's sign checks one scalar evaluation at a time, as the
    re-verification did before it was batched: (failures, smallest margin)."""
    pm, bp, pp, bm = trace.phi_minus, trace.beta_plus, trace.phi_plus, trace.beta_minus
    claims = ([("eq1_minus", i, pm[i], bp[i], +1) for i in range(len(pm))]
              + [("eq2_minus", i, pm[i], bp[i + 1], -1) for i in range(len(pm) - 1)]
              + [("eq1_plus", j, pp[j], bm[j], -1) for j in range(len(pp))]
              + [("eq2_plus", j, pp[j], bm[j + 1], +1) for j in range(len(pp) - 1)])
    failures, lows = [], []
    for family, i, phi, beta1, sign in claims:
        fn = eq1f if family.startswith("eq1") else eq2f
        try:
            val = fn(phi, beta1)
        except SingularPointError as exc:
            failures.append((family, i, str(exc)))
            continue
        lows.append(lower(val) if sign > 0 else -upper(val))  # sign * val, exactly
        if not lows[-1] > DELTA_NUM:
            failures.append((family, i, None))
    return failures, min(lows)


def _as_tuples(failures):
    return [(f["family"], f["index"], f.get("error")) for f in failures]


def test_batched_equations_match_per_point(system_any, trace):
    claims = rb._sign_claims(trace)
    for fn in (system_any.eq1, system_any.eq2):
        phis = np.array([c[2] for c in claims])
        betas = np.array([c[3] for c in claims])
        batched = fn(phis, betas)
        for k, (phi, beta1) in enumerate(zip(phis.tolist(), betas.tolist())):
            single = fn(phi, beta1)
            if isinstance(single, Interval):
                assert (batched.lo[k], batched.hi[k]) == (single.lo, single.hi)
            else:
                assert batched[k] == single


def test_one_call_per_equation(system_any, trace, box):
    calls = []

    def recorded(fn):
        def wrapped(phi, beta1):
            calls.append(np.shape(phi))
            return fn(phi, beta1)
        return wrapped

    report = rb.verify_exclusion(trace, recorded(system_any.eq1), recorded(system_any.eq2), box)
    assert report.ok
    assert calls == [(trace.K + trace.L + 2,), (trace.K + trace.L,)]
    assert trace.K + trace.L > st.CHUNK_POINTS  # the equations evaluate several chunks


def test_min_margin_is_the_per_point_minimum(system_any, trace, box):
    report = rb.verify_exclusion(trace, system_any.eq1, system_any.eq2, box)
    failures, smallest = per_point_checks(trace, system_any.eq1, system_any.eq2)
    assert report.ok and failures == []
    assert report.checks == 2 * (trace.K + trace.L) + 2
    assert report.min_margin == smallest
    assert report.min_margin > DELTA_NUM


def test_singular_point_fails_only_its_own_check(system_any, trace, box):
    # new anchors ahead of both arms: the minus one has Y = 3 phi - beta1 < 0
    # (Eq1 and Eq2 both singular); the plus one puts Eq2's point on
    # beta2 = 1e-9, where V rounds to 1
    phi_far = (3.0 - 2.0 * trace.beta_minus[0] - 1e-9) / 3.0
    bad = rb.ExclusionTrace(phi_minus=[0.1] + trace.phi_minus,
                            beta_plus=[0.6] + trace.beta_plus,
                            phi_plus=[phi_far] + trace.phi_plus,
                            beta_minus=[0.3] + trace.beta_minus)
    domain = dataclasses.replace(box, phi_min=0.1, beta1_max=0.6,
                                 phi_max=phi_far, beta1_min=0.3)
    report = rb.verify_exclusion(bad, system_any.eq1, system_any.eq2, domain)
    failures, smallest = per_point_checks(bad, system_any.eq1, system_any.eq2)
    assert _as_tuples(report.failures) == failures
    errors = {(f["family"], f["index"]): f["error"] for f in report.failures if f["error"]}
    assert set(errors) == {("eq1_minus", 0), ("eq2_minus", 0), ("eq2_plus", 0)}
    assert "U/V undefined" in errors[("eq1_minus", 0)]
    assert "V > 1" in errors[("eq2_plus", 0)]
    assert all(f["value"] is None for f in report.failures if f["error"])
    assert report.checks == 2 * (bad.K + bad.L) + 2
    assert report.min_margin == smallest  # every other check was evaluated


def test_one_singular_point_fails_alone_in_a_batch(system_any, trace):
    # Y = 3 phi - beta1 < 0 in the middle of Eq2's checks: that point fails
    # with its error, and every other value equals the clean batch's
    claims = [c for c in rb._sign_claims(trace) if c[0].startswith("eq2")]
    phis, betas = (np.array([c[col] for c in claims]) for col in (2, 3))
    clean = system_any.eq2(phis, betas)
    at = len(phis) // 2
    vals, errors = rb.values_where_defined(system_any.eq2, np.insert(phis, at, 0.1),
                                           np.insert(betas, at, 0.6))
    assert [k for k, e in enumerate(errors) if e is not None] == [at]
    assert "U/V undefined" in errors[at]
    ends = ([(vals.lo, clean.lo), (vals.hi, clean.hi)] if isinstance(clean, Interval)
            else [(vals, clean)])
    for got, want in ends:
        assert np.isnan(got[at])
        assert np.delete(got, at).tolist() == want.tolist()


def test_enclosures_across_zero_certify_no_sign(params, consts, trace, box):
    # sign * Eq's lower end is the lower end for +1 and minus the upper end
    # for -1: an enclosure reaching across 0 certifies neither sign
    system_iv = st.EqSystem.build(params, consts, mode="interval")

    def widened(fn):
        def wrapped(phi, beta1):
            val = fn(phi, beta1)
            return Interval(val.lo - 1.0, val.hi + 1.0)
        return wrapped

    report = rb.verify_exclusion(trace, widened(system_iv.eq1), widened(system_iv.eq2), box)
    assert len(report.failures) == report.checks == 254
    assert report.min_margin < -1.0 + 1e-6
