import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from typsat import distribution as dist
from typsat import ledger as lg
from typsat import rootbox as rb
from typsat import stationarity as st
from typsat.errors import SpiralSeedError, TraceStructureError
from typsat.intervals import Interval, lower, upper
from typsat.ledger import FeasibleBox
from typsat.params import CERTIFICATION_BOX, DELTA_NUM, WIDTH_TARGET, ModelParams

UNIT_BOX = FeasibleBox(beta1_min=0.0, beta1_max=1.0, beta2_min=-100.0, beta2_max=100.0,
                       beta3_min=-100.0, beta3_max=100.0, phi_min=0.0, phi_max=1.0)


# linear system crossing at (0.5, 0.5) with the orientation the exclusion
# corollary needs: eq1 positive at (phi_min, beta1_max), negative at
# (phi_max, beta1_min); both decreasing where it matters
def toy_eq1(phi, beta1, sign=None):
    return -(phi - 0.5) - 0.25 * (beta1 - 0.5)


def toy_eq2(phi, beta1, sign=None):
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
    def wrapped(phi, beta1, sign=None):
        counter[0] += 1
        return fn(phi, beta1)
    return wrapped


def counted_by_shape(fn, name, calls):
    """fn, counting its single-point calls in calls["single"] and its
    batched calls in calls[name]."""
    def wrapped(phi, beta1, sign=None):
        calls[name if np.ndim(phi) else "single"] += 1
        return fn(phi, beta1)
    return wrapped


def sequences_sha256(trace):
    seqs = json.dumps([getattr(trace, name) for name in rb.SEQUENCES])
    return hashlib.sha256(seqs.encode()).hexdigest()


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
    assert evals[0] <= 40
    evals[0] = 0
    again = rb.solve_reference(eq1c, eq2c, trace.rectangle)
    assert evals[0] <= 30
    assert abs(again.phi - ref.phi) < 1e-15 and abs(again.beta1 - ref.beta1) < 1e-15
    phi, b1 = nested_bisection_root(system.eq1, system.eq2, trace.rectangle)
    assert abs(root["phi"] - phi) < 1e-12 and abs(root["beta1"] - b1) < 1e-12


def _undefined(phi, beta1, sign=None):
    return math.nan


def _undefined_past_045(phi, beta1, sign=None):
    # defined at the start (0.4, 0.4) and its Jacobian points, NaN at the
    # first iterate, the root (0.5, 0.5)
    return math.nan if phi > 0.45 else toy_eq2(phi, beta1)


@pytest.mark.parametrize("eq1f, eq2f, rectangle, reason", [
    (toy_eq1, toy_eq2, (0.0, 0.1, 0.0, 0.1), "left the rectangle"),  # root (0.5, 0.5) outside
    (toy_eq1, _undefined, (0.4, 0.6, 0.4, 0.6), "undefined point (0.5, 0.5)"),
    (toy_eq1, toy_eq1, (0.4, 0.6, 0.4, 0.6), "singular Jacobian"),
    (toy_eq1, _undefined_past_045, (0.3, 0.5, 0.3, 0.5), "undefined point"),
])
def test_solve_reference_reports_failure(eq1f, eq2f, rectangle, reason):
    ref = rb.solve_reference(eq1f, eq2f, rectangle)
    assert ref.found is False
    assert reason in ref.reason
    if eq2f is _undefined_past_045:  # the iterate is named, not the start
        assert ref.phi > 0.45 and f"({ref.phi!r}, {ref.beta1!r})" in ref.reason
    assert ref.beta1_where_eq2(0.0, 0.5) is None and ref.phi_where_eq1(0.0, 0.5) is None


def test_spiral_claims_certify_at_the_build_margin(system, box):
    # every claim of the trace was accepted at twice the verification margin.
    # 82 single-point evaluations: 2 corner seeds, 32 for the Newton and 48
    # for the five cycles up to the first clean one; the other 58 cycles'
    # claims are checked in one batched call per equation
    calls = {"single": 0, "eq1": 0, "eq2": 0}
    trace = rb.spiral_localize(counted_by_shape(system.eq1, "eq1", calls),
                               counted_by_shape(system.eq2, "eq2", calls),
                               box, width_target=WIDTH_TARGET)
    assert not trace.diagnostic
    assert calls["eq1"] == calls["eq2"] == 1
    assert calls["single"] <= 90
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

    def eq2_missing_once(phi, beta1, sign=None):
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


@pytest.mark.parametrize("singular", [False, True])
def test_spiral_resumes_point_by_point_after_a_failed_generated_claim(monkeypatch, singular):
    # Eq2 fails at the fourth point of its first batch, the plus arm's claim
    # in the second generated cycle: reading 0, or NaN as at an undefined
    # point, in the same batched call as every other claim.  The spiral
    # keeps the two cycles before that one, re-probes the point on its own,
    # bisects that push, and then generates the rest again.
    clean = rb.spiral_localize(toy_eq1, toy_eq2, UNIT_BOX, width_target=1e-6)
    pushes, _ = _counting_pushes(monkeypatch)
    bad, batches = [], []

    def eq2_failing_at_one_claim(phi, beta1, sign=None):
        if np.ndim(phi):
            batches.append(len(phi))
            if not bad:
                bad.append((phi[3], beta1[3]))
        at_bad = bool(bad) and (np.equal(phi, bad[0][0]) & np.equal(beta1, bad[0][1]))
        if np.any(at_bad):
            return np.where(at_bad, math.nan if singular else 0.0, toy_eq2(phi, beta1))
        return toy_eq2(phi, beta1)

    trace = rb.spiral_localize(toy_eq1, eq2_failing_at_one_claim, UNIT_BOX, width_target=1e-6)
    assert bad == [(clean.phi_plus[2], clean.beta_minus[3])]
    assert len(batches) == 2 and pushes["after"] == 1
    assert trace.phi_minus[:4] == clean.phi_minus[:4]
    assert trace.beta_plus[:4] == clean.beta_plus[:4]
    assert trace.phi_plus[:3] == clean.phi_plus[:3]
    assert trace.beta_minus[:3] == clean.beta_minus[:3]
    assert trace.beta_minus[3] != clean.beta_minus[3]
    rect = trace.rectangle
    assert not trace.diagnostic
    assert rect[1] - rect[0] <= 1e-6 and rect[3] - rect[2] <= 1e-6
    assert rb.verify_exclusion(trace, toy_eq1, eq2_failing_at_one_claim, UNIT_BOX).ok


def test_spiral_bisects_throughout_when_newton_fails(monkeypatch):
    def failing(eq1f, eq2f, rectangle):
        return rb.NewtonRoot(0.5, 0.5, reason="no root")

    monkeypatch.setattr(rb, "solve_reference", failing)
    trace = rb.spiral_localize(toy_eq1, toy_eq2, UNIT_BOX, width_target=1e-6)
    assert trace.root.reason == "no root"
    rect = trace.rectangle
    assert rect[1] - rect[0] <= 1e-6 and rect[3] - rect[2] <= 1e-6
    assert rb.verify_exclusion(trace, toy_eq1, toy_eq2, UNIT_BOX).ok


#: sha256 of the four witness sequences (`sequences_sha256`) that the
#: point-by-point spiral made, with the 4.506 box at every density
FROZEN_TRACES = {
    (4.506, 2e-7): "8137eb661d07ee3fd3717859aaad302e86cf7965b19557f1ae5a90234440e184",
    (4.506, 1e-4): "fe308079876736f0362b76d6f8297687bee78086fb2ed87c1997facbddc82338",
    (4.506, 0.05): "205a6aa07d779b338bac1249e805f8bf8179b17e736bf3a2061d8830df4ba57f",
    (4.5, 2e-7): "e6b18f05367b086c874c853f5c2c03462120cec385ab132c87b4bc53802c9988",
    (4.5, 1e-4): "c6209f0b3cb8e97fac7ff8ff9aa89e7167e417a00079bd6b2d504fec210ad5fa",
    (4.5, 0.05): "a089b2313864fe926a828b7a1832064a6f13ea3230839e72ed95a6c1eb270d6b",
    (4.5055, 2e-7): "47a47699cb40659b8445e321d1fdab697f46315e47ac29ab82332b16644f7617",
    (4.5055, 1e-4): "c09d8ea964a8a478e8cadd8bfe333224be709f200272ad508d6dcd0448b28fc5",
    (4.5055, 0.05): "ce8782f0bd91775d944184ca8a0b483f24d6b9bfd3925cc1708774598014be34",
    (4.6, 2e-7): "d6091f269585356ddaefee38566555219923a6cf1fca8b53c3df7ba4689425f4",
    (4.6, 1e-4): "7f4bc91cdeb2e9e9ac8e707cd60e3b810d9db80f5553894361dbdb8c6cd6b392",
    (4.6, 0.05): "8127f51625e371e00bd976b956d7b507b895b3d48c6a0558a771b50969dc7132",
}


@pytest.mark.parametrize("c, below_one", [(4.506, True), (4.5, False), (4.5055, True),
                                          (4.6, True)])
def test_spiral_across_densities_with_the_certification_box(monkeypatch, c, below_one):
    # the 4.506 box forced at nearby densities: at three widths the batched
    # spiral's trace is the point-by-point spiral's (no cycle generated),
    # whose digest is frozen, and the rectangle rate stays on the side of 1
    # that the bisection spiral gave (now 1.000518, 0.999969, 0.990461)
    params = ModelParams(c=c)
    consts = dist.build_tables(params)
    system = dataclasses.replace(st.EqSystem.build(params, consts), box=CERTIFICATION_BOX)
    widths = (0.05, 1e-4, WIDTH_TARGET)
    batched = [rb.spiral_localize(system.eq1, system.eq2, CERTIFICATION_BOX, w) for w in widths]
    monkeypatch.setattr(rb, "_generated_cycles", lambda *args: 0)
    for width, trace in zip(widths, batched):
        point_by_point = rb.spiral_localize(system.eq1, system.eq2, CERTIFICATION_BOX, width)
        assert sequences_sha256(point_by_point) == FROZEN_TRACES[c, width], width
        assert sequences_sha256(trace) == FROZEN_TRACES[c, width], width
    trace = batched[-1]
    assert not trace.diagnostic
    assert rb.verify_exclusion(trace, system.eq1, system.eq2, CERTIFICATION_BOX).ok
    rate, _ = st.rate_bound_rectangle(*trace.rectangle, system, lg.build_budget(params, consts))
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
    report = rb.verify_exclusion(trace, lambda f, b, sign=None: -toy_eq1(f, b), toy_eq2, UNIT_BOX)
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
        e2_low, e2_high = eq2f(*low), eq2f(*high)
        if math.isnan(e2_low) or math.isnan(e2_high):  # outside the feasibility polygon
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
            vals = (abs(eq1f(phi, b1)), abs(eq2f(phi, b1)))
            if math.isnan(sum(vals)):  # outside the feasibility polygon
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
def system_any(request, params, consts, consts_iv):
    return st.EqSystem.build(params, consts if request.param == "float" else consts_iv)


def per_point_checks(trace, eq1f, eq2f):
    """The trace's sign checks one scalar evaluation at a time, as the
    re-verification did before it was batched: ((family, index) of each
    failure, smallest margin that is not NaN)."""
    pm, bp, pp, bm = trace.phi_minus, trace.beta_plus, trace.phi_plus, trace.beta_minus
    claims = ([("eq1_minus", i, pm[i], bp[i], +1) for i in range(len(pm))]
              + [("eq2_minus", i, pm[i], bp[i + 1], -1) for i in range(len(pm) - 1)]
              + [("eq1_plus", j, pp[j], bm[j], -1) for j in range(len(pp))]
              + [("eq2_plus", j, pp[j], bm[j + 1], +1) for j in range(len(pp) - 1)])
    failures, lows = [], []
    for family, i, phi, beta1, sign in claims:
        fn = eq1f if family.startswith("eq1") else eq2f
        low = read_end(fn(phi, beta1), sign)
        if not math.isnan(low):
            lows.append(low)
        if not low > DELTA_NUM:  # NaN at an undefined point
            failures.append((family, i))
    return failures, min(lows)


def read_end(val, sign):
    """The end of a value that a check of `sign` reads: sign * val, exactly."""
    return lower(val) if sign > 0 else -upper(val)


def _as_tuples(failures):
    return [(f["family"], f["index"]) for f in failures]


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
        def wrapped(phi, beta1, sign=None):
            calls.append(np.shape(phi))
            return fn(phi, beta1)
        return wrapped

    report = rb.verify_exclusion(trace, recorded(system_any.eq1), recorded(system_any.eq2), box)
    assert report.ok
    assert calls == [(trace.K + trace.L + 2,), (trace.K + trace.L,)]
    assert trace.K + trace.L > st.CHUNK_POINTS  # the equations evaluate several chunks


@pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
def test_min_margin_skips_a_nan_check_wherever_it_sits(at):
    # Eq1 is NaN at its first, then its last claim: that check fails alone,
    # and min_margin is the least margin of the others either way
    trace = rb.spiral_localize(toy_eq1, toy_eq2, UNIT_BOX, width_target=1e-3)
    claims = rb._sign_claims(trace)
    family, index, phi_nan, beta_nan, _ = [c for c in claims if c[0].startswith("eq1")][at]

    def eq1_nan_at_one_claim(phi, beta1, sign=None):
        return np.where((phi == phi_nan) & (beta1 == beta_nan), np.nan, toy_eq1(phi, beta1))

    report = rb.verify_exclusion(trace, eq1_nan_at_one_claim, toy_eq2, UNIT_BOX)
    assert _as_tuples(report.failures) == [(family, index)]
    assert math.isnan(report.failures[0]["value"])
    margins = [sign * (toy_eq1 if fam.startswith("eq1") else toy_eq2)(phi, beta1)
               for fam, i, phi, beta1, sign in claims if (fam, i) != (family, index)]
    assert report.min_margin == min(margins) > DELTA_NUM


def test_min_margin_is_the_per_point_minimum(system_any, trace, box):
    report = rb.verify_exclusion(trace, system_any.eq1, system_any.eq2, box)
    failures, smallest = per_point_checks(trace, system_any.eq1, system_any.eq2)
    assert report.ok and failures == []
    assert report.checks == 2 * (trace.K + trace.L) + 2
    assert report.min_margin == smallest
    assert report.min_margin > DELTA_NUM


def test_singular_point_fails_only_its_own_check(system_any, trace, box):
    # new anchors ahead of both arms: the minus one has Y = 3 phi - beta1 < 0
    # (Eq1 and Eq2 both undefined); the plus one puts Eq2's point on
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
    # one record shape; an undefined point's record reads NaN
    assert all(set(f) == {"family", "index", "phi", "beta1", "value", "needed_sign", "margin"}
               for f in report.failures)
    undefined = {(f["family"], f["index"]) for f in report.failures
                 if math.isnan(read_end(f["value"], f["needed_sign"]))}
    assert undefined == {("eq1_minus", 0), ("eq2_minus", 0), ("eq2_plus", 0)}
    assert report.checks == 2 * (bad.K + bad.L) + 2
    assert report.min_margin == smallest  # every other check was evaluated


def _clean_and_inserted(fn, trace, prefix, phi, beta1):
    """fn at the trace's `prefix` claims, and at the same claims with (phi,
    beta1) inserted in the middle: (clean values, inserted values, where)."""
    claims = [c for c in rb._sign_claims(trace) if c[0].startswith(prefix)]
    phis, betas = (np.array([c[col] for c in claims]) for col in (2, 3))
    at = len(phis) // 2
    return fn(phis, betas), fn(np.insert(phis, at, phi), np.insert(betas, at, beta1)), at


def test_one_singular_point_fails_alone_in_a_batch(system_any, trace):
    # Y = 3 phi - beta1 < 0 in the middle of Eq2's checks: that point is NaN,
    # and every other value equals the clean batch's
    clean, vals, at = _clean_and_inserted(system_any.eq2, trace, "eq2", 0.1, 0.6)
    ends = ([(vals.lo, clean.lo), (vals.hi, clean.hi)] if isinstance(clean, Interval)
            else [(vals, clean)])
    for got, want in ends:
        assert np.isnan(got[at])
        assert np.delete(got, at).tolist() == want.tolist()


def test_a_nan_point_gives_nan_alone_in_a_batch(system_any, trace):
    # a NaN coordinate gives NaN as an undefined point does, in either mode,
    # and every other value equals the clean batch's
    clean, vals, at = _clean_and_inserted(system_any.eq1, trace, "eq1", np.nan, 0.45)
    single = system_any.eq1(np.nan, 0.45)
    ends = ([(vals.lo, clean.lo, single.lo), (vals.hi, clean.hi, single.hi)]
            if isinstance(clean, Interval) else [(vals, clean, single)])
    for got, want, alone in ends:
        assert np.isnan(got[at]) and np.isnan(alone)
        assert np.delete(got, at).tolist() == want.tolist()


def test_enclosures_across_zero_certify_no_sign(params, consts_iv, trace, box):
    # sign * Eq's lower end is the lower end for +1 and minus the upper end
    # for -1: an enclosure reaching across 0 certifies neither sign
    system_iv = st.EqSystem.build(params, consts_iv)

    def widened(fn):
        def wrapped(phi, beta1, sign=None):
            val = fn(phi, beta1)
            return Interval(val.lo - 1.0, val.hi + 1.0)
        return wrapped

    report = rb.verify_exclusion(trace, widened(system_iv.eq1), widened(system_iv.eq2), box)
    assert len(report.failures) == report.checks == 254
    assert report.min_margin < -1.0 + 1e-6
