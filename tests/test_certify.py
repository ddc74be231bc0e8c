import ast
import dataclasses
import hashlib
import inspect
import itertools
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from typsat import distribution as dist
from typsat import pipeline as cf
from typsat import formulas as fl
from typsat import ledger as lg
from typsat import monotone as mo
from typsat import params as params_module
from typsat import rootbox as rb
from typsat import stationarity as st
from typsat.errors import ConfigurationError, DomainError, GuardError, SpiralSeedError
from typsat.params import DELTA_NUM, ModelParams, clause_count


@pytest.fixture(scope="module")
def cert():
    return cf.certify(4.506, 56, 1e-15, mode="float")


@pytest.fixture(scope="module")
def cert_iv():
    return cf.certify(4.506, 56, 1e-15, mode="interval")


#: The stages of every certify and replay, in order: the ones the verdict means.
STAGES = ["config", "tables", "ledger", "monotone", "spiral", "verify_exclusion", "rate"]


def test_certify_stages_all_pass(cert):
    assert cert.verdict
    assert cert.failing_stage is None
    names = [s["name"] for s in cert.stages]
    assert names == STAGES
    assert all(s["ok"] for s in cert.stages)


def test_certify_rate_window(cert, cert_iv):
    # the centred rectangle rate sits within 1e-9 of the point rate at the
    # rectangle's centre, in both modes, and the interval one encloses the float one
    assert 0.9999 <= cert.rate < 0.99991853
    for c in (cert, cert_iv):
        assert 0.0 < c.rate - c.point_rate < 1e-9
    rep = cert_iv.interval_report
    assert rep["rate_lower"] <= cert.rate <= rep["rate_upper"] == cert_iv.rate


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_rate_stage_names_the_point_rate_and_excess(cert, cert_iv, mode):
    c = {"float": cert, "interval": cert_iv}[mode]
    detail = c.stages[-1]["detail"]
    fields = dict(part.split("=") for part in detail.split(", "))
    assert list(fields) == ["rectangle rate", "point rate at centre", "mean-value excess"]
    assert float(fields["rectangle rate"]) == pytest.approx(c.rate, abs=1e-12)
    assert float(fields["point rate at centre"]) == pytest.approx(c.point_rate, abs=1e-12)
    assert float(fields["mean-value excess"]) == pytest.approx(c.rate - c.point_rate, rel=1e-3)


def test_point_rate_is_the_rectangle_rates_centre_term(cert, cert_iv):
    # in both modes point_rate is the upper end of exp(f(m)), the centre term
    # of the rectangle rate, on the mode's own system and ledger: the interval
    # one sits at or above the float one, and the two modes' mean-value
    # excesses agree
    for c in (cert, cert_iv):
        assert json.loads(c.dumps())["point_rate"]["dir"] == "upper"
    assert cert_iv.point_rate >= cert.point_rate
    excess = [c.rate - c.point_rate for c in (cert, cert_iv)]
    assert abs(excess[1] - excess[0]) < 1e-13


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_certify_determinism(mode):
    a = cf.certify(4.506, 56, 1e-15, mode=mode)
    b = cf.certify(4.506, 56, 1e-15, mode=mode)
    assert a.rate == b.rate
    assert a.rectangle == b.rectangle
    assert a.trace["phi_minus"] == b.trace["phi_minus"]
    assert a.dumps() == b.dumps()


#: sha256 of certify(4.506, 56, 1e-15, mode=m).dumps().  A speed-up must keep
#: these bytes: a reordered sum (say, a reduction over a non-C-contiguous
#: (points, cells) array) moves the last bits of the interval margins while
#: every tolerance-based test still passes.  A change that moves bits on
#: purpose updates the digests here and records why in CHANGES.md.
CERTIFICATE_SHA256 = {
    "float": "4e3b830a7fbb87ac97890a6ee239ea729370e6c76bd38dba1c75b44ded8f8b75",
    "interval": "9fd3ace0d57be0d2526f19f30a801fb68af1cb9a6dfb15b3817aca2820177209",
}


@pytest.mark.parametrize("mode", sorted(CERTIFICATE_SHA256))
def test_certificate_bytes_frozen(cert, cert_iv, mode):
    text = {"float": cert, "interval": cert_iv}[mode].dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256[mode]


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_numpy_scalar_arguments_write_the_same_certificate(cert, cert_iv, mode):
    # numpy scalars are stored as the Python numbers they equal, so the
    # certificate serialises and keeps its frozen bytes
    text = cf.certify(np.float64(4.506), np.int64(56), np.float64(1e-15), mode=mode).dumps()
    assert text == {"float": cert, "interval": cert_iv}[mode].dumps()
    params = ModelParams(c=np.float32(4.5), x_max=np.int32(56), epsilon=np.float64(1e-15))
    assert [type(v) for v in (params.c, params.x_max, params.epsilon)] == [float, int, float]


def test_model_params_still_refuse_strings_and_bools():
    with pytest.raises(TypeError):
        ModelParams(c="4.506")
    for bad in (dict(c=True), dict(c=4.506, x_max=True), dict(c=4.506, x_max=np.float64(56))):
        with pytest.raises(ConfigurationError):
            ModelParams(**bad)


def test_certificate_trace_keys(cert, cert_iv):
    # the trace serialises the four sequences verify_exclusion checks and
    # their lengths, and nothing the spiral computed on the way; the
    # rectangle they span is the certificate's top-level `rectangle`
    for c in (cert, cert_iv):
        trace = json.loads(c.dumps())["trace"]
        assert list(trace) == ["phi_minus", "beta_plus", "phi_plus", "beta_minus", "K", "L",
                               "diagnostic"]


def test_certificate_params_and_ledger_keys(cert, cert_iv):
    # one density per certificate: no density range in params or the ledger;
    # the ledger holds its entries alone, each in its stored form
    for c in (cert, cert_iv):
        data = json.loads(c.dumps())
        assert set(data["params"]) == {"c", "lambda", "x_max", "epsilon", "a_priori"}
        assert list(data["ledger"]) == ["r1", "r2", "r3", "ga", "gb", "gc", "g1", "g2",
                                        "prefactor", "unbalancing"]
        assert list(data["ledger"]["unbalancing"]) == ["formula", "excess", "target", "margin",
                                                       "v", "dir"]
        assert list(data["ledger"]["prefactor"]) == ["formula", "target", "margin", "v", "dir"]
        assert list(data["ledger"]["r1"]) == ["formula", "v", "dir"]


def numbers(node) -> Counter:
    """Every number under a parsed certificate node, each decimal string `v`
    read as one; booleans are not numbers here."""
    if isinstance(node, dict):
        return sum((numbers(float(v) if k == "v" else v) for k, v in node.items()), Counter())
    if isinstance(node, list):
        return sum(map(numbers, node), Counter())
    return Counter([node]) if type(node) in (int, float) else Counter()


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_certificate_states_each_fact_once(cert, cert_iv, mode):
    # a value one stage computes is stored by that stage alone: the ledger
    # repeats neither the mode nor params, the constants hold no monotone
    # value, interval_report no ledger value, and the monotone record states
    # each quantity its two Eq2 directions share once
    data = one_mode(cert, cert_iv, mode)
    ledger, mono = data["ledger"], data["monotone"]
    assert not set(ledger) & (set(data) | set(data["params"]))
    assert not numbers(ledger) & numbers({k: data[k] for k in ("mode", "params")})
    assert not numbers(data["constants"]) & numbers(mono)
    assert not numbers(data["interval_report"]) & numbers(ledger)
    assert list(mono)[:4] == ["v_min2", "uv_max2", "A_bound", "lambda_phi_min"]
    every = numbers(data)
    assert [every[mono[k]] for k in list(mono)[:4]] == [1, 1, 1, 1]
    assert list(mono)[4:] == ["eq2_fixed_phi", "eq2_fixed_beta1", "eq1_star_majorant", "m_bands"]
    for direction in ("eq2_fixed_phi", "eq2_fixed_beta1"):
        assert list(mono[direction]) == ["tangent", "B_bound", "extra_bound", "total", "verdict"]
    # the rectangle is stored at the top level alone, not again by the trace,
    # and the constants carry no table of the paper's values
    rectangle = [float(item["v"]) for item in data["rectangle"]]
    assert rectangle not in data["trace"].values()
    assert "targets" not in data["constants"]


def test_certify_records_assumption(cert):
    assert any("nonincreasing in the clause density" in a for a in cert.assumptions)


@pytest.mark.parametrize("c", [3.0, 4.2, 4.6, 5.0])
def test_certify_subcritical_density_fails_with_stage(c):
    # away from 4.506 the Eq2 derivative sums exceed lambda * phi_min
    cert = cf.certify(c, 56, 1e-15)
    assert not cert.verdict
    assert cert.failing_stage == "monotone"
    detail = cert.stages[[s["name"] for s in cert.stages].index("monotone")]["detail"]
    assert detail.startswith("eq2 totals=")


def test_certify_alternate_x_max_runs():
    cert = cf.certify(4.506, 54, 1e-15)
    assert cert.rate is not None  # verdict recorded either way
    assert isinstance(cert.verdict, bool)


def test_certify_config_error():
    with pytest.raises(ConfigurationError):
        cf.certify(4.506, 2, 1e-15)
    with pytest.raises(ConfigurationError):
        cf.certify(2.5, 56, 1e-15)
    with pytest.raises(ConfigurationError, match="positive even integer, got 56.0"):
        cf.certify(4.506, 56.0, 1e-15)


@pytest.mark.parametrize("eps", [-1e-16, 2e-6, math.nan])
def test_certify_rejects_epsilon_outside_range(eps, capsys):
    with pytest.raises(ConfigurationError, match="epsilon"):
        cf.certify(4.506, 56, eps)
    from typsat.cli import main
    assert main(["certify", f"--eps={eps}"]) == 3
    assert "epsilon out of range [0, 1e-6]" in capsys.readouterr().err


@pytest.mark.parametrize("c", [2.5, 5.5, math.nan])
def test_certify_rejects_density_outside_range(c, capsys):
    with pytest.raises(ConfigurationError, match="density"):
        cf.certify(c, 56, 1e-15)
    from typsat.cli import main
    assert main(["certify", f"--c={c}"]) == 3
    assert "density c out of range [3, 5]" in capsys.readouterr().err


def test_model_params_hold_one_density():
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["c", "x_max", "epsilon"]


@pytest.mark.parametrize("mode, systems", [("float", 1), ("interval", 2)])
def test_certify_verifies_once(monkeypatch, cert, mode, systems):
    # the ledger, the sign checks and the rate run once, in the certificate's
    # mode, and the point rate at the centre is the rectangle rate's own
    # centre term; interval mode builds one checking system beside the float one
    calls, budget_modes = Counter(), []
    for owner, name in ((lg, "build_budget"), (rb, "verify_exclusion"),
                        (st, "rate_bound_rectangle"), (st, "rate_bound_point"),
                        (st.EqSystem, "build")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "build_budget":
                budget_modes.append(args[1].mode)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    result = cf.certify(4.506, 56, 1e-15, mode=mode)
    assert result.verdict
    assert calls == {"build_budget": 1, "verify_exclusion": 1,
                     "rate_bound_rectangle": 1, "build": systems}
    assert calls["rate_bound_point"] == 0
    assert [s["name"] for s in result.stages] == [s["name"] for s in cert.stages]
    assert budget_modes == [mode]
    if mode == "interval":
        assert result.rate == result.interval_report["rate_upper"]


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_certify_runs_the_monotone_box_work_once(monkeypatch, mode):
    # both Eq2 directions come from one call, which takes the box extremes
    # and the A sum once; the stage bounds Eq1* once and each M band once,
    # through the module names the benchmark's tracer wraps
    calls = Counter()
    for name in ("eq2_monotone_verdict", "polygon_extremize", "a_sum", "eq1_star_majorant",
                 "m_bound"):
        def counted(*args, _fn=getattr(mo, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mo, name, counted)
    result = cf.certify(4.506, 56, 1e-15, mode=mode)
    assert result.verdict
    assert calls == Counter(eq2_monotone_verdict=1, polygon_extremize=1, a_sum=1,
                            eq1_star_majorant=1, m_bound=len(mo.M_BANDS))
    assert len(mo.M_BANDS) == 4
    assert [m["band"] for m in result.monotone["m_bands"]] == [list(b) for b in mo.M_BANDS]


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_warm_certify_takes_no_integer_log(monkeypatch, mode):
    # the lambda-free logs of C(x, p) and x! are taken once per process and
    # mode; a second certify reads them, and builds each mode's constants once
    cf.certify(4.506, 56, 1e-15, mode=mode)
    calls = Counter()
    for name in ("_comb", "_factorial", "build_tables", "kappa_tilde_intervals", "rho_tail"):
        def counted(*args, _fn=getattr(dist, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(dist, name, counted)
    assert cf.certify(4.506, 56, 1e-15, mode=mode).verdict
    interval = mode == "interval"
    assert calls == Counter(build_tables=1, kappa_tilde_intervals=interval, rho_tail=1 + interval)


def count_evaluations(monkeypatch) -> tuple[Counter, Counter]:
    """Counters of the points reaching st.eq1/st.eq2 from here on, keyed by
    (equation, system mode): single points, and the rows of batched calls
    (an array of points, or an Interval of arrays)."""
    single, rows = Counter(), Counter()
    for name in ("eq1", "eq2"):
        def counted(pt, system, sign=None, _fn=getattr(st, name), _name=name):
            phi = getattr(pt.phi, "lo", pt.phi)
            (rows if np.ndim(phi) else single)[_name, system.mode] += np.size(phi)
            return _fn(pt, system, sign)
        monkeypatch.setattr(st, name, counted)
    return single, rows


def test_float_certify_evaluation_count(monkeypatch):
    # one float certify: 81 single points from the spiral (2 corner seeds, 32
    # for its one Newton, 47 probes) and 2 from the rate's gradient over the
    # rectangle, and one batch of 116 generated claims per equation.  The 254
    # sign checks read the spiral's values at the same points and evaluate
    # none; evaluated again, they took the rows to 244 and 242.  The
    # bisection spiral made 1,278 single-point evaluations
    single, rows = count_evaluations(monkeypatch)
    assert cf.certify(4.506, 56, 1e-15).verdict
    assert single == {("eq1", "float"): 50, ("eq2", "float"): 33}
    assert rows == {("eq1", "float"): 116, ("eq2", "float"): 116}


def test_float_replay_evaluates_every_sign_check(monkeypatch, cert):
    # replay's trace comes from the certificate, so its memo starts empty and
    # the 128 Eq1 and 126 Eq2 claims are evaluated afresh, with the same values
    single, rows = count_evaluations(monkeypatch)
    assert cf.replay(json.loads(cert.dumps()))[1] == []
    assert single == {("eq1", "float"): 1, ("eq2", "float"): 1}
    assert rows == {("eq1", "float"): 128, ("eq2", "float"): 126}


def test_interval_checker_evaluates_every_sign_check(monkeypatch):
    # the interval checker is another system, with no memo: it evaluates all
    # 254 claims, next to the float spiral's own batch
    single, rows = count_evaluations(monkeypatch)
    assert cf.certify(4.506, 56, 1e-15, mode="interval").verdict
    assert rows == {("eq1", "float"): 116, ("eq2", "float"): 116,
                    ("eq1", "interval"): 128, ("eq2", "interval"): 126}
    assert single == {("eq1", "float"): 49, ("eq2", "float"): 32,
                      ("eq1", "interval"): 1, ("eq2", "interval"): 1}


def test_interval_checks_sum_one_float_corner_a_claim(monkeypatch, params, consts_iv, trace,
                                                     box):
    # each of the 254 claims reads one end of its enclosure, so the interval
    # checks send 254 rows to the float corner sums, where a two-sided
    # enclosure of the same points sends 508; a float check sums each once
    row_sums, rows = st._row_sums, Counter()

    def counted(terms, cells, *points):
        rows[terms.__name__] += np.size(points[0])
        return row_sums(terms, cells, *points)

    monkeypatch.setattr(st, "_row_sums", counted)
    system_iv = st.EqSystem.build(params, consts_iv)
    report = rb.verify_exclusion(trace, system_iv.eq1, system_iv.eq2, box)
    assert report.ok and report.checks == 254
    assert rows == {"_eq1_terms": 128, "_eq2_terms": 126}
    rows.clear()
    claims = rb._sign_claims(trace)
    for name in ("eq1", "eq2"):
        phis, betas = (np.array([c[col] for c in claims if c[0].startswith(name)])
                       for col in (2, 3))
        getattr(system_iv, name)(phis, betas)
    assert rows == {"_eq1_terms": 256, "_eq2_terms": 252}
    rows.clear()
    system = st.EqSystem.build(params, dist.build_tables(params))
    assert rb.verify_exclusion(trace, system.eq1, system.eq2, box).ok
    assert rows == {"_eq1_terms": 128, "_eq2_terms": 126}


def test_only_a_float_certify_memoizes_its_search(monkeypatch):
    # the memo serves a check that reads the search's values: a float
    # certify's checks read it in one batch per equation, after the spiral's
    # generated claims, while an interval certify's search never records one
    memoized, calls = cf._memoized, []

    def counted(fn, memo, phi, beta1, sign=None):
        calls.append(len(phi) if np.ndim(phi) else None)
        return memoized(fn, memo, phi, beta1, sign)

    monkeypatch.setattr(cf, "_memoized", counted)
    assert cf.certify(4.506, 56, 1e-15, mode="interval").verdict
    assert calls == []
    assert cf.certify(4.506, 56, 1e-15).verdict
    assert [n for n in calls if n is not None] == [116, 116, 128, 126]


def test_float_checks_read_the_values_of_a_fresh_evaluation(monkeypatch, params):
    # certify's float sign checks, read through the search's memo, see every
    # claim's value bit for bit as a freshly built system computes it, so
    # their report is the fresh one, min margin included
    check = rb.verify_exclusion
    runs = []

    def recorded(trace, eq1f, eq2f, box):
        values = {}

        def kept(fn, name):
            def at(phis, betas, sign=None):
                values[name] = fn(phis, betas)
                return values[name]
            return at
        report = check(trace, kept(eq1f, "eq1"), kept(eq2f, "eq2"), box)
        runs.append((trace, values, report))
        return report

    monkeypatch.setattr(rb, "verify_exclusion", recorded)
    assert cf.certify(4.506, 56, 1e-15).verdict
    fresh = st.EqSystem.build(params, dist.build_tables(params))
    recorded(runs[0][0], fresh.eq1, fresh.eq2, fresh.box)
    (_, memo_values, report), (_, fresh_values, fresh_report) = runs
    assert [v.size for v in memo_values.values()] == [128, 126]
    for name in ("eq1", "eq2"):
        assert memo_values[name].tobytes() == fresh_values[name].tobytes()
    assert report.ok and report.checks == fresh_report.checks == 254
    assert report.failures == fresh_report.failures == []
    assert report.min_margin == fresh_report.min_margin


def test_no_value_outlives_one_certify(monkeypatch, system, box):
    # a kernel patched between two certifies shows in the second, whose
    # spiral finds no corner seed once Eq1 is negated, and in the session's
    # own system; EqSystem has no field to keep values in
    assert cf.certify(4.506, 56, 1e-15).verdict
    monkeypatch.setattr(st, "eq1", lambda pt, system, sign=None, _fn=st.eq1: -_fn(pt, system))
    spiral = next(s for s in cf.certify(4.506, 56, 1e-15).stages if s["name"] == "spiral")
    assert not spiral["ok"] and spiral["detail"].startswith("corner sign seeds absent")
    assert system.eq1(box.phi_min, box.beta1_max) < 0
    assert [f.name for f in dataclasses.fields(st.EqSystem)] == [
        "mode", "box", "lam", "c", "K_tilde", "cells_eq1", "cells_eq2", "log_base",
        "cut_eq1", "cut_eq2"]


@pytest.fixture(scope="module")
def newton_runs():
    """mode -> (certify(4.506, 56, 1e-15) in that mode, the NewtonRoots that
    solve_reference returned during it)."""
    solve, runs = rb.solve_reference, {}
    with pytest.MonkeyPatch.context() as patch:
        for mode in ("float", "interval"):
            roots = []

            def recorded(*args, _roots=roots):
                _roots.append(solve(*args))
                return _roots[-1]
            patch.setattr(rb, "solve_reference", recorded)
            runs[mode] = cf.certify(4.506, 56, 1e-15, mode=mode), roots
    return runs


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_certify_runs_one_newton(newton_runs, mode):
    # the spiral's Newton root seeds its pushes; the certificate does not store it
    result, roots = newton_runs[mode]
    assert result.verdict and len(roots) == 1
    assert "root" not in result.trace


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_certified_root_lies_in_the_rectangle(newton_runs, mode):
    # no stage checks the spiral's root, so this test does: it was found, lies
    # in the verified rectangle and leaves residuals below 1e-10
    result, (root,) = newton_runs[mode]
    lo_f, hi_f, lo_b, hi_b = result.rectangle
    assert root.found
    assert lo_f <= root.phi <= hi_f and lo_b <= root.beta1 <= hi_b
    assert max(abs(r) for r in root.residuals) < 1e-10


def test_interval_mode_consistent_with_float(cert, cert_iv):
    # eps = 0 too: there every slack factor L(eta) takes its eta -> 0+ limit,
    # which the interval ledger must enclose although eta's rounding crosses 0
    at_zero = (cf.certify(4.506, 56, 0.0, mode="float"),
               cf.certify(4.506, 56, 0.0, mode="interval"))
    for float_cert, interval_cert in ((cert, cert_iv), at_zero):
        assert interval_cert.verdict
        rep = interval_cert.interval_report
        assert rep["ok"]
        assert rep["sign_failures"] == 0
        # interval mode never contradicts float mode beyond 1e-6
        assert abs(rep["rate_upper"] - float_cert.rate) < 1e-6
        assert rep["rate_lower"] <= float_cert.rate <= rep["rate_upper"] + 1e-12
        assert float(interval_cert.ledger["prefactor"]["v"]) < 1.0 + 1e-7


def test_sign_margin_reported(cert, cert_iv):
    # the smallest sign margin is a number in both modes; the outward-rounded
    # one can only sit below the float one
    detail = next(s["detail"] for s in cert.stages if s["name"] == "verify_exclusion")
    assert detail.startswith("254 sign checks, 0 failures, min margin ")
    margin_iv = cert_iv.interval_report["min_sign_margin"]
    assert DELTA_NUM < margin_iv <= float(detail.rsplit(" ", 1)[1]) * (1 + 1e-3)


def test_certificate_json_decimal_strings(cert, tmp_path):
    path = tmp_path / "certificate.json"
    path.write_text(cert.dumps())
    data = json.loads(path.read_text())
    assert data["schema"] == cf.SCHEMA
    assert data["rate"]["dir"] == "upper"
    assert float(data["rate"]["v"]) == cert.rate  # 17 significant digits round-trip
    assert data["ledger"]["prefactor"]["dir"] == "upper"
    assert "formula" in data["ledger"]["prefactor"]
    assert float(data["ledger"]["prefactor"]["v"]) < 1.0 + 1e-7
    assert isinstance(data["rectangle"][0]["v"], str)


def test_certificate_replays(cert):
    rerun, disagreements = cf.replay(cert.as_dict())
    assert rerun.trace_verified and rerun.verdict
    assert disagreements == []


def one_mode(cert, cert_iv, mode):
    """The module certificate of `mode`, as parsed JSON."""
    return json.loads({"float": cert, "interval": cert_iv}[mode].dumps())


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_honest_replay_agrees_without_search(monkeypatch, cert, cert_iv, mode):
    # replay runs the checker on the stored trace, with neither the spiral nor
    # its Newton, and the re-run certificate equals the stored one field by
    # field, the recorded root included
    def no_search(*args, **kwargs):
        raise AssertionError("replay ran the search")
    monkeypatch.setattr(rb, "spiral_localize", no_search)
    monkeypatch.setattr(rb, "solve_reference", no_search)
    rerun, disagreements = cf.replay(one_mode(cert, cert_iv, mode))
    assert disagreements == []
    assert rerun.trace_verified and rerun.verdict
    assert [s["name"] for s in rerun.stages] == [s["name"] for s in cert.stages]


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_replay_in_own_mode_detects_tampered_verdict(cert, cert_iv, mode):
    c = cert if mode == "float" else cert_iv
    data = json.loads(c.dumps())
    honest, disagreements = cf.replay(data)
    assert disagreements == [] and honest.trace_verified and honest.verdict
    if mode == "interval":
        assert honest.rate == c.interval_report["rate_upper"]
    data["verdict"] = False
    rerun, disagreements = cf.replay(data)
    assert rerun.verdict is True
    assert disagreements == ["verdict"]


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_replay_names_a_forged_rectangle(cert, cert_iv, mode):
    # a 2e-9 square around the centre of the real rectangle: the replay used
    # to rate the stored square (0.99991884 in float mode) and agree on the
    # verdict; it now rates the trace's own rectangle and names the field
    data = one_mode(cert, cert_iv, mode)
    lo_f, hi_f, lo_b, hi_b = (float(v["v"]) for v in data["rectangle"])
    phi, beta1 = 0.5 * (lo_f + hi_f), 0.5 * (lo_b + hi_b)
    data["rectangle"] = [{"v": repr(v), "dir": "nearest"}
                         for v in (phi - 1e-9, phi + 1e-9, beta1 - 1e-9, beta1 + 1e-9)]
    rerun, disagreements = cf.replay(data)
    assert disagreements == ["rectangle"]
    assert rerun.trace_verified and rerun.verdict


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_replay_names_a_tampered_stage_and_ledger(cert, cert_iv, mode):
    data = one_mode(cert, cert_iv, mode)
    data["stages"][1]["ok"] = False  # the tables stage
    assert cf.replay(data)[1] == ["stages"]
    data = one_mode(cert, cert_iv, mode)
    data["ledger"]["prefactor"]["v"] = "0.5"
    assert cf.replay(data)[1] == ["ledger"]


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_replay_names_a_point_rate_off_in_its_last_digit(cert, cert_iv, mode):
    # replay compares each field exactly: one unit in the 17th digit of the
    # stored centre term is a disagreement, and the rest still agrees
    data = one_mode(cert, cert_iv, mode)
    v = data["point_rate"]["v"]
    data["point_rate"]["v"] = v[:-1] + str((int(v[-1]) + 1) % 10)
    rerun, disagreements = cf.replay(data)
    assert disagreements == ["point_rate"]
    assert rerun.verdict


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_replay_names_a_tampered_cut(params, consts, consts_iv, cert, cert_iv, mode):
    # the constants name each equation's kept cells and tail T, those of the
    # system that verifies the trace; a replay recomputes them
    checker = st.EqSystem.build(params, consts if mode == "float" else consts_iv)
    for eq, cells in (("eq1", 478), ("eq2", 487)):
        kept, tail = getattr(checker, f"cut_{eq}")
        data = one_mode(cert, cert_iv, mode)
        assert kept.w.size == cells
        assert data["constants"][f"{eq}_cut"] == {"cells": cells, "tail": tail}
        data["constants"][f"{eq}_cut"]["tail"] = 2.0 * tail
        assert cf.replay(data)[1] == ["constants"]


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_certify_at_x_max_100_keeps_the_cut(cert, cert_iv, mode):
    # the cells x_max = 100 adds carry less weight than any the cut keeps
    wide = cf.certify(4.506, 100, 1e-15, mode=mode)
    assert wide.verdict and wide.failing_stage is None
    c = {"float": cert, "interval": cert_iv}[mode]
    for eq in ("eq1_cut", "eq2_cut"):
        assert wide.constants[eq]["cells"] == c.constants[eq]["cells"]


def test_replay_ignores_legacy_sign_check_record(cert):
    # a certificate written before the trace dropped its `sign_checks` record
    # still replays; the record is not read, so only the trace field differs
    data = json.loads(cert.dumps())
    data["trace"]["sign_checks"] = [{"family": "eq1_minus", "index": 0, "phi": 0.0,
                                     "beta1": 0.0, "value": -1.0, "margin": DELTA_NUM}]
    rerun, disagreements = cf.replay(data)
    assert rerun.trace_verified and rerun.verdict
    assert disagreements == ["trace"]


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_replay_fails_a_malformed_trace(cert, cert_iv, mode):
    # a trace whose minus arm no longer starts at the box corner fails the
    # replay, as it fails certify's verify_exclusion stage, instead of raising
    data = one_mode(cert, cert_iv, mode)
    data["trace"]["phi_minus"][0] += 1e-9
    rerun, disagreements = cf.replay(data)
    assert rerun.trace_verified is False
    assert rerun.rate is None
    assert rerun.verdict is False
    assert {"stages", "rate", "verdict"} <= set(disagreements)


def _unpair(trace):
    del trace["beta_plus"][-1]


def _unanchor_plus(trace):
    trace["phi_plus"][0] += 1e-9


def _invert(trace):
    trace["phi_minus"][-1] = trace["phi_plus"][-1] + 1e-12


@pytest.mark.parametrize("edit, defect", [
    pytest.param(_unpair, "witness sequences must come in equal-length pairs", id="unpaired"),
    pytest.param(_unanchor_plus, "plus arm must start at (phi_max, beta1_min)", id="plus-anchor"),
    pytest.param(_invert, "final rectangle is inverted", id="inverted"),
])
def test_replay_names_a_structural_defect(cert, edit, defect):
    # verify_exclusion refuses a trace whose structure cannot exclude the
    # box, and its stage detail names the defect; the rate is not taken
    data = json.loads(cert.dumps())
    edit(data["trace"])
    rerun, _ = cf.replay(data)
    assert rerun.stages[STAGES.index("verify_exclusion")] == {
        "name": "verify_exclusion", "ok": False, "detail": defect}
    assert rerun.trace_verified is False and rerun.rate is None and not rerun.verdict


def test_replay_fails_an_empty_witness_sequence(cert):
    data = json.loads(cert.dumps())
    data["trace"]["phi_plus"] = []
    rerun, disagreements = cf.replay(data)
    assert rerun.trace_verified is False and rerun.verdict is False
    spiral = next(s for s in rerun.stages if s["name"] == "spiral")
    assert not spiral["ok"] and "empty witness sequences" in spiral["detail"]
    assert "trace" in disagreements


def test_replay_names_a_stored_root(cert):
    # the trace stores no root and a replay reads none: a certificate that
    # holds one, as older ones do, keeps its verdict and differs in `trace`,
    # whether the root is a NewtonRoot's fields or not
    found = {"phi": 0.5638, "beta1": 0.4465, "residuals": [0.0, 0.0],
             "jacobian": [1.0, 0.0, 0.0, 1.0], "reason": None}
    for root in (found, {"phi": 0.5, "beta1": 0.4, "x": 0.5}):
        data = json.loads(cert.dumps())
        data["trace"]["root"] = root
        rerun, disagreements = cf.replay(data)
        assert rerun.trace_verified and rerun.verdict
        assert disagreements == ["trace"]


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_replay_fails_a_rectangle_outside_the_box(cert, cert_iv, mode):
    # the stored rectangle is not rated, only compared with the trace's own
    data = one_mode(cert, cert_iv, mode)
    data["rectangle"][1]["v"] = "0.7"  # phi_hi beyond phi_max = 0.619063
    rerun, disagreements = cf.replay(data)
    assert rerun.trace_verified is True
    assert disagreements == ["rectangle"]


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_rate_stage_fails_on_a_domain_error(monkeypatch, cert, cert_iv, mode):
    # a rectangle the rate cannot be taken over fails the rate stage by name
    def outside(*args):
        raise DomainError("rectangle corner is outside the feasible box")
    monkeypatch.setattr(st, "rate_bound_rectangle", outside)
    rerun, disagreements = cf.replay(one_mode(cert, cert_iv, mode))
    assert rerun.trace_verified is True
    assert rerun.rate is None and rerun.verdict is False
    assert rerun.stages[-1] == {"name": "rate", "ok": False,
                                "detail": "rectangle corner is outside the feasible box"}
    assert {"stages", "rate", "verdict"} <= set(disagreements)


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_replay_without_trace(monkeypatch, mode):
    # a certificate whose spiral failed at its seed stores no trace; its replay
    # cannot search, so its spiral stage fails on the missing sequences: the
    # verdict agrees and `stages` is named (a leftover, ROADMAP item 5)
    def no_seed(*args, **kwargs):
        raise SpiralSeedError("corner sign seeds absent")
    monkeypatch.setattr(rb, "spiral_localize", no_seed)
    data = json.loads(cf.certify(4.506, 56, 1e-15, mode=mode).dumps())
    assert data["failing_stage"] == "spiral" and not data["trace"]
    rerun, disagreements = cf.replay(data)
    assert rerun.trace_verified is False
    assert rerun.rate is None
    assert rerun.verdict is False
    assert disagreements == ["stages"]
    data["verdict"] = True
    assert cf.replay(data)[1] == ["stages", "verdict"]


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_certify_runs_every_stage_after_a_monotone_failure(mode):
    # at c = 4.6 the generic box fails the monotone stage; the spiral, the
    # trace check and the rate still run, and the certificate replays
    result = cf.certify(4.6, 56, 1e-15, mode=mode)
    assert not result.verdict and result.failing_stage == "monotone"
    assert [s["name"] for s in result.stages] == STAGES
    assert all(s["ok"] for s in result.stages if s["name"] != "monotone")
    assert result.trace["K"] == result.trace["L"] == 70 and result.trace_verified
    assert result.rate < 1.0
    assert cf.replay(json.loads(result.dumps()))[1] == []


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_monotone_stage_fails_a_box_outside_its_closed_forms(monkeypatch, mode):
    # the closed-form polygon extremes need beta3_min > 0: the stage fails on
    # that named condition, records nothing, and every later stage still runs
    box = dataclasses.replace(params_module.CERTIFICATION_BOX, beta3_min=0.0)
    monkeypatch.setattr(params_module, "CERTIFICATION_BOX", box)
    result = cf.certify(4.506, 56, 1e-15, mode=mode)
    assert not result.verdict and result.failing_stage == "monotone"
    assert [s["name"] for s in result.stages] == STAGES
    monotone = result.stages[STAGES.index("monotone")]
    assert not monotone["ok"] and "beta3_min > 0" in monotone["detail"]
    assert result.monotone == {}
    assert all(s["ok"] for s in result.stages if s["name"] != "monotone")


@pytest.mark.parametrize("fold, detail", [
    pytest.param(lambda w: 2.0 * (w > 0), "row_err=1.000e+00 at x=0, bound 1e-12",
                 id="diagonal-dropped"),
    pytest.param(lambda w: 1.0 * (w >= 0), "row_err=5.000e-01 at x=", id="never-doubled"),
])
def test_tables_stage_fails_a_wrong_fold(monkeypatch, fold, detail):
    # a kt row sums to the Poisson mass of x only if the fold multiplicities
    # are right; the stage names the worst row and the bound it missed
    monkeypatch.setattr(dist, "_unbalanced", fold)
    result = cf.certify(4.506, 56, 1e-15)
    tables = result.stages[STAGES.index("tables")]
    assert not tables["ok"] and tables["detail"].startswith(detail)
    assert not result.verdict and result.failing_stage == "tables"


@pytest.mark.parametrize("bound, ok", [(1.01, True), (1.00000006, False)])
def test_ledger_stage_names_the_bound_it_checks(monkeypatch, cert, bound, ok):
    # the stage passes on the prefactor's upper end below lg.PREFACTOR_BOUND,
    # and its detail names that bound
    assert lg.PREFACTOR_BOUND == 1.01
    monkeypatch.setattr(lg, "PREFACTOR_BOUND", bound)
    rerun, _ = cf.replay(json.loads(cert.dumps()))
    ledger = rerun.stages[STAGES.index("ledger")]
    assert ledger == {"name": "ledger", "ok": ok,
                      "detail": f"prefactor=1.00000006429, bound {bound:g}"}
    assert rerun.verdict is ok


def test_interval_replay_evaluates_no_float_equation(monkeypatch, cert_iv):
    # an interval check evaluates Eq1 and Eq2 on the interval system only
    modes = Counter()
    for name in ("eq1", "eq2"):
        def recorded(pt, system, sign=None, _fn=getattr(st, name), _name=name):
            modes[_name, system.mode] += 1
            return _fn(pt, system, sign)
        monkeypatch.setattr(st, name, recorded)
    assert cf.replay(json.loads(cert_iv.dumps()))[1] == []
    assert set(modes) == {("eq1", "interval"), ("eq2", "interval")}


#: Distinct src/typsat statements that a warm interval replay executes,
#: counted by `statements_executed`.  The check path may only shrink; a change
#: that grows it on purpose raises this bound and records why in CHANGES.md.
REPLAY_LINES_MAX = 564


def statement_starts(path: str) -> dict:
    """Each line of a source file mapped to the first line of the innermost
    statement that holds it (ast.walk visits a statement before those nested
    in it, so the innermost one is written last)."""
    starts = {}
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.stmt):
            starts.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.lineno))
    return starts


def statements_executed(fn, *args) -> set:
    """The (file, first line) of each src/typsat statement that sys.settrace
    sees at any event kind while fn(*args) runs: the lines of one multi-line
    statement, a dict literal say, count once."""
    src = str(Path(cf.__file__).parent)
    seen = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(src):
            seen.add((frame.f_code.co_filename, frame.f_lineno))
            return tracer
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    starts = {path: statement_starts(path) for path, _ in seen}
    return {(path, starts[path].get(line, line)) for path, line in seen}


def test_replay_line_count_stays_bounded(cert_iv):
    data = json.loads(cert_iv.dumps())
    cf.replay(data)  # warm: the per-process integer logs are taken
    assert len(statements_executed(cf.replay, data)) <= REPLAY_LINES_MAX


# -- curves ------------------------------------------------------------------------

def test_emit_curves(params, trace):
    rows, text = cf.emit_curves(params, 10)
    assert len(rows) == 10
    header, *lines = text.strip().splitlines()
    assert header == "beta1,phi_eq1,phi_eq2"
    assert len(lines) == 10
    # eq1 locus decreasing in beta1 where defined
    phis = [r["phi_eq1"] for r in rows if not math.isnan(r["phi_eq1"])]
    assert all(a > b for a, b in zip(phis, phis[1:]))
    # both loci pass through the final rectangle
    rect = trace.rectangle
    rows_dense, _ = cf.emit_curves(params, 401)
    b_mid = 0.5 * (rect[2] + rect[3])
    near = min(rows_dense, key=lambda r: abs(r["beta1"] - b_mid))
    assert rect[0] - 2e-4 < near["phi_eq1"] < rect[1] + 2e-4
    assert rect[0] - 2e-4 < near["phi_eq2"] < rect[1] + 2e-4


def per_column_curves(params, grid_density):
    """The CSV of the loci computed one column and one scalar evaluation at a
    time, the bisection emit_curves ran before its columns moved in lockstep."""
    from typsat import distribution as dist
    from typsat import stationarity as st
    from typsat.errors import SingularPointError
    system = st.EqSystem.build(params, dist.build_tables(params))
    box = params.a_priori
    lines = ["beta1,phi_eq1,phi_eq2"]
    for b1 in np.linspace(box.beta1_min, box.beta1_max, grid_density):
        row = [float(b1)]
        for fn in (system.eq1, system.eq2):
            lo, hi = max(box.phi_min, (2.0 - b1) / 3.0 + 1e-9), box.phi_max
            try:
                flo, fhi = fn(lo, b1), fn(hi, b1)
            except SingularPointError:
                row.append(math.nan)
                continue
            if flo * fhi > 0:
                row.append(math.nan)
                continue
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = fn(mid, b1)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            row.append(0.5 * (lo + hi))
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


#: sha256 of the per-column CSV at c = 4.506 (the 401-column one takes ~3 s to rebuild)
CURVES_SHA256 = {
    9: "84d1f61552e58697bcb3505d30526f37a4c722157370800cbf7fdb55ec87ea84",
    10: "63d7037f68323f1db134ef3aed7f3c1224b91c53fe01b239a842978e017fd59e",
    401: "9afa800e9ed78b52599098b6347d4f7dc822d4f8c86292c1472b43e7d1ac03ef",
}


@pytest.mark.parametrize("density", sorted(CURVES_SHA256))
def test_lockstep_curves_equal_per_column_bisection(params, density):
    _, text = cf.emit_curves(params, density)
    assert hashlib.sha256(text.encode()).hexdigest() == CURVES_SHA256[density]
    if density < 100:
        assert text == per_column_curves(params, density)


def test_lockstep_curves_at_another_density():
    # c = 4.6 moves the loci; singular column ends are found point by point
    p = ModelParams(c=4.6, x_max=56, epsilon=1e-15)
    rows, text = cf.emit_curves(p, 12)
    assert text == per_column_curves(p, 12)
    assert any(math.isnan(r["phi_eq2"]) for r in rows)
    assert any(not math.isnan(r["phi_eq2"]) for r in rows)


# -- empirical ----------------------------------------------------------------------

def test_empirical_report_small():
    report = cf.empirical_report(5000, 4.506, 8, seed=7, x_cap=5,
                                 pps_sub=(10, 50))
    assert report["ok"] and report["confidence"] == cf.CONFIDENCE == 0.999
    assert report["pps_subreport"]["ok"]
    csv = cf.empirical_csv(report)
    header = csv.splitlines()[0]
    assert header == "x,p,kappa,mean_omega,std_omega,n,formulas,seed"
    assert len(csv.strip().splitlines()) == 1 + 21  # cells with x <= 5


def test_pps_subreport_runs_the_kernel_once_per_formula_with_a_pps(monkeypatch):
    # a PPS is a solution, so solution_bitmap runs only for a formula without one
    seed, (sub_n, count) = 5, (10, 40)
    formulas = [fl.generate(sub_n, 4.506, child)
                for child in np.random.SeedSequence((seed, 0xAC)).spawn(count)]
    sat = [bool(fl.solution_bitmap(f).any()) for f in formulas]
    pps = [bool(fl.pps_bitmap(f).any()) for f in formulas]
    assert 0 < sum(pps) < count  # both branches run
    kernel, calls = fl.truth_tables, []
    monkeypatch.setattr(fl, "truth_tables", lambda lits, n: calls.append(n) or kernel(lits, n))
    sub = cf.empirical_report(2000, 4.506, 2, seed, x_cap=4,
                              pps_sub=(sub_n, count))["pps_subreport"]
    with_pps = sum(s and p for s, p in zip(sat, pps))
    assert sub == {"n": sub_n, "formulas": count, "satisfiable": sum(sat),
                   "satisfiable_with_pps": with_pps, "ok": sum(sat) == with_pps}
    assert len(calls) == count + (count - sum(pps))


def test_empirical_report_deterministic():
    r1 = cf.empirical_report(2000, 4.506, 5, seed=3, x_cap=4)
    r2 = cf.empirical_report(2000, 4.506, 5, seed=3, x_cap=4)
    assert cf.empirical_csv(r1) == cf.empirical_csv(r2)


def test_empirical_gamma_psi_intervals():
    """Desk-scale look at the a-priori clause-type proportions: the measured
    (gamma1, gamma2, gamma3, psi) of sampled locally maximal solutions center
    well inside the generic intervals."""
    gammas, psis = [], []
    for seed in range(40):
        f = fl.generate(16, 4.506, seed)
        bitmap = fl.pps_bitmap(f)
        idx = np.flatnonzero(bitmap)
        if not idx.size:
            continue
        a = fl.Assignment.from_bits(int(idx[0]), f.n)
        truth = fl.literal_truth(f.lits, a.values)
        ntrue = truth.sum(axis=1)
        m = f.m
        g = np.array([(ntrue == k).sum() / m for k in (1, 2, 3)])
        gammas.append(g)
        psis.append((g[0] + 2 * g[1] + 3 * g[2]) / 3.0)
    assert len(gammas) >= 10
    gbar = np.mean(gammas, axis=0)
    assert 0.21 < gbar[0] < 0.65
    assert 0.21 < gbar[1] < 0.65
    assert 0.017 < gbar[2] < 0.32
    assert 0.47 < np.mean(psis) < 0.68


# -- counting oracle ----------------------------------------------------------------------

def test_counting_oracle_n1():
    res = cf.counting_oracle(1, 1.0)
    assert res["formulas"] == 8
    assert res["violations"] == 0
    assert res["double_count_identity"]
    assert res["untypable_pairs"] >= 1  # (v or v or v) with value 1


def test_counting_oracle_n2():
    res = cf.counting_oracle(2, 0.5)
    assert res["formulas"] == 64
    assert res["violations"] == 0
    assert res["ok"]
    csv = cf.oracle_csv(res)
    assert csv.splitlines()[0] == "n,m,count,bound,ok,signature"


def test_counting_oracle_double_count_detects_wrong_pair_test(monkeypatch):
    # the by-assignment count does not go through is_pps, so a scan that
    # counts every solution as a pair must break the identity
    honest = cf.counting_oracle(2, 1.0)
    assert honest["double_count_identity"] and honest["ok"]
    assert honest["pairs_by_assignment"] == honest["pairs"] == 4704
    monkeypatch.setattr(cf, "is_pps", fl.satisfies)
    res = cf.counting_oracle(2, 1.0)
    assert res["pairs"] > res["pairs_by_assignment"] == honest["pairs"]
    assert res["double_count_identity"] is False
    assert res["ok"] is False


# sha256 of oracle_csv as the per-pair scalar census wrote it, frozen
ORACLE_CSV_SHA256 = {
    (2, 1.0): "e5cc83fde89fba4a96f35b297a5204fccb760ee3d990cb52e210c3f215271c33",
    (3, 0.5): "d8fcadc0438cb6d0da7265d00cdd16cc5485d2cbf94e1a905ac3209f14c34a2d",
}


def oracle_csv_sha256(result):
    return hashlib.sha256(cf.oracle_csv(result).encode()).hexdigest()


def test_counting_oracle_n3():
    # m = 2; the counts are those of the per-pair scalar census, frozen
    res = cf.counting_oracle(3, 0.5)
    assert (res["m"], res["formulas"], res["pairs"], res["signatures"]) == (2, 46_656, 58_350, 185)
    assert res["pairs_by_assignment"] == res["pairs"]
    assert res["untypable_pairs"] == 7_959
    assert res["violations"] == 0
    assert res["double_count_identity"] and res["ok"]
    assert oracle_csv_sha256(res) == ORACLE_CSV_SHA256[(3, 0.5)]


def pair_signature(formula, assignment, variable_type):
    """(gamma, theta, mu) signature of a pair, plus a typability flag.

    The type (x, p, j) encodes the variable's value through the sign of
    p - j.  A variable at 1 whose flip is blocked only by clauses holding
    several of its own occurrences gets j = p (no unique-satisfier cells),
    which the type system reads as value 0: such pairs are outside the
    constructive counting scheme and are censused separately.
    """
    truth = assignment.values[np.abs(formula.lits) - 1] ^ (formula.lits < 0)
    ntrue = truth.sum(axis=1)
    gamma = (int((ntrue == 1).sum()), int((ntrue == 2).sum()), int((ntrue == 3).sum()))
    total, pos = formula.occurrence_counts()
    theta = Counter()
    mu = Counter()
    typable = True
    for v in range(1, formula.n + 1):
        x, p = int(total[v - 1]), int(pos[v - 1])
        theta[(x, p)] += 1
        typ = variable_type(formula, assignment, v)
        typable &= (typ[2] != typ[1]) or not assignment.values[v - 1]
        mu[typ] += 1
    return (gamma, tuple(sorted(theta.items())), tuple(sorted(mu.items()))), typable


def reference_census(n, c, ref):
    """counting_oracle's result, counted one (formula, assignment) pair at a
    time with the scalar reference is_pps and variable_type."""
    m = clause_count(n, c)
    literals = [l for v in range(1, n + 1) for l in (v, -v)]
    all_lits = np.array(list(itertools.product(literals, repeat=3 * m)),
                        dtype=np.int64).reshape(-1, m, 3)
    groups = Counter()
    pps_by_formula = np.zeros(1 << n, dtype=np.int64)
    untypable = 0
    for lits in all_lits:
        formula = fl.Formula(n=n, lits=lits)
        for bits in range(1 << n):
            assignment = fl.Assignment.from_bits(bits, n)
            if not ref.is_pps(formula, assignment):
                continue
            pps_by_formula[bits] += 1
            sig, typable = pair_signature(formula, assignment, ref.variable_type)
            if typable:
                groups[sig] += 1
            else:
                untypable += 1
    pps_by_assignment = fl.truth_tables(all_lits, n)[1].sum(axis=0)
    identity = bool(np.array_equal(pps_by_formula, pps_by_assignment))
    pairs = int(pps_by_formula.sum())
    records = []
    violations = 0
    for sig, count in sorted(groups.items()):
        bound = cf._pair_bound(sig, n, m)
        violations += count > bound
        records.append({"signature": repr(sig), "count": count, "bound": bound,
                        "ok": count <= bound})
    return {
        "n": n, "c": c, "m": m, "formulas": len(all_lits), "pairs": pairs,
        "typed_pairs": pairs - untypable, "untypable_pairs": untypable,
        "pairs_by_assignment": int(pps_by_assignment.sum()),
        "double_count_identity": identity, "signatures": len(groups),
        "violations": violations, "ok": violations == 0 and identity, "records": records,
    }


@pytest.mark.parametrize("n, c", [(1, 1.0), (2, 0.5), (2, 1.0)])
def test_counting_oracle_equals_scalar_census(n, c, scalar_reference):
    res, ref = cf.counting_oracle(n, c), reference_census(n, c, scalar_reference)
    assert res == ref
    assert cf.oracle_csv(res) == cf.oracle_csv(ref)
    if (n, c) in ORACLE_CSV_SHA256:
        assert oracle_csv_sha256(ref) == ORACLE_CSV_SHA256[(n, c)]


# sha256 of oracle_csv where the unreduced census, run in chunks of one fixed
# first clause, agrees with the orbit-reduced one
REDUCED_CSV_SHA256 = {
    (4, 0.5): "34daed0da737387dbaacfeda3af8ce9cfb57aa5535effe4e843fd6e25b8f256b",
    (3, 1.0): "a52d2cfad5e9c5ab88456b1149fe828ff795062fe47d94a18a3cd44cc8f337ca",
}


@pytest.mark.parametrize("n, c, counts", [
    (4, 0.5, (2, 262_144, 344_264, 270, 39_280)),
    (3, 1.0, (3, 10_077_696, 13_411_890, 1_601, 2_214_261)),  # 16.5% untypable
])
def test_counting_oracle_past_the_unreduced_guard(n, c, counts):
    res = cf.counting_oracle(n, c)
    assert (res["m"], res["formulas"], res["pairs"], res["signatures"],
            res["untypable_pairs"]) == counts
    assert res["pairs_by_assignment"] == res["pairs"]
    assert res["violations"] == 0
    assert res["double_count_identity"] and res["ok"]
    assert oracle_csv_sha256(res) == REDUCED_CSV_SHA256[(n, c)]


#: Every (n, m) with n <= 4 that the guard admits; one more clause is refused
#: (test_counting_oracle_guard_edge).
ADMITTED = [(1, m) for m in range(21)] + [(2, m) for m in range(7)] + [
    (3, m) for m in range(4)] + [(4, m) for m in range(3)]


def literal_codes(lits):
    """Literal v -> 2v - 2, -v -> 2v - 1: the column order of truth_tables."""
    return 2 * np.abs(lits).astype(np.int64) - 2 + (lits < 0)


@pytest.mark.parametrize("n, m", ADMITTED)
def test_oracle_representatives_are_canonical_and_weigh_every_formula(n, m):
    lits, weights = cf._representatives(n, m)
    assert lits.shape == (math.comb(math.comb(2 * n + 2, 3) + m - 1, m), m, 3)
    assert weights.dtype == np.int64 and (weights > 0).all()
    assert int(weights.sum()) == (2 * n) ** (3 * m)
    codes = literal_codes(lits)
    assert (np.diff(codes, axis=-1) >= 0).all()  # literals sorted within each clause
    clause_key = (codes[..., 0] * 2 * n + codes[..., 1]) * 2 * n + codes[..., 2]
    assert (np.diff(clause_key, axis=-1) >= 0).all()  # clauses sorted within each formula
    assert len(np.unique(clause_key, axis=0)) == len(lits)  # distinct


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_oracle_weights_are_orbit_sizes(n, m):
    # each representative's weight is the number of ordered formulas that
    # sort to it, counted over all (2n)^(3m) of them
    orbits = Counter(tuple(sorted(tuple(sorted(cells[i:i + 3])) for i in range(0, 3 * m, 3)))
                     for cells in itertools.product(range(2 * n), repeat=3 * m))
    lits, weights = cf._representatives(n, m)
    reps = {tuple(map(tuple, row)): int(w) for row, w in zip(literal_codes(lits).tolist(), weights)}
    assert reps == dict(orbits)


def test_counting_oracle_guard():
    # each refusal names the bound it hit, before anything is allocated
    with pytest.raises(GuardError, match="9,078,630 representatives x 2\\^4 .* work bound"):
        cf.counting_oracle(4, 1.0)
    with pytest.raises(GuardError, match="key radix 3.62e\\+22 .* int64 bound 2\\^63"):
        cf.counting_oracle(5, 0.4)


@pytest.mark.parametrize("n, c, bound", [
    (1, 21.0, "int64 bound"), (2, 3.5, "work bound"),
    (3, 1.34, "work bound"), (4, 0.75, "work bound"),
])
def test_counting_oracle_guard_edge(n, c, bound):
    # one clause past ADMITTED
    assert (n, clause_count(n, c) - 1) in ADMITTED
    with pytest.raises(GuardError, match=bound):
        cf.counting_oracle(n, c)


# -- CLI ---------------------------------------------------------------------------------

def test_certified_configuration_has_one_home():
    # certify's defaults and the CLI's read the params constants, and no other
    # src module writes 4.506 or 1e-15 as a number
    from typsat.cli import build_parser
    home = (params_module.CERTIFICATION_C, params_module.CERTIFICATION_X_MAX,
            params_module.CERTIFICATION_EPS)
    signature = inspect.signature(cf.certify).parameters
    assert tuple(signature[k].default for k in ("c", "x_max", "eps")) == home
    parser = build_parser()
    for command in ("certify", "curves"):
        args = parser.parse_args([command])
        assert (args.c, args.xmax, args.eps) == home
    assert parser.parse_args(["empirical"]).c == home[0]
    for path in Path(cf.__file__).parent.glob("*.py"):
        if path.name != "params.py":
            numbers = {node.value for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.Constant) and type(node.value) is float}
            assert not numbers & {home[0], home[2]}, path.name


def test_cli_certify(tmp_path, capsys):
    from typsat.cli import main
    code = main(["certify", "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: True" in out
    assert (tmp_path / "run" / "certificate.json").exists()
    assert (tmp_path / "run" / "manifest.txt").exists()


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_cli_check(tmp_path, capsys, mode):
    from typsat.cli import main
    assert main(["certify", "--mode", mode, "--out", str(tmp_path / "run")]) == 0
    path = tmp_path / "run" / "certificate.json"
    capsys.readouterr()
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[ok] verify_exclusion: 254 sign checks, 0 failures" in out
    assert "verdict: True" in out and "disagreements: none" in out
    data = json.loads(path.read_text())
    data["rectangle"][0]["v"] = "0.5638"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 2
    assert "disagreements: rectangle" in capsys.readouterr().out
    data["params"]["c"] = 2.5
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 3
    assert "density c out of range" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (None, "cannot read certificate"),
    ("{not json", "cannot read certificate"),
    ("[]", "is not a JSON object"),
    ('{"mode": "float", "trace": {}}', "certificate has no 'params'"),
    ('{"params": {"c": 4.506, "x_max": 56}, "mode": "float", "trace": {}}',
     "certificate has no 'epsilon'"),
    ('{"params": {"c": 4.506, "x_max": 56, "epsilon": 1e-15}, "mode": "double", "trace": {}}',
     "mode must be 'float' or 'interval', got 'double'"),
])
def test_cli_check_rejects_a_bad_file(tmp_path, capsys, content, message):
    # a file that is missing, not JSON or not a certificate exits 3 and names why
    from typsat.cli import main
    path = tmp_path / "certificate.json"
    if content is not None:
        path.write_text(content)
    assert main(["check", str(path)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("c", ["4.506", None, [4.506]])
def test_cli_check_rejects_a_non_numeric_param(tmp_path, capsys, cert, c):
    # a params field of the wrong JSON type exits 3 and names the field
    from typsat.cli import main
    data = json.loads(cert.dumps())
    data["params"]["c"] = c
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 3
    assert f"params.c = {c!r}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, named", [
    pytest.param("trace", [1], "trace = [1]", id="trace-list"),
    pytest.param("trace.phi_plus", 5, "trace.phi_plus = 5", id="sequence-int"),
    pytest.param("trace.phi_plus", [[0.6]], "trace.phi_plus = [[0.6]]", id="holds-list"),
    pytest.param("trace.beta_minus", ["0.4"], "trace.beta_minus = ['0.4']", id="holds-string"),
    pytest.param("trace.beta_plus", [None], "trace.beta_plus = [None]", id="holds-null"),
    pytest.param("params.x_max", 56.0, "x_max must be a positive even integer, got 56.0",
                 id="x_max-float"),
    pytest.param("rate", {"v": "abc"}, "rate = {'v': 'abc'}", id="rate-not-decimal"),
    pytest.param("rate", 0.5, "rate = 0.5", id="rate-not-object"),
])
def test_cli_check_rejects_a_malformed_stored_field(tmp_path, capsys, cert, field, value, named):
    # a stored field of the wrong JSON type exits 3 and names the field
    from typsat.cli import main
    data = json.loads(cert.dumps())
    *parents, key = field.split(".")
    node = data
    for parent in parents:
        node = node[parent]
    node[key] = value
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 3
    assert named in capsys.readouterr().err


def test_cli_check_rejects_params_that_are_not_an_object(tmp_path, capsys, cert):
    from typsat.cli import main
    data = json.loads(cert.dumps())
    data["params"] = [4.506, 56, 1e-15]
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 3
    assert "params = [4.506, 56, 1e-15]" in capsys.readouterr().err


def test_cli_certify_config_error(capsys):
    from typsat.cli import main
    assert main(["certify", "--xmax", "2"]) == 3
    capsys.readouterr()
    assert main(["certify", "--c", "3", "--xmax", "10"]) == 3
    assert "xmaxlb1 violated: x_max = 10 < (2*lambda - log 2)" in capsys.readouterr().err


@pytest.mark.parametrize("x_max, bound", [
    (322, "Poisson mass at x_max must exceed (x_max + 1) 2^-1075 / 1e-12"),
    (340, "Poisson mass at x_max must exceed (x_max + 1) 2^-1075 / 1e-12"),  # 0 from x = 332
    (400, "Poisson mass at x_max must exceed (x_max + 1) 2^-1075 / 1e-12"),  # 0 from x = 332
])
def test_cli_certify_rejects_x_max_above_its_upper_bounds(x_max, bound, capsys):
    from typsat.cli import main
    assert main(["certify", "--xmax", str(x_max)]) == 3
    assert bound in capsys.readouterr().err


def test_cli_certify_largest_x_max_at_the_certified_density(capsys):
    # 320 is the largest x_max whose last-row Poisson mass the tables stage can
    # check to 1e-12 at c = 4.506; 322 fails validation (test above)
    from typsat.cli import main
    assert main(["certify", "--xmax", "320"]) == 0
    assert "verdict: True" in capsys.readouterr().out


def test_cli_certify_failed_verdict_exit_code(capsys):
    from typsat.cli import main
    assert main(["certify", "--c", "4.2"]) == 2


def test_cli_curves(tmp_path):
    from typsat.cli import main
    code = main(["curves", "--density", "6", "--out", str(tmp_path / "run")])
    assert code == 0
    text = (tmp_path / "run" / "curves.csv").read_text()
    assert text.splitlines()[0] == "beta1,phi_eq1,phi_eq2"
    assert len(text.strip().splitlines()) == 7


def test_cli_curves_to_stdout(capsys):
    # without --out the CSV goes to stdout
    from typsat.cli import main
    assert main(["curves", "--density", "3"]) == 0
    assert capsys.readouterr().out == cf.emit_curves(ModelParams.certification(), 3)[1]


def test_cli_empirical(tmp_path):
    from typsat.cli import main
    code = main(["empirical", "--n", "2000", "--formulas", "4", "--xcap", "4",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run" / "empirical.csv").exists()


def test_cli_empirical_prints_the_pps_subreport(capsys):
    from typsat.cli import main
    assert main(["empirical", "--n", "2000", "--formulas", "4", "--xcap", "4",
                 "--pps-n", "8", "--pps-formulas", "3"]) == 0
    sub = cf.empirical_report(2000, 4.506, 4, 0, x_cap=4, pps_sub=(8, 3))["pps_subreport"]
    assert (f"pps subreport at n=8: {sub['satisfiable_with_pps']}/{sub['satisfiable']} "
            f"satisfiable formulas have a locally maximal solution; ok: True"
            in capsys.readouterr().out)


def test_cli_oracle(tmp_path):
    from typsat.cli import main
    code = main(["oracle", "--n", "2", "--c", "0.5", "--out", str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run" / "oracle.csv").exists()


@pytest.mark.parametrize("argv, named", [
    pytest.param(["oracle", "--n", "0"], "n is 0, below 1", id="oracle-n-0"),
    pytest.param(["oracle", "--n", "-1"], "n is -1, below 1", id="oracle-n-negative"),
    pytest.param(["oracle", "--n", "2", "--c", "0.1"], "m = round(c n) at c = 0.1 is 0, below 1",
                 id="oracle-no-clause"),
    pytest.param(["empirical", "--formulas", "0"], "formulas is 0, below 1",
                 id="empirical-formulas-0"),
    pytest.param(["empirical", "--n", "0"], "n is 0, below 1", id="empirical-n-0"),
    pytest.param(["empirical", "--xcap", "-1"], "x_cap is -1, below 0", id="empirical-xcap"),
    pytest.param(["empirical", "--pps-n", "0", "--pps-formulas", "1"], "pps n is 0, below 1",
                 id="empirical-pps-n-0"),
])
def test_cli_rejects_counts_that_admit_no_formula(argv, named, capsys):
    # each is refused before any formula is drawn, by the argument it names
    from typsat.cli import main
    assert main(argv) == 3
    assert f"configuration error: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_a_non_finite_density_is_a_configuration_error(c, capsys):
    # clause_count refuses it by name, so the library calls and the commands
    # that draw or count formulas report it instead of crashing on the round
    from typsat.cli import main
    named = f"clause density c must be finite, got {c}"
    for call in (lambda: cf.counting_oracle(2, float(c)),
                 lambda: cf.empirical_report(10, float(c), 2, seed=0),
                 lambda: fl.generate(10, float(c), 0)):
        with pytest.raises(ConfigurationError, match=named):
            call()
    for argv in (["oracle", "--n", "2"], ["empirical", "--n", "10", "--formulas", "2"]):
        assert main(argv + [f"--c={c}"]) == 3
        assert f"configuration error: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    pytest.param(["curves", "--density", "-1"], "grid_density is -1, below 1",
                 id="curves-density-negative"),
    pytest.param(["curves", "--density", "0"], "grid_density is 0, below 1",
                 id="curves-density-0"),
    pytest.param(["empirical", "--seed", "-1"], "seed is -1, below 0", id="empirical-seed"),
])
def test_cli_rejects_an_empty_grid_and_a_negative_seed(argv, named, tmp_path, capsys):
    # refused before any work, so no CSV is written
    from typsat.cli import main
    assert main(argv + ["--out", str(tmp_path / "run")]) == 3
    assert f"configuration error: {named}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, named", [
    pytest.param(["oracle", "--n", "abc"], "argument --n: invalid int value: 'abc'",
                 id="oracle-n-not-an-int"),
    pytest.param(["oracle", "--c", "-inf"], "argument --c: expected one argument",
                 id="oracle-c-read-as-an-option"),
    pytest.param(["certify", "--mode", "double"], "argument --mode: invalid choice: 'double'",
                 id="certify-mode-not-a-choice"),
    pytest.param(["certify", "--zzz"], "unrecognized arguments: --zzz", id="certify-unknown"),
    pytest.param([], "the following arguments are required: command", id="no-command"),
])
def test_cli_refused_arguments_exit_3(argv, named, tmp_path, capsys):
    # argparse's refusals are configuration errors: exit 3, not the 2 of a
    # failed verdict, name the argument, and write nothing (with no command
    # there is no --out to give)
    from typsat.cli import main
    assert main(argv + (["--out", str(tmp_path / "run")] if argv else [])) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err
    assert not (tmp_path / "run").exists()


def test_cli_help_exits_0():
    from typsat.cli import main
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--help"])
    assert exc.value.code == 0


def test_cli_oracle_past_the_guard(capsys):
    from typsat.cli import main
    assert main(["oracle", "--n", "4", "--c", "1.0"]) == 3
    assert "work bound" in capsys.readouterr().err


def test_cli_certify_interval_mode(tmp_path, capsys):
    from typsat.cli import main
    code = main(["certify", "--mode", "interval", "--out", str(tmp_path / "r")])
    assert code == 0
    data = json.loads((tmp_path / "r" / "certificate.json").read_text())
    assert data["mode"] == "interval"
    assert data["interval_report"]["sign_failures"] == 0


def test_cli_certificate_bytes_reproducible(tmp_path):
    from typsat.cli import main
    for run in ("a", "b"):
        assert main(["certify", "--out", str(tmp_path / run)]) == 0
    first = (tmp_path / "a" / "certificate.json").read_bytes()
    assert first == (tmp_path / "b" / "certificate.json").read_bytes()
    assert b"timestamp" not in first
    manifest = (tmp_path / "a" / "manifest.txt").read_text()
    assert "timestamp:" in manifest
    assert "0x" not in manifest


def test_cli_manifest_contents(tmp_path):
    from typsat.cli import main
    main(["oracle", "--n", "1", "--c", "1.0", "--out", str(tmp_path / "r")])
    manifest = (tmp_path / "r" / "manifest.txt").read_text()
    assert "command: oracle" in manifest
    assert "typsat:" in manifest and "numpy:" in manifest
