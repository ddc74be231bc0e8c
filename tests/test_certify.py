import hashlib
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from typsat import pipeline as cf
from typsat import formulas as fl
from typsat import ledger as lg
from typsat import rootbox as rb
from typsat import stationarity as st
from typsat.errors import ConfigurationError, GuardError
from typsat.params import DELTA_NUM, ModelParams, clause_count


@pytest.fixture(scope="module")
def cert():
    return cf.certify(4.506, 56, 1e-15, mode="float")


@pytest.fixture(scope="module")
def cert_iv():
    return cf.certify(4.506, 56, 1e-15, mode="interval")


def test_certify_stages_all_pass(cert):
    assert cert.verdict
    assert cert.failing_stage is None
    names = [s["name"] for s in cert.stages]
    assert names == ["config", "tables", "ledger", "monotone", "spiral",
                     "verify_exclusion", "reference_root", "rate"]
    assert all(s["ok"] for s in cert.stages)


def test_certify_rate_window(cert):
    assert 0.9999 <= cert.rate < 0.9999885
    assert cert.point_rate < cert.rate


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
    "float": "beb3e04fd5aa290f0383886b61419b6bd3e3956d170559feb7d20b04b9e421bd",
    "interval": "373b4ee62776042bf6b5ee291b2aee8be881b82dc6d007ec755d6b1c604fe2a0",
}


@pytest.mark.parametrize("mode", sorted(CERTIFICATE_SHA256))
def test_certificate_bytes_frozen(cert, cert_iv, mode):
    text = {"float": cert, "interval": cert_iv}[mode].dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256[mode]


def test_certificate_trace_keys(cert, cert_iv):
    # the trace serialises the four sequences verify_exclusion checks and
    # nothing the spiral computed on the way
    for c in (cert, cert_iv):
        assert list(json.loads(c.dumps())["trace"]) == [
            "phi_minus", "beta_plus", "phi_plus", "beta_minus", "K", "L", "rectangle",
            "diagnostic"]


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


@pytest.mark.parametrize("eps", [-1e-16, 2e-6, math.nan])
def test_certify_rejects_epsilon_outside_range(eps, capsys):
    with pytest.raises(ConfigurationError, match="epsilon"):
        cf.certify(4.506, 56, eps)
    from typsat.cli import main
    assert main(["certify", f"--eps={eps}"]) == 3
    assert "epsilon out of range [0, 1e-6]" in capsys.readouterr().err


@pytest.mark.parametrize("mode, systems", [("float", 1), ("interval", 2)])
def test_certify_verifies_once(monkeypatch, cert, mode, systems):
    # the ledger, the sign checks and the rate run once, in the certificate's
    # mode; interval mode builds one checking system beside the float one
    calls = Counter()
    for owner, name in ((lg, "build_budget"), (rb, "verify_exclusion"),
                        (st, "rate_bound_rectangle"), (st.EqSystem, "build")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    result = cf.certify(4.506, 56, 1e-15, mode=mode)
    assert result.verdict
    assert calls == {"build_budget": 1, "verify_exclusion": 1,
                     "rate_bound_rectangle": 1, "build": systems}
    assert [s["name"] for s in result.stages] == [s["name"] for s in cert.stages]
    assert result.ledger["mode"] == mode
    if mode == "interval":
        assert result.rate == result.interval_report["rate_upper"]


def test_float_certify_evaluation_count(monkeypatch):
    # single-point Eq1/Eq2 evaluations of one float certify: the spiral with
    # its one Newton, whose root is also the reference root (the bisection
    # spiral made 1,278); the two batched trace checks are not counted
    single = Counter()
    for name in ("eq1", "eq2"):
        def counted(pt, system, _fn=getattr(st, name), _name=name):
            if np.ndim(pt.phi) == 0:
                single[_name] += 1
            return _fn(pt, system)
        monkeypatch.setattr(st, name, counted)
    result = cf.certify(4.506, 56, 1e-15)
    assert result.verdict
    assert 0 < sum(single.values()) <= 350


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_certify_runs_one_newton(monkeypatch, mode):
    # the spiral's Newton root seeds its pushes and is the reference root
    roots, solve = [], rb.solve_reference

    def recorded(*args):
        roots.append(solve(*args))
        return roots[-1]
    monkeypatch.setattr(rb, "solve_reference", recorded)
    result = cf.certify(4.506, 56, 1e-15, mode=mode)
    assert result.verdict and len(roots) == 1
    ref = result.reference_root
    assert float(ref["phi"]["v"]) == roots[0].phi and float(ref["beta1"]["v"]) == roots[0].beta1
    assert ref["inside_rectangle"] and ref["within_target"]


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
        assert rep["prefactor_upper"] < 1.0 + 1e-7


def test_sign_margin_reported(cert, cert_iv):
    # the smallest sign margin is a number in both modes; the outward-rounded
    # one can only sit below the float one
    detail = next(s["detail"] for s in cert.stages if s["name"] == "verify_exclusion")
    assert detail.startswith("254 sign checks, 0 failures, min margin ")
    margin_iv = cert_iv.interval_report["min_sign_margin"]
    assert DELTA_NUM < margin_iv <= float(detail.rsplit(" ", 1)[1]) * (1 + 1e-3)


def test_certificate_json_decimal_strings(cert, tmp_path):
    path = tmp_path / "certificate.json"
    cert.dump(path)
    data = json.loads(path.read_text())
    assert data["schema"] == cf.SCHEMA
    assert data["rate"]["dir"] == "upper"
    assert float(data["rate"]["v"]) == cert.rate  # 17 significant digits round-trip
    assert data["ledger"]["prefactor"]["dir"] == "upper"
    assert "formula" in data["ledger"]["prefactor"]
    assert float(data["ledger"]["prefactor"]["v"]) < 1.0 + 1e-7
    assert isinstance(data["rectangle"][0]["v"], str)


def test_certificate_replays(cert):
    result = cf.replay(cert.as_dict())
    assert result["trace_ok"]
    assert result["rate_agrees"]
    assert result["verdict_agrees"]


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_replay_in_own_mode_detects_tampered_verdict(cert, cert_iv, mode):
    c = cert if mode == "float" else cert_iv
    data = json.loads(c.dumps())
    honest = cf.replay(data)
    json.dumps(honest)  # plain Python values only
    assert honest["trace_ok"] and honest["rate_agrees"] and honest["verdict_agrees"]
    if mode == "interval":
        assert honest["stored_rate"] == c.interval_report["rate_upper"]
    data["verdict"] = False
    assert cf.replay(data)["verdict_agrees"] is False


def test_replay_ignores_legacy_sign_check_record(cert):
    # certificates written before the trace dropped its `sign_checks` record
    # still replay; the record is not read
    data = json.loads(cert.dumps())
    data["trace"]["sign_checks"] = [{"family": "eq1_minus", "index": 0, "phi": 0.0,
                                     "beta1": 0.0, "value": -1.0, "margin": DELTA_NUM}]
    result = cf.replay(data)
    assert result["trace_ok"] and result["rate_agrees"] and result["verdict_agrees"]


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_replay_without_trace(monkeypatch, mode):
    # a certificate that failed before the spiral replays as a failed trace
    data = json.loads(cf.certify(4.2, 56, 1e-15, mode=mode).dumps())
    assert data["failing_stage"] == "monotone" and not data["trace"]

    def no_search(*args, **kwargs):
        raise AssertionError("replay re-ran the spiral")
    monkeypatch.setattr(rb, "spiral_localize", no_search)
    result = cf.replay(data)
    assert result["trace_ok"] is False
    assert result["rate"] is None
    assert result["verdict"] is False
    assert result["verdict_agrees"] is True
    data["verdict"] = True
    assert cf.replay(data)["verdict_agrees"] is False


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
    system = st.EqSystem.build(params, dist.build_tables(params)[2])
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
    401: "038de7c739138ea9fbab691e33cf0fbfe1c934e5d82382eec77b00ebc15dbbd1",
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
    assert report["ok"]
    assert report["pps_subreport"]["ok"]
    csv = cf.empirical_csv(report)
    header = csv.splitlines()[0]
    assert header == "x,p,kappa,mean_omega,std_omega,n,formulas,seed"
    assert len(csv.strip().splitlines()) == 1 + 21  # cells with x <= 5


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


def test_counting_oracle_guard():
    with pytest.raises(GuardError):
        cf.counting_oracle(4, 1.0)
    with pytest.raises(GuardError):
        cf.counting_oracle(3, 1.1)  # m = 3


# -- CLI ---------------------------------------------------------------------------------

def test_cli_certify(tmp_path, capsys):
    from typsat.cli import main
    code = main(["certify", "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: True" in out
    assert (tmp_path / "run" / "certificate.json").exists()
    assert (tmp_path / "run" / "manifest.txt").exists()


def test_cli_certify_config_error(capsys):
    from typsat.cli import main
    assert main(["certify", "--xmax", "2"]) == 3


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


def test_cli_empirical(tmp_path):
    from typsat.cli import main
    code = main(["empirical", "--n", "2000", "--formulas", "4", "--xcap", "4",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run" / "empirical.csv").exists()


def test_cli_oracle(tmp_path):
    from typsat.cli import main
    code = main(["oracle", "--n", "2", "--c", "0.5", "--out", str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run" / "oracle.csv").exists()


def test_empirical_report_partial_flag():
    report = cf.empirical_report(20_000, 4.506, 40, seed=1, x_cap=4,
                                 time_budget_s=1e-9)
    assert report["partial"]
    assert not report["ok"]
    assert report["formulas"] < report["requested_formulas"]


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
