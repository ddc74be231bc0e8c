"""End-to-end certification pipeline and companion reports.

certify() chains: parameter validation -> occurrence tables -> error ledger
-> separate-monotonicity verdicts -> exclusion spiral -> trace verification
-> reference root -> rectangle-mode rate bound.  The verdict is true only if
every stage passes and the rate (prefactors and unbalancing factor included)
stays below 1 with the documented slack.  Interval mode runs the same stages
with the ledger, the trace sign checks and the rate outward-rounded.

The monotone decrease of the satisfiability probability in the density c is
recorded as an external assumption: it transports the per-density verdict to
every larger density but is not itself computed here.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import distribution as dist
from . import ledger as lg
from . import monotone as mo
from . import rootbox as rb
from . import stationarity as st
from .errors import (DomainError, GuardError, SingularPointError, SpiralSeedError,
                     TraceStructureError)
from .formulas import (clause_count, deviation_budget, generate, is_pps, literal_truth,
                       pps_bitmap, run_omega_campaign, solution_bitmap, truth_tables,
                       variable_type)
from .intervals import lower, upper
from .params import DELTA_NUM, WIDTH_TARGET, ModelParams

VERSION = "0.1.0"
SCHEMA = "typsat-certificate/2"

#: Headline targets the certificate's constants table is compared against.
TARGETS = {
    "rate": 0.9999885,
    **lg.LEDGER_TARGETS,
    "v_min2": 1.126983,
    "uv_max2": 1.64966,
    "tangent_phi": (2.4427, -1.8194),
    "tangent_beta": (2.2377, -1.7173),
    "a_bound": 1.894,
    "b_bound_phi": 4.2269,
    "b_bound_beta": 3.643,
    "extra_beta": 0.566,
    "total_phi": 6.125,
    "total_beta": 6.103,
    "lambda_phi_min": 7.1,
    "eq1_star": -0.157,
    "m_bands": (-0.051, -0.051, -0.062, -0.055),
    "rectangle": (0.56383217, 0.56383249, 0.44651403, 0.44651478),
}


def _dec(x, direction: str = "nearest") -> dict:
    return {"v": f"{float(x):.17g}", "dir": direction}


def _dec_entry(entry: dict) -> dict:
    out = dict(entry)
    out["v"] = f"{float(entry['value']):.17g}"
    out["dir"] = entry.get("direction", "upper")
    del out["value"]
    out.pop("direction", None)
    return out


@dataclass
class Certificate:
    params: dict
    mode: str
    stages: list = field(default_factory=list)   # (name, ok, detail)
    ledger: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    monotone: list = field(default_factory=list)
    trace: dict = field(default_factory=dict)
    trace_verified: bool = False
    rectangle: tuple | None = None
    rate: float | None = None
    point_rate: float | None = None
    reference_root: dict = field(default_factory=dict)
    interval_report: dict = field(default_factory=dict)
    assumptions: list = field(default_factory=list)
    verdict: bool = False
    failing_stage: str | None = None

    def stage(self, name: str, ok: bool, detail: str = ""):
        self.stages.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok and self.failing_stage is None:
            self.failing_stage = name

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "version": VERSION,
            "mode": self.mode,
            "params": self.params,
            "stages": self.stages,
            "ledger": {k: (_dec_entry(v) if isinstance(v, dict) and "value" in v else v)
                       for k, v in self.ledger.items()},
            "constants": self.constants,
            "monotone": self.monotone,
            "trace": self.trace,
            "trace_verified": self.trace_verified,
            "rectangle": [_dec(v) for v in self.rectangle] if self.rectangle else None,
            "rate": _dec(self.rate, "upper") if self.rate is not None else None,
            "point_rate": _dec(self.point_rate) if self.point_rate is not None else None,
            "reference_root": self.reference_root,
            "interval_report": self.interval_report,
            "assumptions": self.assumptions,
            "verdict": self.verdict,
            "failing_stage": self.failing_stage,
        }

    def dumps(self) -> str:
        return json.dumps(self.as_dict(), indent=1)

    def dump(self, path) -> None:
        Path(path).write_text(self.dumps())


def certify(c: float = 4.506, x_max: int = 56, eps: float = 1e-15,
            mode: str = "float", width_target: float = WIDTH_TARGET) -> Certificate:
    """Run the full pipeline; raises ConfigurationError for invalid parameters."""
    if mode not in ("float", "interval"):
        raise ValueError(f"mode must be 'float' or 'interval', got {mode!r}")
    params = ModelParams(c=c, x_max=x_max, epsilon=eps)
    cert = Certificate(params=params.as_dict(), mode=mode)
    cert.assumptions.append(
        "the satisfiability probability is nonincreasing in the clause density c; "
        "recorded as an external assumption, not computed")
    cert.stage("config", True, f"c={c}, x_max={x_max}, eps={eps}")

    typical, unbalanced, consts = dist.build_tables(params)
    # math.exp, not np.exp: the two differ in the last bit on some rows
    pmf = [math.exp(v) for v in
           dist.poisson_log_pmf(np.arange(params.x_max + 1), params.lam).tolist()]
    row_err = max(abs(typical.row_sum(x) - m) / m for x, m in enumerate(pmf))
    mass = typical.triangle_sum()
    mass_err = abs(unbalanced.triangle_sum() - mass) / mass
    tables_ok = row_err < 1e-12 and mass_err < 1e-12
    cert.stage("tables", tables_ok,
               f"row_err={row_err:.3e}, mass_err={mass_err:.3e}, rho={consts.rho:.3e}")

    system = st.EqSystem.build(params, consts)  # the search and the monotone stage
    budget, checker = _checker(params, consts, mode, system)
    cert.ledger = budget.as_dict()
    ledger_ok = upper(budget.prefactor) < 1.01 and math.isfinite(upper(budget.prefactor))
    cert.stage("ledger", ledger_ok, f"prefactor={upper(budget.prefactor):.12g}")

    monotone_ok = False
    mono_detail = ""
    star_majorant = math.nan
    m_values: list[float] = []
    verdict_phi = None
    try:
        verdict_phi = mo.eq2_monotone_verdict("fixed_phi", system)
        verdict_beta = mo.eq2_monotone_verdict("fixed_beta1", system)
        cert.monotone = [verdict_phi.as_dict(), verdict_beta.as_dict()]
        star_majorant = mo.eq1_star_majorant(system)
        box = system.box
        bands_cover = (mo.M_BANDS[0][0] <= box.beta1_min
                       and mo.M_BANDS[-1][1] >= box.beta1_max
                       and all(a[1] >= b[0] for a, b in zip(mo.M_BANDS, mo.M_BANDS[1:])))
        m_values = [mo.m_bound(lo, hi, system) for lo, hi in mo.M_BANDS]
        monotone_ok = (verdict_phi.verdict and verdict_beta.verdict
                       and star_majorant < -DELTA_NUM and bands_cover
                       and all(v < -DELTA_NUM for v in m_values))
        mono_detail = (f"eq2 totals=({verdict_phi.total():.4f}, {verdict_beta.total():.4f}) "
                       f"vs {verdict_phi.threshold:.4f}; eq1*={star_majorant:.4f}; "
                       f"M={['%.4f' % v for v in m_values]}")
    except DomainError as exc:  # a box outside the closed forms' domain, a singular point
        mono_detail = str(exc)
    cert.stage("monotone", monotone_ok, mono_detail)
    cert.constants = {
        "v_min2": verdict_phi.v_min2 if verdict_phi is not None else None,
        "uv_max2": verdict_phi.uv_max2 if verdict_phi is not None else None,
        "eq1_star_majorant": star_majorant,
        "m_bands": [{"band": list(b), "value": v} for b, v in zip(mo.M_BANDS, m_values)],
        "lambda_phi_min": params.lambda_phi_min(),
        "K_tilde": consts.K_tilde,
        "rho": consts.rho,
        "delta": consts.delta,
        "D": consts.D,
        "N": consts.N,
        "n_dependent_factor": "(6 n^3)^(1/n), excluded from the rate by design",
        "targets": {k: (list(v) if isinstance(v, tuple) else v) for k, v in TARGETS.items()},
    }

    trace = None
    if monotone_ok:
        try:
            trace = rb.spiral_localize(system.eq1, system.eq2, params.a_priori, width_target)
            cert.trace = trace.to_jsonable()
            rect = trace.rectangle
            tight = (rect[1] - rect[0] <= width_target and rect[3] - rect[2] <= width_target)
            cert.stage("spiral", tight,
                       f"K={trace.K}, L={trace.L}, rectangle={rect}" +
                       (f"; {trace.diagnostic}" if trace.diagnostic else ""))
        except (SpiralSeedError, SingularPointError) as exc:
            cert.stage("spiral", False, str(exc))
    else:
        cert.stage("spiral", False, "skipped: monotonicity certificates failed")

    report = rate = None
    if trace is not None:
        try:
            report = rb.verify_exclusion(trace, checker.eq1, checker.eq2, params.a_priori)
            cert.trace_verified = report.ok
            cert.stage("verify_exclusion", report.ok,
                       f"{report.checks} sign checks, {len(report.failures)} failures, "
                       f"min margin {report.min_margin:.3e}")
        except TraceStructureError as exc:
            cert.stage("verify_exclusion", False, str(exc))
    else:
        cert.stage("verify_exclusion", False, "no trace")

    if trace is not None and cert.trace_verified:
        cert.rectangle = trace.rectangle
        ref = trace.root.report(trace.rectangle)  # the root the spiral linearised about
        cert.reference_root = {
            k: (_dec(v) if isinstance(v, float) else v) for k, v in ref.items()}
        cert.stage("reference_root", bool(ref.get("found") and ref.get("inside_rectangle")),
                   f"residuals=({ref.get('residual_eq1')}, {ref.get('residual_eq2')})")

        rect = trace.rectangle
        try:
            rate = st.rate_bound_rectangle(*rect, checker, budget)
            cert.rate = upper(rate)
            center = system.point(0.5 * (rect[0] + rect[1]), 0.5 * (rect[2] + rect[3]))
            cert.point_rate = st.rate_bound_point(center, system, budget)
            rate_ok = cert.rate + DELTA_NUM < 1.0
            cert.stage("rate", rate_ok, f"rectangle rate={cert.rate:.9f}")
        except DomainError as exc:
            cert.stage("rate", False, str(exc))
    else:
        cert.stage("rate", False, "no verified rectangle")

    cert.verdict = all(s["ok"] for s in cert.stages)
    if mode == "interval":
        cert.interval_report = {"ok": False} if rate is None else {
            "ok": upper(rate) + DELTA_NUM < 1.0,
            "prefactor_upper": upper(budget.prefactor),
            "unbalancing_upper": upper(budget.unbalancing),
            "unbalancing_excess_upper": upper(budget.unbalancing_excess),
            "sign_checks": report.checks,
            "sign_failures": len(report.failures),
            "min_sign_margin": report.min_margin,
            "rate_upper": upper(rate),
            "rate_lower": lower(rate),
        }
    return cert


def _checker(params: ModelParams, consts, mode: str, system=None):
    """The ledger and the EqSystem that check the trace and the rate, both in
    `mode`: (budget, checker).  In float mode the checker is `system` itself."""
    budget = lg.build_budget(params, consts, mode=mode)
    if system is None or mode != system.mode:
        system = st.EqSystem.build(params, consts, mode=mode)
    return budget, system


def replay(cert_data: dict) -> dict:
    """Re-check the stored trace and rectangle of a certificate in its own mode.

    A certificate without a trace (one that failed before the spiral) replays
    as a failed trace with no rate; the spiral is never re-run.
    """
    p = cert_data["params"]
    params = ModelParams(c=p["c"], x_max=p["x_max"], epsilon=p["epsilon"])
    stored_rate = float(cert_data["rate"]["v"]) if cert_data["rate"] is not None else None
    trace_ok, rate = False, None
    if cert_data["trace"]:
        _, _, consts = dist.build_tables(params)
        budget, checker = _checker(params, consts, cert_data["mode"])
        trace = rb.ExclusionTrace.from_jsonable(cert_data["trace"])
        trace_ok = rb.verify_exclusion(trace, checker.eq1, checker.eq2, params.a_priori).ok
        if trace_ok and cert_data["rectangle"] is not None:
            rect = tuple(float(v["v"]) for v in cert_data["rectangle"])
            rate = upper(st.rate_bound_rectangle(*rect, checker, budget))
    verdict = trace_ok and rate is not None and rate + DELTA_NUM < 1.0
    return {
        "trace_ok": trace_ok,
        "rate": rate,
        "stored_rate": stored_rate,
        "rate_agrees": (rate == stored_rate if None in (rate, stored_rate)
                        else abs(rate - stored_rate) < 1e-12),
        "verdict": verdict,
        "verdict_agrees": verdict == cert_data["verdict"],
    }


# -- curves -------------------------------------------------------------------------

def emit_curves(params: ModelParams, grid_density: int) -> tuple[list[dict], str]:
    """Sample the loci eq1 = 0 and eq2 = 0 as phi(beta1) by bisecting each column.

    All columns are bisected in lockstep, one batched equation call a step; a
    column is NaN where an end of its phi range is singular or the equation
    has the same sign at both ends.
    """
    _, _, consts = dist.build_tables(params)
    system = st.EqSystem.build(params, consts)
    box = params.a_priori
    b1s = np.linspace(box.beta1_min, box.beta1_max, grid_density)
    rows = [{"beta1": float(b1)} for b1 in b1s]
    for name, fn in (("phi_eq1", system.eq1), ("phi_eq2", system.eq2)):
        lo = np.maximum(box.phi_min, (2.0 - b1s) / 3.0 + 1e-9)
        hi = np.full_like(b1s, box.phi_max)
        flo, lo_errors = rb.values_where_defined(fn, lo, b1s)
        fhi, hi_errors = rb.values_where_defined(fn, hi, b1s)
        live = np.equal(lo_errors, None) & np.equal(hi_errors, None) & ~(flo * fhi > 0)
        lo, hi, flo, b1 = lo[live], hi[live], flo[live], b1s[live]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = fn(mid, b1)
            left = flo * fm <= 0
            hi = np.where(left, mid, hi)
            lo, flo = np.where(left, lo, mid), np.where(left, flo, fm)
        phi = np.full_like(b1s, math.nan)
        phi[live] = 0.5 * (lo + hi)
        for row, v in zip(rows, phi.tolist()):
            row[name] = v
    lines = ["beta1,phi_eq1,phi_eq2"]
    lines += [f"{r['beta1']:.12g},{r['phi_eq1']:.12g},{r['phi_eq2']:.12g}" for r in rows]
    return rows, "\n".join(lines) + "\n"


# -- empirical report ----------------------------------------------------------------

def empirical_report(n: int, c: float, formulas: int, seed: int, x_cap: int = 8,
                     confidence: float = 0.999, time_budget_s: float | None = None,
                     pps_sub: tuple[int, int] | None = None) -> dict:
    """Cell-by-cell empirical means against the limiting masses, with the
    large-deviation budget at the requested confidence; optional exhaustive
    locally-maximal-solution subreport at a small n.  Exceeding the time
    budget truncates the campaign and flags the report partial."""
    lam = 3.0 * c
    campaign = run_omega_campaign(n, c, formulas, seed, x_cap,
                                  time_budget_s=time_budget_s)
    cells = (x_cap + 1) * (x_cap + 2) // 2
    samples = n * campaign.completed
    rows = []
    worst = 0.0
    over_budget = 0
    for x in range(x_cap + 1):
        for p in range(x + 1):
            k = dist.kappa(x, p, lam)
            dev = abs(campaign.mean[x, p] - k)
            budget_t = deviation_budget(k, samples, confidence, cells)
            worst = max(worst, dev)
            over_budget += dev >= budget_t
            rows.append({
                "x": x, "p": p, "kappa": k,
                "mean_omega": float(campaign.mean[x, p]),
                "std_omega": float(campaign.std[x, p]),
                "deviation": dev, "budget": budget_t,
                "within_budget": bool(dev < budget_t),
            })
    report = {
        "n": n, "c": c, "formulas": campaign.completed, "seed": seed, "x_cap": x_cap,
        "requested_formulas": formulas, "partial": campaign.partial,
        "confidence": confidence, "generator": campaign.generator,
        "max_abs_deviation": worst, "cells_over_budget": over_budget,
        "ok": over_budget == 0 and not campaign.partial, "rows": rows,
    }
    if pps_sub is not None:
        sub_n, sub_formulas = pps_sub
        sat = with_pps = 0
        children = np.random.SeedSequence((seed, 0xAC)).spawn(sub_formulas)
        for child in children:
            formula = generate(sub_n, c, child)
            bitmap = pps_bitmap(formula)
            satisfiable = bool(solution_bitmap(formula).any())
            sat += satisfiable
            with_pps += satisfiable and bool(bitmap.any())
        report["pps_subreport"] = {
            "n": sub_n, "formulas": sub_formulas,
            "satisfiable": sat, "satisfiable_with_pps": with_pps,
            "ok": sat == with_pps,
        }
    return report


def empirical_csv(report: dict) -> str:
    lines = ["x,p,kappa,mean_omega,std_omega,n,formulas,seed"]
    for r in report["rows"]:
        lines.append(f"{r['x']},{r['p']},{r['kappa']:.17g},{r['mean_omega']:.17g},"
                     f"{r['std_omega']:.17g},{report['n']},{report['formulas']},"
                     f"{report['seed']}")
    return "\n".join(lines) + "\n"


# -- exhaustive counting oracle --------------------------------------------------------

def _pair_bound(sig: tuple, n: int, m: int) -> int:
    """Exact integer upper bound on the number of (formula, solution) pairs
    sharing one signature: cell-type placement x variable typing x per-group
    cell fillings (all sigma/tau terms vanish below the occurrence cap)."""
    (k1, k2, k3), theta_items, mu_items = sig
    fact = math.factorial
    a_n = fact(m) // (fact(k1) * fact(k2) * fact(k3)) * 3 ** (k1 + k2)
    b_n = fact(n)
    for _, cnt in mu_items:
        b_n //= fact(cnt)
    true_cells = k1 + 2 * k2 + 3 * k3
    false_cells = 3 * m - true_cells
    unique_cells = sum(abs(p - j) * cnt for (x, p, j), cnt in mu_items)
    if unique_cells != k1:
        raise AssertionError("unique-satisfier cells must match type-1 clause count")
    m1 = fact(k1)
    m2 = fact(true_cells - k1)
    m3 = fact(false_cells)
    for (x, p, j), cnt in mu_items:
        if j < p:
            inner1, inner2, inner3 = p - j, j, x - p
        else:
            inner1, inner2, inner3 = j - p, x - j, p
        m1 //= fact(inner1) ** cnt
        m2 //= fact(inner2) ** cnt
        m3 //= fact(inner3) ** cnt
    return a_n * b_n * m1 * m2 * m3


def _signature(row, n: int, base: int) -> tuple:
    """The (gamma, theta, mu) tuple of one census row: gamma, then the n
    sorted (x, p) codes, then the n sorted (x, p, j) codes, in base `base`."""
    row = row.tolist()  # Python ints, so that repr(signature) is stable
    theta = Counter(divmod(code, base) for code in row[3:3 + n])
    mu = Counter((*divmod(code // base, base), code % base) for code in row[3 + n:])
    return tuple(row[:3]), tuple(sorted(theta.items())), tuple(sorted(mu.items()))


def counting_oracle(n: int, c: float) -> dict:
    """Exhaust all formulas and assignments of a tiny instance and compare the
    exact per-signature census of locally-maximal pairs to the counting bound.

    The pairs are counted twice: formula by formula with is_pps, and by the
    truth-table kernel over the whole formula stack, which never calls is_pps;
    the double-count identity holds when both routes agree on every assignment.
    The by-formula route is one broadcast is_pps call over the (formulas x
    assignments) grid and one variable_type call over the pairs it selects.
    Each pair's signature is gamma (clauses with 1, 2, 3 true cells), theta
    (the (x, p) multiset of its variables) and mu (their (x, p, j) types).
    The type encodes the value through the sign of p - j, so a variable at 1
    with j = p (its flip blocked only by clauses holding several of its own
    occurrences) reads as value 0: such pairs are outside the constructive
    counting scheme and are censused separately as untypable.
    """
    m = clause_count(n, c)
    if n > 3 or m > 2:
        raise GuardError(f"counting oracle limited to n <= 3 and m <= 2, got ({n}, {m})")
    literals = np.array([l for v in range(1, n + 1) for l in (v, -v)], dtype=np.int8)
    cells = np.indices((2 * n,) * (3 * m), dtype=np.int8).reshape(3 * m, -1).T
    all_lits = literals[cells].reshape(-1, m, 3)  # every formula, in itertools.product order
    values = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1  # bit k: variable k+1
    pps = is_pps(all_lits[:, None], values)
    pps_by_formula = pps.sum(axis=0)
    formula_idx, bits = np.nonzero(pps)
    lits, vals = all_lits[formula_idx], values[bits]
    x, p, j = np.moveaxis(variable_type(lits, vals), -1, 0)
    typable = ~(vals & (j == p)).any(axis=-1)
    ntrue = literal_truth(lits, vals).sum(axis=-1)
    base = 3 * m + 1  # x, p, j <= 3m
    digits = [*((ntrue == k).sum(axis=-1) for k in (1, 2, 3)),
              *np.sort(x * base + p, axis=-1).T, *np.sort((x * base + p) * base + j, axis=-1).T]
    radix = (m + 1,) * 3 + (base ** 2,) * n + (base ** 3,) * n  # one int64 key per pair
    keys, counts = np.unique(np.ravel_multi_index(digits, radix)[typable], return_counts=True)
    rows = np.stack(np.unravel_index(keys, radix), axis=-1)
    groups = {_signature(row, n, base): int(cnt) for row, cnt in zip(rows, counts)}
    pps_by_assignment = truth_tables(all_lits, n)[1].sum(axis=0)
    identity = bool(np.array_equal(pps_by_formula, pps_by_assignment))
    pairs = int(pps_by_formula.sum())
    untypable = pairs - int(typable.sum())
    records = []
    violations = 0
    for sig, count in sorted(groups.items()):
        bound = _pair_bound(sig, n, m)
        ok = count <= bound
        violations += not ok
        records.append({"signature": repr(sig), "count": count, "bound": bound, "ok": ok})
    return {
        "n": n, "c": c, "m": m,
        "formulas": len(all_lits),
        "pairs": pairs,
        "typed_pairs": pairs - untypable,
        "untypable_pairs": untypable,
        "pairs_by_assignment": int(pps_by_assignment.sum()),
        "double_count_identity": identity,
        "signatures": len(groups),
        "violations": violations,
        "ok": violations == 0 and identity,
        "records": records,
    }


def oracle_csv(result: dict) -> str:
    lines = ["n,m,count,bound,ok,signature"]
    for r in result["records"]:
        sig = r["signature"].replace(",", ";")
        lines.append(f"{result['n']},{result['m']},{r['count']},{r['bound']},"
                     f"{int(r['ok'])},\"{sig}\"")
    return "\n".join(lines) + "\n"
