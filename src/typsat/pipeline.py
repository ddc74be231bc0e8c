"""End-to-end certification pipeline and companion reports.

certify() chains: parameter validation -> occurrence tables -> error ledger
-> separate-monotonicity verdicts -> exclusion spiral -> trace verification
-> rectangle-mode rate bound.  The verdict is true only if every stage
passes and the rate (prefactors and unbalancing factor included) stays below
1 with the documented slack.  Interval mode runs the same stages with the
ledger, the trace sign checks and the rate outward-rounded.  replay() runs
the same checker on a certificate's stored trace, where certify() searches.
A float certify's sign checks read the spiral's Eq1/Eq2 values at the same
exact points; a float replay evaluates every check afresh, and interval mode
computes for each check only the end of its enclosure that the claimed sign
reads, from one float corner sum.

The monotone decrease of the satisfiability probability in the density c is
recorded as an external assumption: it transports the per-density verdict to
every larger density but is not itself computed here.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import distribution as dist
from . import ledger as lg
from . import monotone as mo
from . import rootbox as rb
from . import stationarity as st
from .errors import (ConfigurationError, DomainError, GuardError, SingularPointError,
                     SpiralSeedError, TraceStructureError)
from .formulas import (clause_count, deviation_budget, generate, is_pps, literal_truth,
                       pps_bitmap, run_omega_campaign, solution_bitmap, truth_tables,
                       variable_type)
from .intervals import lower, upper, xsum
from .params import (CERTIFICATION_C, CERTIFICATION_EPS, CERTIFICATION_X_MAX, DELTA_NUM,
                     WIDTH_TARGET, ModelParams)

VERSION = "0.1.0"
SCHEMA = "typsat-certificate/4"


def _dec(x, direction: str = "nearest") -> dict:
    return {"v": f"{float(x):.17g}", "dir": direction}


@dataclass
class Certificate:
    mode: str
    params: dict
    stages: list = field(default_factory=list)   # (name, ok, detail)
    ledger: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    monotone: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)
    trace_verified: bool = False
    rectangle: tuple | None = None
    rate: float | None = None
    point_rate: float | None = None
    interval_report: dict = field(default_factory=dict)
    assumptions: list = field(default_factory=list)
    verdict: bool = False
    failing_stage: str | None = None

    def stage(self, name: str, ok: bool, detail: str = ""):
        self.stages.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok and self.failing_stage is None:
            self.failing_stage = name

    def as_dict(self) -> dict:
        """Schema and version, then the fields in their declared order, the
        rectangle and the rates as decimal entries."""
        data = {"schema": SCHEMA, "version": VERSION,
                **{f.name: getattr(self, f.name) for f in fields(self)}}
        data["rectangle"] = [_dec(v) for v in self.rectangle] if self.rectangle else None
        data["rate"], data["point_rate"] = (_dec(v, "upper") if v is not None else None
                                            for v in (self.rate, self.point_rate))
        return data

    def dumps(self) -> str:
        return json.dumps(self.as_dict(), indent=1)


def certify(c: float = CERTIFICATION_C, x_max: int = CERTIFICATION_X_MAX,
            eps: float = CERTIFICATION_EPS, mode: str = "float") -> Certificate:
    """Run the full pipeline, the spiral finding the trace; raises
    ConfigurationError for invalid parameters or mode."""
    return _check(ModelParams(c=c, x_max=x_max, epsilon=eps), mode, lambda eq1, eq2, box:
                  rb.spiral_localize(eq1, eq2, box, WIDTH_TARGET))


def _memoized(fn, memo: dict, phi, beta1, sign=None):
    """A float system's fn(phi, beta1), read from and added to memo, which
    maps each exact point (phi, beta1) to its value; a check's `sign`, which
    a float system ignores, is not passed on.  A single point is looked up
    and a miss evaluated alone; 1-D arrays of points send their misses to fn
    in one batch (a SingularPointError reaches the caller as fn's own) and
    get one float array.  Batched and single-point values agree bit for bit,
    so a read value is the one a fresh call returns.  Keys are exact floats:
    only +0 and -0 are distinct and compare equal, and no point of a
    feasibility box is 0."""
    if not isinstance(phi, np.ndarray):
        if (phi, beta1) not in memo:
            memo[phi, beta1] = fn(phi, beta1)
        return memo[phi, beta1]
    points = list(zip(phi.tolist(), beta1.tolist()))
    missing = [pt for pt in dict.fromkeys(points) if pt not in memo]
    if missing:
        memo.update(zip(missing, fn(*map(np.array, zip(*missing))).tolist()))
    return np.array([memo[pt] for pt in points], dtype=np.float64)


def _check(params: ModelParams, mode: str, find_trace) -> Certificate:
    """The stages of certify and replay, each recorded in every call; the
    spiral stage takes its ExclusionTrace from find_trace(eq1, eq2, box) of
    the float EqSystem.  In float mode, where the check runs on that system,
    its values are memoized for this call alone and the check reads the
    claims through the memo; a replay's find_trace evaluates nothing, so its
    check evaluates every claim afresh.  In interval mode nothing reads the
    search's values, so none are memoized, and the check, on its own
    system, computes only the end of each claim's enclosure that its sign
    reads (`stationarity.eq1`)."""
    if mode not in ("float", "interval"):
        raise ConfigurationError(f"mode must be 'float' or 'interval', got {mode!r}")
    cert = Certificate(params=params.as_dict(), mode=mode)
    cert.assumptions.append(
        "the satisfiability probability is nonincreasing in the clause density c; "
        "recorded as an external assumption, not computed")
    cert.stage("config", True, f"c={params.c}, x_max={params.x_max}, eps={params.epsilon}")

    consts = dist.build_tables(params)
    # kt's row x folds kappa's onto p <= x/2, so it sums to the Poisson mass
    # of x only if both kappa and the fold are right; math.exp, not np.exp:
    # the two differ in the last bit on some rows
    half = np.zeros((params.x_max + 1, params.x_max // 2 + 1))
    half[consts.xs, consts.ps] = consts.kt
    pmf = np.array([math.exp(v) for v in
                    dist.poisson_log_pmf(np.arange(params.x_max + 1), params.lam).tolist()])
    row_errs = np.abs(xsum(half, axis=1) - pmf) / pmf
    worst = int(np.argmax(row_errs))
    cert.stage("tables", row_errs[worst] < dist.ROW_TOL, f"row_err={row_errs[worst]:.3e} at "
               f"x={worst}, bound {dist.ROW_TOL:g}, rho={consts.rho:.3e}")

    system = st.EqSystem.build(params, consts)  # the search and the monotone stage
    checking = consts if mode == "float" else dist.kappa_tilde_intervals(params)
    budget = lg.build_budget(params, checking)
    checker = system if mode == "float" else st.EqSystem.build(params, checking)
    # memoized only where the check reads the search's values
    search = [partial(_memoized, fn, {}) if checker is system else fn
              for fn in (system.eq1, system.eq2)]
    cert.ledger = budget.as_dict()
    cert.stage("ledger", upper(budget.prefactor) < lg.PREFACTOR_BOUND,
               f"prefactor={upper(budget.prefactor):.12g}, bound {lg.PREFACTOR_BOUND:g}")

    try:
        monotone_ok, mono_detail, cert.monotone = mo.verdict(system)
    except DomainError as exc:  # a box outside the closed forms' domain, a singular point
        monotone_ok, mono_detail = False, str(exc)
    cert.stage("monotone", monotone_ok, mono_detail)
    cert.constants = {
        "K_tilde": consts.K_tilde,
        **{f"{eq}_cut": {"cells": cells.w.size, "tail": tail}
           for eq, (cells, tail) in (("eq1", checker.cut_eq1), ("eq2", checker.cut_eq2))},
        "rho": consts.rho,
        "delta": consts.delta,
        "D": consts.D,
        "N": consts.N,
        "n_dependent_factor": "(6 n^3)^(1/n), excluded from the rate by design",
    }

    trace = None
    try:
        trace = find_trace(*search, system.box)
        cert.trace = trace.to_jsonable()
        rect = trace.rectangle
        tight = (rect[1] - rect[0] <= WIDTH_TARGET and rect[3] - rect[2] <= WIDTH_TARGET)
        cert.stage("spiral", tight,
                   f"K={trace.K}, L={trace.L}, rectangle={rect}" +
                   (f"; {trace.diagnostic}" if trace.diagnostic else ""))
    except (SpiralSeedError, SingularPointError, TraceStructureError) as exc:
        cert.stage("spiral", False, str(exc))

    report = rate = None
    if trace is None:
        cert.stage("verify_exclusion", False, "no trace")
    else:
        try:
            report = rb.verify_exclusion(trace, *(search if checker is system else
                                                  (checker.eq1, checker.eq2)), checker.box)
        except TraceStructureError as exc:
            cert.stage("verify_exclusion", False, str(exc))
        else:
            cert.trace_verified = report.ok
            cert.stage("verify_exclusion", report.ok,
                       f"{report.checks} sign checks, {len(report.failures)} failures, "
                       f"min margin {report.min_margin:.3e}")

    if cert.trace_verified:
        rect = cert.rectangle = trace.rectangle
        try:
            rate, centre_rate = st.rate_bound_rectangle(*rect, checker, budget)
        except DomainError as exc:
            cert.stage("rate", False, str(exc))
        else:
            cert.rate, cert.point_rate = upper(rate), upper(centre_rate)
            cert.stage("rate", cert.rate + DELTA_NUM < 1.0,
                       f"rectangle rate={cert.rate:.12f}, point rate at centre="
                       f"{cert.point_rate:.12f}, mean-value excess="
                       f"{cert.rate - cert.point_rate:.3e}")
    else:
        cert.stage("rate", False, "no verified rectangle")

    cert.verdict = all(s["ok"] for s in cert.stages)
    if mode == "interval":
        cert.interval_report = {"ok": False} if rate is None else {
            "ok": upper(rate) + DELTA_NUM < 1.0,
            "sign_checks": report.checks,
            "sign_failures": len(report.failures),
            "min_sign_margin": report.min_margin,
            "rate_upper": upper(rate),
            "rate_lower": lower(rate),
        }
    return cert


def replay(cert_data: dict) -> tuple[Certificate, list[str]]:
    """Re-run certify's checker on a certificate's stored trace, in its own
    mode, and return (the re-run Certificate, the names of its top-level
    fields whose JSON differs from the stored ones).  The spiral stage reads
    the trace where certify searches, and the rate is that of the trace's own
    final rectangle.  Before any stage runs, a certificate without params (c,
    x_max, epsilon), mode or trace raises ConfigurationError naming the key,
    and one whose params or trace is not an object, whose params field or
    witness value is not a number, or whose rate has no decimal `v`, naming
    the field."""
    try:
        p, mode, stored_trace = cert_data["params"], cert_data["mode"], cert_data["trace"] or {}
        bad = _wrong_types(p, stored_trace, cert_data.get("rate"))
        if bad:
            raise ConfigurationError(f"certificate field of the wrong type: {', '.join(bad)}")
        params = ModelParams(c=p["c"], x_max=p["x_max"], epsilon=p["epsilon"])
    except KeyError as exc:
        raise ConfigurationError(f"certificate has no {exc.args[0]!r}") from None
    rerun = _check(params, mode, lambda *_: rb.ExclusionTrace.from_jsonable(stored_trace))
    fresh, stored = ({k: json.dumps(v, sort_keys=True) for k, v in d.items()}
                     for d in (rerun.as_dict(), cert_data))
    return rerun, [k for k in {**fresh, **stored} if fresh.get(k) != stored.get(k)]


def _wrong_types(params, trace, rate) -> list[str]:
    """'field = value' for each field replay reads that holds the wrong JSON
    type: params or trace not an object, a params field or a witness value
    not a number, a rate without a decimal `v`.  A missing field is not named."""
    bad = ([f"params = {params!r}"] if not isinstance(params, dict) else
           [f"params.{k} = {params[k]!r}" for k in ("c", "x_max", "epsilon")
            if k in params and type(params[k]) not in (int, float)])
    bad += ([f"trace = {trace!r}"] if not isinstance(trace, dict) else
            [f"trace.{k} = {trace[k]!r}" for k in rb.SEQUENCES if k in trace and not (
                isinstance(trace[k], list) and all(type(v) in (int, float) for v in trace[k]))])
    try:
        if rate is not None:
            float(rate["v"])
    except (TypeError, KeyError, ValueError):
        bad.append(f"rate = {rate!r}")
    return bad


# -- curves -------------------------------------------------------------------------

def _refuse_below(least: int, values: dict) -> None:
    """ConfigurationError naming the first entry of `values` below `least`."""
    for name, value in values.items():
        if value < least:
            raise ConfigurationError(f"{name} is {value}, below {least}")


def emit_curves(params: ModelParams, grid_density: int) -> tuple[list[dict], str]:
    """Sample the loci eq1 = 0 and eq2 = 0 as phi(beta1) by bisecting each column.

    All columns are bisected in lockstep, one batched equation call a step; a
    column is NaN where an end of its phi range is singular or the equation
    has the same sign at both ends.  A grid_density below 1 is a
    ConfigurationError.
    """
    _refuse_below(1, {"grid_density": grid_density})
    system = st.EqSystem.build(params, dist.build_tables(params))
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

#: Confidence of each empirical_report cell's large-deviation budget.
CONFIDENCE = 0.999


def empirical_report(n: int, c: float, formulas: int, seed: int, x_cap: int = 8,
                     pps_sub: tuple[int, int] | None = None) -> dict:
    """Cell-by-cell empirical means against the limiting masses, with the
    large-deviation budget at confidence CONFIDENCE; optional exhaustive
    locally-maximal-solution subreport at a small n.  ConfigurationError,
    raised before any work, names a negative seed or an argument that admits
    no formula."""
    _refuse_below(0, {"x_cap": x_cap, "seed": seed})
    for pre, k, count in [("", n, formulas)] + ([("pps ", *pps_sub)] if pps_sub else []):
        _refuse_below(1, {f"{pre}n": k, f"{pre}formulas": count,
                          f"m = round(c {pre}n) at c = {c}": clause_count(k, c)})
    lam = 3.0 * c
    campaign = run_omega_campaign(n, c, formulas, seed, x_cap)
    cells = (x_cap + 1) * (x_cap + 2) // 2
    samples = n * formulas
    rows = []
    worst = 0.0
    over_budget = 0
    for x in range(x_cap + 1):
        for p in range(x + 1):
            k = dist.kappa(x, p, lam)
            dev = abs(campaign.mean[x, p] - k)
            budget_t = deviation_budget(k, samples, CONFIDENCE, cells)
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
        "n": n, "c": c, "formulas": formulas, "seed": seed, "x_cap": x_cap,
        "confidence": CONFIDENCE, "generator": campaign.generator,
        "max_abs_deviation": worst, "cells_over_budget": over_budget,
        "ok": over_budget == 0, "rows": rows,
    }
    if pps_sub is not None:
        sub_n, sub_formulas = pps_sub
        sat = with_pps = 0
        children = np.random.SeedSequence((seed, 0xAC)).spawn(sub_formulas)
        for child in children:
            formula = generate(sub_n, c, child)
            has_pps = bool(pps_bitmap(formula).any())  # a PPS is a solution
            sat += has_pps or bool(solution_bitmap(formula).any())
            with_pps += has_pps
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

#: Largest (formula representative x assignment) grid counting_oracle scans;
#: its measured cost is in counting_oracle's docstring.
ORACLE_WORK_MAX = 1 << 20


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


def _orderings(rows: np.ndarray) -> np.ndarray:
    """Number of distinct orderings of each row sorted along the last axis.
    Appending the i-th element, the r-th of its run, multiplies the prefix's
    number of orderings by i / r, and each product is again a count."""
    run = np.ones(rows.shape[:-1], dtype=np.int64)
    count = np.ones_like(run)
    for i in range(1, rows.shape[-1]):
        run = np.where(rows[..., i] == rows[..., i - 1], run + 1, 1)
        count = count * (i + 1) // run
    return count


def _multisets(size: int, k: int) -> int:
    """Number of sorted k-tuples over `size` symbols, C(size + k - 1, k), as
    a running product that is a count at every step."""
    count = 1
    for i in range(1, k + 1):
        count = count * (size + i - 1) // i
    return count


def _sorted_tuples(size: int, k: int) -> np.ndarray:
    """Every non-decreasing k-tuple over range(size), (count, k), in
    lexicographic order.  Each column turns a row ending at v into one row
    per next value v..size-1."""
    rows, last = np.zeros((1, 0), dtype=np.intp), np.zeros(1, dtype=np.intp)
    for _ in range(k):
        extensions = size - last
        offset = np.repeat(np.cumsum(extensions) - extensions - last, extensions)
        last = np.arange(len(offset)) - offset
        rows = np.column_stack([np.repeat(rows, extensions, axis=0), last])
    return rows


def _representatives(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """One formula per class of formulas equal up to the order of the literals
    in each clause and of the clauses, as lits (reps, m, 3): literal codes
    non-decreasing within each clause, clause indices non-decreasing within
    the formula.  Each one's int64 weight is its number of orderings,
    m!/prod(clause multiplicities)! times, per clause, 3!/prod(literal
    multiplicities)!; the weights sum to (2n)^(3m)."""
    literals = np.array([l for v in range(1, n + 1) for l in (v, -v)], dtype=np.int8)
    codes = _sorted_tuples(2 * n, 3)
    chosen = _sorted_tuples(len(codes), m)
    weights = _orderings(chosen) * _orderings(codes)[chosen].prod(axis=-1)
    return literals[codes][chosen], weights


def counting_oracle(n: int, c: float) -> dict:
    """Exhaust all formulas and assignments of a tiny instance and compare the
    exact per-signature census of locally-maximal pairs to the counting bound.

    Every tally is invariant under reordering the literals of a clause and
    the clauses of a formula, so the scan visits one representative per
    class (_representatives), and every count below is a sum of the
    representatives' weights, their numbers of orderings, in int64.

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

    GuardError, raised before anything is allocated, refuses a grid of more
    than ORACLE_WORK_MAX = 2^20 (representative, assignment) cells, and any
    instance whose signature key radix or pair count bound (2n)^(3m) 2^n
    reaches 2^63.  (3, 1.0), 30,856 representatives of 6^9 formulas, takes
    0.10-0.12 s and peaks at 13 MB (tracemalloc); the largest grid admitted,
    (2, 3.0) with 177,100 x 4 cells, takes 0.40-0.49 s and 54 MB (2-core
    x86-64 VM, Python 3.11, numpy 2.4).  The truth-table kernel is 2 and
    17 ms of these.  (4, 1.0) exceeds the work bound and
    (5, 0.4) the key radix.  Before them, n or m below 1 is a ConfigurationError.
    """
    m = clause_count(n, c)
    _refuse_below(1, {"n": n, f"m = round(c n) at c = {c}": m})
    reps = _multisets(_multisets(2 * n, 3), m)  # sorted m-tuples of sorted triples
    if reps << n > ORACLE_WORK_MAX:
        raise GuardError(f"counting oracle ({n}, {m}): {reps:,} representatives x 2^{n} "
                         f"assignments exceed the work bound {ORACLE_WORK_MAX:,}")
    base = 3 * m + 1  # x, p, j <= 3m
    radix = (m + 1,) * 3 + (base ** 2,) * n + (base ** 3,) * n  # one int64 key per pair
    key_radix, max_pairs = math.prod(radix), (2 * n) ** (3 * m) << n
    if max(key_radix, max_pairs) >= 1 << 63:
        raise GuardError(f"counting oracle ({n}, {m}): the signature key radix {key_radix:.3g} "
                         f"or the pair count bound {max_pairs:.3g} reaches the int64 bound 2^63")
    all_lits, weights = _representatives(n, m)
    values = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1  # bit k: variable k+1
    pps = is_pps(all_lits[:, None], values)
    pps_by_formula = weights @ pps
    formula_idx, bits = np.nonzero(pps)
    lits, vals = all_lits[formula_idx], values[bits]
    x, p, j = np.moveaxis(variable_type(lits, vals), -1, 0)
    typable = ~(vals & (j == p)).any(axis=-1)
    ntrue = literal_truth(lits, vals).sum(axis=-1)
    digits = [*((ntrue == k).sum(axis=-1) for k in (1, 2, 3)),
              *np.sort(x * base + p, axis=-1).T, *np.sort((x * base + p) * base + j, axis=-1).T]
    keys, group = np.unique(np.ravel_multi_index(digits, radix)[typable], return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, group, weights[formula_idx][typable])
    rows = np.stack(np.unravel_index(keys, radix), axis=-1)
    groups = {_signature(row, n, base): int(cnt) for row, cnt in zip(rows, counts)}
    pps_by_assignment = weights @ truth_tables(all_lits, n)[1]
    identity = bool(np.array_equal(pps_by_formula, pps_by_assignment))
    pairs = int(pps_by_formula.sum())
    untypable = pairs - int(counts.sum())
    records = []
    violations = 0
    for sig, count in sorted(groups.items()):
        bound = _pair_bound(sig, n, m)
        ok = count <= bound
        violations += not ok
        records.append({"signature": repr(sig), "count": count, "bound": bound, "ok": ok})
    return {
        "n": n, "c": c, "m": m,
        "formulas": int(weights.sum()),
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
