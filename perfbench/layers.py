"""Per-layer metrics of a traced run, computed from the tracer's spans.

Every time and count is a mean per traced op (total over the traced ops
divided by their number), so rates such as ``stationarity.eval_us`` are
ratios of totals.  Times are scaled to the reference speed like the
end-to-end ones (see speed.py).  A layer the workload never reaches reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import Tracer

EQ_SPANS = ("stationarity.eq1", "stationarity.eq2")
ROOTBOX = ("rootbox.spiral_localize", "rootbox.solve_reference", "rootbox.verify_exclusion")

#: name -> unit, in report order.
PER_LAYER = {
    "stationarity.eq1.calls": "count",
    "stationarity.eq2.calls": "count",
    "stationarity.eval_us": "us",
    "rootbox.spiral_localize.s": "s",
    "rootbox.spiral_localize.evals": "count",
    "rootbox.spiral_localize.steps": "count",
    "rootbox.spiral_localize.evals_per_step": "ratio",
    "rootbox.solve_reference.s": "s",
    "rootbox.solve_reference.evals": "count",
    "rootbox.verify_exclusion.s": "s",
    "rootbox.verify_exclusion.evals": "count",
    "stationarity.rate_bound_rectangle.s": "s",
    "pipeline.certify.self_s": "s",
    "intervals.sign_checks": "count",
    "distribution.build_tables.s": "s",
    "distribution.build_tables.calls": "count",
    "distribution.kappa_tilde_intervals.s": "s",
    "ledger.build_budget.s": "s",
    "ledger.build_budget.calls": "count",
    "monotone.s": "s",
    "formulas.generate.s": "s",
    "formulas.solution_bitmap.s": "s",
    "formulas.solution_bitmap.calls": "count",
    "formulas.solution_bitmap.calls_per_formula": "ratio",
    "formulas.pps_bitmap.self_s": "s",
    "formulas.is_pps.s": "s",
    "formulas.is_pps.calls": "count",
    "formulas.variable_type.s": "s",
    "formulas.variable_type.calls": "count",
    "pipeline.counting_oracle.s": "s",
    "pipeline.counting_oracle.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans_per_op": "count",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, facts: list[dict], traced_s: list[float],
                  untraced_s: list[float], time_scale: float) -> dict:
    """facts: one dict per traced op (steps, sign_checks, formulas);
    time_scale: factor from measured to reference-speed seconds."""
    own = tr.self_times()
    ops = len(tr.op_spans)
    names = [tr.names[k] for k in tr.name]
    dur_ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    evals_under: dict[str, int] = defaultdict(int)
    eval_ns = 0
    monotone_ns = 0
    for i, nm in enumerate(names):
        d = tr.end[i] - tr.start[i]
        dur_ns[nm] += d
        self_ns[nm] += own[i]
        calls[nm] += 1
        p = tr.parent[i]
        parent = names[p] if p >= 0 else ""
        if nm in EQ_SPANS:
            eval_ns += d
            evals_under[parent] += 1
        elif nm == "stationarity.derive_point" and parent in ROOTBOX:
            eval_ns += d  # the closure's derive_point is part of one evaluation
        elif nm.startswith("monotone.") and not parent.startswith("monotone."):
            monotone_ns += d

    def per_op_s(ns: float) -> float:
        return _ratio(ns * 1e-9 * time_scale, ops)

    def per_op(k: float) -> float:
        return _ratio(k, ops)

    def fact(key: str) -> float:
        return per_op(sum(f.get(key, 0) for f in facts))

    n_eq = calls["stationarity.eq1"] + calls["stationarity.eq2"]
    out = {
        "stationarity.eq1.calls": per_op(calls["stationarity.eq1"]),
        "stationarity.eq2.calls": per_op(calls["stationarity.eq2"]),
        "stationarity.eval_us": _ratio(eval_ns * 1e-3 * time_scale, n_eq),
        "rootbox.spiral_localize.steps": fact("steps"),
        "rootbox.spiral_localize.evals_per_step": _ratio(
            evals_under["rootbox.spiral_localize"], sum(f.get("steps", 0) for f in facts)),
        "stationarity.rate_bound_rectangle.s": per_op_s(dur_ns["stationarity.rate_bound_rectangle"]),
        "pipeline.certify.self_s": per_op_s(self_ns["pipeline.certify"]),
        "intervals.sign_checks": fact("sign_checks"),
        "distribution.build_tables.s": per_op_s(dur_ns["distribution.build_tables"]),
        "distribution.build_tables.calls": per_op(calls["distribution.build_tables"]),
        "distribution.kappa_tilde_intervals.s": per_op_s(dur_ns["distribution.kappa_tilde_intervals"]),
        "ledger.build_budget.s": per_op_s(dur_ns["ledger.build_budget"]),
        "ledger.build_budget.calls": per_op(calls["ledger.build_budget"]),
        "monotone.s": per_op_s(monotone_ns),
        "formulas.generate.s": per_op_s(dur_ns["formulas.generate"]),
        "formulas.solution_bitmap.s": per_op_s(dur_ns["formulas.solution_bitmap"]),
        "formulas.solution_bitmap.calls": per_op(calls["formulas.solution_bitmap"]),
        "formulas.solution_bitmap.calls_per_formula": _ratio(
            calls["formulas.solution_bitmap"], sum(f.get("formulas", 0) for f in facts)),
        "formulas.pps_bitmap.self_s": per_op_s(self_ns["formulas.pps_bitmap"]),
        "formulas.is_pps.s": per_op_s(dur_ns["formulas.is_pps"]),
        "formulas.is_pps.calls": per_op(calls["formulas.is_pps"]),
        "formulas.variable_type.s": per_op_s(dur_ns["formulas.variable_type"]),
        "formulas.variable_type.calls": per_op(calls["formulas.variable_type"]),
        "pipeline.counting_oracle.s": per_op_s(dur_ns["pipeline.counting_oracle"]),
        "pipeline.counting_oracle.self_s": per_op_s(self_ns["pipeline.counting_oracle"]),
        "trace.overhead_frac": statistics.median(traced_s) / statistics.median(untraced_s) - 1.0,
        "trace.spans_per_op": per_op(len(names)),
    }
    for name in ROOTBOX:
        out[f"{name}.s"] = per_op_s(dur_ns[name])
        out[f"{name}.evals"] = per_op(evals_under[name])
    return {k: out[k] for k in PER_LAYER}
