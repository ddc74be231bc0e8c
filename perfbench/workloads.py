"""The four benchmark workloads: inputs, one op, and the check of its output.

Each workload is a closed loop with one client: the next op starts when the
previous one returns.  ``inputs(seed)`` yields the op inputs; only the corpus
draws them from the seed, because ``certify`` passes every stage only at the
pinned configuration and the oracle is exhaustive.  ``op(input)`` is the
timed call; ``check(input, output)`` returns (ok, facts), where facts feed
the per-layer metrics and ``rate_margin``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from typsat import formulas, pipeline

#: The float certificate's rectangle rate at (4.506, 56, 1e-15).  An op fails
#: when its rate upper bound exceeds it by more than RATE_TOL, the float vs
#: interval agreement the certificate tests allow, or drops below RATE_FLOOR,
#: the lower end of acceptance criterion 1.  A tighter (lower) bound passes.
RATE_REF = 0.9999500455
RATE_TOL = 1e-6
RATE_FLOOR = 0.9999

CERTIFY_ARGS = (4.506, 56, 1e-15)
CORPUS_N, CORPUS_C = 12, 4.506
ORACLE_ARGS = (2, 1.0)
ORACLE_EXPECT = {"formulas": 4096, "pairs": 4704, "signatures": 70}


@dataclass(frozen=True)
class Workload:
    """Why each workload is in the benchmark: BENCHMARK.json and README.md."""
    name: str
    inputs: Callable[[int], Iterator]
    op: Callable
    check: Callable


# -- certify ----------------------------------------------------------------------

def _certify_op(mode: str):
    return pipeline.certify(*CERTIFY_ARGS, mode=mode)


def _check_certify(mode: str, cert) -> tuple[bool, dict]:
    rate = cert.rate
    if mode == "interval":
        rep = cert.interval_report
        rate = rep.get("rate_upper")
        ok_mode = rep.get("sign_failures") == 0 and rep.get("ok") is True
    else:
        ok_mode = True
    ok = (ok_mode and cert.verdict and cert.failing_stage is None and cert.trace_verified
          and cert.rate is not None and rate is not None
          and RATE_FLOOR <= cert.rate <= RATE_REF + RATE_TOL
          and RATE_FLOOR <= rate <= RATE_REF + RATE_TOL)
    facts = {
        "rate_upper": rate,
        "steps": cert.trace.get("K", 0) + cert.trace.get("L", 0),
        "sign_checks": cert.interval_report.get("sign_checks", 0),
        "formulas": 0,
    }
    return ok, facts


# -- PPS corpus -------------------------------------------------------------------

def _corpus_inputs(seed: int):
    """Child seeds of SeedSequence(seed), in spawn order, as acceptance
    criterion 9 draws them; spawned in batches outside the timed op."""
    root = np.random.SeedSequence(seed)
    while True:
        yield from root.spawn(1024)


def _corpus_op(child):
    f = formulas.generate(CORPUS_N, CORPUS_C, child)
    pps = formulas.pps_bitmap(f)
    sat = formulas.solution_bitmap(f)
    idx = np.flatnonzero(pps)
    flips_ok = all(formulas.is_pps(f, formulas.Assignment.from_bits(int(b), CORPUS_N))
                   for b in idx)
    pure_ok = not any(np.any((idx >> int(v)) & 1) for v in formulas.pure_negative_vars(f))
    return bool(sat.any()), bool(pps.any()), flips_ok, pure_ok


def _check_corpus(child, out) -> tuple[bool, dict]:
    sat_any, pps_any, flips_ok, pure_ok = out
    return (sat_any == pps_any and flips_ok and pure_ok), {"formulas": 1}


# -- counting oracle ----------------------------------------------------------------

def _oracle_op(args):
    return pipeline.counting_oracle(*args)


def _check_oracle(args, res) -> tuple[bool, dict]:
    ok = (res["violations"] == 0 and res["double_count_identity"] and res["ok"]
          and all(res[k] == v for k, v in ORACLE_EXPECT.items()))
    return ok, {"formulas": res["formulas"]}


WORKLOADS = {
    w.name: w for w in (
        Workload("certify-float", lambda seed: itertools.repeat("float"),
                 _certify_op, _check_certify),
        Workload("certify-interval", lambda seed: itertools.repeat("interval"),
                 _certify_op, _check_certify),
        Workload("pps-corpus", _corpus_inputs, _corpus_op, _check_corpus),
        Workload("counting-oracle", lambda seed: itertools.repeat(ORACLE_ARGS),
                 _oracle_op, _check_oracle),
    )
}
