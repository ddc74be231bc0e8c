"""An undefined point is a NaN entry, as a property: random batches of
(phi, beta1) over and beyond the generic a-priori box (phi in [0.47, 0.68],
beta1 in [0.21, 0.65]), NaN coordinates and points on the polygon's edges
mixed in, in float and interval mode, with and without claimed signs.

The points are dyadic, k/1024, so Y, beta2 and beta3 are exact multiples of
2^-10: an edge is hit exactly (0, undefined) or missed by at least 2^-10.
Where U/V is defined V - 1 >= 2^-20/27 there, so Eq2 is NaN exactly where
Eq1 is; Eq2's own V <= 1 case is in test_stationarity's mixed batch.
Within about 1e-10 of the beta2 = 0 edge Eq1 overflows in exp (see
CHANGES.md), a fault of its own that this property does not test."""

import math

import numpy as np
import pytest

from typsat import stationarity as st
from typsat.ledger import point_fields

hypothesis = pytest.importorskip("hypothesis")
hs = hypothesis.strategies

#: 1024 phi and 1024 beta1 at the lattice's ends.
PHI_K, BETA_J = (256, 921), (0, 870)


@hs.composite
def points(draw):
    """(phi, beta1): a lattice point, one on or one step off an edge Y = 0,
    beta2 = 0 or beta3 = 0, or either coordinate NaN."""
    k = draw(hs.integers(*PHI_K))
    edge = draw(hs.sampled_from((None, "Y", "beta2", "beta3")))
    if edge is None:
        j = draw(hs.integers(*BETA_J))
    else:
        on = {"Y": 3 * k, "beta2": (3072 - 3 * k) // 2, "beta3": 2048 - 3 * k}[edge]
        j = on + draw(hs.integers(-1, 1))
    phi, beta1 = k / 1024.0, j / 1024.0
    nan = draw(hs.sampled_from((None, None, None, "phi", "beta1")))
    return (math.nan if nan == "phi" else phi), (math.nan if nan == "beta1" else beta1)


@pytest.fixture(scope="module", params=["float", "interval"])
def system_any(request, params, consts, consts_iv):
    return st.EqSystem.build(params, consts if request.param == "float" else consts_iv)


def ends(value, sign):
    """The ends of `value` a check of `sign` reads (both without one), as arrays."""
    if not hasattr(value, "lo"):
        return [np.asarray(value, dtype=np.float64)]
    names = ("lo", "hi") if sign is None else ("lo",) if sign > 0 else ("hi",)
    return [np.asarray(getattr(value, name), dtype=np.float64) for name in names]


@hypothesis.settings(max_examples=60, derandomize=True, deadline=None)
@hypothesis.given(batch=hs.lists(points(), min_size=1, max_size=20), data=hs.data())
def test_batched_values_are_per_point_values_and_nan_marks_the_undefined(system_any, batch,
                                                                        data):
    phis, betas = (np.array(col) for col in zip(*batch))
    signed = data.draw(hs.booleans(), label="signed")
    signs = (np.array(data.draw(hs.lists(hs.sampled_from((-1, 1)), min_size=len(batch),
                                         max_size=len(batch)), label="signs"))
             if signed else None)
    beta2, beta3, Y = point_fields(phis, betas)
    undefined = ~((Y > 0.0) & (beta2 > 0.0) & (beta3 > 0.0))  # NaN compares False
    for fn in (system_any.eq1, system_any.eq2):
        batched = fn(phis, betas, signs)
        singles = [fn(phi, beta1, None if signs is None else sign)
                   for phi, beta1, sign in zip(phis.tolist(), betas.tolist(),
                                               [None] * len(batch) if signs is None
                                               else signs.tolist())]
        for k, single in enumerate(singles):
            sign = None if signs is None else signs[k]
            for got, alone in zip(ends(batched[k], sign), ends(single, sign)):
                assert np.isnan(got) == np.isnan(alone) == undefined[k]
                assert np.isnan(got) or got.tobytes() == alone.tobytes()
