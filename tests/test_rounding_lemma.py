"""The rounding lemma of `stationarity._pad`, as a property over its range:
random float inputs on random subsets of the Eq1 and Eq2 cells, against
50-digit cell terms.  |w a| and p b run up to 300, and b down to about
2^-29, the least value where the lemma's one count, which grows like 16/b,
stays finite for both equations.  No term here underflows (every weight
exceeds 6e-33 and every factor e^-600), so each is within gamma_K of itself."""

import math

import numpy as np
import pytest

from typsat import stationarity as st
from typsat.intervals import Interval

from oracles import mp_cell_terms

hypothesis = pytest.importorskip("hypothesis")
mp = pytest.importorskip("mpmath")
hs = hypothesis.strategies

U = 2.0 ** -53
#: A position in [0, 1] that is one of the two ends about half the time.
SHARE = hs.sampled_from((0.0, 1.0)) | hs.floats(0.0, 1.0)
#: log2 of the least b drawn, just inside the lemma's range.
LOG2_B_MIN = -28.99


@hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
@hypothesis.given(data=hs.data())
def test_every_cell_term_within_gamma_k_of_itself_across_the_range(system, data):
    for eq, cells, terms in (("eq1", system.cells_eq1, st._eq1_terms),
                             ("eq2", system.cells_eq2, st._eq2_terms)):
        idx = np.array(data.draw(hs.lists(hs.integers(0, cells.w.size - 1),
                                          min_size=1, max_size=16, unique=True), label=eq))
        sub = st.Cells(*(np.asarray(field)[idx] for field in cells))
        a = (2.0 * data.draw(SHARE) - 1.0) * 300.0 / max(sub.w.max(), 1.0)
        b_max = 300.0 / sub.p.max()
        b = 2.0 ** (LOG2_B_MIN + data.draw(SHARE) * (math.log2(b_max) - LOG2_B_MIN))
        K = float(st._term_count(Interval(a), Interval(b), sub))
        if not K * U < 2.0 ** -20:  # outside the lemma's range: `_pad` is infinite
            continue
        gamma = K * U / (1.0 - K * U)
        with mp.workdps(50):
            exact = mp_cell_terms(mp, eq, sub, a, b)
            for f, t in zip(terms(sub, a, b).tolist(), exact):
                assert abs(mp.mpf(f) - t) <= gamma * t, (eq, a, b)
