from types import SimpleNamespace

import numpy as np
import pytest

from typsat import distribution as dist
from typsat import ledger as lg
from typsat import stationarity as st
from typsat.params import WIDTH_TARGET, ModelParams

LAM = 3 * 4.506


# -- scalar reference predicates ------------------------------------------------------
# One (Formula, Assignment) pair at a time, a variable at a time, with no
# broadcasting: the independent reference that the broadcast satisfies, is_pps
# and variable_type of typsat.formulas are checked against.

def _cell_truth(formula, assignment):
    return assignment.values[np.abs(formula.lits) - 1] ^ (formula.lits < 0)


def scalar_satisfies(formula, assignment):
    return bool(_cell_truth(formula, assignment).any(axis=1).all())


def scalar_is_pps(formula, assignment):
    truth = _cell_truth(formula, assignment)
    if not truth.any(axis=1).all():
        return False
    abs_lits = np.abs(formula.lits)
    for v in np.flatnonzero(assignment.values):
        flipped = truth ^ (abs_lits == v + 1)
        if flipped.any(axis=1).all():
            return False  # still satisfied after the flip: not locally maximal
    return True


def scalar_variable_type(formula, assignment, v):
    truth = _cell_truth(formula, assignment)
    assert truth.any(axis=1).all(), "variable types are defined relative to a solution"
    abs_lits = np.abs(formula.lits)
    x = int(np.count_nonzero(abs_lits == v))
    p = int(np.count_nonzero(formula.lits == v))
    single = truth.sum(axis=1) == 1
    unique_sat = int(np.count_nonzero(truth[single] & (abs_lits[single] == v)))
    j = p - unique_sat if assignment.values[v - 1] else p + unique_sat
    return x, p, j


@pytest.fixture(scope="session")
def scalar_reference():
    return SimpleNamespace(satisfies=scalar_satisfies, is_pps=scalar_is_pps,
                           variable_type=scalar_variable_type)


@pytest.fixture(scope="session")
def params():
    return ModelParams.certification()


@pytest.fixture(scope="session")
def consts(params):
    return dist.build_tables(params)


@pytest.fixture(scope="session")
def kappa_rows(params):
    """kappa over the full triangle 0 <= p <= x <= x_max, row x holding p = 0..x,
    taken cell by cell from the scalar `dist.kappa`: the oracle that the
    stored kt (p <= x/2 only) is checked against."""
    return [[dist.kappa(x, p, params.lam) for p in range(x + 1)]
            for x in range(params.x_max + 1)]


@pytest.fixture(scope="session")
def consts_iv(params):
    return dist.kappa_tilde_intervals(params)


@pytest.fixture(scope="session")
def budget(params, consts):
    return lg.build_budget(params, consts)


@pytest.fixture(scope="session")
def box(params):
    return params.a_priori


@pytest.fixture(scope="session")
def system(params, consts):
    return st.EqSystem.build(params, consts)


@pytest.fixture(scope="session")
def trace(system, box):
    from typsat.rootbox import spiral_localize
    return spiral_localize(system.eq1, system.eq2, box, width_target=WIDTH_TARGET)


@pytest.fixture(scope="session")
def root(trace):
    """The spiral's Newton root, kept on its in-memory trace: its point and
    its residuals there."""
    newton = trace.root
    assert newton.found
    r1, r2 = newton.residuals
    return {"phi": newton.phi, "beta1": newton.beta1, "residual_eq1": r1, "residual_eq2": r2}


@pytest.fixture(scope="session")
def root_point(root, box):
    return st.derive_point(root["phi"], root["beta1"])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
