import numpy as np
import pytest

from typsat import distribution as dist
from typsat import ledger as lg
from typsat import stationarity as st
from typsat.params import WIDTH_TARGET, ModelParams

LAM = 3 * 4.506


@pytest.fixture(scope="session")
def params():
    return ModelParams.certification()


@pytest.fixture(scope="session")
def tables(params):
    return dist.build_tables(params)


@pytest.fixture(scope="session")
def consts(tables):
    return tables[2]


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
def root(system, trace):
    from typsat.rootbox import solve_reference
    ref = solve_reference(system.eq1, system.eq2, trace.rectangle)
    assert ref["found"]
    return ref


@pytest.fixture(scope="session")
def root_point(root, box):
    return st.derive_point(root["phi"], root["beta1"], box)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
