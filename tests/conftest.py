from fractions import Fraction

import pytest

from qbipoly.bigqjacobi import TEST_PARAMS, MomentTable, preset_equation
from qbipoly.equation import admissibility
from qbipoly.monic import generate_monic_oracle
from qbipoly.qcalc import QParam


@pytest.fixture(scope="session")
def qp():
    return QParam(Fraction(1, 2))


@pytest.fixture(scope="session")
def params():
    return TEST_PARAMS


@pytest.fixture(scope="session")
def equation():
    return preset_equation(TEST_PARAMS)


@pytest.fixture(scope="session")
def adm(equation):
    return admissibility(equation)


@pytest.fixture(scope="session")
def oracle5(equation):
    """Monic family through total degree 5."""
    return generate_monic_oracle(equation, 5)


@pytest.fixture(scope="session")
def moments():
    """Jackson moment functional at the production tolerances (192-bit,
    truncation 200); built once per session."""
    return MomentTable(TEST_PARAMS, max_degree=8, truncation=200, prec=192)
