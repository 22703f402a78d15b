import tempfile
from fractions import Fraction

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from qbipoly.bigqjacobi import TEST_PARAMS, MomentTable, preset_equation
from qbipoly.equation import admissibility
from qbipoly.monic import generate_monic_oracle
from qbipoly.qcalc import QParam


def pytest_configure(config):
    """Hypothesis keeps its files (the constants it collects from changed
    source files, its unicode tables) in a directory of the session, removed
    at its end, not in the checkout.  Collecting the tests already writes
    there, so it is set before they are collected."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    config.add_cleanup(lambda: set_hypothesis_home_dir(None))
    set_hypothesis_home_dir(home.name)


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
    """Jackson moment functional at the production precision (192 bits);
    built once per session."""
    return MomentTable(TEST_PARAMS, max_degree=8, prec=192)
