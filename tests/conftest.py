import pathlib

import pytest

from hammcert import load_problem, loads_problem

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"


@pytest.fixture(scope="session")
def example1_path() -> str:
    return str(PROBLEMS / "example1.prob")


@pytest.fixture(scope="session")
def example2_path() -> str:
    return str(PROBLEMS / "example2.prob")


# A custom kernel with declared bounds, certified at parent commits: its
# trapezoid K = K* = 0.33333587646484375 exceeds the exact 1/3, so the lower
# test passes at r = 0.1000003 although the exact lower branch is 0.1 < r.
QUADRATURE_PROBLEM = """\
[kernel]
k = t*s^2
dk = s^2
[gamma]
gamma1 = 1
gamma2 = t
dgamma1 = 0
dgamma2 = 1
[functionals]
h1 = U(1)
h2 = U(1)
[nonlinearity]
f = 1
[parameters]
lambda = 3/10
eta1 = 0
eta2 = 0
[bounds]
f_upper = 1
f_lower = 1
h1 = rho
h2 = rho
"""


@pytest.fixture(scope="session")
def quadrature_spec():
    return loads_problem(QUADRATURE_PROBLEM)


@pytest.fixture(scope="session")
def example1(example1_path):
    return load_problem(example1_path)


@pytest.fixture(scope="session")
def example2(example2_path):
    return load_problem(example2_path)
