import pathlib

import pytest

from hammcert import load_problem, loads_problem

from problem_texts import QUADRATURE_PROBLEM

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"


@pytest.fixture(scope="session")
def example1_path() -> str:
    return str(PROBLEMS / "example1.prob")


@pytest.fixture(scope="session")
def example2_path() -> str:
    return str(PROBLEMS / "example2.prob")


@pytest.fixture(scope="session")
def quadrature_spec():
    return loads_problem(QUADRATURE_PROBLEM)


@pytest.fixture(scope="session")
def example1(example1_path):
    return load_problem(example1_path)


@pytest.fixture(scope="session")
def example2(example2_path):
    return load_problem(example2_path)
