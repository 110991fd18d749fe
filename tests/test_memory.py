"""The working memory of load and solve at n = 2048, and of the sampled
layer at n = 4096, traced by tracemalloc.

Transient arrays, not the work done, set the peak: a load that built its
whole 52-row stack of cone functions and copied it peaked at 3.33 MiB, one
apply_T on the 8 solver starts at 1.13 MiB and multistart_solve at
1.75 MiB (0.63, 0.61 and 1.14 MiB now).  The load now builds its 40 rows in slabs, the operator works in
place and no GridFunction copies an array it is handed.  At n = 4096 a
sampled H_i that evaluated its 181 cone functions as one stack peaked at
12.14 MiB for example1's h1 and 22.64 MiB for its h2, and the witness
falsifier on example2 at 1.79 MiB (0.54, 0.54 and 0.52 MiB now, in slabs
of 3 rows).  Each bound below lies under the old peak and leaves at
least 20% over the new one.
"""

import tracemalloc

import pytest

from hammcert.bounds import estimate_H, falsify_linear_growth
from hammcert.problem import apply_T, load_problem
from hammcert.solver import MAX_ITERATIONS, STARTS, TOL_FIXPOINT, _start_functions, multistart_solve

N = 2048
N_SAMPLED = 4096
MIB = 2**20


def traced_peak(fn) -> float:
    """The peak of memory traced while fn runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def fine(example1_path):
    return load_problem(example1_path, n=N)


def test_load_peak(example1_path):
    assert traced_peak(lambda: load_problem(example1_path, n=N)) < 1.0  # was 3.33


def test_apply_T_peak(fine):
    starts = _start_functions(fine, STARTS)
    apply_T(fine, starts)  # the coefficient samples are cached from here on
    assert traced_peak(lambda: apply_T(fine, starts)) < 0.9  # was 1.13


def test_multistart_solve_peak(fine):
    assert traced_peak(lambda: multistart_solve(fine, STARTS, TOL_FIXPOINT, MAX_ITERATIONS)) < 1.5  # was 1.75


@pytest.mark.parametrize("i", [1, 2])
def test_estimate_H_peak(example1_path, i):
    spec = load_problem(example1_path, n=N_SAMPLED)
    assert traced_peak(lambda: estimate_H(spec, i, 1.0)) < 1.0  # was 12.14 and 22.64


def test_falsify_peak(example2_path):
    spec = load_problem(example2_path, n=N_SAMPLED)
    assert traced_peak(lambda: falsify_linear_growth(spec, spec.witness)) < 1.0  # was 1.79
