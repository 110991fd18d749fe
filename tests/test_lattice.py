"""The slab-by-slab lattice scan against a whole-lattice reference.

The reference builds the full (m, m, m) array with plain numpy, as the
lattice checks did before they were split into slabs, and every result is
compared bit for bit: extrema, their indices, the f >= 0 check record,
the sampled f extrema and the message of a non-finite value.  The f >= 0
check and the sampled extrema scan LATTICE_M-point axes; their comparisons
set LATTICE_M to each size in SIZES, so that every slab layout is checked.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hammcert.bounds
import hammcert.expr
import hammcert.problem
from hammcert.bounds import estimate_f_extrema
from hammcert.errors import CheckResult, EvaluationError
from hammcert.expr import LATTICE_SLAB, eval_nonlinearity, lattice_extrema, parse
from hammcert.grid import CONE_TOL
from hammcert.problem import _check_f_sign, loads_problem

from problem_texts import ZERO_PROBLEM

FS = {
    "example1": "exp(t*(u + v))",
    "example2": "u*(2 - t*sin(u*v))",
    "plateau": "min(u, 1/2)",  # ties: the first occurrence must win
    "warning": "u - 1/2",  # negative: the f >= 0 check names the point
    "t-only": "t*(1 - t)",  # one value per t-plane of every slab
    "v-only": "sin(7*v)",  # a part without t that is not a whole plane
    "constant": "2",
}
# 2 fits one slab; 63, 65 and 100 end in a partial slab; at 130 a t-plane
# holds more than LATTICE_SLAB points, so each slab is one whole t-plane.
SIZES = (2, 63, 65, 100, 130)


def spec_for(f: str):
    return replace(loads_problem(ZERO_PROBLEM, n=16), f=parse(f, "nonlinearity"))


def whole(f, t, u, v) -> np.ndarray:
    vals = eval_nonlinearity(f, t[:, None, None], u[None, :, None], v[None, None, :])
    return np.broadcast_to(np.asarray(vals), (len(t), len(u), len(v)))


def whole_extrema(f, t, u, v) -> tuple:
    vals = whole(f, t, u, v)
    return (float(vals.min()), np.unravel_index(int(vals.argmin()), vals.shape),
            float(vals.max()), np.unravel_index(int(vals.argmax()), vals.shape))


def whole_f_check(spec, m: int) -> CheckResult:
    ax = np.linspace(0.0, 1.0, m)
    vals = whole(spec.f, ax, ax, ax)
    worst = float(vals.min())
    if worst < -CONE_TOL:
        i, j, k = np.unravel_index(int(vals.argmin()), vals.shape)
        return CheckResult("f >= 0", "warn",
                           f"min {worst:.3g} at t={ax[i]:.4g}, u={ax[j]:.4g}, v={ax[k]:.4g}")
    return CheckResult("f >= 0", "pass", f"min {worst:.3g} on {m}^3 lattice over [0,1]^3")


def whole_f_extrema(spec, rho: float, m: int) -> tuple[float, float]:
    """Sampled (max, min) of f: one scan of the whole lattice."""
    lo, _, hi, _ = whole_extrema(spec.f, np.linspace(0.0, 1.0, m), np.linspace(0.0, rho, m),
                                 np.linspace(0.0, rho, m))
    return hi, lo


def bits(values) -> list:
    return [v.hex() if isinstance(v, float) else tuple(int(i) for i in v) for v in values]


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("name", FS)
class TestAgainstWholeLattice:
    def test_extrema_and_indices(self, name, m):
        f = spec_for(FS[name]).f
        axes = (np.linspace(0.0, 1.0, m), np.linspace(0.0, 0.7, m), np.linspace(0.0, 0.7, m))
        assert bits(lattice_extrema(f, *axes)) == bits(whole_extrema(f, *axes))

    def test_f_sign_check(self, name, m, monkeypatch):
        spec = spec_for(FS[name])
        monkeypatch.setattr(hammcert.problem, "LATTICE_M", m)
        assert _check_f_sign(spec) == whole_f_check(spec, m)

    @pytest.mark.parametrize("rho", [0.01, 1.0, 3.0])
    def test_sampled_f_extrema(self, name, m, rho, monkeypatch):
        spec = spec_for(FS[name])
        monkeypatch.setattr(hammcert.bounds, "LATTICE_M", m)
        sides = tuple(estimate_f_extrema(spec, rho, upward) for upward in (True, False))
        assert bits(sides) == bits(whole_f_extrema(spec, rho, m))


def test_signed_zero_minimum_reads_its_first_occurrence():
    # -u*(t - 1) is +0.0 on u = 0 for t < 1 and -0.0 on the plane t = 1.
    # The value reported is the one at the first minimum in C order; a
    # whole-array min() reduction may return either zero.
    result = _check_f_sign(spec_for("-u*(t - 1)"))
    assert result == CheckResult("f >= 0", "pass", "min 0 on 64^3 lattice over [0,1]^3")


@pytest.mark.parametrize("m", SIZES)
def test_non_finite_in_the_last_slab(m):
    # 1/(t - 1) first fails at t = 1, the last t-plane of the lattice.
    f = spec_for("1/(t - 1)").f
    ax = np.linspace(0.0, 1.0, m)
    with pytest.raises(EvaluationError) as expected:
        whole(f, ax, ax, ax)
    with pytest.raises(EvaluationError) as got:
        lattice_extrema(f, ax, ax, ax)
    assert str(got.value) == str(expected.value)
    assert str(got.value) == "expression '1.0/(t - 1.0)' is non-finite at t=1, u=0, v=0"


def test_non_finite_inside_a_plane():
    # Fails at u = v = rho only: the point is in the middle of a t-plane.
    f = spec_for("u*(2 - t*sin(u*v))").f
    axes = (np.linspace(0.0, 1.0, 64), np.linspace(0.0, 1e200, 64), np.linspace(0.0, 1e200, 64))
    with pytest.raises(EvaluationError) as expected:
        whole(f, *axes)
    with pytest.raises(EvaluationError) as got:
        lattice_extrema(f, *axes)
    assert str(got.value) == str(expected.value)


def test_slabs_hold_at_most_lattice_slab_points(monkeypatch):
    # 64^2 points fit LATTICE_SLAB four times: four t-planes per slab.
    f = spec_for("u*(2 - t*sin(u*v))").f
    sizes = {"slab": [], "plane": []}
    original = hammcert.expr._eval

    def recording(e, env, u):
        out = original(e, env, u)
        sizes["slab" if "t" in env else "plane"].append(np.size(out))
        return out

    monkeypatch.setattr(hammcert.expr, "_eval", recording)
    ax = np.linspace(0.0, 1.0, 64)
    lattice_extrema(f, ax, ax, ax)
    assert max(sizes["slab"]) == LATTICE_SLAB
    assert max(sizes["plane"]) == 64**2  # sin(u*v), evaluated once


def test_lattice_passes_do_not_grow_with_m_cubed():
    # The whole 200^3 lattice is 61 MiB per array; one t-plane is 312 KiB.
    f = spec_for("exp(t*(u + v))").f
    ax = np.linspace(0.0, 1.0, 200)
    tracemalloc.start()
    try:
        lattice_extrema(f, ax, ax, ax)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
