"""Tolerances and defects the tests check grid functions against, and the
slabs of cone functions the sampled layer evaluates."""

import numpy as np

import hammcert.bounds
from hammcert.bounds import CONE_KNOTS, functional_on_samples
from hammcert.expr import LATTICE_SLAB
from hammcert.grid import GridFunction, sphere_family


def consistency_tol(n: int) -> float:
    """Tolerance for the u(t) = u(0) + int u' defect; tracks trapezoid order."""
    return 10.0 / n**2


def monotone_defect(u) -> float:
    """Largest decrease between consecutive node values of a single function
    (0 if non-decreasing)."""
    return max(0.0, float(np.max(u.values[:-1] - u.values[1:])))


def family_rows(grid, rng, radii) -> GridFunction:
    """A stack of one sphere_family row per radius, each row picked by rng."""
    families = [sphere_family(grid, rho, CONE_KNOTS)[0] for rho in radii]
    return GridFunction.stack([u[rng.integers(u.values.shape[0])] for u in families])


def recorded_slabs(monkeypatch) -> list:
    """The (h, u, params) of each functional_on_samples call from here on."""
    seen = []

    def recording(h, u, params):
        seen.append((h, u, params))
        return functional_on_samples(h, u, params)

    monkeypatch.setattr(hammcert.bounds, "functional_on_samples", recording)
    return seen


def assert_slabs_stack_to_the_family(slabs, grid, rho, knots):
    """Each slab holds at most LATTICE_SLAB samples, and stacked they are
    sphere_family(grid, rho, knots) bit for bit, parameters included."""
    assert max(u.values.size for _, u, _ in slabs) <= LATTICE_SLAB
    whole, params = sphere_family(grid, rho, knots)
    assert np.concatenate([u.values for _, u, _ in slabs]).tobytes() == whole.values.tobytes()
    assert np.concatenate([u.dvalues for _, u, _ in slabs]).tobytes() == whole.dvalues.tobytes()
    assert np.concatenate([p for _, _, p in slabs]).tobytes() == params.tobytes()
