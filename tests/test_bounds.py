import math

import numpy as np
import pytest

import hammcert.bounds
from hammcert.bounds import (BoundSet, LinearGrowthWitness, estimate_H,
                             estimate_f_extrema, falsify_linear_growth,
                             sphere_family)
from hammcert.errors import IncompleteBoundsError, ParameterError
from hammcert.expr import eval_nonlinearity, parse
from hammcert.grid import c1_norm, in_cone
from hammcert.kernel import FocalKernel
from hammcert.problem import make_spec

E2 = math.exp(2.0)


def tiny_spec(f="u", h1="U(1)", h2="DU(0)", n=64):
    return make_spec(FocalKernel(), "1", "t", "0", "1", h1, h2, f, 0.0, 0.0, 0.0, n=n)


class TestEstimateFExtrema:
    def test_exponential(self, example1):
        mx, mn = estimate_f_extrema(example1, 1.0, 64)
        assert mx == pytest.approx(E2, abs=1e-12)  # corner of the lattice
        assert mn == 1.0  # attained on the whole t=0 face

    def test_constant(self):
        spec = tiny_spec(f="2")
        assert estimate_f_extrema(spec, 1.0, 16) == (2.0, 2.0)

    def test_oscillatory_against_dense_scan(self, example2):
        mx, mn = estimate_f_extrema(example2, 1.0, 64)
        assert mx <= 3.0
        assert mn == 0.0
        ax = np.linspace(0, 1, 101)
        dense = eval_nonlinearity(example2.f, ax[:, None, None], ax[None, :, None],
                                  ax[None, None, :])
        assert mx == pytest.approx(float(np.max(dense)), abs=1e-3)

    @pytest.mark.parametrize("spec_name", ["example1", "example2"])
    def test_monotone_in_lattice_size(self, spec_name, request):
        # the m=5 lattice is a sublattice of the m=9 one
        spec = request.getfixturevalue(spec_name)
        mx5, mn5 = estimate_f_extrema(spec, 1.0, 5)
        mx9, mn9 = estimate_f_extrema(spec, 1.0, 9)
        assert mx9 >= mx5
        assert mn9 <= mn5

    def test_bad_arguments(self, example1):
        with pytest.raises(ParameterError):
            estimate_f_extrema(example1, 0.0, 8)
        with pytest.raises(ParameterError):
            estimate_f_extrema(example1, 1.0, 1)


class TestEstimateH:
    def test_point_evaluation_attains_rho(self):
        spec = tiny_spec(h1="U(1)")
        est = estimate_H(spec, 1, 1.0, samples=50, seed=0)
        assert est == pytest.approx(1.0, abs=1e-9)  # the constant member attains it

    def test_zero_functional(self):
        spec = tiny_spec(h1="0")
        assert estimate_H(spec, 1, 1.0, samples=50, seed=0) == 0.0

    def test_example1_estimates_below_declared(self, example1):
        for i in (1, 2):
            est = estimate_H(example1, i, 1.0, samples=200, seed=0)
            declared = example1.bounds.h_upper(i, 1.0).value
            assert est <= declared  # heuristic never exceeds the certified bound
            assert est <= 2.0

    def test_family_lives_on_the_sphere(self, example1):
        rng = np.random.default_rng(7)
        for rho in (0.05, 1.0, 4.0):
            for u in sphere_family(example1, rho, 25, rng):
                assert in_cone(u)
                assert c1_norm(u) == pytest.approx(rho, abs=1e-9)

    def test_deterministic(self, example1):
        a = estimate_H(example1, 1, 1.0, samples=100, seed=3)
        b = estimate_H(example1, 1, 1.0, samples=100, seed=3)
        assert a == b

    def test_bad_index(self, example1):
        with pytest.raises(ParameterError):
            estimate_H(example1, 3, 1.0)

    def test_negative_samples(self, example1):
        with pytest.raises(ParameterError):
            estimate_H(example1, 1, 1.0, samples=-3)


class TestFalsifyLinearGrowth:
    def test_example2_witness_consistent(self, example2):
        result = falsify_linear_growth(example2, example2.witness, budget=4096, seed=0)
        assert result.consistent
        assert result.counterexample is None
        assert result.points_checked >= 4096

    def test_exponential_violates_tau3(self, example1):
        result = falsify_linear_growth(example1, LinearGrowthWitness(3.0, 1.0, 1.0),
                                       budget=4096, seed=0)
        assert not result.consistent
        ce = result.counterexample
        assert ce.kind == "f-growth"
        t, u, v = ce.point
        # the violation is real: recompute f there
        assert eval_nonlinearity(example1.f, t, u, v) > 3.0 * u

    def test_zero_f_with_zero_tau(self):
        spec = tiny_spec(f="0")
        result = falsify_linear_growth(spec, LinearGrowthWitness(0.0, 1.0, 1.0),
                                       budget=512, seed=0)
        assert result.consistent

    def test_functional_bound_violation_detected(self, example2):
        # keep example2's f (which satisfies tau=3) but declare xi1 far too small
        spec = make_spec(FocalKernel(), "1", "t", "0", "1",
                         "U(1/4) + DU(3/4)^2", "U(3/4)", "u*(2 - t*sin(u*v))",
                         0.0, 0.0, 0.0, n=64)
        result = falsify_linear_growth(spec, LinearGrowthWitness(3.0, 0.1, 1.0),
                                       budget=2048, seed=0)
        assert not result.consistent
        assert result.counterexample.kind == "h1"

    def test_bad_budget(self, example2):
        with pytest.raises(ParameterError):
            falsify_linear_growth(example2, example2.witness, budget=0)

    def test_negative_witness(self):
        with pytest.raises(ParameterError):
            LinearGrowthWitness(-1.0, 0.0, 0.0)


class TestBoundSet:
    def test_declared_entries_are_certified(self, example1):
        b = example1.bounds
        fu = b.f_upper(1.0)
        assert fu.rigor == "certified" and fu.value == fu.raw
        assert fu.value == pytest.approx(E2, abs=1e-12)
        assert b.f_lower(0.05).value == 1.0
        assert b.h_upper(1, 1.0).value == 2.0
        assert b.h_upper(2, 1.0).value == 2.0

    def test_declared_upper_monotone_in_rho(self, example1):
        b = example1.bounds
        values = [b.f_upper(r).value for r in (0.25, 0.5, 1.0, 2.0)]
        assert values == sorted(values)

    def test_missing_without_sampler(self):
        with pytest.raises(IncompleteBoundsError):
            BoundSet().f_upper(1.0)
        with pytest.raises(IncompleteBoundsError):
            BoundSet(f_upper=parse("1", "bound")).h_upper(1, 1.0)

    def test_sampler_fallback_is_heuristic_and_inflated(self, example1):
        b = BoundSet().with_sampler(example1, m=16, samples=20, seed=0)
        fu = b.f_upper(1.0)
        fl = b.f_lower(1.0)
        h1 = b.h_upper(1, 1.0)
        assert fu.rigor == fl.rigor == h1.rigor == "heuristic"
        assert fu.value == pytest.approx(fu.raw * 1.05)
        assert fl.value == pytest.approx(fl.raw * 0.95)
        assert fu.value >= fl.value
        assert h1.raw == estimate_H(example1, 1, 1.0, samples=20, seed=0)

    def test_inflation_widens_negative_estimates(self):
        # f = u - 2 is negative on the whole box at rho = 1, and so is h1
        spec = tiny_spec(f="u - 2", h1="U(1) - 5")
        b = BoundSet().with_sampler(spec, m=8, samples=10, seed=0)
        fu, fl, h1 = b.f_upper(1.0), b.f_lower(1.0), b.h_upper(1, 1.0)
        assert fu.raw < 0 and fl.raw < 0 and h1.raw < 0
        assert fu.value > fu.raw and h1.value > h1.raw
        assert fl.value < fl.raw
        assert fu.value == pytest.approx(fu.raw + 0.05 * abs(fu.raw))
        assert fl.value == pytest.approx(fl.raw - 0.05 * abs(fl.raw))

    def test_sampled_once_per_slot_and_rho(self, example1, monkeypatch):
        calls = []

        def counting(spec, rho, m=64):
            calls.append(rho)
            return estimate_f_extrema(spec, rho, m)

        monkeypatch.setattr(hammcert.bounds, "estimate_f_extrema", counting)
        base = BoundSet(h1=parse("rho", "bound"), h2=parse("rho", "bound"))
        b = base.with_sampler(example1, m=8, samples=10, seed=0)
        assert b.f_upper(1.0) is b.f_upper(1.0)
        assert b.f_lower(0.5) is b.f_lower(0.5)
        assert calls == [1.0, 0.5]
        with pytest.raises(IncompleteBoundsError):
            base.f_upper(1.0)  # with_sampler leaves the original unsampled

    def test_mixed_declared_and_sampled(self, example1):
        b = BoundSet(f_upper=parse("exp(2*rho)", "bound")).with_sampler(example1, m=8, samples=10)
        assert b.f_upper(1.0).rigor == "certified"
        assert b.f_lower(0.05).rigor == "heuristic"

    def test_negative_declared_bound_rejected(self):
        b = BoundSet(f_upper=parse("1 - rho", "bound"))
        with pytest.raises(ParameterError):
            b.f_upper(2.0)
