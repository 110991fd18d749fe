import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from hammcert.bounds import BoundSet
from hammcert.certificate import check_existence, check_nonexistence
from hammcert.errors import ParameterError
from hammcert.expr import parse
from hammcert.problem import loads_problem
from hammcert.sweep import axis_values, run_sweep

from problem_texts import edited


class TestAxisValues:
    def test_single_step(self):
        np.testing.assert_array_equal(axis_values(0.3, 0.9, 1), [0.3])

    def test_inclusive_endpoints(self):
        vals = axis_values(0.0, 1.0, 5)
        assert vals[0] == 0.0 and vals[-1] == 1.0 and len(vals) == 5

    def test_bad_arguments(self):
        with pytest.raises(ParameterError):
            axis_values(0.0, 1.0, 0)
        with pytest.raises(ParameterError):
            axis_values(-0.1, 1.0, 3)
        for start, stop in ((0.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(ParameterError, match="finite"):
                axis_values(start, stop, 3)


class TestClassification:
    def test_example1_feasible_cell_is_existence(self, example1):
        table = run_sweep(BoundSet(example1), [1 / 10], [1 / 11], [1 / 12], r=1 / 20, R=1.0)
        assert len(table) == 1
        assert table["classification"][0] == "existence"
        assert table["rigor"][0] == "certified"

    def test_example2_feasible_cell_is_nonexistence(self, example2):
        table = run_sweep(BoundSet(example2), [1 / 3], [1 / 4], [1 / 5],
                          r=1 / 20, R=1.0, witness=example2.witness)
        assert table["classification"][0] == "nonexistence"
        assert table["nonexistence_lhs"][0] == pytest.approx(0.95, abs=1e-12)

    def test_origin_is_nonexistence(self, example2):
        table = run_sweep(BoundSet(example2), [0.0], [0.0], [0.0],
                          r=1 / 20, R=1.0, witness=example2.witness)
        assert table["classification"][0] == "nonexistence"
        assert table["idx0"][0] == 0.0  # existence cannot hold at lambda = 0

    def test_example2_region_matches_inequality(self, example2):
        ax = axis_values(0.0, 1.0, 6)
        table = run_sweep(BoundSet(example2), ax, ax, ax, r=1 / 20, R=1.0, witness=example2.witness)
        assert len(table) == 216
        assert "conflict" not in table["classification"]
        expected = (3 / 2) * table["lambda"] + table["eta1"] + table["eta2"] < 1
        np.testing.assert_array_equal(table["classification"] == "nonexistence", expected)

    def test_without_witness_no_nonexistence(self, example2):
        table = run_sweep(BoundSet(example2), [1 / 3], [1 / 4], [1 / 5], r=1 / 20, R=1.0)
        assert table["classification"][0] == "both-fail"
        assert table["nonexistence_lhs"][0] is None

    def test_monotone_along_lambda_ray(self, example1):
        ax = axis_values(0.0, 1.0, 21)
        table = run_sweep(BoundSet(example1), ax, [1 / 11], [1 / 12], r=1 / 20, R=1.0)
        branches = np.maximum(table["value_branch"], table["deriv_branch"]).tolist()
        assert branches == sorted(branches)
        exceeded = False
        for b in branches:
            if b > 1.0:
                exceeded = True
            if exceeded:
                assert b > 1.0  # once past R, never back below

    def test_overflowing_cells_fail_without_a_warning(self, example1, example2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # eta1*gamma1(1)*H1(100) = 1e306 * 10100 and lambda*tau*K = 1e308 * 3 / 2
            upper = run_sweep(BoundSet(example1), [0.1], [0.0, 1e306], [0.0], r=0.05, R=100.0)
            growth = run_sweep(BoundSet(example2), [1e308], [0.0], [0.0], r=0.05, R=1.0,
                               witness=example2.witness)
        assert upper["classification"].tolist() == ["both-fail"] * 2
        assert upper["value_branch"][1] == np.inf
        assert (growth["classification"][0], growth["nonexistence_lhs"][0]) == ("both-fail", np.inf)

    def test_lexicographic_order(self, example1):
        table = run_sweep(BoundSet(example1), [0.0, 0.1], [0.0, 0.1], [0.0], r=1 / 20, R=1.0)
        points = list(zip(*(table[name].tolist() for name in ("lambda", "eta1", "eta2"))))
        assert len(points) == 4 and points == sorted(points)


class TestScalarReference:
    """Every cell is exactly what the scalar certificates give at its point."""

    @staticmethod
    def _assert_cells_match(spec, ax, bounds, witness):
        r, R = 1 / 20, 1.0
        table = run_sweep(bounds, ax, ax, ax, r=r, R=R, witness=witness)
        assert table.dtype.names == ("lambda", "eta1", "eta2", "classification", "value_branch",
                                     "deriv_branch", "idx0", "nonexistence_lhs", "rigor")
        points = [(float(a), float(b), float(c)) for a, b, c in product(ax, ax, ax)]
        assert len(table) == len(points)
        columns = [table[name].tolist() for name in table.dtype.names]
        for i, (lam, eta1, eta2) in enumerate(points):
            local = replace(spec, lam=lam, eta1=eta1, eta2=eta2)
            ec = check_existence(local, bounds, r, R)
            nc = None if witness is None else check_nonexistence(local, witness)
            exists, nonexists = ec.passed, nc is not None and nc.passed
            classification = {(True, True): "conflict", (True, False): "existence",
                              (False, True): "nonexistence",
                              (False, False): "both-fail"}[(exists, nonexists)]
            # the rigor of the certificate that classified the cell
            rigor = nc.rigor if classification == "nonexistence" else ec.rigor
            expected = (lam, eta1, eta2, classification, ec.lhs_value_branch,
                        ec.lhs_deriv_branch, ec.lhs_idx0, None if nc is None else nc.lhs, rigor)
            row = tuple(column[i] for column in columns)
            assert row == expected
            assert repr(row) == repr(expected)  # same types and signed zeros too
        return table

    def test_cells_equal_scalar_certificates(self, example1, example2, quadrature_spec):
        table = self._assert_cells_match(example2, axis_values(0.0, 1.0, 20),
                                         BoundSet(example2), example2.witness)
        assert set(table["classification"].tolist()) == {"nonexistence", "both-fail"}
        # each scalar certificate samples its bounds again, so fewer cells
        sampled = BoundSet(replace(example1, bounds={}))
        table = self._assert_cells_match(example1, axis_values(0.0, 1.0, 4), sampled, None)
        assert set(table["rigor"].tolist()) == {"heuristic"}
        # declared bounds, but K and K* come from quadrature
        table = self._assert_cells_match(quadrature_spec, axis_values(0.0, 1.0, 4),
                                         BoundSet(quadrature_spec), None)
        assert set(table["rigor"].tolist()) == {"heuristic"}

    def test_witness_only_copy_certifies_its_nonexistence_cells(self, example2):
        # every bound sampled, the witness declared: a non-existence cell is
        # as certified as certify-nonexistence at its point
        sampled = BoundSet(replace(example2, bounds={}))
        table = self._assert_cells_match(example2, axis_values(0.0, 1.0, 4), sampled,
                                         example2.witness)
        assert set(zip(table["classification"].tolist(), table["rigor"].tolist())) \
            == {("nonexistence", "certified"), ("both-fail", "heuristic")}

    def test_failed_load_check_caps_every_cell(self, example2_path):
        text = open(example2_path, encoding="utf-8").read()
        spec = loads_problem(edited(text, ("gamma2 = t\n", "gamma2 = t - 1/2\n")))
        assert [row.name for row in spec.warnings] == ["gamma2 >= 0"]
        table = self._assert_cells_match(spec, axis_values(0.0, 1.0, 4), BoundSet(spec),
                                         spec.witness)
        assert set(table["classification"].tolist()) == {"nonexistence", "both-fail"}
        assert set(table["rigor"].tolist()) == {"heuristic"}


class TestConflictAlarm:
    def test_inconsistent_declarations_flagged(self, example2):
        # an (incorrect) declared f_lower makes both certificates pass at once
        bad = BoundSet(replace(example2, bounds={
            "f_upper": parse("3*rho", "bound"), "f_lower": parse("3", "bound"),
            "h1": parse("rho", "bound"), "h2": parse("rho", "bound")}))
        table = run_sweep(bad, [0.2], [0.0], [0.0], r=1 / 20, R=1.0, witness=example2.witness)
        assert table["classification"].tolist() == ["conflict"]
