import math
from fractions import Fraction

import numpy as np
import pytest

from formalflow import (
    BlowupError,
    CoefficientFamily,
    ExcessiveBlowupError,
    ShapeError,
    TimeGrid,
    bernoulli_closed_form,
    estimate_order,
    gbm_closed_form,
    identity,
    polynomial_oracle_compose,
    quadratic_chain_s2_closed_form,
    simulate_direct,
    solve_chain_batch,
    truncation_scaling,
)


class TestPolynomialOracle:
    def test_self_substitution(self):
        assert polynomial_oracle_compose([1, 1], [1, 1], 4) == [
            Fraction(1),
            Fraction(2),
            Fraction(2),
            Fraction(1),
        ]

    def test_linear_product(self):
        assert polynomial_oracle_compose([3], [5]) == [Fraction(15)]

    def test_cubic_into_quadratic(self):
        # b(a(y)) with a = y + y^3, b = y + y^2, truncated at degree 3
        assert polynomial_oracle_compose([1, 0, 1], [1, 1, 0], 3) == [
            Fraction(1),
            Fraction(1),
            Fraction(1),
        ]

    def test_rational_coefficients_stay_exact(self):
        got = polynomial_oracle_compose([Fraction(1, 3)], [Fraction(3, 7)], 1)
        assert got == [Fraction(1, 7)]


class TestClosedForms:
    def test_gbm_trivial_cases(self):
        assert gbm_closed_form(0.0, 0.0, 1.0, 0.0) == 1.0
        assert gbm_closed_form(2.0, 0.0, 1.5, 0.0) == pytest.approx(math.exp(3.0))

    def test_gbm_drift_correction(self):
        assert gbm_closed_form(1.0, 0.5, 1.0, 0.0) == pytest.approx(math.exp(0.875))

    def test_bernoulli_reduces_to_exponential(self):
        assert bernoulli_closed_form(1.0, 0.0, 1.0, 0.1) == pytest.approx(0.1 * math.e)

    def test_limits_at_zero_alpha(self):
        # y' = gamma*y^2 gives y0 / (1 - gamma*y0*t); S_2' = gamma gives gamma*t
        assert bernoulli_closed_form(0.0, 0.5, 2.0, 0.1) == 0.1 / (1.0 - 0.5 * 0.1 * 2.0)
        assert quadratic_chain_s2_closed_form(0.0, 0.5, 2.0) == 0.5 * 2.0

    def test_continuous_at_zero_alpha(self):
        for alpha in (1e-6, -1e-6, 1e-12):
            assert bernoulli_closed_form(alpha, 0.5, 1.0, 0.1) == pytest.approx(
                0.1 / (1.0 - 0.05), rel=2e-6
            )
            assert quadratic_chain_s2_closed_form(alpha, 0.5, 1.0) == pytest.approx(0.5, rel=2e-6)

    def test_bernoulli_blowup_before_t_is_infinite(self):
        # y0 = 1, gamma = 2 blows up at t = 0.5; the formula past it is finite nonsense
        assert bernoulli_closed_form(0.0, 2.0, 1.0, 1.0) == math.inf
        assert bernoulli_closed_form(0.0, 2.0, 0.5, 1.0) == math.inf
        assert bernoulli_closed_form(1.0, -2.0, 1.0, -1.0) == -math.inf


class TestEstimateOrder:
    def _quadratic_problem(self):
        alpha, gamma, y0 = 1.0, 0.5, 0.1
        co = CoefficientFamily.constant_scalar([alpha, gamma])

        def simulate(paths):
            return simulate_direct(co, np.full((paths.n_paths, 1), y0), paths)[-1]

        def exact(paths):
            return np.full((paths.n_paths, 1), bernoulli_closed_form(alpha, gamma, 1.0, y0))

        return simulate, exact

    def test_deterministic_quadratic_slope(self):
        simulate, exact = self._quadratic_problem()
        report = estimate_order(
            simulate,
            exact,
            t_end=1.0,
            noise_dim=1,
            dt_values=[2**-k for k in range(4, 10)],
            n_paths=1,
            seed=0,
        )
        assert abs(report.slope - 1.0) <= 0.1

    def test_zero_coefficients_give_zero_error(self):
        co = CoefficientFamily.constant_scalar([0.0])

        def simulate(paths):
            entries = solve_chain_batch(co, identity(1, 1), paths)[0]
            return entries[0].reshape(paths.n_paths, 1)

        def exact(paths):
            return np.ones((paths.n_paths, 1))

        report = estimate_order(
            simulate,
            exact,
            t_end=1.0,
            noise_dim=1,
            dt_values=[0.25, 0.125, 0.0625],
            n_paths=4,
            seed=0,
        )
        assert report.errors == (0.0, 0.0, 0.0)
        assert math.isnan(report.slope)

    def test_gbm_slope_smoke(self):
        alpha, beta = 1.0, 0.5
        co = CoefficientFamily.constant_scalar([alpha], [beta])

        def simulate(paths):
            entries = solve_chain_batch(co, identity(1, 1), paths)[0]
            return entries[0].reshape(paths.n_paths, 1)

        def exact(paths):
            w_t = paths.cumulative()[:, -1, 0]
            return np.array([[gbm_closed_form(alpha, beta, 1.0, float(w))] for w in w_t])

        report = estimate_order(
            simulate,
            exact,
            t_end=1.0,
            noise_dim=1,
            dt_values=[2**-k for k in range(3, 8)],
            n_paths=200,
            seed=7,
        )
        assert abs(report.slope - 0.5) <= 0.2

    def test_report_is_deterministic_in_seed(self):
        simulate, exact = self._quadratic_problem()
        kwargs = dict(
            t_end=1.0, noise_dim=1, dt_values=[0.25, 0.125, 0.0625], n_paths=3, seed=11
        )
        r1 = estimate_order(simulate, exact, **kwargs)
        r2 = estimate_order(simulate, exact, **kwargs)
        assert r1 == r2

    def test_excessive_exclusions_raise(self):
        def simulate(paths):
            return np.full((paths.n_paths, 1), np.nan)

        def exact(paths):
            return np.ones((paths.n_paths, 1))

        with pytest.raises(BlowupError):
            estimate_order(
                simulate,
                exact,
                t_end=1.0,
                noise_dim=1,
                dt_values=[0.5, 0.25, 0.125],
                n_paths=10,
                seed=0,
            )

    def test_exclusion_error_reports_counts(self):
        def simulate(paths):
            rows = np.ones((paths.n_paths, 1))
            rows[:7] = np.nan
            return rows

        with pytest.raises(ExcessiveBlowupError) as info:
            estimate_order(
                simulate,
                lambda paths: np.ones((paths.n_paths, 1)),
                t_end=1.0,
                noise_dim=1,
                dt_values=[0.5, 0.25, 0.125],
                n_paths=10,
                seed=0,
            )
        assert (info.value.n_excluded, info.value.n_paths) == (7, 10)
        assert str(info.value) == "7 of 10 paths blew up (limit 1%)"

    def test_constant_error_has_zero_sem(self):
        # a sum-of-squares variance cancels catastrophically here
        err = 123456789.123
        report = estimate_order(
            lambda paths: np.full((paths.n_paths, 1), err),
            lambda paths: np.zeros((paths.n_paths, 1)),
            t_end=1.0,
            noise_dim=1,
            dt_values=[0.5, 0.25, 0.125],
            n_paths=3,
            seed=0,
        )
        assert all(sem <= 1e-15 * err for sem in report.error_sems)

    def test_requires_three_step_sizes(self):
        with pytest.raises(ShapeError):
            estimate_order(
                lambda p: np.zeros(1),
                lambda p: np.zeros(1),
                t_end=1.0,
                noise_dim=1,
                dt_values=[0.5, 0.25],
                n_paths=1,
                seed=0,
            )

    def test_rejects_non_nested_steps(self):
        with pytest.raises(ShapeError):
            estimate_order(
                lambda p: np.zeros(1),
                lambda p: np.zeros(1),
                t_end=1.0,
                noise_dim=1,
                dt_values=[0.5, 0.3, 0.1],
                n_paths=1,
                seed=0,
            )


class TestTruncationScaling:
    def test_degree_one_only_has_machine_precision_gaps(self):
        co = CoefficientFamily.constant_scalar([1.0])
        report = truncation_scaling(co, TimeGrid(0.0, 1.0, 64), np.array([0.5]), 4)
        assert all(g <= 1e-12 for g in report.gaps)
        assert not any(report.reliable)

    def test_quadratic_drift_order_three_ratios(self):
        co = CoefficientFamily.constant_scalar([1.0, 0.5, 0.0])
        report = truncation_scaling(co, TimeGrid(0.0, 1.0, 128), np.array([0.1]), 5)
        assert report.expected_ratio == 16.0
        checked = [r for r, ok in zip(report.ratios, report.reliable) if ok]
        assert checked
        for r in checked:
            assert 8.0 <= r <= 32.0

    def test_order_one_flow_against_quadratic_drift_ratios_near_four(self):
        quad = CoefficientFamily.constant_scalar([1.0, 0.5])
        report = truncation_scaling(
            quad, TimeGrid(0.0, 1.0, 128), np.array([0.05]), 4, evaluation_order=1
        )
        # only S1 retained: remainder O(y0^2), expected ratio 4
        assert report.expected_ratio == 4.0
        checked = [r for r, ok in zip(report.ratios, report.reliable) if ok]
        assert checked
        for r in checked:
            assert 2.0 <= r <= 8.0

    def test_rejects_stochastic_coefficients(self):
        co = CoefficientFamily.constant_scalar([1.0], [0.5])
        with pytest.raises(ShapeError):
            truncation_scaling(co, TimeGrid(0.0, 1.0, 16), np.array([0.1]), 3)
