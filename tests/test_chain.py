import math

import numpy as np
import pytest

from formalflow import (
    BlowupError,
    BrownianPath,
    CoefficientFamily,
    DiffusionFamily,
    DiffusionMap,
    FormalMapping,
    MultilinearMap,
    ShapeError,
    TimeGrid,
    evaluate,
    evolution_check,
    forcing_terms,
    identity,
    one_step_map,
    sample_path,
    simulate_direct,
    solve_chain,
)
from conftest import mapping_equal, random_coefficients, random_mapping


class TestTimeGrid:
    def test_dt_and_knots(self):
        grid = TimeGrid(0.0, 1.0, 4)
        assert grid.dt == 0.25
        assert np.allclose(grid.knots(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_knot_index(self):
        grid = TimeGrid(0.0, 1.0, 4)
        assert grid.knot_index(0.5) == 2
        with pytest.raises(ShapeError):
            grid.knot_index(0.3)

    def test_rejects_bad_intervals(self):
        with pytest.raises(ShapeError):
            TimeGrid(1.0, 0.0, 4)
        with pytest.raises(ShapeError):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ShapeError):
            TimeGrid(0.0, 1.0, 4, dt=0.3)

    def test_sub_grids_take_the_parent_step(self):
        # rebuilt from their end points, a third of these sub-grids got a step an ulp off
        for n in range(3, 200):
            grid = TimeGrid(0.0, 1.0, n)
            path = BrownianPath.from_increments(grid, np.zeros((n, 1)))
            for i in range(1, n):
                assert path.restrict(0, i).grid.dt == grid.dt
                assert path.restrict(i, n).grid.dt == grid.dt
            for factor in range(2, n + 1):
                if n % factor == 0:
                    assert path.coarsen(factor).grid.dt == factor * grid.dt


class TestSamplePath:
    def test_bit_identical_regeneration(self):
        grid = TimeGrid(0.0, 1.0, 32)
        p1 = sample_path(grid, 2, seed=7, path_index=3)
        p2 = sample_path(grid, 2, seed=7, path_index=3)
        assert np.array_equal(p1.increments, p2.increments)

    def test_distinct_path_indices_differ(self):
        grid = TimeGrid(0.0, 1.0, 32)
        p1 = sample_path(grid, 2, seed=7, path_index=0)
        p2 = sample_path(grid, 2, seed=7, path_index=1)
        assert not np.array_equal(p1.increments, p2.increments)

    def test_prefix_restriction_property(self):
        # same step size, longer horizon: leading increments are identical
        fine = sample_path(TimeGrid(0.0, 2.0, 64), 3, seed=11)
        short = sample_path(TimeGrid(0.0, 1.0, 32), 3, seed=11)
        assert np.array_equal(fine.increments[:32], short.increments)

    def test_increment_moments(self):
        # pool 10^5 increments: mean within the CLT band, variance within 5%
        grid = TimeGrid(0.0, 1.0, 100)
        dt = grid.dt
        pool = np.concatenate(
            [sample_path(grid, 1, seed=5, path_index=p).increments for p in range(1000)]
        ).ravel()
        assert pool.size == 100_000
        assert abs(pool.mean()) < 4.0 * math.sqrt(dt / pool.size)
        assert abs(pool.var() - dt) < 0.05 * dt

    def test_cumulative_starts_at_zero(self):
        path = sample_path(TimeGrid(0.0, 1.0, 8), 2, seed=1)
        w = path.cumulative()
        assert np.array_equal(w[0], np.zeros(2))
        assert np.allclose(w[-1], path.increments.sum(axis=0))

    def test_coarsen_sums_increments(self):
        path = sample_path(TimeGrid(0.0, 1.0, 8), 1, seed=2)
        coarse = path.coarsen(4)
        assert coarse.grid.n_steps == 2
        assert np.allclose(coarse.increments[0], path.increments[:4].sum(axis=0))


class TestOneStepMap:
    def test_zero_step_is_identity(self, rng):
        co = random_coefficients(rng, 3, 2, 2)
        psi = one_step_map(co.drift_at(0.0), co.diffusion_at(0.0), 0.0, np.zeros(2))
        assert mapping_equal(psi, identity(3, 2))

    def test_scalar_linear_drift(self):
        co = CoefficientFamily.constant_scalar([2.0])
        psi = one_step_map(co.drift_at(0.0), co.diffusion_at(0.0), 0.25, np.zeros(1))
        assert psi.component(1).entries.ravel()[0] == 1.5

    def test_quadratic_update_matches_explicit_euler(self, rng):
        # compose(Psi, S) component 2 must equal S2 + dt*(alpha*S2 + gamma*S1^2)
        from formalflow import compose

        alpha, gamma, dt = 1.3, 0.7, 0.01
        co = CoefficientFamily.constant_scalar([alpha, gamma])
        s = random_mapping(rng, 2, 1, 1)
        psi = one_step_map(co.drift_at(0.0), co.diffusion_at(0.0), dt, np.zeros(1))
        s1, s2 = s.scalar_coeffs()
        expected = s2 + dt * (alpha * s2 + gamma * s1**2)
        got = compose(psi, s).scalar_coeffs()[1]
        assert got == pytest.approx(expected, rel=1e-14)


class TestSolveChain:
    def test_zero_coefficients_stay_identity(self):
        co = CoefficientFamily.constant_scalar([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        path = sample_path(TimeGrid(0.0, 1.0, 16), 1, seed=1)
        sol = solve_chain(co, identity(3, 1), path)
        for s in sol.states:
            assert mapping_equal(s, identity(3, 1))

    def test_gbm_state_is_ordered_factor_product(self):
        alpha, beta = 1.0, 0.5
        co = CoefficientFamily.constant_scalar([alpha], [beta])
        grid = TimeGrid(0.0, 1.0, 64)
        path = sample_path(grid, 1, seed=4)
        sol = solve_chain(co, identity(1, 1), path)
        prod = 1.0
        for i in range(grid.n_steps):
            prod = (1.0 + alpha * grid.dt + beta * path.increments[i, 0]) * prod
        assert sol.states[-1].component(1).entries.ravel()[0] == prod

    def test_deterministic_quadratic_s2_closed_form(self):
        from formalflow import quadratic_chain_s2_closed_form

        alpha, gamma = 1.0, 0.5
        co = CoefficientFamily.constant_scalar([alpha, gamma])
        grid = TimeGrid(0.0, 1.0, 512)
        path = BrownianPath.from_increments(grid, np.zeros((512, 1)))
        sol = solve_chain(co, identity(2, 1), path)
        got = sol.states[-1].component(2).entries.ravel()[0]
        assert got == pytest.approx(quadratic_chain_s2_closed_form(alpha, gamma, 1.0), rel=5e-3)

    def test_bitwise_determinism(self, rng):
        co = random_coefficients(rng, 3, 2, 2)
        path = sample_path(TimeGrid(0.0, 1.0, 32), 2, seed=9)
        s1 = solve_chain(co, identity(3, 2), path)
        s2 = solve_chain(co, identity(3, 2), path)
        for a, b in zip(s1.states, s2.states):
            assert mapping_equal(a, b)

    def test_triangularity_bitwise(self, rng):
        # higher-degree coefficients must not touch lower components
        order, dy, m = 4, 2, 2
        base = random_coefficients(rng, order, dy, m)
        grid = TimeGrid(0.0, 1.0, 16)
        path = sample_path(grid, m, seed=3)
        ref = solve_chain(base, identity(order, dy), path)
        for n in range(1, order):
            a_perturbed = tuple(
                c if c.degree <= n else MultilinearMap(c.degree, dy, dy, 10.0 + c.entries)
                for c in base.drift(0.0).components
            )
            b_perturbed = tuple(
                c
                if c.degree <= n
                else DiffusionMap(c.degree, dy, dy, m, 10.0 + c.entries)
                for c in base.diffusion(0.0).components
            )
            pert = CoefficientFamily.constant(
                FormalMapping(order, dy, dy, a_perturbed),
                DiffusionFamily(order, dy, m, b_perturbed),
            )
            got = solve_chain(pert, identity(order, dy), path)
            for s_ref, s_got in zip(ref.states, got.states):
                for k in range(1, n + 1):
                    assert np.array_equal(
                        s_got.component(k).entries, s_ref.component(k).entries
                    )

    def test_adaptedness_bitwise(self, rng):
        co = random_coefficients(rng, 3, 2, 2)
        grid = TimeGrid(0.0, 1.0, 16)
        path = sample_path(grid, 2, seed=8)
        ref = solve_chain(co, identity(3, 2), path)
        cut = 10
        tampered_increments = path.increments.copy()
        tampered_increments[cut:] += 3.0
        tampered = BrownianPath.from_increments(grid, tampered_increments, seed=8)
        got = solve_chain(co, identity(3, 2), tampered)
        for i in range(cut + 1):
            assert mapping_equal(got.states[i], ref.states[i])

    def test_zero_noise_ignores_increments_bitwise(self, rng):
        a = random_mapping(rng, 3, 2, 2)
        co = CoefficientFamily.constant(a, DiffusionFamily.zero(3, 2, 2))
        grid = TimeGrid(0.0, 1.0, 16)
        s1 = solve_chain(co, identity(3, 2), sample_path(grid, 2, seed=1))
        s2 = solve_chain(co, identity(3, 2), sample_path(grid, 2, seed=999))
        for a_state, b_state in zip(s1.states, s2.states):
            assert mapping_equal(a_state, b_state)

    def test_blowup_reports_step_and_component(self):
        co = CoefficientFamily.constant_scalar([1e160])
        grid = TimeGrid(0.0, 1.0, 4)
        path = BrownianPath.from_increments(grid, np.zeros((4, 1)))
        with pytest.raises(BlowupError) as exc:
            solve_chain(co, identity(1, 1), path)
        assert exc.value.component == 1
        assert 0 <= exc.value.step < 4

    def test_initial_condition_shape_checked(self, rng):
        co = random_coefficients(rng, 3, 2, 2)
        path = sample_path(TimeGrid(0.0, 1.0, 4), 2, seed=0)
        with pytest.raises(ShapeError):
            solve_chain(co, identity(2, 2), path)


class TestSimulateDirect:
    def test_zero_initial_condition_stays_zero(self, rng):
        co = random_coefficients(rng, 3, 2, 2)
        path = sample_path(TimeGrid(0.0, 1.0, 16), 2, seed=6)
        traj = simulate_direct(co, np.zeros(2), path)
        assert np.array_equal(traj, np.zeros_like(traj))

    def test_degree_one_matches_chain_flow(self, rng):
        # with only linear coefficients both recursions coincide
        a = FormalMapping(1, 2, 2, (MultilinearMap(1, 2, 2, 0.3 * rng.standard_normal((2, 2))),))
        b = DiffusionFamily(
            1, 2, 2, (DiffusionMap(1, 2, 2, 2, 0.3 * rng.standard_normal((2, 2, 2))),)
        )
        co = CoefficientFamily.constant(a, b)
        path = sample_path(TimeGrid(0.0, 1.0, 32), 2, seed=5)
        sol = solve_chain(co, identity(1, 2), path)
        y0 = rng.standard_normal(2)
        traj = simulate_direct(co, y0, path)
        for i, s in enumerate(sol.states):
            assert np.allclose(traj[i], evaluate(s, y0), rtol=1e-12, atol=1e-14)

    def test_bernoulli_convergence_order_one(self):
        from formalflow import bernoulli_closed_form

        alpha, gamma, y0 = 1.0, 0.5, 0.1
        co = CoefficientFamily.constant_scalar([alpha, gamma])
        target = bernoulli_closed_form(alpha, gamma, 1.0, y0)
        errs = []
        for n_steps in (64, 128, 256):
            grid = TimeGrid(0.0, 1.0, n_steps)
            path = BrownianPath.from_increments(grid, np.zeros((n_steps, 1)))
            got = simulate_direct(co, np.array([y0]), path)[-1, 0]
            errs.append(abs(got - target))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.15)

    def test_blowup_reports_step(self):
        co = CoefficientFamily.constant_scalar([0.0, 1e200])
        grid = TimeGrid(0.0, 1.0, 4)
        path = BrownianPath.from_increments(grid, np.zeros((4, 1)))
        with pytest.raises(BlowupError) as exc:
            simulate_direct(co, np.array([1.0]), path)
        assert 0 <= exc.value.step < 4


class TestEvolutionCheck:
    def test_zero_coefficients_exact(self):
        co = CoefficientFamily.constant_scalar([0.0, 0.0], [0.0, 0.0])
        grid = TimeGrid(0.0, 1.0, 8)
        path = sample_path(grid, 1, seed=0)
        rep = evolution_check(co, grid, path, 0.5)
        assert rep.max_discrepancy == 0.0

    def test_degree_one_scalar(self):
        co = CoefficientFamily.constant_scalar([1.0], [0.5])
        grid = TimeGrid(0.0, 1.0, 64)
        path = sample_path(grid, 1, seed=2)
        rep = evolution_check(co, grid, path, 0.5)
        assert rep.max_discrepancy <= 1e-12

    def test_random_instance(self, rng):
        co = random_coefficients(rng, 4, 3, 2)
        grid = TimeGrid(0.0, 1.0, 128)
        path = sample_path(grid, 2, seed=13)
        rep = evolution_check(co, grid, path, 0.25)
        assert rep.max_discrepancy <= 1e-10

    def test_split_knot_must_be_a_knot(self, rng):
        co = random_coefficients(rng, 2, 2, 2)
        grid = TimeGrid(0.0, 1.0, 8)
        path = sample_path(grid, 2, seed=0)
        with pytest.raises(ShapeError):
            evolution_check(co, grid, path, 0.3)
        with pytest.raises(ShapeError):
            evolution_check(co, grid, path, 0.0)


class TestForcingTerms:
    def test_degree_two_formula(self, rng):
        co = random_coefficients(rng, 3, 2, 2)
        s = random_mapping(rng, 3, 2, 2)
        f2, g2 = forcing_terms(2, s, co.drift_at(0.0), co.diffusion_at(0.0))
        from formalflow import apply_to_tuple

        a2 = co.drift_at(0.0).component(2)
        expected_f = apply_to_tuple(a2, [s.component(1), s.component(1)]).entries
        assert np.allclose(f2.entries, expected_f)
        b2 = co.diffusion_at(0.0).component(2)
        expected_g = b2.apply_to_tuple([s.component(1), s.component(1)]).entries
        assert np.allclose(g2.entries, expected_g)

    def test_zero_higher_coefficients_give_zero_forcing(self, rng):
        co = CoefficientFamily.constant_scalar([1.0, 0.0, 0.0], [0.5, 0.0, 0.0])
        s = random_mapping(rng, 3, 1, 1)
        for n in (2, 3):
            f, g = forcing_terms(n, s, co.drift_at(0.0), co.diffusion_at(0.0))
            assert f.is_zero and g.is_zero

    def test_scalar_quadratic_forcing_closed_form(self):
        # with S1 = e^{alpha t}, f2(t) = gamma * e^{2 alpha t}
        alpha, gamma, t = 0.8, 0.4, 0.6
        co = CoefficientFamily.constant_scalar([alpha, gamma])
        s1 = math.exp(alpha * t)
        states = FormalMapping.from_scalar_coeffs([s1, 0.0])
        f2, g2 = forcing_terms(2, states, co.drift_at(t), co.diffusion_at(t))
        assert f2.entries.ravel()[0] == pytest.approx(gamma * math.exp(2 * alpha * t), rel=1e-14)
        assert g2.is_zero

    def test_requires_degree_at_least_two(self, rng):
        co = random_coefficients(rng, 2, 2, 2)
        s = random_mapping(rng, 2, 2, 2)
        with pytest.raises(ShapeError):
            forcing_terms(1, s, co.drift_at(0.0), co.diffusion_at(0.0))
