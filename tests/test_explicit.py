import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalflow import (
    BrownianPath,
    CoefficientFamily,
    DiffusionFamily,
    DiffusionMap,
    FormalMapping,
    MultilinearMap,
    ShapeError,
    TimeGrid,
    UnsupportedCaseError,
    forcing_terms,
    fundamental,
    identity,
    sample_path,
    solve_chain,
    variation_of_constants,
)
from formalflow.explicit import _loads
from conftest import random_coefficients, random_diffusion, random_mapping


def deterministic_path(grid, m=1):
    return BrownianPath.from_increments(grid, np.zeros((grid.n_steps, m)))


class TestFundamental:
    def test_zero_coefficients_give_identity(self):
        co = CoefficientFamily.constant_scalar([0.0], [0.0])
        grid = TimeGrid(0.0, 1.0, 8)
        fund = fundamental(co, deterministic_path(grid))
        for i in range(9):
            for j in range(i + 1):
                assert np.array_equal(fund.matrix(i, j), np.eye(1))

    def test_scalar_exponential_limit(self):
        alpha = 0.9
        co = CoefficientFamily.constant_scalar([alpha])
        grid = TimeGrid(0.0, 1.0, 1024)
        fund = fundamental(co, deterministic_path(grid))
        got = fund.matrix(1024, 256)[0, 0]
        assert got == pytest.approx(math.exp(alpha * 0.75), rel=2e-3)

    def test_same_ordered_product_is_bitwise_stable(self, rng):
        co = random_coefficients(rng, 2, 3, 2)
        grid = TimeGrid(0.0, 1.0, 32)
        path = sample_path(grid, 2, seed=17)
        fund = fundamental(co, path)
        assert np.array_equal(fund.matrix(30, 5), fund.matrix(30, 5))

    def test_evolution_identity_at_tolerance(self, rng):
        co = random_coefficients(rng, 2, 3, 2)
        grid = TimeGrid(0.0, 1.0, 64)
        path = sample_path(grid, 2, seed=21)
        fund = fundamental(co, path)
        lhs = fund.matrix(60, 20) @ fund.matrix(20, 5)
        rhs = fund.matrix(60, 5)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


class TestVariationOfConstants:
    def test_zero_forcing_gives_zero(self):
        co = CoefficientFamily.constant_scalar([1.0, 0.0, 0.0])
        grid = TimeGrid(0.0, 1.0, 16)
        path = deterministic_path(grid)
        sol = solve_chain(co, identity(3, 1), path)
        for n in (2, 3):
            traj = variation_of_constants(n, co, sol.states, path)
            assert all(t.is_zero for t in traj)

    def test_pure_noise_forcing_is_brownian_sum(self):
        beta2 = 0.25
        co = CoefficientFamily.constant_scalar([0.0, 0.0], [0.0, beta2])
        grid = TimeGrid(0.0, 1.0, 128)
        path = sample_path(grid, 1, seed=33)
        sol = solve_chain(co, identity(2, 1), path)
        traj = variation_of_constants(2, co, sol.states, path)
        # chain and quadrature accumulate the same loads in the same order
        for v, s in zip(traj, sol.states):
            assert np.array_equal(v.entries, s.component(2).entries)
        got = traj[-1].entries.ravel()[0]
        assert got == pytest.approx(beta2 * path.increments.sum(), rel=1e-13)

    def test_scalar_quadratic_matches_chain(self):
        co = CoefficientFamily.constant_scalar([1.0, 0.5])
        grid = TimeGrid(0.0, 1.0, 256)
        path = deterministic_path(grid)
        sol = solve_chain(co, identity(2, 1), path)
        traj = variation_of_constants(2, co, sol.states, path)
        for v, s in zip(traj, sol.states):
            ref = np.linalg.norm(s.component(2).entries)
            assert np.linalg.norm(v.entries - s.component(2).entries) <= 1e-9 * max(1.0, ref)

    def test_scalar_quadratic_converges_to_closed_form(self):
        from formalflow import quadratic_chain_s2_closed_form

        alpha, gamma = 1.0, 0.5
        co = CoefficientFamily.constant_scalar([alpha, gamma])
        target = quadratic_chain_s2_closed_form(alpha, gamma, 1.0)
        errs = []
        for n_steps in (128, 256, 512):
            grid = TimeGrid(0.0, 1.0, n_steps)
            path = deterministic_path(grid)
            sol = solve_chain(co, identity(2, 1), path)
            traj = variation_of_constants(2, co, sol.states, path)
            errs.append(abs(traj[-1].entries.ravel()[0] - target))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.15)

    def test_multidimensional_chain_equivalence(self, rng):
        # random drift of order 3, diffusion only in degrees >= 2
        from formalflow import DiffusionFamily, DiffusionMap

        dy, m, order = 2, 2, 3
        from conftest import random_mapping

        a = random_mapping(rng, order, dy, dy, magnitude=0.4)
        b_comps = [DiffusionMap.zero(1, dy, dy, m)]
        for k in (2, 3):
            b_comps.append(
                DiffusionMap(k, dy, dy, m, 0.4 * rng.standard_normal((dy,) + (dy,) * k + (m,)))
            )
        co = CoefficientFamily.constant(a, DiffusionFamily(order, dy, m, tuple(b_comps)))
        grid = TimeGrid(0.0, 1.0, 64)
        path = sample_path(grid, m, seed=12)
        sol = solve_chain(co, identity(order, dy), path)
        for n in (2, 3):
            traj = variation_of_constants(n, co, sol.states, path)
            for v, s in zip(traj, sol.states):
                ref = np.linalg.norm(s.component(n).entries)
                assert np.linalg.norm(v.entries - s.component(n).entries) <= 1e-9 * max(1.0, ref)

    def test_rejects_degree_one_noise(self, rng):
        co = CoefficientFamily.constant_scalar([1.0, 0.5], [0.5, 0.0])
        grid = TimeGrid(0.0, 1.0, 16)
        path = sample_path(grid, 1, seed=0)
        sol = solve_chain(co, identity(2, 1), path)
        with pytest.raises(UnsupportedCaseError):
            variation_of_constants(2, co, sol.states, path)

    def test_rejects_degree_below_two(self):
        co = CoefficientFamily.constant_scalar([1.0, 0.5])
        grid = TimeGrid(0.0, 1.0, 16)
        path = deterministic_path(grid)
        sol = solve_chain(co, identity(2, 1), path)
        with pytest.raises(ShapeError):
            variation_of_constants(1, co, sol.states, path)


def time_dependent_coefficients(rng, order, d, m, drift_on, diffusion_on, flat):
    """a(t) = a0 + cos(3t)*a1 and b(t) = b0 + sin(2t)*b1, with b_1 = 0.

    Degree k of a is zero before t = drift_on[k-1], of b before
    diffusion_on[k-1] (never, for a time past the horizon); a_1 is zero
    throughout when flat, so that every fundamental factor is I.
    """
    a0, a1 = random_mapping(rng, order, d, d, 0.3), random_mapping(rng, order, d, d, 0.3)
    b0, b1 = random_diffusion(rng, order, d, m, 0.3), random_diffusion(rng, order, d, m, 0.3)

    if flat:
        drift_on = [math.inf] + drift_on[1:]

    def drift(t):
        wave = math.cos(3 * t)
        comps = tuple(
            MultilinearMap(k, d, d, (c0.entries + wave * c1.entries) * (t >= on))
            for k, (c0, c1, on) in enumerate(zip(a0.components, a1.components, drift_on), start=1)
        )
        return FormalMapping(order, d, d, comps)

    def diffusion(t):
        wave = math.sin(2 * t)
        comps = tuple(
            DiffusionMap(k, d, d, m, (c0.entries + wave * c1.entries) * (k > 1 and t >= on))
            for k, (c0, c1, on) in enumerate(zip(b0.components, b1.components, diffusion_on), start=1)
        )
        return DiffusionFamily(order, d, m, comps)

    return CoefficientFamily(order, d, m, drift, diffusion)


def loop_quadrature(n, co, states, path):
    """The quadrature as an O(N^2) loop, step by step: loads from forcing_terms,
    and Phi(t_i, t_{j+1}) accumulated backward from j = i-1 as p @ F_j.

    Returns the trajectory, the loads and, at each knot, the sum of the
    norms of its terms.
    """
    grid, d = path.grid, co.dy
    loads = []
    for j in range(grid.n_steps):
        t_j = grid.t_start + j * grid.dt
        f_n, g_n = forcing_terms(n, states[j], co.drift_at(t_j), co.diffusion_at(t_j))
        q = grid.dt * f_n.entries
        if not g_n.is_zero:
            q = q + g_n.contract_noise(path.increments[j]).entries
        loads.append(q)
    factors = fundamental(co, path).factors
    trajectory, scales = [np.zeros_like(loads[0])], [0.0]
    for i in range(1, grid.n_steps + 1):
        terms = []
        p = np.eye(d)
        for j in range(i - 1, -1, -1):
            terms.append((p @ loads[j].reshape(d, -1)).reshape(loads[j].shape))
            p = p @ factors[j]
        acc = np.zeros_like(loads[0])
        for t in reversed(terms):
            acc += t
        trajectory.append(acc)
        scales.append(sum(float(np.linalg.norm(t)) for t in terms))
    return trajectory, loads, scales


switch_times = st.lists(st.sampled_from([0.0, 0.0, 0.3, 0.7, 2.0]), min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(2, 4),
    d=st.integers(1, 3),
    m=st.integers(1, 2),
    n_steps=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    drift_on=switch_times,
    diffusion_on=switch_times,
    flat=st.booleans(),
)
def test_quadrature_matches_the_step_by_step_loop(
    order, d, m, n_steps, seed, drift_on, diffusion_on, flat
):
    rng = np.random.default_rng(seed)
    co = time_dependent_coefficients(rng, order, d, m, drift_on, diffusion_on, flat)
    grid = TimeGrid(0.0, 1.0, n_steps)
    path = sample_path(grid, m, seed)
    sol = solve_chain(co, identity(order, d), path)
    for n in range(2, order + 1):
        traj = variation_of_constants(n, co, sol.states, path)
        ref, loads, scales = loop_quadrature(n, co, sol.states, path)
        # one batched composition gives every step's load, bit for bit
        batched = _loads(n, co, sol.states, path)
        for j, q in enumerate(loads):
            assert batched[j].shape == q.shape and batched[j].tobytes() == q.tobytes()
        # Phi is F_{i-1} @ (F_{i-2} @ ...) here but (... @ F_{i-2}) @ F_{i-1} in
        # the loop: the products associate in a different order, so the
        # trajectories agree to rounding, relative to the size of the terms
        for v, r, scale in zip(traj, ref, scales):
            assert np.linalg.norm(v.entries - r) <= 1e-13 * scale
        if flat:
            # with every factor I, each knot is the running sum of the loads
            running = np.cumsum(loads, axis=0)
            for i in range(1, n_steps + 1):
                assert np.array_equal(traj[i].entries, running[i - 1])
            if n == 2:
                # one forcing term, so the chain adds the same load in the same order
                for v, s in zip(traj, sol.states):
                    assert np.array_equal(v.entries, s.component(2).entries)
