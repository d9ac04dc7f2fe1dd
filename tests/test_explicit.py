import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalflow import (
    BrownianPath,
    CoefficientFamily,
    DiffusionFamily,
    DiffusionMap,
    FormalMapping,
    MultilinearMap,
    NonFiniteError,
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
from formalflow.algebra import _contract
from formalflow.explicit import _loads
from conftest import random_coefficients, random_diffusion, random_mapping


def deterministic_path(grid, m=1):
    return BrownianPath.from_increments(grid, np.zeros((grid.n_steps, m)))


def propagator(factors, i, j):
    """Phi(t_i, t_j): the ordered product of factors j..i-1, left-accumulated."""
    p = np.eye(factors[0].shape[0])
    for f in factors[j:i]:
        p = f @ p
    return p


class TestFundamental:
    def test_zero_coefficients_give_identity(self):
        co = CoefficientFamily.constant_scalar([0.0], [0.0])
        grid = TimeGrid(0.0, 1.0, 8)
        factors = fundamental(co, deterministic_path(grid)).factors
        for i in range(9):
            for j in range(i + 1):
                assert np.array_equal(propagator(factors, i, j), np.eye(1))

    def test_scalar_exponential_limit(self):
        alpha = 0.9
        co = CoefficientFamily.constant_scalar([alpha])
        grid = TimeGrid(0.0, 1.0, 1024)
        factors = fundamental(co, deterministic_path(grid)).factors
        got = propagator(factors, 1024, 256)[0, 0]
        assert got == pytest.approx(math.exp(alpha * 0.75), rel=2e-3)

    def test_same_ordered_product_is_bitwise_stable(self, rng):
        co = random_coefficients(rng, 2, 3, 2)
        grid = TimeGrid(0.0, 1.0, 32)
        path = sample_path(grid, 2, seed=17)
        # two fundamental solutions of the same path, multiplied in the same order
        first, second = (fundamental(co, path).factors for _ in range(2))
        assert np.array_equal(propagator(first, 30, 5), propagator(second, 30, 5))

    def test_path_noise_dim_must_match(self):
        # with b_1 nonzero this used to fail inside numpy's matmul
        co = CoefficientFamily.constant_scalar([0.5, 0.3], [0.4, 0.2])
        path = sample_path(TimeGrid(0.0, 1.0, 8), 2, seed=0)
        with pytest.raises(ShapeError, match="path noise_dim 2 != coefficients 1"):
            fundamental(co, path)

    def test_evolution_identity_at_tolerance(self, rng):
        co = random_coefficients(rng, 2, 3, 2)
        grid = TimeGrid(0.0, 1.0, 64)
        path = sample_path(grid, 2, seed=21)
        factors = fundamental(co, path).factors
        lhs = propagator(factors, 60, 20) @ propagator(factors, 20, 5)
        rhs = propagator(factors, 60, 5)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


class TestVariationOfConstants:
    def test_zero_forcing_gives_zero(self):
        co = CoefficientFamily.constant_scalar([1.0, 0.0, 0.0])
        grid = TimeGrid(0.0, 1.0, 16)
        path = deterministic_path(grid)
        sol = solve_chain(co, identity(3, 1), path)
        for traj in variation_of_constants([2, 3], co, sol, path):
            assert not traj.any()

    def test_pure_noise_forcing_is_brownian_sum(self):
        beta2 = 0.25
        co = CoefficientFamily.constant_scalar([0.0, 0.0], [0.0, beta2])
        grid = TimeGrid(0.0, 1.0, 128)
        path = sample_path(grid, 1, seed=33)
        sol = solve_chain(co, identity(2, 1), path)
        (traj,) = variation_of_constants([2], co, sol, path)
        # chain and quadrature accumulate the same loads in the same order
        for v, s in zip(traj, sol.states):
            assert np.array_equal(v, s.component(2).entries)
        got = traj[-1].ravel()[0]
        assert got == pytest.approx(beta2 * path.increments.sum(), rel=1e-13)

    def test_scalar_quadratic_matches_chain(self):
        co = CoefficientFamily.constant_scalar([1.0, 0.5])
        grid = TimeGrid(0.0, 1.0, 256)
        path = deterministic_path(grid)
        sol = solve_chain(co, identity(2, 1), path)
        (traj,) = variation_of_constants([2], co, sol, path)
        for v, s in zip(traj, sol.states):
            ref = np.linalg.norm(s.component(2).entries)
            assert np.linalg.norm(v - s.component(2).entries) <= 1e-9 * max(1.0, ref)

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
            (traj,) = variation_of_constants([2], co, sol, path)
            errs.append(abs(traj[-1].ravel()[0] - target))
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
        for n, traj in zip((2, 3), variation_of_constants([2, 3], co, sol, path)):
            for v, s in zip(traj, sol.states):
                ref = np.linalg.norm(s.component(n).entries)
                assert np.linalg.norm(v - s.component(n).entries) <= 1e-9 * max(1.0, ref)

    def test_rejects_degree_one_noise(self, rng):
        co = CoefficientFamily.constant_scalar([1.0, 0.5], [0.5, 0.0])
        grid = TimeGrid(0.0, 1.0, 16)
        path = sample_path(grid, 1, seed=0)
        sol = solve_chain(co, identity(2, 1), path)
        with pytest.raises(UnsupportedCaseError):
            variation_of_constants([2], co, sol, path)

    def test_path_noise_dim_must_match(self):
        # with b_2 nonzero this used to fail inside numpy's reshape
        co = CoefficientFamily.constant_scalar([0.5, 0.3], [0.0, 0.2])
        grid = TimeGrid(0.0, 1.0, 8)
        sol = solve_chain(co, identity(2, 1), sample_path(grid, 1, seed=0))
        with pytest.raises(ShapeError, match="path noise_dim 2 != coefficients 1"):
            variation_of_constants([2], co, sol, sample_path(grid, 2, seed=0))

    def test_non_finite_trajectory_raises(self):
        co = CoefficientFamily.constant_scalar([0.0, 1.0])
        grid = TimeGrid(0.0, 1.0, 4)
        path = deterministic_path(grid)
        sol = solve_chain(co, identity(2, 1), path)
        # degree-1 states of 1e160 make the load a_2(S_1, S_1)*dt overflow
        huge = dataclasses.replace(sol, entries=(np.full_like(sol.entries[0], 1e160), sol.entries[1]))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError) as exc:
            variation_of_constants([2], co, huge, path)
        assert exc.value.degree == 2

    def test_rejects_degree_below_two(self):
        co = CoefficientFamily.constant_scalar([1.0, 0.5])
        grid = TimeGrid(0.0, 1.0, 16)
        path = deterministic_path(grid)
        sol = solve_chain(co, identity(2, 1), path)
        with pytest.raises(ShapeError):
            variation_of_constants([1], co, sol, path)

    def test_rejects_a_duplicate_degree(self):
        co = CoefficientFamily.constant_scalar([1.0, 0.5, 0.2])
        path = deterministic_path(TimeGrid(0.0, 1.0, 8))
        sol = solve_chain(co, identity(3, 1), path)
        with pytest.raises(ShapeError, match="duplicate degree 2 in 'degrees'"):
            variation_of_constants([2, 3, 2], co, sol, path)

    @pytest.mark.parametrize(
        "scale, degrees, raised",
        [(1e160, [2, 3], 2), (1e160, [3, 2], 3), (1e120, [2, 3], 3)],
    )
    def test_non_finite_names_the_first_listed_degree(self, scale, degrees, raised):
        co = CoefficientFamily.constant_scalar([0.0, 1.0, 1.0])
        path = deterministic_path(TimeGrid(0.0, 1.0, 4))
        sol = solve_chain(co, identity(3, 1), path)
        # degree-1 states of 1e160 overflow degrees 2 and 3; of 1e120, degree 3 only
        huge = dataclasses.replace(sol, entries=(np.full_like(sol.entries[0], scale),) + sol.entries[1:])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError) as exc:
            variation_of_constants(degrees, co, huge, path)
        assert exc.value.degree == raised

    # each of these solutions made the formula miss the chain by a relative 0.58-1.18
    def test_rejects_a_solution_of_another_grid(self):
        co = CoefficientFamily.constant_scalar([1.0, 0.5], [0.0, 0.25])
        sol = solve_chain(co, identity(2, 1), sample_path(TimeGrid(0.0, 2.0, 16), 1, seed=4))
        path = sample_path(TimeGrid(0.0, 1.0, 16), 1, seed=4)
        with pytest.raises(ShapeError, match="solution grid .* differs from the path's"):
            variation_of_constants([2], co, sol, path)

    @pytest.mark.parametrize("seed, path_index", [(5, 0), (4, 1)])
    def test_rejects_a_solution_of_another_path(self, seed, path_index):
        co = CoefficientFamily.constant_scalar([1.0, 0.5], [0.0, 0.25])
        grid = TimeGrid(0.0, 1.0, 16)
        sol = solve_chain(co, identity(2, 1), sample_path(grid, 1, seed, path_index))
        with pytest.raises(ShapeError, match=rf"\(seed, path_index\) \({seed}, {path_index}\) differs from the path's \(4, 0\)"):
            variation_of_constants([2], co, sol, sample_path(grid, 1, seed=4))

    def test_rejects_a_nonzero_initial_component(self):
        co = CoefficientFamily.constant_scalar([1.0, 0.5, 0.2], [0.0, 0.25, 0.0])
        path = sample_path(TimeGrid(0.0, 1.0, 16), 1, seed=4)
        sol = solve_chain(co, FormalMapping.from_scalar_coeffs([1.0, 0.0, 0.1]), path)
        # degree 2 starts at zero and passes; the formula drops Phi(t_i, t_0) S_3(0)
        variation_of_constants([2], co, sol, path)
        with pytest.raises(ShapeError, match="initial degree-3 component is nonzero"):
            variation_of_constants([2, 3], co, sol, path)


def time_dependent_coefficients(rng, order, d, m, drift_on, diffusion_on, flat, noisy_b1=False):
    """a(t) = a0 + cos(3t)*a1 and b(t) = b0 + sin(2t)*b1, with b_1 = 0
    unless noisy_b1.

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
            DiffusionMap(k, d, d, m, (c0.entries + wave * c1.entries) * ((k > 1 or noisy_b1) and t >= on))
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
            q = q + g_n.entries @ path.increments[0, j]
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


def concatenate_sweep(loads, factors):
    """The sweep over knots as variation_of_constants made it before it ran
    in place: Phi(t_i, t_{j+1}) for j < i as an (i, d, d) stack grown by
    concatenate, the i terms as one contraction, and the cumsum of all i
    of them, of which the last partial sum is kept.
    """
    n_steps, d = loads.shape[:2]
    eye = np.eye(d)[None]
    phi = np.empty((0, d, d))
    trajectory = [np.zeros(loads.shape[1:])]
    for i in range(1, n_steps + 1):
        phi = np.concatenate((factors[i - 1] @ phi, eye))
        terms = _contract(phi.swapaxes(1, 2), loads[:i].reshape(i, d, -1), batch=1)
        trajectory.append(np.cumsum(terms, axis=0)[-1].reshape(loads.shape[1:]))
    return np.stack(trajectory)


switch_times = st.lists(st.sampled_from([0.0, 0.0, 0.3, 0.7, 2.0]), min_size=4, max_size=4)
time_dependent_cases = given(
    order=st.integers(2, 4),
    d=st.integers(1, 3),
    m=st.integers(1, 2),
    n_steps=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    drift_on=switch_times,
    diffusion_on=switch_times,
    flat=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(2, 4),
    d=st.integers(1, 3),
    m=st.integers(1, 2),
    n_steps=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    drift_on=switch_times,
    diffusion_on=switch_times,
    noisy_b1=st.booleans(),
    constant=st.booleans(),
)
def test_batched_factors_and_loads_are_the_per_step_forms(
    order, d, m, n_steps, seed, drift_on, diffusion_on, noisy_b1, constant
):
    # one coefficient pass feeds every step: a new value at every step
    # (time-dependent) or one value for all of them (constant)
    rng = np.random.default_rng(seed)
    co = time_dependent_coefficients(rng, order, d, m, drift_on, diffusion_on, False, noisy_b1)
    if constant:
        co = CoefficientFamily.constant(co.drift(0.5), co.diffusion(0.5))
    grid = TimeGrid(0.0, 1.0, n_steps)
    path = sample_path(grid, m, seed)
    dw = path.increments[0]
    factors = fundamental(co, path).factors
    assert factors.shape == (n_steps, d, d) and not factors.flags.writeable
    sol = solve_chain(co, identity(order, d), path)
    degrees = list(range(2, order + 1))
    loads = _loads(degrees, co.on_grid(grid), sol, dw)
    for j, t_j in enumerate(grid.knots()[:-1].tolist()):
        a_t, b_t = co.drift_at(t_j), co.diffusion_at(t_j)
        f = np.eye(d) + grid.dt * a_t.component(1).entries
        if not b_t.component(1).is_zero:
            f = f + b_t.component(1).entries @ dw[j]
        assert factors[j].tobytes() == f.tobytes()
        for n, batched in zip(degrees, loads):
            f_n, g_n = forcing_terms(n, sol.state(j), a_t, b_t)
            q = grid.dt * f_n.entries
            if not g_n.is_zero:
                q = q + g_n.entries @ dw[j]
            assert batched[j].shape == q.shape and batched[j].tobytes() == q.tobytes()


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
    pick=st.permutations([2, 3, 4]),
    count=st.integers(1, 3),
)
@example(order=3, d=1, m=1, n_steps=24, seed=5, drift_on=[0.0] * 4, diffusion_on=[0.0] * 4, flat=False, pick=[3, 2, 4], count=2)
@example(order=2, d=1, m=2, n_steps=24, seed=6, drift_on=[0.0] * 4, diffusion_on=[0.3] * 4, flat=True, pick=[2, 3, 4], count=1)
def test_sweep_is_the_concatenate_loop_bit_for_bit(
    order, d, m, n_steps, seed, drift_on, diffusion_on, flat, pick, count
):
    # the in-place sweep makes the same products and sums in the same order,
    # every degree's terms side by side in one product; at d = 1 a pairwise
    # sum over the terms would round differently
    rng = np.random.default_rng(seed)
    co = time_dependent_coefficients(rng, order, d, m, drift_on, diffusion_on, flat)
    path = sample_path(TimeGrid(0.0, 1.0, n_steps), m, seed)
    sol = solve_chain(co, identity(order, d), path)
    factors = fundamental(co, path).factors
    steps = co.on_grid(path.grid)
    subset = [n for n in pick if n <= order][:count]
    for degrees in (list(range(2, order + 1)), subset):
        for n, got in zip(degrees, variation_of_constants(degrees, co, sol, path), strict=True):
            (loads,) = _loads([n], steps, sol, path.increments[0])
            want = concatenate_sweep(loads, factors)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@time_dependent_cases
def test_quadrature_matches_the_step_by_step_loop(
    order, d, m, n_steps, seed, drift_on, diffusion_on, flat
):
    rng = np.random.default_rng(seed)
    co = time_dependent_coefficients(rng, order, d, m, drift_on, diffusion_on, flat)
    grid = TimeGrid(0.0, 1.0, n_steps)
    path = sample_path(grid, m, seed)
    sol = solve_chain(co, identity(order, d), path)
    degrees = list(range(2, order + 1))
    for n, traj in zip(degrees, variation_of_constants(degrees, co, sol, path)):
        ref, loads, scales = loop_quadrature(n, co, sol.states, path)
        # Phi is F_{i-1} @ (F_{i-2} @ ...) here but (... @ F_{i-2}) @ F_{i-1} in
        # the loop: the products associate in a different order, so the
        # trajectories agree to rounding, relative to the size of the terms
        for v, r, scale in zip(traj, ref, scales):
            assert np.linalg.norm(v - r) <= 1e-13 * scale
        if flat:
            # with every factor I, each knot is the running sum of the loads
            running = np.cumsum(loads, axis=0)
            for i in range(1, n_steps + 1):
                assert np.array_equal(traj[i], running[i - 1])
            if n == 2:
                # one forcing term, so the chain adds the same load in the same order
                for v, s in zip(traj, sol.states):
                    assert np.array_equal(v, s.component(2).entries)
