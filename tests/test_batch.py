"""The path-batched solvers against their per-path counterparts, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalflow import (
    BlowupError,
    BrownianPath,
    CoefficientFamily,
    DiffusionFamily,
    DiffusionMap,
    FormalMapping,
    MultilinearMap,
    PathBatch,
    TimeGrid,
    identity,
    sample_path,
    sample_paths,
    simulate_direct,
    solve_chain,
    solve_chain_batch,
)
from conftest import random_coefficients, random_mapping


def same_bits(x, y):
    """Equal shape and bytes: unlike array_equal, tells -0.0 from 0.0."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def with_zero_components(co, zero_drift, zero_diffusion):
    """co with the drift components of degree >= 2 and the diffusion
    components flagged in the masks set to zero, so zero terms get skipped."""
    a, b = co.drift(0.0), co.diffusion(0.0)
    drift = tuple(
        MultilinearMap.zero(c.degree, c.dy, c.dz) if c.degree > 1 and z else c
        for c, z in zip(a.components, zero_drift)
    )
    diffusion = tuple(
        DiffusionMap.zero(c.degree, c.dy, c.dz, c.noise_dim) if z else c
        for c, z in zip(b.components, zero_diffusion)
    )
    return CoefficientFamily.constant(
        FormalMapping(a.order, a.dy, a.dz, drift), DiffusionFamily(b.order, b.dy, b.noise_dim, diffusion)
    )


class TestSamplePaths:
    def test_rows_are_the_per_path_draws(self):
        grid = TimeGrid(0.0, 1.0, 32)
        batch = sample_paths(grid, 2, seed=7, n_paths=4)
        assert batch.n_paths == 4
        for p in range(4):
            path = sample_path(grid, 2, seed=7, path_index=p)
            assert same_bits(batch.increments[p], path.increments)
            assert same_bits(batch.cumulative()[p], path.cumulative())
            for factor in (1, 2, 4, 32):
                coarse = batch.coarsen(factor)
                assert coarse.grid == path.coarsen(factor).grid
                assert same_bits(coarse.increments[p], path.coarsen(factor).increments)

    def test_rejects_bad_shapes(self):
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            PathBatch(grid, 1, np.zeros((4, 1)), seed=0)
        with pytest.raises(ValueError):
            PathBatch(grid, 1, np.zeros((0, 4, 1)), seed=0)
        with pytest.raises(ValueError):
            sample_paths(grid, 1, seed=0, n_paths=0)


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(1, 4),
    d=st.integers(1, 3),
    m=st.integers(1, 2),
    n_paths=st.integers(1, 5),
    n_steps=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    zero_drift=st.lists(st.booleans(), min_size=4, max_size=4),
    zero_diffusion=st.lists(st.booleans(), min_size=4, max_size=4),
    random_initial=st.booleans(),
)
def test_batch_is_bitwise_the_per_path_solve(
    order, d, m, n_paths, n_steps, seed, zero_drift, zero_diffusion, random_initial
):
    rng = np.random.default_rng(seed)
    co = with_zero_components(random_coefficients(rng, order, d, m), zero_drift, zero_diffusion)
    initial = random_mapping(rng, order, d, d) if random_initial else identity(order, d)
    y0 = 0.2 * rng.standard_normal((n_paths, d))
    grid = TimeGrid(0.0, 1.0, n_steps)
    batch = sample_paths(grid, m, seed, n_paths)

    terminal, finite = solve_chain_batch(co, initial, batch)
    trajectories = simulate_direct(co, y0, batch)
    assert trajectories.shape == (n_steps + 1, n_paths, d)
    for p in range(n_paths):
        # a path that blows up alone must blow up in the batch too
        path = sample_path(grid, m, seed, p)
        try:
            final = solve_chain(co, initial, path).states[-1]
        except BlowupError:
            assert not finite[p]
        else:
            assert finite[p]
            for k in range(order):
                assert same_bits(terminal[k][p], final.components[k].entries)
        try:
            expected = simulate_direct(co, y0[p], path)
        except BlowupError as exc:
            assert np.isfinite(trajectories[: exc.step + 1, p]).all()
            assert not np.isfinite(trajectories[exc.step + 1, p]).all()
        else:
            assert same_bits(trajectories[:, p], expected)


def test_overflowing_path_is_masked_and_neighbours_unchanged():
    co = CoefficientFamily.constant_scalar([0.5, 0.3], [1.0, 0.2])
    grid = TimeGrid(0.0, 1.0, 8)
    increments = 0.1 * np.random.default_rng(3).standard_normal((3, 8, 1))
    increments[1, 3:5] = 1e200  # path 1 overflows at step 4
    batch = PathBatch(grid, 1, increments, seed=0)
    paths = [BrownianPath.from_increments(grid, increments[p]) for p in range(3)]

    terminal, finite = solve_chain_batch(co, identity(2, 1), batch)
    assert finite.tolist() == [True, False, True]
    trajectories = simulate_direct(co, np.full((3, 1), 0.1), batch)
    assert not np.isfinite(trajectories[-1, 1]).all()
    for p in (0, 2):
        final = solve_chain(co, identity(2, 1), paths[p]).states[-1]
        for k in range(2):
            assert same_bits(terminal[k][p], final.components[k].entries)
        assert same_bits(trajectories[:, p], simulate_direct(co, np.array([0.1]), paths[p]))
    with pytest.raises(BlowupError):
        solve_chain(co, identity(2, 1), paths[1])
    with pytest.raises(BlowupError):
        simulate_direct(co, np.array([0.1]), paths[1])
