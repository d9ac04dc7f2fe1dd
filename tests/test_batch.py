"""The path-batched solvers against their per-path counterparts, bit for bit."""

import math

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
    ShapeError,
    TimeGrid,
    evolution_check,
    fundamental,
    identity,
    sample_path,
    sample_paths,
    simulate_direct,
    solve_chain,
    solve_chain_batch,
    variation_of_constants,
)
from formalflow.chain import _path_states
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
            assert path.n_paths == 1
            assert same_bits(batch.increments[p], path.increments[0])
            assert same_bits(batch.cumulative()[p], path.cumulative()[0])
            assert same_bits(batch.restrict(5, 20).increments[p], path.restrict(5, 20).increments[0])
            for factor in (1, 2, 4, 32):
                coarse = batch.coarsen(factor)
                assert coarse.grid == path.coarsen(factor).grid
                assert same_bits(coarse.increments[p], path.coarsen(factor).increments[0])

    def test_one_row_is_the_philox_draw(self):
        # the draw a single path has always had: standard normals of the
        # Philox key (seed, path_index), scaled by sqrt(dt)
        grid = TimeGrid(0.0, 1.0, 32)
        rng = np.random.Generator(np.random.Philox(key=np.array([7, 3], dtype=np.uint64)))
        want = rng.standard_normal((32, 2)) * math.sqrt(grid.dt)
        assert same_bits(sample_path(grid, 2, seed=7, path_index=3).increments, want[None])

    def test_from_increments_takes_one_path_or_several(self):
        grid = TimeGrid(0.0, 1.0, 4)
        dw = np.arange(8.0).reshape(2, 4, 1)
        for given, rows in ((dw[0, :, 0], dw[:1]), (dw[0], dw[:1]), (dw, dw)):
            path = BrownianPath.from_increments(grid, given)
            assert (path.n_paths, path.noise_dim) == (len(rows), 1)
            assert same_bits(path.increments, rows)

    def test_rejects_bad_shapes(self):
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            BrownianPath(grid, 1, np.zeros((4, 1)), seed=0)
        with pytest.raises(ValueError):
            BrownianPath(grid, 1, np.zeros((0, 4, 1)), seed=0)
        with pytest.raises(ValueError):
            BrownianPath(grid, 1, np.zeros((2, 4, 2)), seed=0)
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
            final = solve_chain(co, initial, path).state(-1)
        except BlowupError:
            assert not finite[p]
        else:
            assert finite[p]
            for k in range(order):
                assert same_bits(terminal[k][p], final.components[k].entries)
        # a path that blows up alone is left non-finite in the same bits
        assert same_bits(trajectories[:, p], simulate_direct(co, y0[p : p + 1], path)[:, 0])


def test_overflowing_path_is_masked_and_neighbours_unchanged():
    co = CoefficientFamily.constant_scalar([0.5, 0.3], [1.0, 0.2])
    grid = TimeGrid(0.0, 1.0, 8)
    increments = 0.1 * np.random.default_rng(3).standard_normal((3, 8, 1))
    increments[1, 3:5] = 1e200  # path 1 overflows at step 4
    batch = BrownianPath(grid, 1, increments, seed=0)
    paths = [BrownianPath.from_increments(grid, increments[p]) for p in range(3)]

    terminal, finite = solve_chain_batch(co, identity(2, 1), batch)
    assert finite.tolist() == [True, False, True]
    trajectories = simulate_direct(co, np.full((3, 1), 0.1), batch)
    assert not np.isfinite(trajectories[-1, 1]).all()
    for p in (0, 2):
        final = solve_chain(co, identity(2, 1), paths[p]).state(-1)
        for k in range(2):
            assert same_bits(terminal[k][p], final.components[k].entries)
        assert same_bits(trajectories[:, p], simulate_direct(co, np.array([[0.1]]), paths[p])[:, 0])
    with pytest.raises(BlowupError):
        solve_chain(co, identity(2, 1), paths[1])
    alone = simulate_direct(co, np.array([[0.1]]), paths[1])
    assert np.isfinite(alone[:4]).all() and not np.isfinite(alone[-1]).all()
    assert same_bits(trajectories[:, 1], alone[:, 0])


def path0_solution(co, paths):
    """The chain solution along path 0 of paths' seed, one state per knot of paths."""
    return solve_chain(co, identity(2, 1), sample_path(paths.grid, 1, paths.seed))


@pytest.mark.parametrize(
    "consumer",
    [
        lambda co, paths: solve_chain(co, identity(2, 1), paths),
        lambda co, paths: list(_path_states(co, identity(2, 1), paths)),
        lambda co, paths: fundamental(co, paths),
        lambda co, paths: variation_of_constants([2], co, path0_solution(co, paths), paths),
        lambda co, paths: evolution_check(co, paths.grid, paths, 0.5),
    ],
    ids=["solve_chain", "path_states", "fundamental", "variation_of_constants", "evolution_check"],
)
def test_single_path_consumers_reject_several_rows(consumer):
    # using row 0 of two would be another experiment than the one asked for
    co = CoefficientFamily.constant_scalar([0.5, 0.3], [0.0, 0.2])
    paths = sample_paths(TimeGrid(0.0, 1.0, 8), 1, seed=3, n_paths=2)
    with pytest.raises(ShapeError, match="expected a single path, got 2 rows"):
        consumer(co, paths)
