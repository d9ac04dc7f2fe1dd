"""The path-batched solvers against their per-path counterparts.

`simulate_direct` is bitwise its one-row runs.  `solve_chain_batch` is the
last state of the Euler loop, run on chunks of paths: each row is bitwise
solve_chain's final state of its path, and its finite mask is False exactly
where solve_chain raises BlowupError.

A rounding bound for two evaluations of the chain that associate its
compositions differently (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, ch. 3), derived when the batch reduced the steps
by a balanced tree, is kept here for a bound on the whole chain.  A
composition rounds component n within gamma_n = 2(n*d + 2^(n-1))*eps times
its evaluation on absolute values (tests/test_schedule.py), so within n*c of
it with c = max over n of gamma_n / n.  Let the operands B and A carry
errors within n*c_B and n*c_A of their composites on absolute values in each
degree n, entry by entry.  A term of component n of B o A is b_k(a_j1, ...,
a_jk) with j_1 + ... + j_k = n, so to first order in eps it moves by
(k*c_B + n*c_A) times that term on absolute values, and B o A carries
n*(c + c_B + c_A).  The step maps Psi_i and S_0 are exact leaves, built with
the same bits by every evaluation (tests/test_schedule.py::
test_step_maps_and_one_step_map_match_the_reference_psi).  So an evaluation
carries n*c times its number of compositions, N for N steps however they
are paired: a depth of log2 N alone does not bound it, since every product
of a scalar chain rounds the terminal value.  Two evaluations therefore
differ in component n by at most 2*n*N*c*(|Psi_{N-1}| o ... o |Psi_0| o
|S_0|)_n, the composite on absolute values, to first order.
"""

import math
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

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
from formalflow import chain
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
            BrownianPath(grid, np.zeros((4, 1)), seed=0)
        with pytest.raises(ValueError):
            BrownianPath(grid, np.zeros((0, 4, 1)), seed=0)
        with pytest.raises(ValueError):
            BrownianPath(grid, np.zeros((2, 4, 0)), seed=0)
        with pytest.raises(ValueError):
            sample_paths(grid, 1, seed=0, n_paths=0)


def one_row(paths, p):
    """Row p of paths as a one-row path on the same grid."""
    return BrownianPath(paths.grid, paths.increments[p : p + 1], paths.seed, p)


def assert_rows_are_the_per_path_solves(co, initial, paths, terminal, finite, rows):
    """Row p of a batch's terminal entries, for each p in rows, is bitwise
    solve_chain's final state along path p, and its mask is False exactly
    where solve_chain raises BlowupError."""
    for p in rows:
        try:
            sol = solve_chain(co, initial, one_row(paths, p))
        except BlowupError:
            assert not finite[p]
            continue
        assert finite[p]
        for e, want in zip(terminal, sol.entries, strict=True):
            assert same_bits(e[p], want[-1])


def floats_per_path(order, d):
    """The floats of one step of one path's buffers, every degree nonzero:
    `solve_chain_batch` fits a chunk's step into _EULER_FLOATS by these."""
    return chain._step_sizes((True,) * order, (True,) * order, d)[-1]


@pytest.mark.parametrize("n_paths", [1, 62, 63, 130])
def test_a_batch_builds_one_schedule_per_chunk(n_paths):
    """The chunk size is read off the cached sizing, so the batch builds a
    `_Steps` schedule for each chunk of paths and no other."""
    co = random_coefficients(np.random.default_rng(4), 4, 3, 2)
    paths = sample_paths(TimeGrid(0.0, 1.0, 2), 2, 5, n_paths)
    with patch.object(chain, "_Steps", wraps=chain._Steps) as steps:
        solve_chain_batch(co, identity(4, 3), paths)
    assert steps.call_count == math.ceil(n_paths / 62)


@settings(max_examples=80, deadline=None)
@given(
    order=st.integers(1, 4),
    d=st.integers(1, 3),
    m=st.integers(1, 2),
    n_paths=st.integers(1, 7),
    n_steps=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    zero_drift=st.lists(st.booleans(), min_size=4, max_size=4),
    zero_diffusion=st.lists(st.booleans(), min_size=4, max_size=4),
    random_initial=st.booleans(),
    blowup=st.booleans(),
    data=st.data(),
)
def test_batch_is_bitwise_the_per_path_solve(
    order, d, m, n_paths, n_steps, seed, zero_drift, zero_diffusion, random_initial, blowup, data
):
    """Every row of solve_chain_batch is bitwise solve_chain's final state of
    its path, and the mask is False exactly where solve_chain raises
    BlowupError, in chunks of any size the budget makes: one path each, up to
    all paths in blocks of several steps.  The chunks are those of the rule;
    a path with two increments of 1e200 may blow up.  Row p of
    simulate_direct is bitwise its one-row run."""
    rng = np.random.default_rng(seed)
    co = with_zero_components(random_coefficients(rng, order, d, m), zero_drift, zero_diffusion)
    initial = random_mapping(rng, order, d, d) if random_initial else identity(order, d)
    y0 = 0.2 * rng.standard_normal((n_paths, d))
    grid = TimeGrid(0.0, 1.0, n_steps)
    increments = sample_paths(grid, m, seed, n_paths).increments.copy()
    if blowup:
        p, i = data.draw(st.integers(0, n_paths - 1)), data.draw(st.integers(0, n_steps - 1))
        increments[p, i : i + 2] = 1e200
    batch = BrownianPath(grid, increments, seed)
    floats = floats_per_path(order, d)
    budget = data.draw(st.integers(1, n_paths * floats) | st.integers(n_paths * floats, n_paths * floats * n_steps))
    chunk = max(1, budget // floats)

    with (
        patch.object(chain, "_EULER_FLOATS", budget),
        patch.object(chain, "_euler_states", wraps=chain._euler_states) as loop,
    ):
        terminal, finite = solve_chain_batch(co, initial, batch)
    rows = [call.args[1].n_paths for call in loop.call_args_list]
    assert rows == [min(chunk, n_paths - p) for p in range(0, n_paths, chunk)]
    assert_rows_are_the_per_path_solves(co, initial, batch, terminal, finite, range(n_paths))
    trajectories = simulate_direct(co, y0, batch)
    assert trajectories.shape == (n_steps + 1, n_paths, d)
    for p in range(n_paths):
        # a path that blows up alone is left non-finite in the same bits
        assert same_bits(trajectories[:, p], simulate_direct(co, y0[p : p + 1], one_row(batch, p))[:, 0])


def test_overflowing_path_is_masked_and_neighbours_unchanged():
    co = CoefficientFamily.constant_scalar([0.5, 0.3], [1.0, 0.2])
    grid = TimeGrid(0.0, 1.0, 8)
    increments = 0.1 * np.random.default_rng(3).standard_normal((3, 8, 1))
    increments[1, 3:5] = 1e200  # path 1 overflows at step 4
    batch = BrownianPath(grid, increments, seed=0)
    paths = [BrownianPath.from_increments(grid, increments[p]) for p in range(3)]

    terminal, finite = solve_chain_batch(co, identity(2, 1), batch)
    assert finite.tolist() == [True, False, True]
    assert_rows_are_the_per_path_solves(co, identity(2, 1), batch, terminal, finite, range(3))
    trajectories = simulate_direct(co, np.full((3, 1), 0.1), batch)
    assert not np.isfinite(trajectories[-1, 1]).all()
    for p in (0, 2):
        assert same_bits(trajectories[:, p], simulate_direct(co, np.array([[0.1]]), paths[p])[:, 0])
    with pytest.raises(BlowupError):
        solve_chain(co, identity(2, 1), paths[1])
    alone = simulate_direct(co, np.array([[0.1]]), paths[1])
    assert np.isfinite(alone[:4]).all() and not np.isfinite(alone[-1]).all()
    assert same_bits(trajectories[:, 1], alone[:, 0])


def test_chunks_keep_the_batch_within_a_fixed_multiple_of_the_budget():
    """At order 4, d 3, one step of a path's buffers holds 2 610 floats, so a
    chunk is 62 paths, in blocks of one step: 64 paths make two chunks and
    2 048 make 34.  The tracemalloc peak stays under 8 budgets of
    _EULER_FLOATS floats at both, and under 2 beyond the returned arrays,
    however many paths there are; unchunked, a step of 2 048 paths alone
    would need 33.  The rows at the chunks' edges are solve_chain's."""
    order, d, m = 4, 3, 2
    co = random_coefficients(np.random.default_rng(8), order, d, m)
    chunk = chain._EULER_FLOATS // floats_per_path(order, d)
    assert chunk == 62
    budget = chain._EULER_FLOATS * 8
    for n_paths in (64, 2048):
        paths = sample_paths(TimeGrid(0.0, 1.0, 16), m, 21, n_paths)
        tracemalloc.start()
        try:
            terminal, finite = solve_chain_batch(co, identity(order, d), paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * budget
        assert peak - sum(e.nbytes for e in terminal) < 2 * budget
        assert finite.all()
        edges = sorted({0, chunk - 1, chunk, n_paths - 1})
        assert_rows_are_the_per_path_solves(co, identity(order, d), paths, terminal, finite, edges)


def path0_solution(co, paths):
    """The chain solution along path 0 of paths' seed, one state per knot of paths."""
    return solve_chain(co, identity(2, 1), sample_path(paths.grid, 1, paths.seed))


@pytest.mark.parametrize(
    "consumer",
    [
        lambda co, paths: solve_chain(co, identity(2, 1), paths),
        lambda co, paths: next(_path_states(co, identity(2, 1), paths)),
        lambda co, paths: fundamental(co, paths),
        lambda co, paths: variation_of_constants([2], replace(path0_solution(co, paths), path=paths)),
        lambda co, paths: evolution_check(co, paths, 0.5),
    ],
    ids=["solve_chain", "path_states", "fundamental", "variation_of_constants", "evolution_check"],
)
def test_single_path_consumers_reject_several_rows(consumer):
    # using row 0 of two would be another experiment than the one asked for
    co = CoefficientFamily.constant_scalar([0.5, 0.3], [0.0, 0.2])
    paths = sample_paths(TimeGrid(0.0, 1.0, 8), 1, seed=3, n_paths=2)
    with pytest.raises(ShapeError, match="expected a single path, got 2 rows"):
        consumer(co, paths)
