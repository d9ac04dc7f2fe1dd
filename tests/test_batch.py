"""The path-batched solvers against their per-path counterparts.

`simulate_direct` is bitwise its one-row runs.  `solve_chain_batch` reduces
the step maps by a balanced tree: a row is bitwise the one-row batch of its
path, and within a first-order rounding bound of the loop's final state
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
ch. 3).
"""

import math
import tracemalloc
from dataclasses import replace

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
    compose,
    evolution_check,
    fundamental,
    identity,
    one_step_map,
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


def absolute(mapping):
    """The mapping with every entry replaced by its absolute value."""
    comps = tuple(MultilinearMap(c.degree, c.dy, c.dz, np.abs(c.entries)) for c in mapping.components)
    return FormalMapping(mapping.order, mapping.dy, mapping.dz, comps)


def assert_within_tree_bound(co, initial, path, got):
    """got, the entries by degree of a tree's terminal state along a one-row
    path, lies within the first-order bound of the loop's final state.

    A composition rounds component n within gamma_n = 2(n*d + 2^(n-1))*eps
    times its evaluation on absolute values (tests/test_schedule.py), so
    within n*c of it with c = max over n of gamma_n / n.  Let the operands B
    and A carry errors within n*c_B and n*c_A of their composites on
    absolute values in each degree n, entry by entry.  A term of component n
    of B o A is b_k(a_j1, ..., a_jk) with j_1 + ... + j_k = n, so to first
    order in eps it moves by (k*c_B + n*c_A) times that term on absolute
    values, and B o A carries n*(c + c_B + c_A).  The step maps Psi_i and
    S_0 are exact leaves: the tree and the loop build Psi with the same
    bits, those of `ref_psi` (tests/test_schedule.py::
    test_step_maps_and_one_step_map_match_the_reference_psi).  So an
    evaluation carries n*c times its number of compositions: the tree's
    levels hold J - 1 compositions of a J-step block, and composing the
    blocks onto the state in step order adds one each, N in all, as many as
    the loop's N steps.  A depth of log2 N alone does not bound it: every
    product of a scalar chain rounds the terminal value, whatever the tree.
    So tree and loop differ by at most 2*n*N*c*(|Psi_{N-1}| o ... o |Psi_0|
    o |S_0|)_n, the composite on absolute values evaluated here by the loop,
    each |Psi_i| from `one_step_map`.  Returns the worst ratio of the
    difference to that bound.
    """
    grid, eps, d = path.grid, np.finfo(float).eps, co.dy
    c = max(2 * (n * d + 2 ** (n - 1)) * eps / n for n in range(1, co.order + 1))
    scale = absolute(initial)
    for i in range(grid.n_steps):
        t = grid.knot(i)
        psi = one_step_map(co.drift_at(t), co.diffusion_at(t), grid.dt, path.increments[0, i])
        scale = compose(absolute(psi), scale)
    final = solve_chain(co, initial, path).state(-1)
    worst = 0.0
    for n, (e, want, s) in enumerate(zip(got, final.components, scale.components), start=1):
        bound = 2 * n * grid.n_steps * c * s.entries
        diff = np.abs(e - want.entries)
        assert np.all(diff <= bound), f"degree {n}: {np.max(diff - bound)} over the bound"
        worst = max(worst, float(np.max(diff / np.where(bound > 0, bound, 1.0))))
    return worst


def one_row(paths, p):
    """Row p of paths as a one-row path on the same grid."""
    return BrownianPath(paths.grid, paths.increments[p : p + 1], paths.seed, p)


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
    """Row p of solve_chain_batch is bitwise the one-row batch of path p and,
    where finite, within `assert_within_tree_bound` of solve_chain's final
    state; row p of simulate_direct is bitwise its one-row run."""
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
        path = sample_path(grid, m, seed, p)
        alone, alone_finite = solve_chain_batch(co, initial, path)
        assert alone_finite.tolist() == [finite[p]]
        for k in range(order):
            assert same_bits(terminal[k][p], alone[k][0])
        if finite[p]:
            assert_within_tree_bound(co, initial, path, [e[p] for e in terminal])
        # a path that blows up alone is left non-finite in the same bits
        assert same_bits(trajectories[:, p], simulate_direct(co, y0[p : p + 1], path)[:, 0])


def ref_pairwise_terminal(co, initial, path):
    """The terminal state along a one-row path by the pairing of
    solve_chain_batch, from `one_step_map` and `compose` alone: steps cut
    into blocks of _BLOCK_FLOATS floats of Psi; in each block, every level
    composes map 2u+1 after map 2u and carries an odd last map up; each
    block's composite goes onto the state in step order."""
    grid, d = path.grid, co.dy
    a, b = co.drift_at(0.0), co.diffusion_at(0.0)
    # Psi_1 is never zero; Psi_k (k > 1) is, where a_k and b_k are
    per_step = sum(
        d ** (k + 1)
        for k, (a_k, b_k) in enumerate(zip(a.components, b.components), start=1)
        if k == 1 or not (a_k.is_zero and b_k.is_zero)
    )
    block = max(1, chain._BLOCK_FLOATS // per_step)
    psi = [
        one_step_map(co.drift_at(t), co.diffusion_at(t), grid.dt, path.increments[0, i])
        for i, t in enumerate(grid.knots()[:-1].tolist())
    ]
    state = initial
    for i in range(0, len(psi), block):
        level = psi[i : i + block]
        while len(level) > 1:
            odd = level[-1:] if len(level) % 2 else []
            level = [compose(level[u + 1], level[u]) for u in range(0, len(level) - 1, 2)] + odd
        state = compose(level[0], state)
    return state


def assert_batch_is_the_pairwise_reference(co, initial, paths):
    terminal, _ = solve_chain_batch(co, initial, paths)
    for p in range(paths.n_paths):
        want = ref_pairwise_terminal(co, initial, one_row(paths, p))
        for e, c in zip(terminal, want.components):
            assert same_bits(e[p], c.entries)


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(1, 3),
    d=st.integers(1, 2),
    m=st.integers(1, 2),
    n_paths=st.integers(1, 3),
    n_steps=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    zero_drift=st.lists(st.booleans(), min_size=3, max_size=3),
    zero_diffusion=st.lists(st.booleans(), min_size=3, max_size=3),
    random_initial=st.booleans(),
)
def test_tree_pairs_the_steps_as_the_reference(
    order, d, m, n_paths, n_steps, seed, zero_drift, zero_diffusion, random_initial
):
    """Row p of solve_chain_batch is bitwise `ref_pairwise_terminal` of path
    p: the pairing of the tree's levels and blocks is pinned, not only its
    bound against the loop."""
    rng = np.random.default_rng(seed)
    co = with_zero_components(random_coefficients(rng, order, d, m), zero_drift, zero_diffusion)
    initial = random_mapping(rng, order, d, d) if random_initial else identity(order, d)
    paths = sample_paths(TimeGrid(0.0, 1.0, n_steps), m, seed, n_paths)
    assert_batch_is_the_pairwise_reference(co, initial, paths)


def test_tree_pairs_the_steps_as_the_reference_over_several_blocks():
    # order 3, d 2: 28 floats of Psi a step, so 300 steps make three blocks
    co = random_coefficients(np.random.default_rng(5), 3, 2, 2)
    assert 300 > 2 * (chain._BLOCK_FLOATS // 28)
    paths = sample_paths(TimeGrid(0.0, 1.0, 300), 2, 9, 2)
    assert_batch_is_the_pairwise_reference(co, identity(3, 2), paths)


def test_overflowing_path_is_masked_and_neighbours_unchanged():
    co = CoefficientFamily.constant_scalar([0.5, 0.3], [1.0, 0.2])
    grid = TimeGrid(0.0, 1.0, 8)
    increments = 0.1 * np.random.default_rng(3).standard_normal((3, 8, 1))
    increments[1, 3:5] = 1e200  # path 1 overflows at step 4
    batch = BrownianPath(grid, increments, seed=0)
    paths = [BrownianPath.from_increments(grid, increments[p]) for p in range(3)]

    terminal, finite = solve_chain_batch(co, identity(2, 1), batch)
    assert finite.tolist() == [True, False, True]
    trajectories = simulate_direct(co, np.full((3, 1), 0.1), batch)
    assert not np.isfinite(trajectories[-1, 1]).all()
    for p in range(3):
        alone, alone_finite = solve_chain_batch(co, identity(2, 1), paths[p])
        assert alone_finite.tolist() == [finite[p]]
        for k in range(2):
            assert same_bits(terminal[k][p], alone[k][0])
    for p in (0, 2):
        assert_within_tree_bound(co, identity(2, 1), paths[p], [e[p] for e in terminal])
        assert same_bits(trajectories[:, p], simulate_direct(co, np.array([[0.1]]), paths[p])[:, 0])
    with pytest.raises(BlowupError):
        solve_chain(co, identity(2, 1), paths[1])
    alone = simulate_direct(co, np.array([[0.1]]), paths[1])
    assert np.isfinite(alone[:4]).all() and not np.isfinite(alone[-1]).all()
    assert same_bits(trajectories[:, 1], alone[:, 0])


def test_blocks_and_chunks_stay_within_the_bound_and_the_memory_budget():
    """Steps over three blocks, the last one short, and paths over two
    chunks: the rows at the chunks' edges stay within the bound and are
    bitwise their one-row batches, and the tracemalloc peak stays under the
    budget of chain.py, eight times a chunk's stack of _CHUNK_FLOATS floats."""
    order, d, m = 2, 2, 1
    per_step = d**2 + d**3
    block = chain._BLOCK_FLOATS // per_step
    chunk = chain._CHUNK_FLOATS // (block * per_step)
    assert block > 1 and chunk > 1
    n_steps, n_paths = 2 * block + block // 3, chunk + 3
    co = random_coefficients(np.random.default_rng(8), order, d, m)
    paths = sample_paths(TimeGrid(0.0, 1.0, n_steps), m, 21, n_paths)

    tracemalloc.start()
    try:
        terminal, finite = solve_chain_batch(co, identity(order, d), paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * chain._CHUNK_FLOATS * 8
    assert finite.all()
    for p in (0, chunk - 1, chunk, n_paths - 1):
        alone, _ = solve_chain_batch(co, identity(order, d), one_row(paths, p))
        for k in range(order):
            assert same_bits(terminal[k][p], alone[k][0])
        assert_within_tree_bound(co, identity(order, d), one_row(paths, p), [e[p] for e in terminal])


def test_an_order_one_tree_builds_one_runner_per_level(monkeypatch):
    """512 steps reduce in 9 levels of one `_Runner` each, and one more
    composes the result with the initial state."""
    built = []

    class Counted(chain._Runner):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(chain, "_Runner", Counted)
    co = CoefficientFamily.constant_scalar([1.0], [0.5])
    solve_chain_batch(co, identity(1, 1), sample_paths(TimeGrid(0.0, 1.0, 512), 1, seed=4, n_paths=64))
    assert 0 < len(built) <= math.ceil(math.log2(512)) + 1


def path0_solution(co, paths):
    """The chain solution along path 0 of paths' seed, one state per knot of paths."""
    return solve_chain(co, identity(2, 1), sample_path(paths.grid, 1, paths.seed))


@pytest.mark.parametrize(
    "consumer",
    [
        lambda co, paths: solve_chain(co, identity(2, 1), paths),
        lambda co, paths: list(_path_states(co, identity(2, 1), paths)),
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
