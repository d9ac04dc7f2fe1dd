"""Horner's rule composition against two references.

The first reference is an independent Horner evaluation on the earlier
kernel, which moved the slot axis last with a transposed copy: it sums the
partial terms of each class (r, s) in the same order, so compose, the
batched forcing terms and the Euler loop must equal it bit for bit.  The
second is the earlier per-term double sum, each term contracted on its own
and added in plan order from zeros.  Horner's rule reassociates that sum, so
components of degree 3 and up move by rounding; the test below checks the
move entry by entry against a running-error bound (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., 2002, ch. 3).
"""

from dataclasses import replace
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from formalflow import (
    BrownianPath,
    CoefficientFamily,
    FormalMapping,
    MultilinearMap,
)
from formalflow import chain
from formalflow.algebra import _classes, _Runner, compose, enumerate_compositions, evaluate
from formalflow.chain import TimeGrid, _euler_states, _forcing, _step_maps, _step_parts, one_step_map


def ref_contract(t, a, batch=0):
    m = t.shape[batch + 1]
    if t.ndim > batch + 2:
        t = t.transpose(tuple(range(batch + 1)) + tuple(range(batch + 2, t.ndim)) + (batch + 1,))
    out = t.reshape(t.shape[:batch] + (-1, m)) @ a.reshape(a.shape[:batch] + (m, -1))
    return out.reshape(out.shape[:batch] + t.shape[batch:-1] + a.shape[batch + 1 :])


def ref_tail_last(t, batch, tail):
    if not tail:
        return t
    lead = range(batch + 1, batch + 1 + tail)
    return np.moveaxis(t, lead, range(t.ndim - tail, t.ndim))


def plan(n):
    """The per-term plan of component n: its terms (k, parts) in summation order."""
    return [(k, parts) for k in range(1, n + 1) for parts in enumerate_compositions(n, k)]


def ref_compose_component(n, b, a, shape, memo, batch=0, tail=0):
    acc = np.zeros(shape)
    for k, parts in plan(n):
        if b[k - 1] is None or any(a[j - 1] is None for j in parts):
            continue
        t = b[k - 1]
        for i in range(1, len(parts) + 1):
            key = (k, parts[:i])
            if key not in memo:
                memo[key] = ref_contract(t, a[parts[i - 1] - 1], batch)
            t = memo[key]
        acc += ref_tail_last(t, batch, tail)
    return acc


def ref_horner(b, a, shapes, batch=0, tail=0):
    """Components 1.. of b after a, one per shape, by Horner's rule.

    Class (r, s) is the sum of every b_k whose first k - r slots hold a_j's
    of total degree s.  It is made as the sum, over j descending, of class
    (r + 1, s - j) with a_j plugged into its leading slot; class (0, n) is
    component n, added to zeros.
    """
    order = len(shapes)
    classes = {(k, 0): e for k, e in enumerate(b[:order], start=1) if e is not None}
    for r in range(order - 1, -1, -1):
        for t in range(1, order - r + 1):
            for j in range(t, 0, -1):
                source = classes.get((r + 1, t - j))
                if source is None or j > len(a) or a[j - 1] is None:
                    continue
                term = ref_contract(source, a[j - 1], batch)
                classes[r, t] = classes[r, t] + term if (r, t) in classes else term
    return [
        np.zeros(shape) + (ref_tail_last(classes[0, n], batch, tail) if (0, n) in classes else 0.0)
        for n, shape in enumerate(shapes, start=1)
    ]


def ref_noise(b_k, dw):
    p, m = dw.shape
    out = b_k.reshape(1, -1, m) @ dw.reshape(p, m, 1)
    return out.reshape((p,) + b_k.shape[:-1])


def ref_psi(a, b, dt, dw):
    """Psi = id + a*dt + b(..., dw) of one step by degree, in the usual
    layout: (P, d) + (d,)*k where b_k is nonzero, (1, d) + (d,)*k where it
    is zero, and None where a_k and b_k are zero (k > 1).  dw is (P, m)."""
    d, psi = a.dy, []
    for k, (ak, bk) in enumerate(zip(a.components, b.components), start=1):
        if k > 1 and ak.is_zero and bk.is_zero:
            psi.append(None)
            continue
        entries = np.eye(d) if k == 1 else np.zeros((d,) + (d,) * k)
        if not ak.is_zero:
            entries = entries + dt * ak.entries
        entries = entries[None]
        if not bk.is_zero:
            entries = entries + ref_noise(bk.entries, dw)
        psi.append(entries)
    return psi


def ref_euler_states(coeffs, grid, state, dw):
    n_paths, d = dw.shape[0], coeffs.dy
    for i, t in enumerate(grid.knots()[:-1].tolist()):
        a, b = coeffs.drift(t), coeffs.diffusion(t)
        psi = ref_psi(a, b, grid.dt, dw[:, i])
        prev = [e if e.any() else None for e in state]
        state = ref_horner(psi, prev, [(n_paths, d) + (d,) * n for n in range(1, a.order + 1)], batch=1)
        yield state


def slots_first(e, degree, batch=1):
    """Entries (batch..., out, degree slots, tail...) moved slots-first."""
    return None if e is None else np.ascontiguousarray(np.moveaxis(e, batch, batch + degree))


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def draw_entries(data, rng, shape, scale=1.0):
    """Random entries of shape, or None for a zero component."""
    return None if data.draw(st.booleans()) else scale * rng.standard_normal(shape)


def filled(x, shape):
    """x, with a zero component (None) as zeros of shape."""
    return np.zeros(shape) if x is None else x


_seeds = st.integers(0, 2**32 - 1)
_dims = dict(order=st.integers(1, 5), d=st.integers(1, 3), m=st.integers(1, 2), seed=_seeds)


@given(**_dims, noise=st.booleans(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_compose_matches_the_reference_bitwise(order, d, m, seed, noise, data):
    rng = np.random.default_rng(seed)
    # the inner maps have matrix arguments: R^1 -> R^d with d > 1 would be a
    # vector contraction, which test_vector_contractions_move_by_an_ulp covers
    e = data.draw(st.sampled_from(sorted({d, 2, 3})))
    tail = (m,) if noise else ()
    b = [draw_entries(data, rng, (d,) + (d,) * k + tail) for k in range(1, order + 1)]
    a = [draw_entries(data, rng, (d,) + (e,) * k) for k in range(1, order + 1)]
    outer = tuple(
        MultilinearMap(k, d, d, filled(x, (d,) + (d,) * k + tail), tail) for k, x in enumerate(b, start=1)
    )
    outer = FormalMapping(order, d, d, outer)
    inner = tuple(
        MultilinearMap(k, e, d, filled(x, (d,) + (e,) * k)) for k, x in enumerate(a, start=1)
    )
    inner = FormalMapping(order, e, d, inner)
    got = compose(outer, inner)
    shapes = [(d,) + (e,) * n + tail for n in range(1, order + 1)]
    for n, want in enumerate(ref_horner(b, a, shapes, tail=len(tail)), start=1):
        assert same_bits(got.component(n).entries, want)


@given(**_dims, steps=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_batched_forcing_matches_the_reference_bitwise(order, d, m, seed, steps, data):
    # one runner for degrees 1..top gives each degree the bits of a runner
    # up to that degree: the degrees share their Horner classes
    rng = np.random.default_rng(seed)
    top = data.draw(st.integers(2, max(order, 2)))
    state = [draw_entries(data, rng, (steps, d) + (d,) * k) for k in range(1, top)]
    a = [draw_entries(data, rng, (steps, d) + (d,) * k) for k in range(1, top + 1)]
    b = [draw_entries(data, rng, (steps, d) + (d,) * k + (m,)) for k in range(1, top + 1)]
    shapes = [(steps, d) + (d,) * n for n in range(1, top + 1)]
    a_sf, b_sf = ([slots_first(x, k) for k, x in enumerate(c, start=1)] for c in (a, b))
    f, g = _forcing(state, a_sf, b_sf, shapes)
    # f_1 and g_1 are the zeroed degree-1 coefficients' terms
    assert same_bits(f[0], np.zeros(shapes[0])) and g[0] is None
    for n, f_n, g_n in zip(range(2, top + 1), f[1:], g[1:], strict=True):
        assert same_bits(f_n, ref_horner([None] + a[1:n], state[: n - 1], shapes[:n], batch=1)[-1])
        if all(x is None for x in b[1:n]):
            assert g_n is None
        else:
            want = ref_horner([None] + b[1:n], state[: n - 1], [s + (m,) for s in shapes[:n]], batch=1, tail=1)
            assert same_bits(g_n, want[-1])


@given(**_dims, n_paths=st.integers(1, 4), shared_start=st.booleans(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_euler_states_match_the_reference_bitwise(order, d, m, seed, n_paths, shared_start, data):
    rng = np.random.default_rng(seed)
    steps = data.draw(st.integers(1, 4))

    def family(tail):
        shapes = [(d,) + (d,) * k + tail for k in range(1, order + 1)]
        comps = [
            MultilinearMap(k, d, d, filled(draw_entries(data, rng, shape, 0.3), shape), tail)
            for k, shape in enumerate(shapes, start=1)
        ]
        return FormalMapping(order, d, d, tuple(comps))

    a, b = family(()), family((m,))
    coeffs = CoefficientFamily.constant(a, b)
    grid = TimeGrid(0.0, 0.5, steps)
    dw = np.sqrt(grid.dt) * rng.standard_normal((n_paths, steps, m))
    lead = 1 if shared_start else n_paths
    start = [np.broadcast_to(np.eye(d), (lead, d, d)).copy()]
    for k in range(2, order + 1):
        shape = (lead, d) + (d,) * k
        start.append(filled(draw_entries(data, rng, shape, 0.5), shape))
    assert_states_match_the_reference(coeffs, grid, start, dw)
    # with no noise, a Psi_k with a_k = 0 and b_k != 0 is zero, and so are the
    # state components it feeds: zero data in a nonzero structural pattern
    assert_states_match_the_reference(coeffs, grid, start, np.zeros_like(dw))


def assert_states_match_the_reference(coeffs, grid, start, dw):
    path = BrownianPath(grid, dw, seed=0)
    # a block is valid until the next one: each is copied as it comes
    got = [state for block in _euler_states(coeffs, path, start) for state in zip(*(e.copy() for e in block))]
    want = list(ref_euler_states(coeffs, grid, start, dw))
    assert len(got) == len(want) == grid.n_steps
    for state_got, state_want in zip(got, want):
        for x, y in zip(state_got, state_want):
            assert same_bits(x, y)


@given(**_dims, n_paths=st.integers(1, 3), switch=st.booleans(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_time_dependent_coefficients_match_the_reference_bitwise(order, d, m, seed, n_paths, switch, data):
    """Psi is written into reused runners' buffers in place.  Coefficients
    that switch to another zero pattern at a knot, or that are a new object
    at every step, must still give the reference's bits."""
    rng = np.random.default_rng(seed)
    steps = data.draw(st.integers(2, 6))
    grid = TimeGrid(0.0, 0.5, steps)

    def family(tail):
        shapes = [(d,) + (d,) * k + tail for k in range(1, order + 1)]
        comps = [
            MultilinearMap(k, d, d, filled(draw_entries(data, rng, shape, 0.3), shape), tail)
            for k, shape in enumerate(shapes, start=1)
        ]
        return FormalMapping(order, d, d, tuple(comps))

    a = [family(()) for _ in range(2)]
    b = [family((m,)) for _ in range(2)]
    if switch:
        knot = grid.knot(data.draw(st.integers(1, steps - 1)))
        coeffs = CoefficientFamily(order, d, m, lambda t: a[t >= knot], lambda t: b[t >= knot])
    else:

        def scaled(mapping, scale):
            """A new mapping: scale times mapping."""
            return mapping._of(order, [replace(c, entries=scale * c.entries) for c in mapping.components])

        coeffs = CoefficientFamily(
            order, d, m, lambda t: scaled(a[0], 1.0 + t), lambda t: scaled(b[0], 1.0 - t)
        )
    dw = np.sqrt(grid.dt) * rng.standard_normal((n_paths, steps, m))
    start = [np.eye(d)[None]] + [np.zeros((1, d) + (d,) * k) for k in range(2, order + 1)]
    assert_states_match_the_reference(coeffs, grid, start, dw)


@given(
    order=st.integers(1, 4), d=st.integers(1, 3), m=st.integers(1, 2), seed=_seeds,
    n_paths=st.integers(1, 3), budget=st.integers(1, 4000),
    start_kind=st.sampled_from(["identity", "sparse", "random"]), data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_blocks_of_steps_match_the_reference_bitwise(order, d, m, seed, n_paths, budget, start_kind, data):
    """`_euler_states` runs the steps in blocks of the float budget's length,
    the last one shorter or not; the states still have the bits of the
    step-by-step reference, where the coefficients switch inside a block,
    where the start is sparse or random, and with no noise."""
    rng = np.random.default_rng(seed)
    steps = data.draw(st.integers(2, 24))
    grid = TimeGrid(0.0, 0.5, steps)

    def family(tail):
        shapes = [(d,) + (d,) * k + tail for k in range(1, order + 1)]
        comps = [
            MultilinearMap(k, d, d, filled(draw_entries(data, rng, shape, 0.3), shape), tail)
            for k, shape in enumerate(shapes, start=1)
        ]
        return FormalMapping(order, d, d, tuple(comps))

    a = [family(()) for _ in range(2)]
    b = [family((m,)) for _ in range(2)]
    knot = grid.knot(data.draw(st.integers(1, steps))) if data.draw(st.booleans()) else grid.t_end
    coeffs = CoefficientFamily(order, d, m, lambda t: a[t >= knot], lambda t: b[t >= knot])
    dw = np.sqrt(grid.dt) * rng.standard_normal((n_paths, steps, m))
    if data.draw(st.booleans()):
        dw = np.zeros_like(dw)
    lead = data.draw(st.sampled_from([1, n_paths]))
    start = []
    for k in range(1, order + 1):
        shape = (lead, d) + (d,) * k
        if start_kind == "random" or (start_kind == "sparse" and data.draw(st.booleans())):
            start.append(0.5 * rng.standard_normal(shape))
        elif k == 1 and start_kind == "identity":
            start.append(np.broadcast_to(np.eye(d), shape).copy())
        else:
            start.append(np.zeros(shape))
    with patch.object(chain, "_EULER_FLOATS", budget):
        lengths = [len(block[0]) for block in _euler_states(coeffs, BrownianPath(grid, dw, seed=0), start)]
        assert sum(lengths) == steps and set(lengths[:-1]) <= {lengths[0]} and lengths[-1] <= lengths[0]
        assert_states_match_the_reference(coeffs, grid, start, dw)


@given(
    order=st.integers(1, 4), d=st.integers(1, 3), m=st.integers(1, 2), seed=_seeds,
    n_paths=st.integers(1, 3), switch=st.booleans(), data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_step_maps_and_one_step_map_match_the_reference_psi(order, d, m, seed, n_paths, switch, data):
    """Every Psi the solvers build comes from `_step_parts` and `_step_maps`:
    their rows, and `one_step_map` on each path alone, have the bits of
    `ref_psi`, the Psi that `ref_euler_states` steps with.  A degree that is
    zero at one pair but not at the other is +0.0 at the first."""
    rng = np.random.default_rng(seed)
    steps = data.draw(st.integers(1, 5))
    grid = TimeGrid(0.0, 0.5, steps)

    def family(tail):
        shapes = [(d,) + (d,) * k + tail for k in range(1, order + 1)]
        comps = [
            MultilinearMap(k, d, d, filled(draw_entries(data, rng, shape, 0.3), shape), tail)
            for k, shape in enumerate(shapes, start=1)
        ]
        return FormalMapping(order, d, d, tuple(comps))

    a = [family(()) for _ in range(2)]
    b = [family((m,)) for _ in range(2)]
    # the pair switches at a knot, or at t_end: one pair on the whole grid
    knot = grid.knot(data.draw(st.integers(1, steps))) if switch else grid.t_end
    coeffs = CoefficientFamily(order, d, m, lambda t: a[t >= knot], lambda t: b[t >= knot])
    dw = np.sqrt(grid.dt) * rng.standard_normal((n_paths, steps, m))
    on_grid = coeffs.on_grid(grid)
    maps = _step_maps(_step_parts(on_grid, grid.dt, d), on_grid.index, dw.swapaxes(0, 1))
    for i, t in enumerate(grid.knots()[:-1].tolist()):
        a_t, b_t = coeffs.drift(t), coeffs.diffusion(t)
        want = ref_psi(a_t, b_t, grid.dt, dw[:, i])
        for k, (got, want_k) in enumerate(zip(maps, want), start=1):
            shape = (n_paths, d) + (d,) * k
            if got is None:
                assert want_k is None
                continue
            got_i = got[i]
            assert same_bits(got_i, np.broadcast_to(filled(want_k, shape), got_i.shape))
        for p in range(n_paths):
            psi = one_step_map(a_t, b_t, grid.dt, dw[p, i])
            for k, want_k in enumerate(want, start=1):
                row = np.zeros((d,) + (d,) * k) if want_k is None else want_k[p if len(want_k) > 1 else 0]
                assert same_bits(psi.component(k).entries, row)


def ref_evaluate(a, y, entries=lambda c: c.entries):
    batch = y.ndim - 1
    out = np.zeros(y.shape[:-1] + (a.dz,))
    for comp in a.components:
        t = entries(comp)[(None,) * batch]
        for _ in range(comp.degree):
            t = ref_contract(t, y, batch)
        out += t
    return out


@given(order=st.integers(1, 5), d=st.integers(2, 3), seed=_seeds, paths=st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_vector_contractions_move_by_an_ulp(order, d, seed, paths):
    """Plugging a vector, or a map from R^1, is a matrix-vector product, and
    BLAS has separate kernels for the transposed and the plain matrix, so the
    bits may move.  Each of the order contractions of length d rounds within
    d*eps of its absolute sum, and compose sums at most 2^(order-1) terms.
    Over a few thousand random cases the worst move was 1.2 eps (evaluate)
    and 1.6 eps (compose) of the same operation on absolute values."""
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    a = FormalMapping(order, d, d, tuple(
        MultilinearMap(k, d, d, rng.standard_normal((d,) + (d,) * k)) for k in range(1, order + 1)
    ))
    y = rng.standard_normal((paths, d) if paths else (d,))
    scale = ref_evaluate(a, np.abs(y), lambda c: np.abs(c.entries))
    assert np.all(np.abs(evaluate(a, y) - ref_evaluate(a, y)) <= 2 * order * d * eps * scale)
    if not paths:
        # the top component alone, against its own absolute scale
        top = a.components[-1]
        zeros = tuple(MultilinearMap.zero(k, d, d) for k in range(1, order))
        got = evaluate(FormalMapping(order, d, d, zeros + (top,)), y)
        t = top.entries
        abs_t = np.abs(t)
        for _ in range(order):
            t, abs_t = ref_contract(t, y), ref_contract(abs_t, np.abs(y))
        assert np.all(np.abs(got - t) <= 2 * order * d * eps * abs_t)
    line = FormalMapping(order, 1, d, tuple(
        MultilinearMap(k, 1, d, rng.standard_normal((d,) + (1,) * k)) for k in range(1, order + 1)
    ))
    got = compose(a, line)
    bound = 2 * (order * d + 2 ** (order - 1)) * eps
    outer, inner = ([c.entries for c in x.components] for x in (a, line))
    memo, abs_memo = {}, {}
    for n in range(1, order + 1):
        shape = (d,) + (1,) * n
        want = ref_compose_component(n, outer, inner, shape, memo)
        abs_scale = ref_compose_component(
            n, [np.abs(e) for e in outer], [np.abs(e) for e in inner], shape, abs_memo
        )
        assert np.all(np.abs(got.component(n).entries - want) <= bound * abs_scale)


@given(
    order=st.integers(1, 6), d=st.integers(1, 3), rows=st.sampled_from([1, 3]), noise=st.booleans(),
    seed=_seeds, data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_horner_moves_the_per_term_sum_within_the_bound(order, d, rows, noise, seed, data):
    """Each term of component n is at most n contractions of length d, and
    the per-term reference adds at most 2^(n-1) terms; Horner's rule adds
    fewer, and no longer.  So both sides round within (n*d + 2^(n-1))*eps of
    the same evaluation on absolute values, (|b| o |a|)_n, entry by entry.
    Over 3000 random cases the worst move was 0.105 of the bound.
    Components 1 and 2 are summed in the same order both ways, so they keep
    their bits."""
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    tail = (2,) if noise else ()

    b = [draw_entries(data, rng, (rows, d) + (d,) * k + tail) for k in range(1, order + 1)]
    a = [draw_entries(data, rng, (rows, d) + (d,) * k) for k in range(1, order + 1)]
    shapes = [(rows, d) + (d,) * n + tail for n in range(1, order + 1)]
    b_sf = [slots_first(x, k) for k, x in enumerate(b, start=1)]
    got = _Runner(b_sf, a, shapes, tail=len(tail)).components()
    memo, abs_memo = {}, {}
    abs_b, abs_a = ([None if x is None else np.abs(x) for x in c] for c in (b, a))
    for n, shape in enumerate(shapes, start=1):
        want = ref_compose_component(n, b, a, shape, memo, 1, len(tail))
        scale = ref_compose_component(n, abs_b, abs_a, shape, abs_memo, 1, len(tail))
        assert got[n - 1].shape == shape
        assert np.all(np.abs(got[n - 1] - want) <= 2 * (n * d + 2 ** (n - 1)) * eps * scale)
        if n <= 2:
            assert same_bits(got[n - 1], want)


def test_a_sum_of_negative_zeros_reads_positive_zero():
    """Entry (0, 0) of b_1 o a_1 is 1*(-0.0) + 0*(-1.0): every term is -0.0.
    A product summed from +0.0, as this BLAS does, reads +0.0; one started
    from its first term would read -0.0, and the copy-out must still give
    +0.0, as the per-term sum from zeros does."""
    b = FormalMapping(1, 2, 2, (MultilinearMap(1, 2, 2, np.eye(2)),))
    a = FormalMapping(1, 2, 2, (MultilinearMap(1, 2, 2, np.array([[-0.0, 1.0], [-1.0, 2.0]])),))
    got = compose(b, a).component(1).entries
    want = ref_compose_component(1, [np.eye(2)], [a.component(1).entries], (2, 2), {})
    assert same_bits(want[:1, :1], np.zeros((1, 1)))
    assert same_bits(got, want)


def products(classes):
    """The products ((r + 1, s), j) of a `_classes` plan: class (r + 1, s) with a_j plugged in."""
    return {((r + 1, s), j) for (r, t), sources in classes for s, j in sources}


def through(terms):
    """Each product that the terms (k, parts) pass through, with the terms through it."""
    out = {}
    for k, parts in terms:
        for i in range(k):
            out.setdefault(((k - i, sum(parts[:i])), parts[i]), set()).add((k, parts))
    return out


def kept(n, b_nonzero, a_nonzero):
    return [
        (k, parts)
        for k, parts in plan(n)
        if b_nonzero[k - 1] and all(a_nonzero[j - 1] for j in parts)
    ]


def test_full_order_six_pattern_counts():
    full = _classes(6, (True,) * 6, (True,) * 6)
    assert len(products(full)) == sum(len(sources) for _, sources in full) == 56
    assert len(full) == 21  # one class (r, t) per r >= 0, t >= 1, r + t <= 6
    assert sum(len(sources) - 1 for _, sources in full) == 35
    rng = np.random.default_rng(0)
    b = [rng.standard_normal((1,) + (3,) * (k + 1)) for k in range(1, 7)]
    ops = _Runner(b, b, [(1,) + (3,) * (n + 1) for n in range(1, 7)]).ops
    assert [f for f, *_ in ops].count(np.matmul) == 56
    assert [f for f, *_ in ops].count(np.add) == 35


def test_a_zero_component_removes_exactly_the_terms_that_use_it():
    """The partial terms are the products: one goes exactly when every full
    term through it has the zero operand."""
    full = (True,) * 6
    every = through(term for n in range(1, 7) for term in plan(n))
    for which in ("b", "a"):
        for zero in range(1, 7):
            pattern = tuple(i != zero for i in range(1, 7))
            b_nonzero, a_nonzero = (pattern, full) if which == "b" else (full, pattern)
            got = products(_classes(6, b_nonzero, a_nonzero))
            alive = {term for n in range(1, 7) for term in kept(n, b_nonzero, a_nonzero)}
            assert got == {p for p, terms in every.items() if terms & alive}
            if which == "a":
                assert all(j != zero for _, j in got)
            else:
                assert all(source != (zero, 0) for source, _ in got)

