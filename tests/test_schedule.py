"""The compiled composition schedule against the transpose kernel and memo plan it replaced.

The reference functions below are the earlier kernel, which moved the slot
axis last with a transposed copy, and the earlier per-component loop with its
memo dict and per-term zero tests.  The slots-first kernel and `_schedule`
must give the same bits for compose, the batched forcing terms and the
Euler loop.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from formalflow import (
    CoefficientFamily,
    DiffusionFamily,
    DiffusionMap,
    FormalMapping,
    MultilinearMap,
)
from formalflow.algebra import _plan, _schedule, compose, evaluate
from formalflow.chain import TimeGrid, _euler_states, _forcing


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


def ref_compose_component(n, b, a, shape, memo, batch=0, tail=0):
    acc = np.zeros(shape)
    for k, parts in _plan(n):
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


def ref_noise(b_k, dw):
    p, m = dw.shape
    out = b_k.reshape(1, -1, m) @ dw.reshape(p, m, 1)
    return out.reshape((p,) + b_k.shape[:-1])


def ref_euler_states(a, b, grid, state, dw):
    n_paths, dt, d = dw.shape[0], grid.dt, a.dy
    for i in range(grid.n_steps):
        psi = []
        for k, (ak, bk) in enumerate(zip(a.components, b.components), start=1):
            if k > 1 and ak.is_zero and bk.is_zero:
                psi.append(None)
                continue
            entries = np.eye(d) if k == 1 else np.zeros((d,) + (d,) * k)
            if not ak.is_zero:
                entries = entries + dt * ak.entries
            entries = entries[None]
            if not bk.is_zero:
                entries = entries + ref_noise(bk.entries, dw[:, i])
            psi.append(entries)
        prev = [e if e.any() else None for e in state]
        memo = {}
        state = [
            ref_compose_component(n, psi, prev, (n_paths, d) + (d,) * n, memo, batch=1)
            for n in range(1, a.order + 1)
        ]
        yield state


def slots_first(e, degree):
    """A stack (steps, out, degree slots, tail...) moved slots-first."""
    return None if e is None else np.ascontiguousarray(np.moveaxis(e, 1, 1 + degree))


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
    kind = DiffusionMap if noise else MultilinearMap
    outer = [kind(k, d, d, *tail, filled(x, (d,) + (d,) * k + tail)) for k, x in enumerate(b, start=1)]
    if noise:
        outer = DiffusionFamily(order, d, m, outer)
    else:
        outer = FormalMapping(order, d, d, tuple(outer))
    inner = tuple(
        MultilinearMap(k, e, d, filled(x, (d,) + (e,) * k)) for k, x in enumerate(a, start=1)
    )
    inner = FormalMapping(order, e, d, inner)
    got = compose(outer, inner)
    memo = {}
    for n in range(1, order + 1):
        want = ref_compose_component(n, b, a, (d,) + (e,) * n + tail, memo, tail=len(tail))
        assert same_bits(got.component(n).entries, want)


@given(**_dims, steps=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_batched_forcing_matches_the_reference_bitwise(order, d, m, seed, steps, data):
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(2, max(order, 2)))
    state = [draw_entries(data, rng, (steps, d) + (d,) * k) for k in range(1, n)]
    a = [draw_entries(data, rng, (steps, d) + (d,) * k) for k in range(1, n + 1)]
    b = [draw_entries(data, rng, (steps, d) + (d,) * k + (m,)) for k in range(1, n + 1)]
    shape = (steps, d) + (d,) * n
    a_sf, b_sf = ([slots_first(x, k) for k, x in enumerate(c, start=1)] for c in (a, b))
    f, g = _forcing(n, state, a_sf, b_sf, shape)
    assert same_bits(f, ref_compose_component(n, [None] + a[1:n], state, shape, {}, batch=1))
    if all(x is None for x in b[1:n]):
        assert g is None
    else:
        want = ref_compose_component(n, [None] + b[1:n], state, shape + (m,), {}, batch=1, tail=1)
        assert same_bits(g, want)


@given(**_dims, n_paths=st.integers(1, 4), shared_start=st.booleans(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_euler_states_match_the_reference_bitwise(order, d, m, seed, n_paths, shared_start, data):
    rng = np.random.default_rng(seed)
    steps = data.draw(st.integers(1, 4))

    def family(kind, tail):
        shapes = [(d,) + (d,) * k + tail for k in range(1, order + 1)]
        return [
            kind(k, d, d, *tail, filled(draw_entries(data, rng, shape, 0.3), shape))
            for k, shape in enumerate(shapes, start=1)
        ]

    a = FormalMapping(order, d, d, tuple(family(MultilinearMap, ())))
    b = DiffusionFamily(order, d, m, family(DiffusionMap, (m,)))
    coeffs = CoefficientFamily.constant(a, b)
    grid = TimeGrid(0.0, 0.5, steps)
    dw = np.sqrt(grid.dt) * rng.standard_normal((n_paths, steps, m))
    lead = 1 if shared_start else n_paths
    start = [np.broadcast_to(np.eye(d), (lead, d, d)).copy()]
    for k in range(2, order + 1):
        shape = (lead, d) + (d,) * k
        start.append(filled(draw_entries(data, rng, shape, 0.5), shape))
    got = list(_euler_states(coeffs, grid, start, dw))
    want = list(ref_euler_states(a, b, grid, start, dw))
    assert len(got) == len(want) == steps
    for state_got, state_want in zip(got, want):
        for x, y in zip(state_got, state_want):
            assert same_bits(x, y)


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
        top = a.components[-1]
        got = top.apply(*[y] * order)
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


def decode(order, ops, v):
    """The term (k, parts) that value v of a schedule computes."""
    if v < order:
        return v + 1, ()
    source, j = ops[v - order]
    k, parts = decode(order, ops, source)
    return k, parts + (j,)


def kept(n, b_nonzero, a_nonzero):
    return [
        (k, parts)
        for k, parts in _plan(n)
        if b_nonzero[k - 1] and all(a_nonzero[j - 1] for j in parts)
    ]


def test_full_order_six_pattern_counts():
    ops, terms = _schedule(6, (True,) * 6, (True,) * 6)
    assert len(ops) == 120
    assert sum(map(len, terms)) == 63 == sum(len(_plan(n)) for n in range(1, 7))


def test_a_zero_component_removes_exactly_the_terms_that_use_it():
    full = (True,) * 6
    for which in ("b", "a"):
        for zero in range(6):
            pattern = tuple(i != zero for i in range(6))
            b_nonzero, a_nonzero = (pattern, full) if which == "b" else (full, pattern)
            ops, terms = _schedule(6, b_nonzero, a_nonzero)
            for n, term in enumerate(terms, start=1):
                assert [decode(6, ops, v) for v in term] == kept(n, b_nonzero, a_nonzero)
            prefixes = {
                (k, parts[:i])
                for n in range(1, 7)
                for k, parts in kept(n, b_nonzero, a_nonzero)
                for i in range(1, k + 1)
            }
            assert len(ops) == len(prefixes)


def test_first_compiles_only_the_later_components():
    full = (True,) * 5
    ops, terms = _schedule(5, (False,) + full[1:], full, first=5)
    assert len(terms) == 1
    assert [decode(5, ops, v) for v in terms[0]] == kept(5, (False,) + full[1:], full)
