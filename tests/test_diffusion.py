"""Diffusion coefficients as multilinear maps with a trailing noise axis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalflow import (
    DiffusionFamily,
    DiffusionMap,
    FormalMapping,
    MultilinearMap,
    NonFiniteError,
    ShapeError,
    apply_to_tuple,
    compose,
    evaluate,
)
from conftest import mapping_allclose, mapping_equal, random_diffusion, random_mapping, zero_diffusion


def column(b, j):
    """Noise column j of a diffusion family, as a plain formal mapping."""
    comps = tuple(MultilinearMap(c.degree, c.dy, c.dz, c.entries[..., j]) for c in b.components)
    return FormalMapping(b.order, b.dy, b.dz, comps)


def close(x, y, rtol=1e-13):
    return np.abs(x - y).max(initial=0.0) <= rtol * max(np.abs(y).max(initial=0.0), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(1, 4),
    d=st.integers(1, 3),
    e=st.integers(1, 3),
    m=st.integers(1, 3),
    zeros=st.lists(st.booleans(), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_operations_act_on_each_noise_column(order, d, e, m, zeros, seed):
    # b: R^d -> R^d with m noise columns; S: R^e -> R^d, with some zero components
    rng = np.random.default_rng(seed)
    b = random_diffusion(rng, order, d, m)
    comps = [MultilinearMap.zero(c.degree, d, d, (m,)) if z else c for c, z in zip(b.components, zeros)]
    b = DiffusionFamily(order, d, m, comps)
    s = random_mapping(rng, order, e, d)
    y = rng.standard_normal(d)
    degrees = rng.integers(1, order + 1, size=order).tolist()
    args = [s.component(j) for j in degrees]

    composed = compose(b, s)
    assert (composed.order, composed.dy, composed.dz, composed.tail) == (order, e, d, (m,))
    value = evaluate(b, y)
    assert value.shape == (d, m)
    plugged = apply_to_tuple(b.component(order), args)
    assert plugged.tail == (m,) and plugged.entries.shape == (d,) + (e,) * sum(degrees) + (m,)
    assert np.array_equal(DiffusionMap.apply_to_tuple(b.component(order), args).entries, plugged.entries)
    for j in range(m):
        bj = column(b, j)
        for got, want in zip(composed.components, compose(bj, s).components):
            assert close(got.entries[..., j], want.entries)
        assert close(value[:, j], evaluate(bj, y))
        assert close(plugged.entries[..., j], apply_to_tuple(bj.component(order), args).entries)


class TestMalformedInput:
    def test_wrong_entry_count_names_both_shapes(self):
        with pytest.raises(ShapeError) as info:
            DiffusionMap(2, 2, 2, 3, np.zeros(7))
        assert "(7,)" in str(info.value) and "(2, 2, 2, 3)" in str(info.value)

    def test_non_finite_names_the_degree(self):
        entries = np.zeros((1, 1, 1, 2))
        entries[0, 0, 0, 1] = np.nan
        with pytest.raises(NonFiniteError) as info:
            DiffusionMap(2, 1, 1, 2, entries)
        assert info.value.degree == 2

    def test_component_noise_dim_must_match_family(self):
        # this used to say only "diffusion component 1 has inconsistent shape"
        with pytest.raises(ShapeError) as info:
            DiffusionFamily(1, 2, 2, (MultilinearMap.zero(1, 2, 2, (3,)),))
        assert "(2, 2, 3)" in str(info.value) and "(2, 2, 2)" in str(info.value)

    def test_noise_axis_only_on_the_outer_map(self, rng):
        b = random_diffusion(rng, 2, 2, 2)
        a = random_mapping(rng, 2, 2, 2)
        with pytest.raises(ShapeError):
            compose(a, b)
        with pytest.raises(ShapeError):
            apply_to_tuple(a.component(1), [b.component(1)])


class TestOneTensorType:
    def test_diffusion_types_are_the_algebra_types(self, rng):
        b = random_diffusion(rng, 3, 2, 2)
        assert type(b) is FormalMapping and b.tail == (2,)
        assert all(type(c) is MultilinearMap and c.tail == (2,) for c in b.components)

    def test_dict_round_trip_keeps_the_m_key(self, rng):
        b = random_diffusion(rng, 3, 2, 2)
        d = b.component(2).to_dict()
        assert list(d) == ["degree", "dy", "dz", "m", "entries"] and d["m"] == 2
        assert np.array_equal(MultilinearMap.from_dict(d, noise=True).entries, b.component(2).entries)
        comps = [MultilinearMap.from_dict(c, noise=True) for c in b.to_dict()["components"]]
        back = DiffusionFamily(b.order, b.dy, 2, comps)
        assert mapping_equal(back, b)

    def test_scalar_family(self):
        b = FormalMapping.from_scalar_coeffs([0.5, 0.25], (1,))
        assert (b.order, b.dy, b.dz, b.tail) == (2, 1, 1, (1,))
        assert [c.entries.shape for c in b.components] == [(1, 1, 1), (1, 1, 1, 1)]
        assert mapping_allclose(column(b, 0), FormalMapping.from_scalar_coeffs([0.5, 0.25]))
        assert b.scalar_coeffs().tolist() == [0.5, 0.25]
        with pytest.raises(ShapeError):
            zero_diffusion(1, 1, 2).scalar_coeffs()  # two noise columns are not a scalar
