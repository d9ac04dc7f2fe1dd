import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalflow import (
    FormalMapping,
    MultilinearMap,
    NonFiniteError,
    ShapeError,
    apply_to_tuple,
    compose,
    enumerate_compositions,
    evaluate,
    identity,
    polynomial_oracle_compose,
)
from conftest import mapping_allclose, mapping_equal, random_mapping


def brute_force_compositions(n, k):
    # each part is at most n - k + 1 since the others are at least 1
    return [p for p in itertools.product(range(1, n - k + 2), repeat=k) if sum(p) == n]


class TestEnumerateCompositions:
    def test_three_into_two(self):
        assert enumerate_compositions(3, 2) == [(1, 2), (2, 1)]

    def test_single_part(self):
        for n in range(1, 8):
            assert enumerate_compositions(n, 1) == [(n,)]

    def test_four_into_two(self):
        parts = enumerate_compositions(4, 2)
        assert parts == [(1, 3), (2, 2), (3, 1)]
        assert len(parts) == math.comb(3, 1)

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, n, data):
        k = data.draw(st.integers(1, n))
        got = enumerate_compositions(n, k)
        assert got == brute_force_compositions(n, k)
        assert len(got) == math.comb(n - 1, k - 1)
        assert len(set(got)) == len(got)
        assert got == sorted(got)

    @pytest.mark.parametrize("n,k", [(0, 1), (3, 0), (2, 3), (-1, 1)])
    def test_domain_errors(self, n, k):
        with pytest.raises(ShapeError):
            enumerate_compositions(n, k)


class TestApplyToTuple:
    def test_linear_case_is_matrix_product(self, rng):
        a = MultilinearMap(1, 3, 2, rng.standard_normal((2, 3)))
        b = MultilinearMap(1, 2, 4, rng.standard_normal((4, 2)))
        out = apply_to_tuple(b, [a])
        assert np.allclose(out.entries, b.entries @ a.entries)

    def test_identity_contraction(self, rng):
        a = MultilinearMap(3, 2, 2, rng.standard_normal((2, 2, 2, 2)))
        ident = MultilinearMap(1, 2, 2, np.eye(2))
        out = apply_to_tuple(ident, [a])
        assert np.array_equal(out.entries, a.entries)

    def test_scalar_product(self):
        b2 = MultilinearMap(2, 1, 1, np.array([[[1.0]]]))
        a1 = MultilinearMap(1, 1, 1, np.array([[2.0]]))
        a1b = MultilinearMap(1, 1, 1, np.array([[3.0]]))
        out = apply_to_tuple(b2, [a1, a1b])
        assert out.degree == 2
        assert out.entries.ravel()[0] == 6.0

    def test_input_slots_distributed_in_order(self, rng):
        # b(a1(y1), a2(y2, y3)) evaluated on vectors must match slot-by-slot
        b = MultilinearMap(2, 2, 2, rng.standard_normal((2, 2, 2)))
        a1 = MultilinearMap(1, 3, 2, rng.standard_normal((2, 3)))
        a2 = MultilinearMap(2, 3, 2, rng.standard_normal((2, 3, 3)))
        out = apply_to_tuple(b, [a1, a2])
        y1, y2, y3 = rng.standard_normal((3, 3))
        # each map's value on vectors, by einsum: an oracle outside the kernel
        expected = np.einsum(
            "ijk,j,k->i",
            b.entries,
            np.einsum("ij,j->i", a1.entries, y1),
            np.einsum("ijk,j,k->i", a2.entries, y2, y3),
        )
        assert np.allclose(np.einsum("ijkl,j,k,l->i", out.entries, y1, y2, y3), expected)

    def test_multilinearity_in_each_argument(self, rng):
        b = MultilinearMap(2, 2, 2, rng.standard_normal((2, 2, 2)))
        a = MultilinearMap(2, 2, 2, rng.standard_normal((2, 2, 2)))
        a_alt = MultilinearMap(2, 2, 2, rng.standard_normal((2, 2, 2)))
        c = MultilinearMap(1, 2, 2, rng.standard_normal((2, 2)))
        lam = 0.37
        combo = MultilinearMap(2, 2, 2, a.entries + lam * a_alt.entries)
        lhs = apply_to_tuple(b, [combo, c]).entries
        rhs = apply_to_tuple(b, [a, c]).entries + lam * apply_to_tuple(b, [a_alt, c]).entries
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_dimension_mismatch(self, rng):
        b = MultilinearMap(1, 2, 2, np.eye(2))
        a = MultilinearMap(1, 3, 3, np.eye(3))
        with pytest.raises(ShapeError):
            apply_to_tuple(b, [a])


class TestCompose:
    def test_identity_laws_exact(self, rng):
        a = random_mapping(rng, 4, 3, 3)
        ident = identity(4, 3)
        assert mapping_equal(compose(a, ident), a)
        assert mapping_equal(compose(ident, a), a)

    def test_scalar_expansion(self):
        # (y + y^2) substituted into itself, truncated at degree 4
        a = FormalMapping.from_scalar_coeffs([1.0, 1.0, 0.0, 0.0])
        c = compose(a, a)
        assert np.array_equal(c.scalar_coeffs(), [1.0, 2.0, 2.0, 1.0])

    def test_degree_one_is_matrix_product(self, rng):
        a = random_mapping(rng, 1, 3, 2)
        b = random_mapping(rng, 1, 2, 4)
        c = compose(b, a)
        assert np.allclose(c.component(1).entries, b.component(1).entries @ a.component(1).entries)

    def test_truncation_to_min_order(self, rng):
        a = random_mapping(rng, 2, 2, 2)
        b = random_mapping(rng, 5, 2, 2)
        assert compose(b, a).order == 2
        assert compose(a, b).order == 2

    def test_dimension_mismatch(self, rng):
        a = random_mapping(rng, 2, 2, 3)
        b = random_mapping(rng, 2, 2, 2)
        with pytest.raises(ShapeError):
            compose(b, a)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        order = int(rng.integers(1, 6))
        dims = rng.integers(1, 5, size=4)
        a = random_mapping(rng, order, dims[0], dims[1])
        b = random_mapping(rng, order, dims[1], dims[2])
        c = random_mapping(rng, order, dims[2], dims[3])
        assert mapping_allclose(compose(compose(c, b), a), compose(c, compose(b, a)), rtol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_polynomial_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        order = int(rng.integers(1, 7))
        a_coeffs = rng.integers(-3, 4, size=order).astype(float)
        b_coeffs = rng.integers(-3, 4, size=order).astype(float)
        got = compose(
            FormalMapping.from_scalar_coeffs(b_coeffs),
            FormalMapping.from_scalar_coeffs(a_coeffs),
        ).scalar_coeffs()
        oracle = polynomial_oracle_compose(a_coeffs, b_coeffs, order)
        # integer inputs keep float arithmetic exact at this scale
        assert [Fraction(x) for x in got] == oracle

    def test_compose_then_evaluate_truncation_scaling(self):
        rng = np.random.default_rng(5)
        order = 3
        a = random_mapping(rng, order, 2, 2)
        b = random_mapping(rng, order, 2, 2)
        c = compose(b, a)
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)

        def gap(scale_y):
            y = scale_y * direction
            return np.linalg.norm(evaluate(c, y) - evaluate(b, evaluate(a, y)))

        ratio = gap(0.02) / gap(0.01)
        expected = 2.0 ** (order + 1)
        assert 0.5 * expected <= ratio <= 2.0 * expected


class TestIdentityAndEvaluate:
    def test_identity_evaluates_to_argument(self, rng):
        y = rng.standard_normal(2)
        assert np.array_equal(evaluate(identity(3, 2), y), y)

    def test_identity_scalar_entry(self):
        assert identity(1, 1).component(1).entries.ravel()[0] == 1.0

    def test_scalar_series_value(self):
        a = FormalMapping.from_scalar_coeffs([1.0, 1.0])
        assert evaluate(a, np.array([0.5]))[0] == pytest.approx(0.75, abs=1e-15)

    def test_zero_input_maps_to_zero(self, rng):
        a = random_mapping(rng, 4, 3, 2)
        assert np.array_equal(evaluate(a, np.zeros(3)), np.zeros(2))

    def test_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            evaluate(random_mapping(rng, 2, 3, 3), np.zeros(2))


class TestValidationAndSerialization:
    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            MultilinearMap(1, 2, 2, np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ShapeError):
            MultilinearMap(2, 2, 2, np.zeros(7))

    def test_entries_are_immutable(self, rng):
        a = MultilinearMap(1, 2, 2, np.eye(2))
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0

    def test_tensor_json_roundtrip(self, rng):
        a = MultilinearMap(2, 3, 2, rng.standard_normal((2, 3, 3)))
        back = MultilinearMap.from_dict(a.to_dict())
        assert np.array_equal(back.entries, a.entries)

    def test_mapping_json_roundtrip(self, rng):
        a = random_mapping(rng, 3, 2, 2)
        back = FormalMapping.from_dict(a.to_dict())
        assert mapping_equal(back, a)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MultilinearMap(0, 1, 1, np.ones(1)), r"need degree >= 1 and dimensions >= 1, got degree 0"),
        (lambda: MultilinearMap(1, 0, 1, np.ones((1, 0))), r"got degree 1, shape \(1, 0\)"),
        (lambda: FormalMapping(0, 1, 1, ()), "order must be >= 1, got 0"),
        (lambda: FormalMapping(2, 1, 1, identity(1, 1).components), "expected 2 components, got 1"),
        (lambda: FormalMapping._of(1, []), "a formal mapping needs at least one component"),
        (lambda: identity(2, 1).component(3), r"degree 3 out of range 1\.\.2"),
        (
            lambda: apply_to_tuple(MultilinearMap.zero(2, 1, 1), identity(1, 1).components),
            "b_k has 2 slots, got 1 argument maps",
        ),
        (lambda: identity(0, 2), "need order >= 1 and d >= 1, got 0, 2"),
    ],
    ids=[
        "degree-0", "zero-dimension", "order-0", "component-count", "no-components",
        "component-out-of-range", "slot-count", "identity-order-0",
    ],
)
def test_invalid_arguments_raise_their_message(build, message):
    with pytest.raises(ShapeError, match=message):
        build()
