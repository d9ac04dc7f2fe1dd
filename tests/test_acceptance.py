"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from formalflow import (
    BrownianPath,
    CoefficientFamily,
    DiffusionFamily,
    DiffusionMap,
    FormalMapping,
    MultilinearMap,
    TimeGrid,
    bernoulli_closed_form,
    compose,
    estimate_order,
    evolution_check,
    gbm_closed_form,
    identity,
    polynomial_oracle_compose,
    quadratic_chain_s2_closed_form,
    sample_path,
    simulate_direct,
    solve_chain,
    solve_chain_batch,
    truncation_scaling,
    variation_of_constants,
)
from conftest import (
    mapping_allclose,
    mapping_equal,
    random_coefficients,
    random_mapping,
)


@pytest.fixture
def report():
    """Print the criterion's PASS/FAIL line with its wall time, then assert it."""
    start = time.perf_counter()

    def report(name, passed, detail=""):
        status = "PASS" if passed else "FAIL"
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else "") + f" [{elapsed:.2f} s]")
        assert passed, f"{name} failed: {detail}"

    return report


def test_criterion_1_composition_algebra(report):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        order = int(rng.integers(1, 6))
        dims = rng.integers(1, 5, size=4)
        a = random_mapping(rng, order, dims[0], dims[1])
        b = random_mapping(rng, order, dims[1], dims[2])
        c = random_mapping(rng, order, dims[2], dims[3])
        lhs = compose(compose(c, b), a)
        rhs = compose(c, compose(b, a))
        assert mapping_allclose(lhs, rhs, rtol=1e-12)
        for ca, cb in zip(lhs.components, rhs.components):
            ref = max(np.linalg.norm(cb.entries), 1.0)
            worst = max(worst, np.linalg.norm(ca.entries - cb.entries) / ref)
        ident_dom = identity(order, dims[0])
        ident_cod = identity(order, dims[1])
        assert mapping_equal(compose(a, ident_dom), a)
        assert mapping_equal(compose(ident_cod, a), a)
    for _ in range(100):
        order = int(rng.integers(1, 7))
        a_coeffs = rng.integers(-3, 4, size=order).astype(float)
        b_coeffs = rng.integers(-3, 4, size=order).astype(float)
        got = compose(
            FormalMapping.from_scalar_coeffs(b_coeffs),
            FormalMapping.from_scalar_coeffs(a_coeffs),
        ).scalar_coeffs()
        oracle = polynomial_oracle_compose(a_coeffs, b_coeffs, order)
        assert [Fraction(x) for x in got] == oracle
    report(
        "1 composition algebra",
        True,
        f"max associativity discrepancy {worst:.2e}, identity exact, oracle exact",
    )


def test_criterion_2_discrete_evolution_property(report):
    rng = np.random.default_rng(202)
    grid = TimeGrid(0.0, 1.0, 128)
    worst = 0.0
    for trial in range(20):
        co = random_coefficients(rng, 4, 3, 2)
        path = sample_path(grid, 2, seed=7000 + trial)
        split = grid.t_start + int(rng.integers(1, 128)) * grid.dt
        rep = evolution_check(co, grid, path, split)
        worst = max(worst, rep.max_discrepancy)
    report(
        "2 discrete evolution property",
        worst <= 1e-10,
        f"max per-component relative discrepancy {worst:.2e} <= 1e-10",
    )


def test_criterion_3_triangularity(report):
    rng = np.random.default_rng(303)
    order, dy, m = 4, 2, 2
    base = random_coefficients(rng, order, dy, m)
    grid = TimeGrid(0.0, 1.0, 32)
    path = sample_path(grid, m, seed=31)
    ref = solve_chain(base, identity(order, dy), path)
    for n in range(1, order):
        a_pert = tuple(
            c if c.degree <= n else MultilinearMap(c.degree, dy, dy, c.entries + 5.0)
            for c in base.drift(0.0).components
        )
        b_pert = tuple(
            c if c.degree <= n else DiffusionMap(c.degree, dy, dy, m, c.entries + 5.0)
            for c in base.diffusion(0.0).components
        )
        pert = CoefficientFamily.constant(
            FormalMapping(order, dy, dy, a_pert), DiffusionFamily(order, dy, m, b_pert)
        )
        got = solve_chain(pert, identity(order, dy), path)
        for s_ref, s_got in zip(ref.states, got.states):
            for k in range(1, n + 1):
                assert np.array_equal(s_got.component(k).entries, s_ref.component(k).entries)
    report("3 triangularity", True, "components 1..n bitwise unchanged for n = 1..3")


def test_criterion_4_uniqueness_and_adaptedness(report):
    rng = np.random.default_rng(404)
    co = random_coefficients(rng, 3, 2, 2)
    grid = TimeGrid(0.0, 1.0, 32)
    path = sample_path(grid, 2, seed=44)
    s1 = solve_chain(co, identity(3, 2), path)
    s2 = solve_chain(co, identity(3, 2), path)
    for a, b in zip(s1.states, s2.states):
        assert mapping_equal(a, b)
    cut = 20
    tampered = path.increments.copy()
    tampered[:, cut:] -= 2.5
    got = solve_chain(co, identity(3, 2), BrownianPath.from_increments(grid, tampered, seed=44))
    for i in range(cut + 1):
        assert mapping_equal(got.states[i], s1.states[i])
    report("4 uniqueness and adaptedness", True, "repeat runs bitwise identical; past states untouched")


def test_criterion_5_linear_case_strong_orders(report):
    alpha, beta = 1.0, 0.5
    co_gbm = CoefficientFamily.constant_scalar([alpha], [beta])

    def simulate_gbm(paths):
        entries, finite = solve_chain_batch(co_gbm, identity(1, 1), paths)
        return np.where(finite[:, None], entries[0].reshape(paths.n_paths, 1), np.nan)

    def exact_gbm(paths):
        w_t = paths.cumulative()[:, -1, 0]
        return np.array([[gbm_closed_form(alpha, beta, 1.0, float(w))] for w in w_t])

    gbm = estimate_order(
        simulate_gbm,
        exact_gbm,
        t_end=1.0,
        noise_dim=1,
        dt_values=[2.0**-k for k in range(4, 10)],
        n_paths=1000,
        seed=55,
    )
    gbm_ok = abs(gbm.slope - 0.5) <= 0.15

    gamma, y0 = 0.5, 0.1
    co_quad = CoefficientFamily.constant_scalar([alpha, gamma])

    def simulate_quad(paths):
        return simulate_direct(co_quad, np.full((paths.n_paths, 1), y0), paths)[-1]

    def exact_quad(paths):
        return np.full((paths.n_paths, 1), bernoulli_closed_form(alpha, gamma, 1.0, y0))

    quad = estimate_order(
        simulate_quad,
        exact_quad,
        t_end=1.0,
        noise_dim=1,
        dt_values=[2.0**-k for k in range(4, 10)],
        n_paths=1,
        seed=55,
    )
    quad_ok = abs(quad.slope - 1.0) <= 0.1
    report(
        "5 linear-case strong orders",
        gbm_ok and quad_ok,
        f"GBM slope {gbm.slope:.3f} (0.5 +- 0.15), quadratic slope {quad.slope:.3f} (1.0 +- 0.1)",
    )


def test_criterion_6_taylor_consistency(report):
    co = CoefficientFamily.constant_scalar([1.0, 0.5, 0.0])
    scaling = truncation_scaling(co, TimeGrid(0.0, 1.0, 128), np.array([0.1]), 5)
    checked = [r for r, ok in zip(scaling.ratios, scaling.reliable) if ok]
    ratios_ok = bool(checked) and all(8.0 <= r <= 32.0 for r in checked)

    linear = CoefficientFamily.constant_scalar([1.0])
    lin_scaling = truncation_scaling(linear, TimeGrid(0.0, 1.0, 128), np.array([0.5]), 4)
    linear_ok = all(g <= 1e-12 for g in lin_scaling.gaps)
    detail = (
        f"ratios {['%.1f' % r for r in checked]} in [8, 32]; "
        f"degree-1 gaps <= {max(lin_scaling.gaps):.1e}"
    )
    report("6 taylor consistency", ratios_ok and linear_ok, detail)


def test_criterion_7_explicit_formula(report):
    worst = 0.0

    def max_rel_err(co, path, degrees):
        sol = solve_chain(co, identity(co.order, co.dy), path)
        out = 0.0
        for n, traj in zip(degrees, variation_of_constants(degrees, co, sol, path)):
            for v, s in zip(traj, sol.states):
                ref = max(np.linalg.norm(s.component(n).entries), 1.0)
                out = max(out, np.linalg.norm(v - s.component(n).entries) / ref)
        return out

    grid = TimeGrid(0.0, 1.0, 256)
    # deterministic scalar (alpha, gamma)
    co = CoefficientFamily.constant_scalar([1.0, 0.5])
    worst = max(worst, max_rel_err(co, BrownianPath.from_increments(grid, np.zeros((256, 1))), [2]))
    # pure noise forcing: S2 = beta2 * w(t)
    co = CoefficientFamily.constant_scalar([0.0, 0.0], [0.0, 0.25])
    worst = max(worst, max_rel_err(co, sample_path(grid, 1, seed=77), [2]))
    # mixed multidimensional case with b1 = 0
    rng = np.random.default_rng(707)
    dy, m, order = 2, 2, 3
    a = random_mapping(rng, order, dy, dy, magnitude=0.4)
    b_comps = [DiffusionMap.zero(1, dy, dy, m)] + [
        DiffusionMap(k, dy, dy, m, 0.4 * rng.standard_normal((dy,) + (dy,) * k + (m,)))
        for k in (2, 3)
    ]
    co = CoefficientFamily.constant(a, DiffusionFamily(order, dy, m, tuple(b_comps)))
    worst = max(worst, max_rel_err(co, sample_path(grid, m, seed=78), [2, 3]))
    report("7 explicit formula", worst <= 1e-9, f"max relative error {worst:.2e} <= 1e-9")


def test_criterion_8_closed_form_component(report):
    alpha, gamma = 1.0, 0.5
    co = CoefficientFamily.constant_scalar([alpha, gamma])
    target = quadratic_chain_s2_closed_form(alpha, gamma, 1.0)
    errors = {}
    for n_steps in (256, 512, 1024):
        grid = TimeGrid(0.0, 1.0, n_steps)
        path = BrownianPath.from_increments(grid, np.zeros((n_steps, 1)))
        sol = solve_chain(co, identity(2, 1), path)
        got = sol.states[-1].component(2).entries.ravel()[0]
        errors[n_steps] = abs(got - target) / abs(target)
    final_ok = errors[1024] <= 2e-2
    order_ok = (
        0.7 <= math.log2(errors[256] / errors[512]) <= 1.3
        and 0.7 <= math.log2(errors[512] / errors[1024]) <= 1.3
    )
    report(
        "8 closed-form component",
        final_ok and order_ok,
        f"relative error {errors[1024]:.2e} <= 2e-2 at dt = 2^-10, order ~1 in dt",
    )
