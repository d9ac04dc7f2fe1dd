"""Oracles and statistical harnesses: closed forms, exact polynomial
composition, strong-convergence slope estimation and truncation scaling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .algebra import FormalMapping, ShapeError, evaluate, identity
from .chain import (
    BlowupError,
    BrownianPath,
    CoefficientFamily,
    TimeGrid,
    _row_norms,
    sample_paths,
    simulate_direct,
    solve_chain,
)


class ExcessiveBlowupError(BlowupError):
    """More than 1% of the Monte Carlo paths blew up."""

    def __init__(self, n_excluded: int, n_paths: int):
        self.step = self.component = None  # no single step or component to name
        self.n_excluded = n_excluded
        self.n_paths = n_paths
        RuntimeError.__init__(self, f"{n_excluded} of {n_paths} paths blew up (limit 1%)")


def _poly_mul_trunc(p: list[Fraction], q: list[Fraction], order: int) -> list[Fraction]:
    # coefficient lists index degrees 1..order
    out = [Fraction(0)] * order
    for i, pi in enumerate(p, start=1):
        if pi == 0:
            continue
        for j, qj in enumerate(q, start=1):
            if i + j > order:
                break
            out[i + j - 1] += pi * qj
    return out


def polynomial_oracle_compose(
    a: Sequence, b: Sequence, order: int | None = None
) -> list[Fraction]:
    """Exact scalar composition oracle: substitute the polynomial a into b.

    Coefficient lists index degrees 1..len; arithmetic is exact rationals.
    """
    if order is None:
        order = min(len(a), len(b))
    af = [Fraction(x) for x in a][:order]
    af += [Fraction(0)] * (order - len(af))
    bf = [Fraction(x) for x in b][:order]
    out = [Fraction(0)] * order
    power = af[:]  # a^k truncated, starting at k = 1
    for k, bk in enumerate(bf, start=1):
        if k > 1:
            power = _poly_mul_trunc(power, af, order)
        if bk != 0:
            for i in range(order):
                out[i] += bk * power[i]
    return out


def gbm_closed_form(alpha: float, beta: float, t: float, w_t: float) -> float:
    """Terminal value of geometric Brownian motion started at 1."""
    return math.exp((alpha - beta**2 / 2.0) * t + beta * w_t)


def _growth(alpha: float, t: float) -> float:
    """(exp(alpha*t) - 1) / alpha, computed with expm1; its limit t at alpha = 0."""
    return math.expm1(alpha * t) / alpha if alpha else t


def bernoulli_closed_form(alpha: float, gamma: float, t: float, y0: float) -> float:
    """Solution of y' = alpha*y + gamma*y^2 at time t; y0 / (1 - gamma*y0*t) at alpha = 0.

    A solution that blows up at or before t gives infinity of the sign of y0.
    """
    denominator = 1.0 - gamma * y0 * _growth(alpha, t)
    if denominator <= 0.0:
        return math.copysign(math.inf, y0)
    return y0 * math.exp(alpha * t) / denominator


def quadratic_chain_s2_closed_form(alpha: float, gamma: float, t: float) -> float:
    """Degree-2 chain component for scalar drift (alpha, gamma), no noise; gamma*t at alpha = 0."""
    return gamma * math.exp(alpha * t) * _growth(alpha, t)


@dataclass(frozen=True)
class ConvergenceReport:
    """Strong-error-versus-step-size study with a fitted log-log slope."""

    dt_values: tuple[float, ...]
    errors: tuple[float, ...]
    error_sems: tuple[float, ...]
    slope: float
    intercept: float
    n_paths: int
    n_excluded: int


def estimate_order(
    simulate: Callable[[BrownianPath], np.ndarray],
    exact: Callable[[BrownianPath], np.ndarray],
    *,
    t_end: float,
    noise_dim: int,
    dt_values: Sequence[float],
    n_paths: int,
    seed: int,
) -> ConvergenceReport:
    """Strong error E|X_dt(T) - X(T)| on nested grids sharing one batch of fine paths.

    Coarse increments are sums of fine ones, so every level sees the same
    Brownian paths.  `simulate` integrates every row of the given (coarse)
    paths; `exact` evaluates the reference terminal values from the fine
    ones.  Both return shape (P, d), row p for path p.  A path with a
    non-finite row in either is excluded; more than 1% exclusions is an error.
    """
    if len(dt_values) < 3:
        raise ShapeError("need at least 3 step sizes")
    if min(dt_values) <= 0 or len(set(dt_values)) != len(dt_values):
        raise ShapeError(f"step sizes must be positive and distinct, got {list(dt_values)}")
    dts = sorted(dt_values, reverse=True)
    fine_dt = dts[-1]
    if not math.isfinite(t_end / fine_dt):
        raise ShapeError(f"dt={fine_dt} is too small for the horizon {t_end}: the step count overflows")
    fine_steps = round(t_end / fine_dt)
    if not math.isclose(fine_steps * fine_dt, t_end, rel_tol=1e-12):
        raise ShapeError(f"dt={fine_dt} does not divide the horizon {t_end}")
    factors = []
    for dt in dts:
        f = dt / fine_dt
        if not math.isclose(f, round(f), rel_tol=1e-12):
            raise ShapeError(f"step sizes are not nested: {dt} / {fine_dt}")
        if fine_steps % round(f) != 0:
            raise ShapeError(f"dt={dt} does not divide the horizon {t_end}")
        factors.append(round(f))

    fine = sample_paths(TimeGrid(0.0, t_end, fine_steps), noise_dim, seed, n_paths)
    ref = _rows(exact(fine), n_paths, "exact")
    levels = [_rows(simulate(fine.coarsen(f)), n_paths, "simulate") for f in factors]
    used = np.isfinite(ref).all(axis=1)
    for x in levels:
        if x.shape != ref.shape:
            raise ShapeError(f"simulate returned shape {x.shape}, exact {ref.shape}")
        used &= np.isfinite(x).all(axis=1)
    n_used = int(used.sum())
    n_excluded = n_paths - n_used
    if n_excluded > 0.01 * n_paths:
        raise ExcessiveBlowupError(n_excluded, n_paths)
    # per-path errors, shape (n_used, levels), each the bits of np.linalg.norm of its row
    errors = _row_norms(np.stack([x[used] - ref[used] for x in levels], axis=1))
    # two passes keep the variance stable
    means = errors.mean(axis=0)
    if n_used > 1:
        sems = np.sqrt(errors.var(axis=0, ddof=1) / n_used)
    else:
        sems = np.zeros(len(dts))
    if np.any(means == 0.0):
        # exact agreement at some level; a log-log fit is meaningless
        slope, intercept = math.nan, math.nan
    else:
        slope, intercept = np.polyfit(np.log(dts), np.log(means), 1)
    return ConvergenceReport(
        tuple(dts), tuple(means), tuple(sems), float(slope), float(intercept), n_paths, n_excluded
    )


def _rows(values, n_paths: int, name: str) -> np.ndarray:
    """A callback's result as a float array of shape (P, d)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != n_paths:
        raise ShapeError(f"{name} returned shape {values.shape}, expected ({n_paths}, d)")
    return values


@dataclass(frozen=True)
class ScalingReport:
    """Truncation gap under halving of the initial condition."""

    y0_norms: tuple[float, ...]
    gaps: tuple[float, ...]
    ratios: tuple[float, ...]
    reliable: tuple[bool, ...]
    expected_ratio: float


def truncation_scaling(
    coeffs: CoefficientFamily,
    grid: TimeGrid,
    y0_base: np.ndarray,
    halvings: int,
    evaluation_order: int | None = None,
) -> ScalingReport:
    """Compare the truncated flow against direct simulation as y0 shrinks.

    Deterministic only (zero diffusion), so the gap isolates the truncation
    remainder, expected to scale as |y0|^(N+1).  Ratios whose smaller gap is
    below 100 machine epsilons are marked unreliable.  `evaluation_order`
    truncates the solved flow further before evaluation (the direct
    simulation keeps the full coefficients), for studying remainders below
    the coefficient order.
    """
    if halvings < 1:
        raise ShapeError(f"need at least one halving for a ratio, got {halvings}")
    if any(b_k is not None for b_k in coeffs.on_grid(grid).b):
        raise ShapeError("truncation scaling requires zero diffusion")
    zeros = np.zeros((halvings + 1, grid.n_steps, coeffs.noise_dim))
    sol = solve_chain(coeffs, identity(coeffs.order, coeffs.dy), BrownianPath.from_increments(grid, zeros[0]))
    s_final = sol.state(-1)
    eval_order = coeffs.order if evaluation_order is None else int(evaluation_order)
    if not 1 <= eval_order <= coeffs.order:
        raise ShapeError(f"evaluation_order must be in 1..{coeffs.order}")
    if eval_order < coeffs.order:
        s_final = FormalMapping(
            eval_order, s_final.dy, s_final.dz, s_final.components[:eval_order]
        )
    y0_base = np.atleast_1d(np.asarray(y0_base, dtype=np.float64))
    if y0_base.shape != (coeffs.dy,):
        raise ShapeError(f"y0 has shape {y0_base.shape}, expected ({coeffs.dy},)")
    # bitwise y0_base / 2.0**i, without 2.0**i overflowing beyond i = 1023
    y0 = np.stack([np.ldexp(y0_base, -i) for i in range(halvings + 1)])
    # one run for every halving, on zero increments: each row is bitwise its one-row run
    direct = simulate_direct(coeffs, y0, BrownianPath.from_increments(grid, zeros))
    # finite[i, h]: halving h is finite at knot i; the first halving that
    # blows up names its first non-finite step
    finite = np.isfinite(direct).all(axis=2)
    if not finite.all():
        halving = int(np.flatnonzero(~finite.all(axis=0))[0])
        raise BlowupError(step=int(np.flatnonzero(~finite[:, halving])[0]) - 1)
    gaps = [float(np.linalg.norm(evaluate(s_final, y) - end)) for y, end in zip(y0, direct[-1])]
    y0_norms = [float(np.linalg.norm(y)) for y in y0]
    eps = np.finfo(np.float64).eps
    ratios, reliable = [], []
    for g_big, g_small in zip(gaps, gaps[1:]):
        ratios.append(g_big / g_small if g_small > 0 else math.inf)
        reliable.append(bool(g_small >= 100 * eps))
    return ScalingReport(
        tuple(y0_norms),
        tuple(gaps),
        tuple(ratios),
        tuple(reliable),
        2.0 ** (eval_order + 1),
    )
