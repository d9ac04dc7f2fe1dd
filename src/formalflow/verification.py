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
    sample_path,
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


def bernoulli_closed_form(alpha: float, gamma: float, t: float, y0: float) -> float:
    """Solution of y' = alpha*y + gamma*y^2 at time t."""
    e = math.exp(alpha * t)
    return alpha * y0 * e / (alpha - gamma * y0 * (e - 1.0))


def quadratic_chain_s2_closed_form(alpha: float, gamma: float, t: float) -> float:
    """Degree-2 chain component for scalar drift (alpha, gamma), no noise."""
    e = math.exp(alpha * t)
    return gamma * e * (e - 1.0) / alpha


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

    def to_dict(self) -> dict:
        return {
            "dt_values": list(self.dt_values),
            "errors": list(self.errors),
            "error_sems": list(self.error_sems),
            "slope": self.slope,
            "intercept": self.intercept,
            "n_paths": self.n_paths,
            "n_excluded": self.n_excluded,
        }

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("dt,error,error_sem\n")
            for dt, err, sem in zip(self.dt_values, self.errors, self.error_sems):
                fh.write(f"{dt!r},{err!r},{sem!r}\n")


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
    """Strong error E|X_dt(T) - X(T)| on nested grids sharing one fine path.

    Coarse increments are sums of fine ones, so every level sees the same
    Brownian path.  `simulate` integrates on the given (coarse) path;
    `exact` evaluates the reference terminal value from the finest path.
    Blown-up paths are excluded; more than 1% exclusions is an error.
    """
    if len(dt_values) < 3:
        raise ShapeError("need at least 3 step sizes")
    dts = sorted(dt_values, reverse=True)
    fine_dt = dts[-1]
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

    fine_grid = TimeGrid(0.0, t_end, fine_steps)
    rows = []
    n_excluded = 0
    for p in range(n_paths):
        fine = sample_path(fine_grid, noise_dim, seed, p)
        try:
            ref = np.atleast_1d(np.asarray(exact(fine), dtype=np.float64))
            errs = []
            for factor in factors:
                x = np.atleast_1d(np.asarray(simulate(fine.coarsen(factor)), dtype=np.float64))
                errs.append(float(np.linalg.norm(x - ref)))
        except BlowupError:
            n_excluded += 1
            continue
        rows.append(errs)
    if n_excluded > 0.01 * n_paths:
        raise ExcessiveBlowupError(n_excluded, n_paths)
    if not rows:
        raise ShapeError("no paths survived")
    # per-path errors, shape (n_used, levels); two passes keep the variance stable
    errors = np.array(rows)
    n_used = len(rows)
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


@dataclass(frozen=True)
class ScalingReport:
    """Truncation gap under halving of the initial condition."""

    y0_norms: tuple[float, ...]
    gaps: tuple[float, ...]
    ratios: tuple[float, ...]
    reliable: tuple[bool, ...]
    expected_ratio: float

    def to_dict(self) -> dict:
        return {
            "y0_norms": list(self.y0_norms),
            "gaps": list(self.gaps),
            "ratios": list(self.ratios),
            "reliable": list(self.reliable),
            "expected_ratio": self.expected_ratio,
        }

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("y0_norm,gap\n")
            for ynorm, gap in zip(self.y0_norms, self.gaps):
                fh.write(f"{ynorm!r},{gap!r}\n")


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
    dt = grid.dt
    for i in range(grid.n_steps):
        if any(not b.is_zero for b in coeffs.diffusion_at(grid.t_start + i * dt).components):
            raise ShapeError("truncation scaling requires zero diffusion")
    path = BrownianPath.from_increments(
        grid, np.zeros((grid.n_steps, coeffs.noise_dim)), seed=0
    )
    sol = solve_chain(coeffs, identity(coeffs.order, coeffs.dy), path)
    s_final = sol.states[-1]
    eval_order = coeffs.order if evaluation_order is None else int(evaluation_order)
    if not 1 <= eval_order <= coeffs.order:
        raise ShapeError(f"evaluation_order must be in 1..{coeffs.order}")
    if eval_order < coeffs.order:
        s_final = FormalMapping(
            eval_order, s_final.dy, s_final.dz, s_final.components[:eval_order]
        )
    y0_base = np.atleast_1d(np.asarray(y0_base, dtype=np.float64))
    y0_norms, gaps = [], []
    for i in range(halvings + 1):
        y0 = y0_base / 2.0**i
        direct = simulate_direct(coeffs, y0, path)[-1]
        gap = float(np.linalg.norm(evaluate(s_final, y0) - direct))
        y0_norms.append(float(np.linalg.norm(y0)))
        gaps.append(gap)
    eps = np.finfo(np.float64).eps
    ratios, reliable = [], []
    for g_big, g_small in zip(gaps, gaps[1:]):
        ratios.append(g_big / g_small if g_small > 0 else math.inf)
        reliable.append(g_small >= 100 * eps)
    return ScalingReport(
        tuple(y0_norms),
        tuple(gaps),
        tuple(ratios),
        tuple(reliable),
        2.0 ** (eval_order + 1),
    )
