"""Variation-of-constants representation of the higher chain components.

With a deterministic fundamental solution (no degree-1 noise), component n
solves a linear nonhomogeneous equation driven by forcing built from the
lower components, and the left-point quadrature of the explicit integral
formula reproduces the chain recursion step for step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FormalMapping, MultilinearMap, ShapeError, _contract
from .chain import BrownianPath, CoefficientFamily, forcing_terms


class UnsupportedCaseError(ValueError):
    """The requested case needs anticipative integration, which is not provided."""


@dataclass(frozen=True)
class FundamentalSolution:
    """Two-parameter family of propagator matrices built from per-step factors.

    factor[i] = I + a_1(t_i)*dt + b_1(t_i)(., dw_i); the matrix from knot j to
    knot i is the ordered product of factors j..i-1.
    """

    factors: tuple[np.ndarray, ...]

    def matrix(self, i: int, j: int) -> np.ndarray:
        """Propagator from knot j to knot i (j <= i), left-accumulated."""
        if not 0 <= j <= i <= len(self.factors):
            raise ShapeError(f"bad knot pair (i={i}, j={j})")
        d = self.factors[0].shape[0] if self.factors else 1
        p = np.eye(d)
        for step in range(j, i):
            p = self.factors[step] @ p
        return p


def fundamental(coeffs: CoefficientFamily, path: BrownianPath) -> FundamentalSolution:
    """Per-step propagator factors of the degree-1 equation along one path."""
    grid = path.grid
    dt = grid.dt
    d = coeffs.dy
    eye = np.eye(d)
    factors = []
    for i in range(grid.n_steps):
        t_i = grid.t_start + i * dt
        f = eye + dt * coeffs.drift_at(t_i).component(1).entries
        b1 = coeffs.diffusion_at(t_i).component(1)
        if not b1.is_zero:
            f = f + b1.entries @ path.increments[i]
        factors.append(f)
    return FundamentalSolution(tuple(factors))


def variation_of_constants(
    n: int,
    coeffs: CoefficientFamily,
    chain_states: tuple[FormalMapping, ...] | list[FormalMapping],
    path: BrownianPath,
) -> list[MultilinearMap]:
    """Degree-n trajectory from the explicit integral formula.

    S_n(t_i) = sum over j < i of Phi(t_i, t_{j+1}) applied to
    f_n(t_j)*dt + g_n(t_j)(..., dw_j), with Phi the deterministic
    fundamental solution.  Requires zero degree-1 diffusion; otherwise the
    integral would be anticipative.
    """
    if n < 2 or n > coeffs.order:
        raise ShapeError(f"degree must satisfy 2 <= n <= {coeffs.order}, got {n}")
    grid = path.grid
    if len(chain_states) != grid.n_steps + 1:
        raise ShapeError("need one chain state per grid knot")
    dt = grid.dt
    for i in range(grid.n_steps):
        if not coeffs.diffusion_at(grid.t_start + i * dt).component(1).is_zero:
            raise UnsupportedCaseError(
                "degree-1 diffusion must vanish for the explicit formula"
            )

    # forcing per step, already multiplied through by dt / dw
    loads = []
    for j in range(grid.n_steps):
        t_j = grid.t_start + j * dt
        f_n, g_n = forcing_terms(n, chain_states[j], coeffs.drift_at(t_j), coeffs.diffusion_at(t_j))
        q = dt * f_n.entries
        if not g_n.is_zero:
            q = q + g_n.contract_noise(path.increments[j]).entries
        loads.append(q)

    fund = fundamental(coeffs, path)
    d = coeffs.dy
    shape = (d,) + (d,) * n
    trajectory = [MultilinearMap(n, d, d, np.zeros(shape))]
    for i in range(1, grid.n_steps + 1):
        # Phi(t_i, t_{j+1}) accumulated backward from j = i-1
        terms = []
        p = np.eye(d)
        for j in range(i - 1, -1, -1):
            terms.append(_contract(p, loads[j]))
            p = p @ fund.factors[j]
        acc = np.zeros(shape)
        for t in reversed(terms):
            acc += t
        trajectory.append(MultilinearMap(n, d, d, acc))
    return trajectory
