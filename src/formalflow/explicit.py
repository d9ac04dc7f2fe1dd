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
from .chain import BrownianPath, CoefficientFamily, _forcing, _noise


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


def _stacked(components_by_step, top: int, slots_first: bool = False) -> list[np.ndarray | None]:
    """Entries of degrees 1..top stacked along a leading step axis, in
    slots-first layout if asked.  A degree is None only when it is zero at
    every step.
    """
    out = []
    for k in range(top):
        comps = [c[k] for c in components_by_step]
        if all(c.is_zero for c in comps):
            out.append(None)
        else:
            out.append(np.stack([c.slots_first if slots_first else c.entries for c in comps]))
    return out


def _loads(n: int, coeffs: CoefficientFamily, chain_states, path: BrownianPath) -> np.ndarray:
    """The load f_n(t_j)*dt + g_n(t_j)(..., dw_j) of every step j, shape (N, d) + (d,)*n.

    One batched composition over all steps; row j is bitwise the load built
    from forcing_terms at step j with g_n.contract_noise(dw_j).  Raises
    UnsupportedCaseError if b_1 is nonzero at some step.
    """
    grid = path.grid
    times = [grid.t_start + j * grid.dt for j in range(grid.n_steps)]
    drifts = [coeffs.drift_at(t).components for t in times]
    diffusions = [coeffs.diffusion_at(t).components for t in times]
    if any(not b[0].is_zero for b in diffusions):
        raise UnsupportedCaseError("degree-1 diffusion must vanish for the explicit formula")
    state = _stacked([s.components for s in chain_states[:-1]], n - 1)
    d = coeffs.dy
    f, g = _forcing(
        n,
        state,
        _stacked(drifts, n, slots_first=True),
        _stacked(diffusions, n, slots_first=True),
        (grid.n_steps, d) + (d,) * n,
    )
    loads = grid.dt * f
    if g is not None:
        loads = loads + _noise(g, path.increments, batch=1)
    return loads


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

    The loads of all steps come from one batched composition.  At knot i,
    Phi(t_i, t_{j+1}) for every j < i is one (i, d, d) stack, advanced from
    knot i-1 by one product with the factor of step i-1; all i terms are one
    batched contraction, summed in ascending j.
    """
    if n < 2 or n > coeffs.order:
        raise ShapeError(f"degree must satisfy 2 <= n <= {coeffs.order}, got {n}")
    grid = path.grid
    if len(chain_states) != grid.n_steps + 1:
        raise ShapeError("need one chain state per grid knot")
    loads = _loads(n, coeffs, chain_states, path)
    factors = fundamental(coeffs, path).factors
    d = coeffs.dy
    eye = np.eye(d)[None]
    phi = np.empty((0, d, d))
    trajectory = [MultilinearMap(n, d, d, np.zeros((d,) + (d,) * n))]
    for i in range(1, grid.n_steps + 1):
        phi = np.concatenate((factors[i - 1] @ phi, eye))
        # Phi's slot is its column axis; the transposed view is slots-first
        terms = _contract(phi.swapaxes(1, 2), loads[:i].reshape(i, d, -1), batch=1)
        # cumsum adds in order; sum() would add pairwise
        trajectory.append(MultilinearMap(n, d, d, np.cumsum(terms, axis=0)[-1]))
    return trajectory
