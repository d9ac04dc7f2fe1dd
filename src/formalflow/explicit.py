"""Variation-of-constants representation of the higher chain components.

With a deterministic fundamental solution (no degree-1 noise), component n
solves a linear nonhomogeneous equation driven by forcing built from the
lower components, and the left-point quadrature of the explicit integral
formula reproduces the chain recursion step for step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NonFiniteError, ShapeError
from .chain import BrownianPath, ChainSolution, CoefficientFamily, _forcing, _noise, _one_path


class UnsupportedCaseError(ValueError):
    """The requested case needs anticipative integration, which is not provided."""


@dataclass(frozen=True)
class FundamentalSolution:
    """Two-parameter family of propagator matrices built from per-step factors.

    factor[i] = I + a_1(t_i)*dt + b_1(t_i)(., dw_i); the matrix from knot j to
    knot i is the ordered product of factors j..i-1.
    """

    factors: tuple[np.ndarray, ...]


def fundamental(coeffs: CoefficientFamily, path: BrownianPath) -> FundamentalSolution:
    """Per-step propagator factors of the degree-1 equation along a one-row path."""
    dw, grid = _one_path(coeffs, path), path.grid
    dt = grid.dt
    d = coeffs.dy
    eye = np.eye(d)
    factors = []
    for i, t_i in enumerate(grid.knots()[:-1].tolist()):
        f = eye + dt * coeffs.drift_at(t_i).component(1).entries
        b1 = coeffs.diffusion_at(t_i).component(1)
        if not b1.is_zero:
            f = f + b1.entries @ dw[i]
        factors.append(f)
    return FundamentalSolution(tuple(factors))


def _stacked(components_by_step, top: int) -> list[np.ndarray | None]:
    """Slots-first entries of degrees 1..top stacked along a leading step
    axis, None for a degree that is zero at every step."""
    out = []
    for k in range(top):
        comps = [c[k] for c in components_by_step]
        out.append(None if all(c.is_zero for c in comps) else np.stack([c.slots_first for c in comps]))
    return out


def _loads(n: int, coeffs: CoefficientFamily, solution: ChainSolution, path: BrownianPath) -> np.ndarray:
    """The load f_n(t_j)*dt + g_n(t_j)(..., dw_j) of every step j, shape (N, d) + (d,)*n.

    One batched composition over all steps, on the solution's arrays; row j
    is bitwise the load built from forcing_terms at step j, with noise term
    g_n.entries @ dw_j.  Raises UnsupportedCaseError if b_1 is nonzero at
    some step.
    """
    dw, grid = _one_path(coeffs, path), path.grid
    times = grid.knots()[:-1].tolist()
    drifts = [coeffs.drift_at(t).components for t in times]
    diffusions = [coeffs.diffusion_at(t).components for t in times]
    if any(not b[0].is_zero for b in diffusions):
        raise UnsupportedCaseError("degree-1 diffusion must vanish for the explicit formula")
    # the states before each step, None where zero at every one of them
    state = [e[:-1] if e[:-1].any() else None for e in solution.entries[: n - 1]]
    d = coeffs.dy
    f, g = _forcing(n, state, _stacked(drifts, n), _stacked(diffusions, n), (grid.n_steps, d) + (d,) * n)
    loads = grid.dt * f
    if g is not None:
        loads = loads + _noise(g, dw, batch=1)
    return loads


def variation_of_constants(
    n: int, coeffs: CoefficientFamily, solution: ChainSolution, path: BrownianPath
) -> np.ndarray:
    """Degree-n trajectory from the explicit integral formula, shape (N + 1, d) + (d,)*n.

    S_n(t_i) = sum over j < i of Phi(t_i, t_{j+1}) applied to
    f_n(t_j)*dt + g_n(t_j)(..., dw_j), with Phi the deterministic
    fundamental solution.  Requires zero degree-1 diffusion; otherwise the
    integral would be anticipative.  A non-finite entry raises
    NonFiniteError(n).

    The loads of all steps come from one batched composition on the
    solution's arrays.  The sweep over knots allocates nothing: Phi(t_i,
    t_{j+1}) for every j < i lies in one (d, N*d) buffer, column block j,
    advanced from knot i-1 by one product F_{i-1} @ (blocks 0..i-2) into
    the other of two buffers whose every block starts as I; the i terms are
    one batched product into a buffer of terms, summed in ascending j by
    an in-place cumsum.
    """
    if n < 2 or n > coeffs.order:
        raise ShapeError(f"degree must satisfy 2 <= n <= {coeffs.order}, got {n}")
    n_steps = path.grid.n_steps
    if len(solution.entries[0]) != n_steps + 1:
        raise ShapeError("need one chain state per grid knot")
    loads = _loads(n, coeffs, solution, path)
    factors = fundamental(coeffs, path).factors
    d = coeffs.dy
    loads = loads.reshape(n_steps, d, -1)
    terms = np.empty_like(loads)
    phi = [np.tile(np.eye(d), n_steps) for _ in range(2)]
    out = np.empty((n_steps + 1,) + loads.shape[1:])
    out[0] = 0.0
    for i in range(1, n_steps + 1):
        prev, cur = phi[i % 2], phi[1 - i % 2]
        np.matmul(factors[i - 1], prev[:, : (i - 1) * d], out=cur[:, : (i - 1) * d])
        # Phi(t_i, t_{j+1}) for j < i as an (i, d, d) stack: a view of the buffer
        stack = cur[:, : i * d].reshape(d, i, d).swapaxes(0, 1)
        np.matmul(stack, loads[:i], out=terms[:i])
        # cumsum adds in ascending j; np.add.reduce would add pairwise where
        # the terms are contiguous (d = 1), and round differently
        np.cumsum(terms[:i], axis=0, out=terms[:i])
        out[i] = terms[i - 1]
    if not np.isfinite(out).all():
        raise NonFiniteError(n)
    return out.reshape((n_steps + 1, d) + (d,) * n)
