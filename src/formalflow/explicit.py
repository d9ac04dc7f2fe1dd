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
from .chain import BrownianPath, ChainSolution, CoefficientFamily, GridCoefficients, _forcing, _noise
from .chain import _one_path, _step_maps, _step_parts


class UnsupportedCaseError(ValueError):
    """The requested case needs anticipative integration, which is not provided."""


@dataclass(frozen=True)
class FundamentalSolution:
    """Propagator matrices from per-step factors, read-only of shape (N, d, d):
    factors[i] = I + a_1(t_i)*dt + b_1(t_i)(., dw_i), and the matrix from knot
    j to knot i is the ordered product of factors j..i-1."""

    factors: np.ndarray


def fundamental(
    coeffs: CoefficientFamily, path: BrownianPath, steps: GridCoefficients | None = None
) -> FundamentalSolution:
    """Per-step propagator factors of the degree-1 equation along a one-row
    path: degree 1 of `_step_maps` over `steps`, the coefficients on the
    path's grid (made if not given).  Row i is bitwise Psi_1 of step i."""
    dw = _one_path(coeffs, path)
    steps = coeffs.on_grid(path.grid) if steps is None else steps
    drift, noise = _step_parts(steps, path.grid.dt, coeffs.dy)
    (psi,) = _step_maps((drift[:1], noise[:1]), steps.index, dw[:, None])
    factors = np.ascontiguousarray(psi[:, 0])
    factors.setflags(write=False)
    return FundamentalSolution(factors)


def _loads(degrees: list, steps: GridCoefficients, solution: ChainSolution) -> list:
    """For each n of degrees, the load f_n(t_j)*dt + g_n(t_j)(..., dw_j) of every
    step j, shape (N, d) + (d,)*n: one batched composition over all steps and
    degrees, on the solution's arrays, its path's increments and the
    coefficients on its grid (`steps`).  Row j is bitwise the load from
    forcing_terms at step j, noise g_n.entries @ dw_j.
    """
    top, path = max(degrees), solution.path
    n_steps, d = len(steps.index), solution.coeffs.dy
    # the states before each step, None where zero at every one of them
    state = [e[:-1] if e[:-1].any() else None for e in solution.entries[: top - 1]]
    a, b = ([None if e is None else e[steps.index] for e in x[:top]] for x in (steps.a, steps.b))
    f, g = _forcing(state, a, b, [(n_steps, d) + (d,) * n for n in range(1, top + 1)])
    loads = [(path.grid.dt * f[n - 1], g[n - 1]) for n in degrees]
    return [q if g_n is None else q + _noise(g_n, path.increments[0]) for q, g_n in loads]


def variation_of_constants(degrees: list[int], solution: ChainSolution) -> list[np.ndarray]:
    """The degree-n trajectory from the explicit integral formula, of shape
    (N + 1, d) + (d,)*n, for each n of degrees, in their order.

    S_n(t_i) = sum over j < i of Phi(t_i, t_{j+1}) applied to f_n(t_j)*dt +
    g_n(t_j)(..., dw_j), with Phi the deterministic fundamental solution.
    The coefficients and the one-row path are the solution's.  Requires
    zero degree-1 diffusion (otherwise the integral would be anticipative)
    and S_n(t_0) = 0.  A non-finite entry raises NonFiniteError(n), n the
    first such listed.

    One pass over the coefficients feeds the factors and the loads.  One sweep
    over knots serves every degree and allocates nothing: Phi(t_i, t_{j+1})
    for every j < i is column block j of a (d, N*d) buffer, advanced from knot
    i-1 by one product F_{i-1} @ (blocks 0..i-2) into the other of two buffers
    whose every block starts as I.  With every degree's loads side by side and
    step j's in rows j*d..(j+1)*d-1 of one (N*d, L) matrix, knot i is one
    product of the buffer's first i blocks with the first i*d rows: BLAS sums
    the i*d products of each entry in an order of its own.
    """
    coeffs, path = solution.coeffs, solution.path
    degrees = list(degrees)
    for i, n in enumerate(degrees):
        if not 2 <= n <= coeffs.order:
            raise ShapeError(f"degree must satisfy 2 <= n <= {coeffs.order}, got {n}")
        if n in degrees[:i]:
            raise ShapeError(f"duplicate degree {n} in 'degrees'")
        if solution.entries[n - 1][0].any():
            raise ShapeError(f"the solution's initial degree-{n} component is nonzero")
    if not degrees:
        raise ShapeError("need at least one degree in 'degrees'")
    steps = coeffs.on_grid(path.grid)
    if steps.b[0] is not None:
        raise UnsupportedCaseError("degree-1 diffusion must vanish for the explicit formula")
    factors = fundamental(coeffs, path, steps).factors
    n_steps, d = path.grid.n_steps, coeffs.dy
    # every degree's loads side by side along the last axis
    loads = np.concatenate([q.reshape(n_steps, d, -1) for q in _loads(degrees, steps, solution)], axis=2)
    q = loads.reshape(n_steps * d, -1)
    phi = [np.tile(np.eye(d), n_steps) for _ in range(2)]
    out = np.empty((n_steps + 1,) + loads.shape[1:])
    out[0] = 0.0
    for i in range(1, n_steps + 1):
        prev, cur = phi[i % 2], phi[1 - i % 2]
        np.matmul(factors[i - 1], prev[:, : (i - 1) * d], out=cur[:, : (i - 1) * d])
        np.matmul(cur[:, : i * d], q[: i * d], out=out[i])
    parts = np.split(out, np.cumsum([d**n for n in degrees])[:-1], axis=2)
    for n, part in zip(degrees, parts):
        if not np.isfinite(part).all():
            raise NonFiniteError(n)
    return [part.reshape((n_steps + 1, d) + (d,) * n) for n, part in zip(degrees, parts)]
