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
from .chain import BrownianPath, ChainSolution, CoefficientFamily, GridCoefficients, _forcing, _noise, _one_path


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
    path, one batched sum over `steps`, the coefficients on the path's grid
    (made if not given); row i is bitwise the factor built from step i alone."""
    dw, dt = _one_path(coeffs, path), path.grid.dt
    steps = coeffs.on_grid(path.grid) if steps is None else steps
    factors = np.tile(np.eye(coeffs.dy), (len(steps.index), 1, 1))
    # degree 1 slots-first is the entries transposed
    if steps.a[0] is not None:
        factors += dt * steps.a[0].swapaxes(1, 2)[steps.index]
    if steps.b[0] is not None:
        factors += _noise(steps.b[0].swapaxes(1, 2)[steps.index], dw, batch=1)
    factors.setflags(write=False)
    return FundamentalSolution(factors)


def _loads(degrees: list, steps: GridCoefficients, solution: ChainSolution, dw: np.ndarray) -> list:
    """For each n of degrees, the load f_n(t_j)*dt + g_n(t_j)(..., dw_j) of every
    step j, shape (N, d) + (d,)*n: one batched composition over all steps and
    degrees, on the solution's arrays and the coefficients on its grid (`steps`).
    Row j is bitwise the load from forcing_terms at step j, noise g_n.entries @ dw_j.
    """
    first, top = min(degrees), max(degrees)
    n_steps, d = len(steps.index), solution.initial.dy
    # the states before each step, None where zero at every one of them
    state = [e[:-1] if e[:-1].any() else None for e in solution.entries[: top - 1]]
    a, b = ([None if e is None else e[steps.index] for e in x[:top]] for x in (steps.a, steps.b))
    f, g = _forcing(first, state, a, b, [(n_steps, d) + (d,) * n for n in range(first, top + 1)])
    loads = [(solution.grid.dt * f[n - first], g[n - first]) for n in degrees]
    return [q if g_n is None else q + _noise(g_n, dw, batch=1) for q, g_n in loads]


def variation_of_constants(
    degrees: list[int], coeffs: CoefficientFamily, solution: ChainSolution, path: BrownianPath
) -> list[np.ndarray]:
    """The degree-n trajectory from the explicit integral formula, of shape
    (N + 1, d) + (d,)*n, for each n of degrees, in their order.

    S_n(t_i) = sum over j < i of Phi(t_i, t_{j+1}) applied to f_n(t_j)*dt +
    g_n(t_j)(..., dw_j), with Phi the deterministic fundamental solution.
    Requires zero degree-1 diffusion; otherwise the integral would be
    anticipative.  solution must be the chain's along path, with S_n(t_0) =
    0.  A non-finite entry raises NonFiniteError(n), n the first such listed.

    One pass over the coefficients feeds the factors and the loads.  One sweep
    over knots serves every degree and allocates nothing: Phi(t_i, t_{j+1})
    for every j < i is column block j of a (d, N*d) buffer, advanced from knot
    i-1 by one product F_{i-1} @ (blocks 0..i-2) into the other of two buffers
    whose every block starts as I; the i terms of all degrees side by side
    are one batched product, summed in ascending j by an in-place cumsum.
    """
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
    dw = _one_path(coeffs, path)
    if solution.grid != path.grid:
        raise ShapeError(f"solution grid {solution.grid} differs from the path's {path.grid}")
    if (got := (solution.seed, solution.path_index)) != (want := (path.seed, path.path_index)):
        raise ShapeError(f"solution (seed, path_index) {got} differs from the path's {want}")
    steps = coeffs.on_grid(path.grid)
    if steps.b[0] is not None:
        raise UnsupportedCaseError("degree-1 diffusion must vanish for the explicit formula")
    factors = fundamental(coeffs, path, steps).factors
    n_steps, d = path.grid.n_steps, coeffs.dy
    # every degree's loads side by side along the last axis
    loads = np.concatenate([q.reshape(n_steps, d, -1) for q in _loads(degrees, steps, solution, dw)], axis=2)
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
    parts = np.split(out, np.cumsum([d**n for n in degrees])[:-1], axis=2)
    for n, part in zip(degrees, parts):
        if not np.isfinite(part).all():
            raise NonFiniteError(n)
    return [part.reshape((n_steps + 1, d) + (d,) * n) for n, part in zip(degrees, parts)]
