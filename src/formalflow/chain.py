"""Brownian paths and the Euler-Maruyama solver for the triangular chain.

The unknown is a time-indexed truncated formal mapping S(t, s).  One Euler
step is itself a formal mapping Psi = Id + a(t)*dt + b(t)(..., dw), and the
update is S(t_{i+1}, s) = Psi o S(t_i, s), which keeps the discrete evolution
property exact up to floating-point reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    FormalMapping,
    MultilinearMap,
    NonFiniteError,
    ShapeError,
    _compose_component,
    _contract,
    _nonzero_entries,
    _plug,
    compose,
    evaluate,
    identity,
)


class BlowupError(RuntimeError):
    """A non-finite value appeared during time stepping."""

    def __init__(self, step: int, component: int | None = None):
        self.step = step
        self.component = component
        where = f"step {step}"
        if component is not None:
            where += f", component {component}"
        super().__init__(f"numerical blowup at {where}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with n_steps steps."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ShapeError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.t_end > self.t_start:
            raise ShapeError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def knots(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps + 1)

    def knot_index(self, t: float, tol: float = 1e-9) -> int:
        """Index of the knot equal to t; ShapeError if t is not a knot."""
        idx = round((t - self.t_start) / self.dt)
        if 0 <= idx <= self.n_steps and abs(self.t_start + idx * self.dt - t) <= tol:
            return idx
        raise ShapeError(f"t={t} is not a knot of the grid")


@dataclass(frozen=True)
class BrownianPath:
    """Per-step Gaussian increments of an m-dimensional Wiener process.

    Increments are generated from a Philox counter-based stream keyed by
    (seed, path_index): standard normals drawn row by row (numpy ziggurat)
    and scaled by sqrt(dt).  Regeneration from the same key is bit-identical,
    and the first j rows agree with any longer draw on the same step size.
    """

    grid: TimeGrid
    noise_dim: int
    increments: np.ndarray
    seed: int
    path_index: int = 0

    def __post_init__(self):
        if self.noise_dim < 1:
            raise ShapeError(f"noise_dim must be >= 1, got {self.noise_dim}")
        arr = np.asarray(self.increments, dtype=np.float64)
        if arr.shape != (self.grid.n_steps, self.noise_dim):
            raise ShapeError(
                f"increments shape {arr.shape} != ({self.grid.n_steps}, {self.noise_dim})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "increments", arr)

    @classmethod
    def from_increments(
        cls, grid: TimeGrid, increments: np.ndarray, seed: int = 0, path_index: int = 0
    ) -> "BrownianPath":
        increments = np.asarray(increments, dtype=np.float64)
        if increments.ndim == 1:
            increments = increments[:, None]
        return cls(grid, increments.shape[1], increments, seed, path_index)

    def cumulative(self) -> np.ndarray:
        """w at every knot (w(t_start) = 0), shape (n_steps + 1, m)."""
        out = np.zeros((self.grid.n_steps + 1, self.noise_dim))
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out

    def restrict(self, i_start: int, i_stop: int) -> "BrownianPath":
        """Sub-path over knots [i_start, i_stop], same step size."""
        if not 0 <= i_start < i_stop <= self.grid.n_steps:
            raise ShapeError(f"bad knot range [{i_start}, {i_stop}]")
        dt = self.grid.dt
        sub = TimeGrid(
            self.grid.t_start + i_start * dt,
            self.grid.t_start + i_stop * dt,
            i_stop - i_start,
        )
        return BrownianPath(sub, self.noise_dim, self.increments[i_start:i_stop], self.seed, self.path_index)

    def coarsen(self, factor: int) -> "BrownianPath":
        """Sum groups of `factor` increments: the same path on a coarser grid."""
        if factor < 1 or self.grid.n_steps % factor != 0:
            raise ShapeError(f"factor {factor} does not divide {self.grid.n_steps} steps")
        coarse = self.increments.reshape(self.grid.n_steps // factor, factor, self.noise_dim).sum(axis=1)
        grid = TimeGrid(self.grid.t_start, self.grid.t_end, self.grid.n_steps // factor)
        return BrownianPath(grid, self.noise_dim, coarse, self.seed, self.path_index)


def sample_path(grid: TimeGrid, m: int, seed: int, path_index: int = 0) -> BrownianPath:
    """Draw a Brownian path; deterministic in (grid, m, seed, path_index)."""
    if m < 1:
        raise ShapeError(f"noise_dim must be >= 1, got {m}")
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(path_index & 0xFFFFFFFFFFFFFFFF)],
        dtype=np.uint64,
    )
    rng = np.random.Generator(np.random.Philox(key=key))
    increments = rng.standard_normal((grid.n_steps, m)) * math.sqrt(grid.dt)
    return BrownianPath(grid, m, increments, seed, path_index)


@dataclass(frozen=True)
class DiffusionMap:
    """A (k+1)-linear map with k state slots and one noise slot.

    entries has shape (dz, dy, ..., dy, m): output index slowest, k argument
    indices in order, noise index last.
    """

    degree: int
    dy: int
    dz: int
    noise_dim: int
    entries: np.ndarray

    def __post_init__(self):
        if self.degree < 1 or self.dy < 1 or self.dz < 1 or self.noise_dim < 1:
            raise ShapeError("degree and dimensions must be >= 1")
        arr = np.asarray(self.entries, dtype=np.float64)
        expected = (self.dz,) + (self.dy,) * self.degree + (self.noise_dim,)
        if arr.size != np.prod(expected):
            raise ShapeError(f"entry count {arr.size} != dz*dy^k*m = {np.prod(expected)}")
        arr = arr.reshape(expected).copy()
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(self.degree)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @cached_property
    def is_zero(self) -> bool:
        return not self.entries.any()

    @classmethod
    def zero(cls, degree: int, dy: int, dz: int, m: int) -> "DiffusionMap":
        return cls(degree, dy, dz, m, np.zeros((dz,) + (dy,) * degree + (m,)))

    def contract_noise(self, dw: np.ndarray) -> MultilinearMap:
        """Fix the noise slot to dw, leaving a degree-k multilinear map."""
        dw = np.asarray(dw, dtype=np.float64)
        if dw.shape != (self.noise_dim,):
            raise ShapeError(f"dw has shape {dw.shape}, expected ({self.noise_dim},)")
        return MultilinearMap(self.degree, self.dy, self.dz, self.entries @ dw)

    def apply_to_tuple(self, args: Sequence[MultilinearMap]) -> "DiffusionMap":
        """Plug maps into the k state slots, keeping the noise slot open."""
        # the noise axis comes out next to the output axis; move it back last
        t = np.moveaxis(_plug(self, args), 1, -1)
        return DiffusionMap(sum(a.degree for a in args), args[0].dy, self.dz, self.noise_dim, t)

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "dy": self.dy,
            "dz": self.dz,
            "m": self.noise_dim,
            "entries": self.entries.ravel().tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DiffusionMap":
        return cls(d["degree"], d["dy"], d["dz"], d["m"], np.asarray(d["entries"], dtype=np.float64))


@dataclass(frozen=True)
class DiffusionFamily:
    """Degree-indexed diffusion coefficients b_k, k = 1..order."""

    order: int
    dy: int
    noise_dim: int
    components: tuple[DiffusionMap, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != self.order:
            raise ShapeError(f"expected {self.order} components, got {len(comps)}")
        for k, c in enumerate(comps, start=1):
            if c.degree != k or c.dy != self.dy or c.dz != self.dy or c.noise_dim != self.noise_dim:
                raise ShapeError(f"diffusion component {k} has inconsistent shape")
        object.__setattr__(self, "components", comps)

    def component(self, k: int) -> DiffusionMap:
        if not 1 <= k <= self.order:
            raise ShapeError(f"degree {k} out of range 1..{self.order}")
        return self.components[k - 1]

    @classmethod
    def zero(cls, order: int, dy: int, m: int) -> "DiffusionFamily":
        return cls(order, dy, m, tuple(DiffusionMap.zero(k, dy, dy, m) for k in range(1, order + 1)))

    @classmethod
    def from_scalar_coeffs(cls, coeffs: Sequence[float]) -> "DiffusionFamily":
        comps = tuple(
            DiffusionMap(k, 1, 1, 1, np.array(float(c)).reshape((1,) * (k + 2)))
            for k, c in enumerate(coeffs, start=1)
        )
        return cls(len(comps), 1, 1, comps)


@dataclass(frozen=True)
class CoefficientFamily:
    """Time-indexed drift and diffusion coefficients of the chain."""

    order: int
    dy: int
    noise_dim: int
    drift: Callable[[float], FormalMapping]
    diffusion: Callable[[float], DiffusionFamily]

    @classmethod
    def constant(cls, a: FormalMapping, b: DiffusionFamily) -> "CoefficientFamily":
        if a.order != b.order or a.dy != b.dy or a.dz != a.dy:
            raise ShapeError("drift and diffusion must share order and dimension")
        return cls(a.order, a.dy, b.noise_dim, lambda t: a, lambda t: b)

    @classmethod
    def constant_scalar(
        cls, drift_coeffs: Sequence[float], diffusion_coeffs: Sequence[float] | None = None
    ) -> "CoefficientFamily":
        """Scalar (dy = m = 1) constant-in-time coefficients."""
        a = FormalMapping.from_scalar_coeffs(drift_coeffs)
        if diffusion_coeffs is None:
            b = DiffusionFamily.zero(a.order, 1, 1)
        else:
            if len(diffusion_coeffs) != len(drift_coeffs):
                raise ShapeError("drift and diffusion coefficient lists must match in length")
            b = DiffusionFamily.from_scalar_coeffs(diffusion_coeffs)
        return cls.constant(a, b)

    def drift_at(self, t: float) -> FormalMapping:
        a = self.drift(t)
        if a.order != self.order or a.dy != self.dy or a.dz != self.dy:
            raise ShapeError(f"drift at t={t} has inconsistent shape")
        return a

    def diffusion_at(self, t: float) -> DiffusionFamily:
        b = self.diffusion(t)
        if b.order != self.order or b.dy != self.dy or b.noise_dim != self.noise_dim:
            raise ShapeError(f"diffusion at t={t} has inconsistent shape")
        return b


@dataclass(frozen=True)
class ChainSolution:
    """Chain states S(t_i, s) on a grid, with reproducibility provenance."""

    grid: TimeGrid
    initial: FormalMapping
    states: tuple[FormalMapping, ...]
    seed: int
    path_index: int


def one_step_map(
    a_t: FormalMapping, b_t: DiffusionFamily, dt: float, dw: np.ndarray
) -> FormalMapping:
    """The formal mapping Psi of one Euler-Maruyama step.

    Psi_1 = id + a_1*dt + b_1(., dw); Psi_k = a_k*dt + b_k(..., dw) for k >= 2.
    Composing Psi with the current state reproduces the component-wise Euler
    update of the triangular system.
    """
    if a_t.dy != a_t.dz or a_t.order != b_t.order or a_t.dy != b_t.dy:
        raise ShapeError("drift and diffusion shapes are inconsistent")
    dw = np.asarray(dw, dtype=np.float64)
    if dw.shape != (b_t.noise_dim,):
        raise ShapeError(f"dw has shape {dw.shape}, expected ({b_t.noise_dim},)")
    d = a_t.dy
    comps = []
    for k in range(1, a_t.order + 1):
        entries = np.eye(d) if k == 1 else np.zeros((d,) + (d,) * k)
        ak = a_t.component(k)
        if not ak.is_zero:
            entries = entries + dt * ak.entries
        bk = b_t.component(k)
        if not bk.is_zero:
            entries = entries + bk.entries @ dw
        comps.append(MultilinearMap(k, d, d, entries))
    return FormalMapping(a_t.order, d, d, tuple(comps))


# Overflow surfaces as the typed BlowupError, not as numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def solve_chain(
    coeffs: CoefficientFamily,
    initial: FormalMapping,
    path: BrownianPath,
) -> ChainSolution:
    """Integrate the triangular chain along one Brownian path.

    Each state is obtained by composing the one-step mapping with the
    previous state; component n therefore depends only on coefficients and
    initial components of degree <= n.
    """
    if initial.order != coeffs.order or initial.dy != coeffs.dy or initial.dz != coeffs.dy:
        raise ShapeError("initial condition shape does not match coefficients")
    if path.noise_dim != coeffs.noise_dim:
        raise ShapeError(f"path noise_dim {path.noise_dim} != coefficients {coeffs.noise_dim}")
    grid = path.grid
    dt = grid.dt
    states = [initial]
    s = initial
    for i in range(grid.n_steps):
        t_i = grid.t_start + i * dt
        psi = one_step_map(coeffs.drift_at(t_i), coeffs.diffusion_at(t_i), dt, path.increments[i])
        try:
            s = compose(psi, s)
        except NonFiniteError as exc:
            raise BlowupError(step=i, component=exc.degree) from exc
        states.append(s)
    return ChainSolution(grid, initial, tuple(states), path.seed, path.path_index)


@np.errstate(over="ignore", invalid="ignore")
def simulate_direct(
    coeffs: CoefficientFamily, y0: np.ndarray, path: BrownianPath
) -> np.ndarray:
    """Euler-Maruyama on the underlying nonlinear SDE, same grid and noise.

    Returns the trajectory at every knot, shape (n_steps + 1, dy).
    """
    y = np.asarray(y0, dtype=np.float64)
    if y.shape != (coeffs.dy,):
        raise ShapeError(f"y0 has shape {y.shape}, expected ({coeffs.dy},)")
    grid = path.grid
    dt = grid.dt
    out = np.empty((grid.n_steps + 1, coeffs.dy))
    out[0] = y
    for i in range(grid.n_steps):
        t_i = grid.t_start + i * dt
        a_t = coeffs.drift_at(t_i)
        b_t = coeffs.diffusion_at(t_i)
        dy = dt * evaluate(a_t, y)
        dw = path.increments[i]
        for bk in b_t.components:
            if bk.is_zero:
                continue
            t = bk.entries @ dw
            for _ in range(bk.degree):
                t = _contract(t, y)
            dy = dy + t
        y = y + dy
        if not np.all(np.isfinite(y)):
            raise BlowupError(step=i)
        out[i + 1] = y
    return out


def forcing_terms(
    n: int, states_at_t: FormalMapping, a_t: FormalMapping, b_t: DiffusionFamily
) -> tuple[MultilinearMap, DiffusionMap]:
    """Inhomogeneous terms of the degree-n equation.

    f_n and g_n are component n of a after S and of b after S, each with its
    degree-1 coefficient zeroed; b's noise axis rides behind the output axis.
    So they involve state components of degree <= n - 1 only.
    """
    if n < 2:
        raise ShapeError(f"forcing terms are defined for n >= 2, got {n}")
    if states_at_t.order < n - 1 or min(a_t.order, b_t.order) < n:
        raise ShapeError(f"need state components up to degree {n - 1}, coefficients up to {n}")
    dy, dz, m = states_at_t.dy, b_t.dy, b_t.noise_dim
    s = _nonzero_entries(states_at_t)
    f = _compose_component(n, [None] + _nonzero_entries(a_t)[1:n], s, (a_t.dz,) + (dy,) * n, {})
    g = _compose_component(n, [None] + _nonzero_entries(b_t)[1:n], s, (dz, m) + (dy,) * n, {})
    return MultilinearMap(n, dy, a_t.dz, f), DiffusionMap(n, dy, dz, m, np.moveaxis(g, 1, -1))


@dataclass(frozen=True)
class EvolutionReport:
    """Per-component discrepancy of the discrete evolution property."""

    split_knot: float
    component_discrepancies: tuple[float, ...]

    @property
    def max_discrepancy(self) -> float:
        return max(self.component_discrepancies)


def evolution_check(
    coeffs: CoefficientFamily, grid: TimeGrid, path: BrownianPath, split_knot: float
) -> EvolutionReport:
    """Compare S(t, tau) o S(tau, s) against S(t, s) on one path.

    Both sides compose the same per-step mappings, so the discrepancy is
    floating-point reordering noise only.
    """
    if path.grid != grid:
        raise ShapeError("path grid does not match the requested grid")
    i_tau = grid.knot_index(split_knot)
    if i_tau == 0 or i_tau == grid.n_steps:
        raise ShapeError("split knot must be strictly inside the interval")
    ident = identity(coeffs.order, coeffs.dy)
    full = solve_chain(coeffs, ident, path)
    left = solve_chain(coeffs, ident, path.restrict(0, i_tau))
    right = solve_chain(coeffs, ident, path.restrict(i_tau, grid.n_steps))
    glued = compose(right.states[-1], left.states[-1])
    target = full.states[-1]
    discrepancies = []
    for k in range(1, coeffs.order + 1):
        diff = np.linalg.norm(glued.component(k).entries - target.component(k).entries)
        ref = np.linalg.norm(target.component(k).entries)
        discrepancies.append(diff / ref if ref > 0 else diff)
    return EvolutionReport(split_knot, tuple(discrepancies))
