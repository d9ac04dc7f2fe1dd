"""Brownian paths and the Euler-Maruyama solver for the triangular chain.

The unknown is a time-indexed truncated formal mapping S(t, s).  One Euler
step is itself a formal mapping Psi = Id + a(t)*dt + b(t)(..., dw), and the
update is S(t_{i+1}, s) = Psi o S(t_i, s), which keeps the discrete evolution
property exact up to floating-point reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    FormalMapping,
    MultilinearMap,
    NonFiniteError,
    ShapeError,
    _compose_entries,
    _contract,
    _nonzero_entries,
    apply_to_tuple,
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
    """Uniform grid on [t_start, t_end] with n_steps steps of size dt.

    dt defaults to (t_end - t_start) / n_steps.  Sub-grids and coarsened grids
    pass their parent's step (times the coarsening factor) instead, so that
    they take exactly the parent's steps, not steps an ulp apart.
    """

    t_start: float
    t_end: float
    n_steps: int
    dt: float | None = None

    def __post_init__(self):
        if self.n_steps < 1:
            raise ShapeError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.t_end > self.t_start:
            raise ShapeError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")
        span = self.t_end - self.t_start
        if self.dt is None:
            object.__setattr__(self, "dt", span / self.n_steps)
        elif not math.isclose(self.dt * self.n_steps, span, rel_tol=1e-9):
            raise ShapeError(f"{self.n_steps} steps of {self.dt} do not span {span}")

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
        return _cumulative(self.increments)

    def restrict(self, i_start: int, i_stop: int) -> "BrownianPath":
        """Sub-path over knots [i_start, i_stop], same step size."""
        if not 0 <= i_start < i_stop <= self.grid.n_steps:
            raise ShapeError(f"bad knot range [{i_start}, {i_stop}]")
        dt = self.grid.dt
        sub = TimeGrid(
            self.grid.t_start + i_start * dt,
            self.grid.t_start + i_stop * dt,
            i_stop - i_start,
            dt,
        )
        return BrownianPath(sub, self.noise_dim, self.increments[i_start:i_stop], self.seed, self.path_index)

    def coarsen(self, factor: int) -> "BrownianPath":
        """Sum groups of `factor` increments: the same path on a coarser grid."""
        grid, coarse = _coarsen(self.grid, self.increments, factor)
        return BrownianPath(grid, self.noise_dim, coarse, self.seed, self.path_index)


@dataclass(frozen=True)
class PathBatch:
    """P Brownian paths on one grid: the leading path axis of a batched solve.

    increments has shape (P, n_steps, m); row p holds the increments of path
    (seed, p), bitwise equal to sample_path(grid, m, seed, p).increments.
    """

    grid: TimeGrid
    noise_dim: int
    increments: np.ndarray
    seed: int

    def __post_init__(self):
        arr = np.asarray(self.increments, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1:] != (self.grid.n_steps, self.noise_dim):
            raise ShapeError(
                f"increments shape {arr.shape} != (P, {self.grid.n_steps}, {self.noise_dim})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "increments", arr)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    def cumulative(self) -> np.ndarray:
        """w of every path at every knot, shape (P, n_steps + 1, m)."""
        return _cumulative(self.increments)

    def coarsen(self, factor: int) -> "PathBatch":
        """Every path coarsened as by BrownianPath.coarsen."""
        grid, coarse = _coarsen(self.grid, self.increments, factor)
        return PathBatch(grid, self.noise_dim, coarse, self.seed)


def _cumulative(increments: np.ndarray) -> np.ndarray:
    """Running sums of increments (..., n_steps, m) from 0, shape (..., n_steps + 1, m)."""
    out = np.zeros(increments.shape[:-2] + (increments.shape[-2] + 1, increments.shape[-1]))
    np.cumsum(increments, axis=-2, out=out[..., 1:, :])
    return out


def _coarsen(grid: TimeGrid, increments: np.ndarray, factor: int) -> tuple[TimeGrid, np.ndarray]:
    """The coarser grid and the sums of `factor` consecutive increments (..., n_steps, m)."""
    if factor < 1 or grid.n_steps % factor != 0:
        raise ShapeError(f"factor {factor} does not divide {grid.n_steps} steps")
    n = grid.n_steps // factor
    coarse = increments.reshape(increments.shape[:-2] + (n, factor, increments.shape[-1])).sum(axis=-2)
    return TimeGrid(grid.t_start, grid.t_end, n, factor * grid.dt), coarse


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


def sample_paths(grid: TimeGrid, m: int, seed: int, n_paths: int) -> PathBatch:
    """Draw paths 0..n_paths-1 of seed, one Philox key (seed, p) at a time."""
    if n_paths < 1:
        raise ShapeError(f"n_paths must be >= 1, got {n_paths}")
    increments = np.stack([sample_path(grid, m, seed, p).increments for p in range(n_paths)])
    return PathBatch(grid, m, increments, seed)


@dataclass(frozen=True, init=False)
class DiffusionMap(MultilinearMap):
    """A (k+1)-linear map with k state slots and one noise slot.

    A MultilinearMap whose entries carry a trailing noise axis of length
    noise_dim: shape (dz, dy, ..., dy, m), output index slowest, k argument
    indices in order, noise index last.  Its dict form adds the key "m".
    """

    noise_dim: int

    _TAIL_KEYS = ("m",)

    def __init__(self, degree: int, dy: int, dz: int, noise_dim: int, entries: np.ndarray):
        object.__setattr__(self, "noise_dim", noise_dim)
        super().__init__(degree, dy, dz, entries)

    def _tail(self) -> tuple[int, ...]:
        return (self.noise_dim,)

    def contract_noise(self, dw: np.ndarray) -> MultilinearMap:
        """Fix the noise slot to dw, leaving a degree-k multilinear map."""
        dw = np.asarray(dw, dtype=np.float64)
        if dw.shape != (self.noise_dim,):
            raise ShapeError(f"dw has shape {dw.shape}, expected ({self.noise_dim},)")
        return MultilinearMap(self.degree, self.dy, self.dz, self.entries @ dw)

    def apply_to_tuple(self, args: Sequence[MultilinearMap]) -> "DiffusionMap":
        """Plug maps into the k state slots, keeping the noise slot open."""
        return apply_to_tuple(self, args)


@dataclass(frozen=True, init=False)
class DiffusionFamily(FormalMapping):
    """Degree-indexed diffusion coefficients b_k, k = 1..order.

    A FormalMapping whose components are DiffusionMaps with noise_dim noise
    columns.  It maps R^dy to R^dz, where dz is its components' (dy for
    the coefficients of a chain).
    """

    noise_dim: int

    _COMPONENT = DiffusionMap

    def __init__(self, order: int, dy: int, noise_dim: int, components: Sequence[DiffusionMap]):
        comps = tuple(components)
        object.__setattr__(self, "noise_dim", noise_dim)
        super().__init__(order, dy, comps[0].dz if comps else dy, comps)

    def _tail(self) -> tuple[int, ...]:
        return (self.noise_dim,)

    @staticmethod
    def _dims(c: DiffusionMap) -> tuple[int, int]:
        return c.dy, c.noise_dim

    @classmethod
    def zero(cls, order: int, dy: int, m: int) -> "DiffusionFamily":
        return cls(order, dy, m, [DiffusionMap.zero(k, dy, dy, m) for k in range(1, order + 1)])


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
        coeffs = cls(a.order, a.dy, b.noise_dim, lambda t: a, lambda t: b)
        # constant coefficients need their shapes checked only once, here
        coeffs.drift_at(0.0), coeffs.diffusion_at(0.0)
        return coeffs

    @classmethod
    def constant_scalar(
        cls, drift_coeffs: Sequence[float], diffusion_coeffs: Sequence[float] | None = None
    ) -> "CoefficientFamily":
        """Scalar (dy = m = 1) constant-in-time coefficients."""
        a = FormalMapping.from_scalar_coeffs(drift_coeffs)
        if diffusion_coeffs is None:
            return cls.constant(a, DiffusionFamily.zero(a.order, 1, 1))
        return cls.constant(a, DiffusionFamily.from_scalar_coeffs(diffusion_coeffs))

    def drift_at(self, t: float) -> FormalMapping:
        return self._checked("drift", t, self.drift(t), ())

    def diffusion_at(self, t: float) -> DiffusionFamily:
        return self._checked("diffusion", t, self.diffusion(t), (self.noise_dim,))

    def _checked(self, what: str, t: float, mapping: FormalMapping, tail: tuple) -> FormalMapping:
        """mapping, if it has this family's order, maps R^dy to R^dy and has trailing axes tail."""
        got = (mapping.order, mapping.dy, mapping.dz) + mapping._tail()
        want = (self.order, self.dy, self.dy) + tail
        if got != want:
            raise ShapeError(f"{what} at t={t} has (order, dy, dz, tail) {got}, expected {want}")
        return mapping


@dataclass(frozen=True)
class ChainSolution:
    """Chain states S(t_i, s) on a grid, with reproducibility provenance."""

    grid: TimeGrid
    initial: FormalMapping
    states: tuple[FormalMapping, ...]
    seed: int
    path_index: int


def _noise(b_k: np.ndarray, dw: np.ndarray, batch: int = 0) -> np.ndarray:
    """b_k with its noise slot fixed to each row of dw (P, m): shape (P,) + b_k's other axes.

    With batch = 1, b_k has a leading path axis too (P or 1), broadcast
    against dw's.  One stacked matrix-vector product per path, bitwise equal
    to b_k @ dw[p] (b_k[p] @ dw[p] when batched).
    """
    p, m = dw.shape
    lead = b_k.shape[0] if batch else 1
    out = b_k.reshape(lead, -1, m) @ dw.reshape(p, m, 1)
    return out.reshape((p,) + b_k.shape[batch:-1])


def _drift_part(a_t: FormalMapping, dt: float) -> list[np.ndarray]:
    """The deterministic part of Psi by degree, slots-first with a leading
    axis of length 1: id + a_1*dt, then a_k*dt (zero where a_k is zero)."""
    d = a_t.dy
    out = []
    for k, ak in enumerate(a_t.components, start=1):
        entries = np.eye(d) if k == 1 else np.zeros((d,) * (k + 1))
        if not ak.is_zero:
            entries = entries + dt * ak.slots_first
        out.append(entries[None])
    return out


def _step_entries(
    a_t: FormalMapping, drift: list[np.ndarray], b_t: DiffusionFamily, dw: np.ndarray
) -> list[np.ndarray | None]:
    """Entries of the one-step mapping Psi by degree, for each row of dw (P, m).

    Psi_1 = id + a_1*dt + b_1(., dw); Psi_k = a_k*dt + b_k(..., dw) for k >= 2,
    and None where a_k and b_k are both zero.  drift is `_drift_part(a_t, dt)`.
    Each entry is slots-first (see `_contract`) with a leading path axis: P
    where it has noise, else 1, shared by all paths.
    """
    out = []
    for k, (ak, entries, bk) in enumerate(zip(a_t.components, drift, b_t.components), start=1):
        if bk.is_zero:
            out.append(None if k > 1 and ak.is_zero else entries)
        else:
            out.append(entries + _noise(bk.slots_first, dw))
    return out


def one_step_map(
    a_t: FormalMapping, b_t: DiffusionFamily, dt: float, dw: np.ndarray
) -> FormalMapping:
    """The formal mapping Psi of one Euler-Maruyama step.

    Psi_1 = id + a_1*dt + b_1(., dw); Psi_k = a_k*dt + b_k(..., dw) for k >= 2.
    Composing Psi with the current state reproduces the component-wise Euler
    update of the triangular system.
    """
    CoefficientFamily.constant(a_t, b_t)  # checks the shapes of a_t and b_t
    dw = np.asarray(dw, dtype=np.float64)
    if dw.shape != (b_t.noise_dim,):
        raise ShapeError(f"dw has shape {dw.shape}, expected ({b_t.noise_dim},)")
    d = a_t.dy
    psi = _step_entries(a_t, _drift_part(a_t, dt), b_t, dw[None])
    comps = tuple(
        MultilinearMap(k, d, d, np.zeros((d,) + (d,) * k) if e is None else np.moveaxis(e[0], k, 0))
        for k, e in enumerate(psi, start=1)
    )
    return FormalMapping(a_t.order, d, d, comps)


def _euler_states(coeffs: CoefficientFamily, grid: TimeGrid, state: list, dw: np.ndarray):
    """The Euler loop: yield the chain state after each step of grid.

    A state lists its entries by degree, each with a leading path axis;
    the initial one may have a single row shared by all paths.  dw holds
    the increments, shape (P, n_steps, m).  Each step composes the one-step
    mapping with the previous state, path by path, by the `_schedule` of the
    zero pattern: a term is skipped when its coefficient is zero or its state
    component is zero on every path.  The deterministic part of the one-step
    mapping is rebuilt only when drift_at returns a new object.
    """
    n_paths, dt, d = dw.shape[0], grid.dt, coeffs.dy
    shapes = [(n_paths, d) + (d,) * n for n in range(1, coeffs.order + 1)]
    a_t = drift = None
    for i in range(grid.n_steps):
        t_i = grid.t_start + i * dt
        if (a_next := coeffs.drift_at(t_i)) is not a_t:
            a_t, drift = a_next, _drift_part(a_next, dt)
        psi = _step_entries(a_t, drift, coeffs.diffusion_at(t_i), dw[:, i])
        prev = [e if e.any() else None for e in state]
        state = _compose_entries(psi, prev, shapes, batch=1)
        yield state


def _check_chain_shapes(coeffs: CoefficientFamily, initial: FormalMapping, paths) -> None:
    coeffs._checked("initial condition", paths.grid.t_start, initial, ())
    if paths.noise_dim != coeffs.noise_dim:
        raise ShapeError(f"path noise_dim {paths.noise_dim} != coefficients {coeffs.noise_dim}")


# Overflow surfaces as the typed BlowupError or finite mask, not as numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def solve_chain(
    coeffs: CoefficientFamily,
    initial: FormalMapping,
    path: BrownianPath,
) -> ChainSolution:
    """Integrate the triangular chain along one Brownian path.

    Each state is obtained by composing the one-step mapping with the
    previous state; component n therefore depends only on coefficients and
    initial components of degree <= n.  A non-finite component raises
    BlowupError naming the step and the degree.
    """
    _check_chain_shapes(coeffs, initial, path)
    d = coeffs.dy
    states = [initial]
    start = [c.entries[None] for c in initial.components]
    for i, state in enumerate(_euler_states(coeffs, path.grid, start, path.increments[None])):
        try:
            comps = tuple(MultilinearMap(n, d, d, e[0]) for n, e in enumerate(state, start=1))
        except NonFiniteError as exc:
            raise BlowupError(step=i, component=exc.degree) from exc
        states.append(FormalMapping(coeffs.order, d, d, comps))
    return ChainSolution(path.grid, initial, tuple(states), path.seed, path.path_index)


@np.errstate(over="ignore", invalid="ignore")
def solve_chain_batch(
    coeffs: CoefficientFamily, initial: FormalMapping, paths: PathBatch
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Integrate the chain along every path of a batch in one loop over steps.

    Returns the terminal entries by degree k, each of shape (P, d) + (d,)*k,
    and a mask of shape (P,) that is False for a path whose state was not
    finite after some step.  Row p of a finite path is bitwise equal to the final
    state of solve_chain on path p.
    """
    _check_chain_shapes(coeffs, initial, paths)
    finite = np.ones(paths.n_paths, dtype=bool)
    start = [c.entries[None] for c in initial.components]
    for state in _euler_states(coeffs, paths.grid, start, paths.increments):
        for e in state:
            finite &= np.isfinite(e).reshape(paths.n_paths, -1).all(axis=1)
    return tuple(state), finite


@np.errstate(over="ignore", invalid="ignore")
def simulate_direct(
    coeffs: CoefficientFamily, y0: np.ndarray, path: BrownianPath | PathBatch
) -> np.ndarray:
    """Euler-Maruyama on the underlying nonlinear SDE, same grid and noise.

    On a BrownianPath, y0 has shape (dy,) and the trajectory at every knot
    has shape (n_steps + 1, dy); a non-finite value raises BlowupError naming
    the step.  On a PathBatch of P paths, y0 has shape (P, dy), the
    trajectory has shape (n_steps + 1, P, dy), and a path that blows up is
    left non-finite.  Each path is bitwise the same either way.
    """
    batched = isinstance(path, PathBatch)
    dw = path.increments if batched else path.increments[None]
    n_paths = dw.shape[0]
    y = np.asarray(y0, dtype=np.float64)
    expected = (n_paths, coeffs.dy) if batched else (coeffs.dy,)
    if y.shape != expected:
        raise ShapeError(f"y0 has shape {y.shape}, expected {expected}")
    y = y.reshape(n_paths, coeffs.dy)
    grid = path.grid
    dt = grid.dt
    out = np.empty((grid.n_steps + 1, n_paths, coeffs.dy))
    out[0] = y
    for i in range(grid.n_steps):
        t_i = grid.t_start + i * dt
        a_t = coeffs.drift_at(t_i)
        b_t = coeffs.diffusion_at(t_i)
        dy = dt * evaluate(a_t, y)
        for bk in b_t.components:
            if bk.is_zero:
                continue
            t = _noise(bk.slots_first, dw[:, i])
            for _ in range(bk.degree):
                t = _contract(t, y[..., None], batch=1)
            dy = dy + t.reshape(dy.shape)
        y = y + dy
        out[i + 1] = y
    if batched:
        return out
    out = out[:, 0]
    blown = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if blown.size:
        raise BlowupError(step=int(blown[0]) - 1)
    return out


def _forcing(
    n: int, state: list, a: list, b: list, shape: tuple
) -> tuple[np.ndarray, np.ndarray | None]:
    """Entries of f_n and g_n at each of J steps, along a leading step axis.

    f_n and g_n are component n of a after S and of b after S, each with its
    degree-1 coefficient zeroed.  state, a and b list entries by degree, each
    with the leading step axis, None where zero at every step; a and b are
    slots-first (see `_contract`).  f has shape
    shape = (J, dz) + (dy,)*n; g keeps b's noise axis last, shape
    (J, dz) + (dy,)*n + (m,), and is None when b_2..b_n are None.
    """
    (f,) = _compose_entries([None] + a[1:n], state, [shape], batch=1, first=n)
    b = [None] + b[1:n]
    if all(e is None for e in b):
        return f, None
    m = next(e for e in b if e is not None).shape[-1]
    (g,) = _compose_entries(b, state, [shape + (m,)], batch=1, tail=1, first=n)
    return f, g


def forcing_terms(
    n: int, states_at_t: FormalMapping, a_t: FormalMapping, b_t: DiffusionFamily
) -> tuple[MultilinearMap, DiffusionMap]:
    """Inhomogeneous terms of the degree-n equation.

    f_n and g_n are component n of a after S and of b after S, each with its
    degree-1 coefficient zeroed; so they involve state components of degree
    <= n - 1 only.  This is the one-step caller of the batched `_forcing`.
    """
    if n < 2:
        raise ShapeError(f"forcing terms are defined for n >= 2, got {n}")
    if states_at_t.order < n - 1 or min(a_t.order, b_t.order) < n:
        raise ShapeError(f"need state components up to degree {n - 1}, coefficients up to {n}")
    dy, dz, m = states_at_t.dy, b_t.dz, b_t.noise_dim
    s, a, b = (
        [None if e is None else e[None] for e in _nonzero_entries(x, slots_first)]
        for x, slots_first in ((states_at_t, False), (a_t, True), (b_t, True))
    )
    f, g = _forcing(n, s, a, b, (1, a_t.dz) + (dy,) * n)
    g = DiffusionMap.zero(n, dy, dz, m) if g is None else DiffusionMap(n, dy, dz, m, g[0])
    return MultilinearMap(n, dy, a_t.dz, f[0]), g


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
