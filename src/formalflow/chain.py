"""Brownian paths and the Euler-Maruyama solver for the triangular chain.

The unknown is a time-indexed truncated formal mapping S(t, s).  One Euler
step is itself a formal mapping Psi = Id + a(t)*dt + b(t)(..., dw), and the
update is S(t_{i+1}, s) = Psi o S(t_i, s), which keeps the discrete evolution
property exact up to floating-point reordering.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .algebra import (
    FormalMapping,
    MultilinearMap,
    NonFiniteError,
    ShapeError,
    _Runner,
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
    (`_sub`) take their parent's step (times the coarsening factor) and knot
    times, bit for bit: knot i lies at t0 + (first + i*stride)*h, where
    _base = (t0, h, first, stride) holds the start and step of the grid
    first cut from and this grid's knot indices on it.
    """

    t_start: float
    t_end: float
    n_steps: int
    dt: float | None = None
    _base: tuple = field(default=None, init=False, repr=False)

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
        object.__setattr__(self, "_base", (self.t_start, self.dt, 0, 1))

    def knot(self, i: int) -> float:
        """The time of knot i (or an array of them), as on the grid this one was cut from."""
        t0, h, first, stride = self._base
        return t0 + (first + i * stride) * h

    def knots(self) -> np.ndarray:
        return self.knot(np.arange(self.n_steps + 1))

    def _sub(self, first: int, n_steps: int, stride: int = 1) -> "TimeGrid":
        """The grid of knots first, first + stride, ..., first + n_steps*stride of this one."""
        t0, h, i0, s = self._base
        grid = TimeGrid(self.knot(first), self.knot(first + n_steps * stride), n_steps, stride * self.dt)
        object.__setattr__(grid, "_base", (t0, h, i0 + first * s, s * stride))
        return grid

    def knot_index(self, t: float, tol: float = 1e-9) -> int:
        """Index of the knot equal to t; ShapeError if t is not a knot."""
        idx = round((t - self.t_start) / self.dt)
        if 0 <= idx <= self.n_steps and abs(self.knot(idx) - t) <= tol:
            return idx
        raise ShapeError(f"t={t} is not a knot of the grid")


@dataclass(frozen=True)
class BrownianPath:
    """Per-step Gaussian increments of P paths of an m-dimensional Wiener
    process on one grid; a single path is a BrownianPath of one row.

    increments has shape (P, n_steps, m).  Row p is drawn from the Philox
    counter-based stream keyed by (seed, path_index + p): standard normals
    drawn row by row (numpy ziggurat) and scaled by sqrt(dt).  Regeneration
    from the same key is bit-identical, and the first j steps agree with any
    longer draw on the same step size.
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

    @classmethod
    def from_increments(
        cls, grid: TimeGrid, increments: np.ndarray, seed: int = 0, path_index: int = 0
    ) -> "BrownianPath":
        """The path with these increments: (n_steps,) for one noise dimension,
        (n_steps, m) for one path, or (P, n_steps, m)."""
        increments = np.asarray(increments, dtype=np.float64)
        if increments.ndim == 1:
            increments = increments[:, None]
        if increments.ndim == 2:
            increments = increments[None]
        return cls(grid, increments.shape[-1], increments, seed, path_index)

    def cumulative(self) -> np.ndarray:
        """w of every path at every knot (w(t_start) = 0), shape (P, n_steps + 1, m)."""
        out = np.zeros((self.n_paths, self.grid.n_steps + 1, self.noise_dim))
        np.cumsum(self.increments, axis=1, out=out[:, 1:])
        return out

    def restrict(self, i_start: int, i_stop: int) -> "BrownianPath":
        """Every path over knots [i_start, i_stop], same step size."""
        if not 0 <= i_start < i_stop <= self.grid.n_steps:
            raise ShapeError(f"bad knot range [{i_start}, {i_stop}]")
        sub = self.grid._sub(i_start, i_stop - i_start)
        return BrownianPath(sub, self.noise_dim, self.increments[:, i_start:i_stop], self.seed, self.path_index)

    def coarsen(self, factor: int) -> "BrownianPath":
        """Sum groups of `factor` increments: the same paths on a coarser grid."""
        if factor < 1 or self.grid.n_steps % factor != 0:
            raise ShapeError(f"factor {factor} does not divide {self.grid.n_steps} steps")
        n = self.grid.n_steps // factor
        coarse = self.increments.reshape(self.n_paths, n, factor, self.noise_dim).sum(axis=2)
        return BrownianPath(self.grid._sub(0, n, factor), self.noise_dim, coarse, self.seed, self.path_index)


def _one_path(coeffs: CoefficientFamily, path: BrownianPath) -> np.ndarray:
    """The (n_steps, m) increments of a one-row path with the coefficients'
    noise dimension.  A consumer of one path does not pick a row of several:
    that would be another experiment."""
    _check_noise_dim(coeffs, path)
    if path.n_paths != 1:
        raise ShapeError(f"expected a single path, got {path.n_paths} rows")
    return path.increments[0]


def sample_path(grid: TimeGrid, m: int, seed: int, path_index: int = 0) -> BrownianPath:
    """Draw the one-row path (seed, path_index); deterministic in (grid, m, seed, path_index).

    seed and path_index must lie in [0, 2**64): they are the two words of
    the Philox key.
    """
    if m < 1:
        raise ShapeError(f"noise_dim must be >= 1, got {m}")
    # the Philox key words are 64 bits wide; a value outside them would wrap
    # onto another value's path
    for name, value in (("seed", seed), ("path_index", path_index)):
        if not 0 <= value < 2**64:
            raise ShapeError(f"{name} must be in [0, 2**64), got {value}")
    key = np.array([seed, path_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    increments = rng.standard_normal((grid.n_steps, m)) * math.sqrt(grid.dt)
    return BrownianPath(grid, m, increments[None], seed, path_index)


def sample_paths(grid: TimeGrid, m: int, seed: int, n_paths: int) -> BrownianPath:
    """Draw paths 0..n_paths-1 of seed as the rows of one BrownianPath,
    one Philox key (seed, p) at a time."""
    if n_paths < 1:
        raise ShapeError(f"n_paths must be >= 1, got {n_paths}")
    increments = np.concatenate([sample_path(grid, m, seed, p).increments for p in range(n_paths)])
    return BrownianPath(grid, m, increments, seed)


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

    def on_grid(self, grid: TimeGrid) -> GridCoefficients:
        """The coefficients at every step of grid, in one pass: the distinct (drift,
        diffusion) pairs, told apart by identity and each checked once, in order of
        first use; index[i], step i's pair; and a[k-1] and b[k-1], the pairs' slots-first
        a_k and b_k stacked (a[k-1][index] is a_k at each step), None where all zero."""
        values, seen, index, tail = [], {}, [], (self.noise_dim,)
        for t in grid.knots()[:-1].tolist():
            a, b = self.drift(t), self.diffusion(t)
            if (key := (id(a), id(b))) not in seen:
                seen[key] = len(values)
                values.append((self._checked("drift", t, a, ()), self._checked("diffusion", t, b, tail)))
            index.append(seen[key])
        stacks = [
            [None if all(c.is_zero for c in cs) else np.stack([c.slots_first for c in cs]) for cs in zip(*side)]
            for side in zip(*((a.components, b.components) for a, b in values))
        ]
        return GridCoefficients(tuple(values), np.array(index), *stacks)


GridCoefficients = namedtuple("GridCoefficients", "values index a b")


@dataclass(frozen=True)
class ChainSolution:
    """Chain states S(t_i, s) at every knot of a grid, with reproducibility provenance.

    entries[k-1] holds component k of every state, shape (n_steps + 1, d) +
    (d,)*k, row i at knot i (the initial state is row 0); the arrays are
    finite and read-only.  `state(i)` and `states` wrap rows as
    FormalMappings, built on demand.
    """

    grid: TimeGrid
    initial: FormalMapping
    entries: tuple[np.ndarray, ...]
    seed: int
    path_index: int

    def state(self, i: int) -> FormalMapping:
        """The state at knot i (negative i counts from the end)."""
        d = self.initial.dy
        comps = tuple(MultilinearMap(k, d, d, e[i]) for k, e in enumerate(self.entries, start=1))
        return FormalMapping(len(comps), d, d, comps)

    @cached_property
    def states(self) -> tuple[FormalMapping, ...]:
        """The state at every knot, initial first."""
        return tuple(map(self.state, range(self.grid.n_steps + 1)))


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


def _drift_part(a_t: FormalMapping, dt: float, out: list[np.ndarray]) -> None:
    """Write Psi's deterministic part into out by degree, slots-first with a
    leading axis of 1: id + a_1*dt, then a_k*dt (zero where a_k is zero)."""
    for k, (ak, e) in enumerate(zip(a_t.components, out), start=1):
        e[0] = np.eye(a_t.dy) if k == 1 else 0.0
        if not ak.is_zero:
            e[0] += dt * ak.slots_first


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
    psi = [np.empty((1,) + (d,) * (k + 1)) for k in range(1, a_t.order + 1)]
    _drift_part(a_t, dt, psi)
    for e, bk in zip(psi, b_t.components):
        if not bk.is_zero:
            e += _noise(bk.slots_first, dw[None])
    comps = tuple(MultilinearMap(k, d, d, np.moveaxis(e[0], k, 0)) for k, e in enumerate(psi, start=1))
    return FormalMapping(a_t.order, d, d, comps)


def _euler_states(coeffs: CoefficientFamily, grid: TimeGrid, state: list, dw: np.ndarray):
    """The Euler loop: yield the chain state after each step of grid.

    A state lists its entries by degree, each with a leading path axis;
    the initial one may have a single row shared by all paths.  dw holds
    the increments, shape (P, n_steps, m).  Each step composes Psi with the
    previous state, path by path, by the Horner `_classes` of the zero
    pattern: a product is skipped when its coefficient is zero or its state
    component is zero on every path.  One `_Runner` per zero pattern of Psi
    and the state lives as long as this generator, which yields fresh
    arrays.  Psi is written in place: its degrees without noise are this
    generator's drift part, and those with noise the runner's buffers.
    """
    n_paths, dt, d, m = dw.shape[0], grid.dt, coeffs.dy, coeffs.noise_dim
    shapes = [(n_paths, d) + (d,) * n for n in range(1, coeffs.order + 1)]
    drift = [np.empty((1, d) + (d,) * k) for k in range(1, coeffs.order + 1)]
    dw = dw[..., None]
    values, index, _, _ = coeffs.on_grid(grid)
    runners = {}
    for i, v in enumerate(index := index.tolist()):
        if i == 0 or v != index[i - 1]:
            a_t, b_t = values[v]
            _drift_part(a_t, dt, drift)
            # b_k as `_noise` multiplies it, None where zero
            noise = [None if bk.is_zero else bk.slots_first.reshape(1, -1, m) for bk in b_t.components]
            # Psi_k is zero (None), its drift part alone (False) or noisy (True)
            kinds = tuple(
                None if k > 1 and ak.is_zero and b_k is None else b_k is not None
                for k, (ak, b_k) in enumerate(zip(a_t.components, noise), start=1)
            )
        prev = [e if e.any() else None for e in state]
        key = (kinds, tuple(None if e is None else e.shape for e in prev))
        if run := runners.get(key):
            psi = run.b
        else:
            psi = [e if not kind else np.empty((n_paths,) + e.shape[1:]) for kind, e in zip(kinds, drift)]
            psi = [None if kind is None else e for kind, e in zip(kinds, psi)]
        for e, drift_k, b_k in zip(psi, drift, noise):
            if b_k is not None:  # Psi_k = drift_k + b_k(..., dw) on each path
                np.matmul(b_k, dw[:, i], out=e.reshape(n_paths, -1, 1))
                np.add(e, drift_k, out=e)
        if run:
            run.rerun(prev)
        else:
            run = runners[key] = _Runner(psi, [None if e is None else e.copy() for e in prev], shapes, batch=1)
        yield (state := run.components())


def _check_noise_dim(coeffs: CoefficientFamily, path: BrownianPath) -> None:
    if path.noise_dim != coeffs.noise_dim:
        raise ShapeError(f"path noise_dim {path.noise_dim} != coefficients {coeffs.noise_dim}")


def _path_states(coeffs: CoefficientFamily, initial: FormalMapping, path: BrownianPath):
    """The chain states along a one-row Brownian path, initial's first, as
    `_euler_states` yields them: entries by degree with a path axis of 1."""
    coeffs._checked("initial condition", path.grid.t_start, initial, ())
    dw = _one_path(coeffs, path)[None]
    start = [c.entries[None] for c in initial.components]
    yield start
    yield from _euler_states(coeffs, path.grid, start, dw)


def chain_states(
    coeffs: CoefficientFamily, initial: FormalMapping, path: BrownianPath
) -> Iterator[FormalMapping]:
    """Yield the chain states S(t_i, s) along a one-row Brownian path, initial state first.

    Each state is obtained by composing the one-step mapping with the
    previous state; component n therefore depends only on coefficients and
    initial components of degree <= n.  A non-finite component raises
    BlowupError naming the step and the degree.  Overflow is left to the
    caller's numpy error state: a generator runs in its consumer's context,
    so wrap the iteration, not the call, in np.errstate.
    """
    d = coeffs.dy
    for i, state in enumerate(_path_states(coeffs, initial, path), -1):
        try:
            comps = tuple(MultilinearMap(n, d, d, e[0]) for n, e in enumerate(state, start=1))
        except NonFiniteError as exc:
            raise BlowupError(step=i, component=exc.degree) from exc
        yield FormalMapping(coeffs.order, d, d, comps)


# Overflow surfaces as the typed BlowupError or finite mask, not as numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def solve_chain(
    coeffs: CoefficientFamily,
    initial: FormalMapping,
    path: BrownianPath,
) -> ChainSolution:
    """Integrate the triangular chain along a one-row Brownian path and keep
    every state, as `chain_states` yields them, one array per degree.

    The whole path is integrated first; then one finiteness pass per degree
    raises BlowupError naming the first non-finite step and its lowest
    non-finite degree, as `chain_states` would.
    """
    rows = list(_path_states(coeffs, initial, path))
    entries = tuple(np.concatenate(col) for col in zip(*rows))
    # finite[k, i]: degree k + 1 is finite at knot i (step i - 1)
    finite = np.array([np.isfinite(e).reshape(len(e), -1).all(axis=1) for e in entries])
    if not finite.all():
        knot = int(np.flatnonzero(~finite.all(axis=0))[0])
        raise BlowupError(step=knot - 1, component=int(np.flatnonzero(~finite[:, knot])[0]) + 1)
    for e in entries:
        e.setflags(write=False)
    return ChainSolution(path.grid, initial, entries, path.seed, path.path_index)


@np.errstate(over="ignore", invalid="ignore")
def solve_chain_batch(
    coeffs: CoefficientFamily, initial: FormalMapping, paths: BrownianPath
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Integrate the chain along every row of paths in one loop over steps.

    Returns the terminal entries by degree k, each of shape (P, d) + (d,)*k,
    and a mask of shape (P,) that is False for a path whose state was not
    finite after some step.  Row p of a finite path is bitwise equal to the final
    state of solve_chain on row p alone.
    """
    coeffs._checked("initial condition", paths.grid.t_start, initial, ())
    _check_noise_dim(coeffs, paths)
    finite = np.ones(paths.n_paths, dtype=bool)
    start = [c.entries[None] for c in initial.components]
    for state in _euler_states(coeffs, paths.grid, start, paths.increments):
        for e in state:
            finite &= np.isfinite(e).reshape(paths.n_paths, -1).all(axis=1)
    return tuple(state), finite


@np.errstate(over="ignore", invalid="ignore")
def simulate_direct(coeffs: CoefficientFamily, y0: np.ndarray, path: BrownianPath) -> np.ndarray:
    """Euler-Maruyama on the underlying nonlinear SDE, same grid and noise.

    y0 has shape (P, dy), row p the start of path p, and the trajectory at
    every knot has shape (n_steps + 1, P, dy).  A path that blows up is left
    non-finite; it does not change the others.
    """
    _check_noise_dim(coeffs, path)
    y = np.asarray(y0, dtype=np.float64)
    if y.shape != (path.n_paths, coeffs.dy):
        raise ShapeError(f"y0 has shape {y.shape}, expected {(path.n_paths, coeffs.dy)}")
    if not np.isfinite(y).all():
        raise ShapeError("y0 has non-finite entries")
    grid, dw = path.grid, path.increments
    values, index, _, _ = coeffs.on_grid(grid)
    out = np.empty((grid.n_steps + 1,) + y.shape)
    out[0] = y
    for i, v in enumerate(index.tolist()):
        a_t, b_t = values[v]
        # the noise matrix b(t_i, y) of each path, (P, dy, m), times its increment
        noise = evaluate(b_t, y) @ dw[:, i, :, None]
        y = y + (grid.dt * evaluate(a_t, y) + noise[..., 0])
        out[i + 1] = y
    return out


def _forcing(first: int, state: list, a: list, b: list, shapes: list) -> tuple[list, list]:
    """Entries of f_n and g_n for n = first.., one per shape, at each of J
    steps, along a leading step axis.

    f_n and g_n are component n of a after S and of b after S, each with its
    degree-1 coefficient zeroed.  state, a and b list entries by degree, each
    with the leading step axis, None where zero at every step; a and b are
    slots-first (see `_contract`).  f_n has shape (J, dz) + (dy,)*n; g_n
    keeps b's noise axis last, and is None when b_2..b_n are None.  One
    runner for f and one for g serve every degree, sharing Horner classes.
    """
    top = first + len(shapes) - 1
    f = _Runner([None] + a[1:top], state, shapes, batch=1, first=first).components()
    b = [None] + b[1:top]
    noisy = [any(e is not None for e in b[:n]) for n in range(first, top + 1)]
    if not any(noisy):
        return f, [None] * len(shapes)
    m = next(e for e in b if e is not None).shape[-1]
    g = _Runner(b, state, [s + (m,) for s in shapes], batch=1, tail=1, first=first).components()
    return f, [g_n if is_noisy else None for g_n, is_noisy in zip(g, noisy)]


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
    (f,), (g,) = _forcing(n, s, a, b, [(1, a_t.dz) + (dy,) * n])
    g = DiffusionMap.zero(n, dy, dz, m) if g is None else DiffusionMap(n, dy, dz, m, g[0])
    return MultilinearMap(n, dy, a_t.dz, f[0]), g


@dataclass(frozen=True)
class EvolutionReport:
    """Per-component discrepancy of the discrete evolution property."""

    split_knot: float
    component_discrepancies: tuple[float, ...]

    @property
    def max_discrepancy(self) -> float:
        """The largest discrepancy; NaN if any is NaN, so that a check on it fails."""
        return float(np.max(self.component_discrepancies))


def _relative_errors(got: np.ndarray, ref: np.ndarray) -> list[float]:
    """|got[i] - ref[i]| / |ref[i]| in the Frobenius norm, for each row i of
    the leading axis; |got[i] - ref[i]| where ref[i] is zero.

    Both rows are first scaled by 2^-e, e the exponent (np.frexp) of
    ref[i]'s largest magnitude, so that no norm overflows.  Scaling by a
    power of two is exact: where no square overflows or underflows, each
    ratio has the bits of np.linalg.norm(got[i] - ref[i]) / np.linalg.norm(ref[i]).
    """
    rows = len(ref)
    got, ref = got.reshape(rows, -1), ref.reshape(rows, -1)
    scale = -np.frexp(np.abs(ref).max(axis=1))[1][:, None]
    out = []
    # the norms as np.linalg.norm computes them, sqrt(v @ v), without its overhead
    for d, r in zip(np.ldexp(got - ref, scale), np.ldexp(ref, scale)):
        diff, norm = math.sqrt(d @ d), math.sqrt(r @ r)
        out.append(diff / norm if norm > 0 else diff)
    return out


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
    glued = compose(right.state(-1), left.state(-1))
    discrepancies = [
        _relative_errors(c.entries[None], e[-1:])[0] for c, e in zip(glued.components, full.entries)
    ]
    return EvolutionReport(split_knot, tuple(discrepancies))
