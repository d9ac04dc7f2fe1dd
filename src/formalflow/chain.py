"""Brownian paths and the Euler-Maruyama solver for the triangular chain.

The unknown is a time-indexed truncated formal mapping S(t, s).  One Euler
step is itself a formal mapping Psi = Id + a(t)*dt + b(t)(..., dw), and the
update is S(t_{i+1}, s) = Psi o S(t_i, s), which keeps the discrete evolution
property exact up to floating-point reordering.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    FormalMapping,
    MultilinearMap,
    ShapeError,
    _Runner,
    _check_components,
    _Steps,
    _nonzero_entries,
    _step_sizes,
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


def _integer(key: str, value) -> int:
    """value, if it is an integer (numpy's too); a float or bool in its place
    is an error, not truncated into another grid or path."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ShapeError(f"{key} must be an integer, got {value!r}")
    return value


# how far a time may lie from a knot and still name it (`TimeGrid.knot_index`)
_KNOT_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with n_steps steps of size dt.

    dt is (t_end - t_start) / n_steps.  Sub-grids and coarsened grids
    (`_sub`) take their parent's step (times the coarsening factor) and knot
    times, bit for bit: knot i lies at t0 + (first + i*stride)*h, where
    _base = (t0, h, first, stride) holds the start and step of the grid
    first cut from and this grid's knot indices on it.
    """

    t_start: float
    t_end: float
    n_steps: int
    dt: float = field(init=False)
    _base: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if _integer("n_steps", self.n_steps) < 1:
            raise ShapeError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.t_end > self.t_start:
            raise ShapeError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")
        object.__setattr__(self, "dt", (self.t_end - self.t_start) / self.n_steps)
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
        grid = TimeGrid(self.knot(first), self.knot(first + n_steps * stride), n_steps)
        object.__setattr__(grid, "dt", stride * self.dt)
        object.__setattr__(grid, "_base", (t0, h, i0 + first * s, s * stride))
        return grid

    def knot_index(self, t: float) -> int:
        """Index of the knot within _KNOT_TOL of t; ShapeError if t is not a knot."""
        idx = round((t - self.t_start) / self.dt)
        if 0 <= idx <= self.n_steps and abs(self.knot(idx) - t) <= _KNOT_TOL:
            return idx
        raise ShapeError(f"t={t} is not a knot of the grid")


@dataclass(frozen=True)
class BrownianPath:
    """Per-step Gaussian increments of P paths of an m-dimensional Wiener
    process on one grid; a single path is a BrownianPath of one row.

    increments has shape (P, n_steps, m), and m is the path's noise_dim.
    Row p is drawn from the Philox counter-based stream keyed by (seed,
    path_index + p): standard normals drawn row by row (numpy ziggurat) and
    scaled by sqrt(dt).  Regeneration from the same key is bit-identical,
    and the first j steps agree with any longer draw on the same step size.
    """

    grid: TimeGrid
    increments: np.ndarray
    seed: int
    path_index: int = 0

    def __post_init__(self):
        _integer("seed", self.seed), _integer("path_index", self.path_index)
        arr = np.asarray(self.increments, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1] != self.grid.n_steps or arr.shape[2] < 1:
            raise ShapeError(f"increments shape {arr.shape} != (P, {self.grid.n_steps}, m), P and m >= 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "increments", arr)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def noise_dim(self) -> int:
        return self.increments.shape[2]

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
        return cls(grid, increments, seed, path_index)

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
        return BrownianPath(sub, self.increments[:, i_start:i_stop], self.seed, self.path_index)

    def coarsen(self, factor: int) -> "BrownianPath":
        """Sum groups of `factor` increments: the same paths on a coarser grid."""
        if _integer("factor", factor) < 1 or self.grid.n_steps % factor != 0:
            raise ShapeError(f"factor {factor} does not divide {self.grid.n_steps} steps")
        n = self.grid.n_steps // factor
        coarse = self.increments.reshape(self.n_paths, n, factor, self.noise_dim).sum(axis=2)
        return BrownianPath(self.grid._sub(0, n, factor), coarse, self.seed, self.path_index)


def _one_path(coeffs: CoefficientFamily, path: BrownianPath) -> np.ndarray:
    """The (n_steps, m) increments of a one-row path with the coefficients'
    noise dimension.  A consumer of one path does not pick a row of several:
    that would be another experiment."""
    _check_noise_dim(coeffs, path)
    if path.n_paths != 1:
        raise ShapeError(f"expected a single path, got {path.n_paths} rows")
    return path.increments[0]


def _draw(grid: TimeGrid, m: int, seed: int, first: int, n_paths: int) -> BrownianPath:
    """Paths first..first+n_paths-1 of seed as the rows of one BrownianPath:
    row p holds the standard normals of the Philox key (seed, first + p),
    drawn into one preallocated array and scaled by sqrt(dt)."""
    if _integer("noise_dim", m) < 1:
        raise ShapeError(f"noise_dim must be >= 1, got {m}")
    # a key word outside 64 bits would wrap onto another value's path
    for name, value in (("seed", seed), ("path_index", first)):
        if not 0 <= _integer(name, value) < 2**64:
            raise ShapeError(f"{name} must be in [0, 2**64), got {value}")
    increments = np.empty((n_paths, grid.n_steps, m))
    for p, row in enumerate(increments, start=first):
        key = np.array([seed, p], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).standard_normal(out=row)
    increments *= math.sqrt(grid.dt)
    return BrownianPath(grid, increments, seed, first)


def sample_path(grid: TimeGrid, m: int, seed: int, path_index: int = 0) -> BrownianPath:
    """Draw the one-row path (seed, path_index); seed and path_index, the two
    words of the Philox key, must lie in [0, 2**64)."""
    return _draw(grid, m, seed, path_index, 1)


def sample_paths(grid: TimeGrid, m: int, seed: int, n_paths: int) -> BrownianPath:
    """Draw paths 0..n_paths-1 of seed as the rows of one BrownianPath,
    row p bitwise the one row of sample_path(grid, m, seed, p)."""
    if _integer("n_paths", n_paths) < 1:
        raise ShapeError(f"n_paths must be >= 1, got {n_paths}")
    return _draw(grid, m, seed, 0, n_paths)


def DiffusionMap(degree: int, dy: int, dz: int, noise_dim: int, entries: np.ndarray) -> MultilinearMap:
    """The map with k state slots and a noise slot: a MultilinearMap with the tail (noise_dim,)."""
    return MultilinearMap(degree, dy, dz, entries, (noise_dim,))


# the span chain.diffusion_apply_to_tuple of perfbench/tracer.py wraps this name
DiffusionMap.apply_to_tuple = apply_to_tuple


def DiffusionFamily(order: int, dy: int, noise_dim: int, components: Sequence[MultilinearMap]) -> FormalMapping:
    """The FormalMapping of diffusion coefficients b_1..b_order, each with the tail (noise_dim,)."""
    comps = tuple(components)
    dz = comps[0].dz if comps else dy
    _check_components(order, dy, dz, comps, (noise_dim,))
    return FormalMapping(order, dy, dz, comps)


def _noise_dim(b: FormalMapping) -> int:
    """The length of b's one trailing axis, the noise axis of a diffusion family."""
    if len(b.tail) != 1:
        raise ShapeError(f"diffusion needs one trailing noise axis, got trailing axes {b.tail}")
    return b.tail[0]


@dataclass(frozen=True)
class CoefficientFamily:
    """Time-indexed drift and diffusion coefficients of the chain."""

    order: int
    dy: int
    noise_dim: int
    drift: Callable[[float], FormalMapping]
    diffusion: Callable[[float], FormalMapping]
    # the one (drift, diffusion) pair of a family made by `constant`, checked
    _pair: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def constant(cls, a: FormalMapping, b: FormalMapping) -> "CoefficientFamily":
        coeffs = cls(a.order, a.dy, _noise_dim(b), lambda t: a, lambda t: b)
        # constant coefficients need their shapes checked only once, here
        object.__setattr__(coeffs, "_pair", (coeffs.drift_at(0.0), coeffs.diffusion_at(0.0)))
        return coeffs

    @classmethod
    def constant_scalar(
        cls, drift_coeffs: Sequence[float], diffusion_coeffs: Sequence[float] | None = None
    ) -> "CoefficientFamily":
        """Scalar (dy = m = 1) constant-in-time coefficients."""
        a = FormalMapping.from_scalar_coeffs(drift_coeffs)
        b = [0.0] * a.order if diffusion_coeffs is None else diffusion_coeffs
        return cls.constant(a, FormalMapping.from_scalar_coeffs(b, (1,)))

    def drift_at(self, t: float) -> FormalMapping:
        return self._checked("drift", t, self.drift(t), ())

    def diffusion_at(self, t: float) -> FormalMapping:
        return self._checked("diffusion", t, self.diffusion(t), (self.noise_dim,))

    def _checked(self, what: str, t: float, mapping: FormalMapping, tail: tuple) -> FormalMapping:
        """mapping, if it has this family's order, maps R^dy to R^dy and has trailing axes tail."""
        got = (mapping.order, mapping.dy, mapping.dz) + mapping.tail
        want = (self.order, self.dy, self.dy) + tail
        if got != want:
            raise ShapeError(f"{what} at t={t} has (order, dy, dz, tail) {got}, expected {want}")
        return mapping

    def on_grid(self, grid: TimeGrid) -> GridCoefficients:
        """The coefficients at every step of grid, in one pass: the distinct (drift,
        diffusion) pairs, told apart by identity and each checked once, in order of
        first use; index[i], step i's pair; and a[k-1] and b[k-1], the pairs' slots-first
        a_k and b_k stacked (a[k-1][index] is a_k at each step), None where all zero.
        A family made by `constant` has its one pair, and calls no provider."""
        values, seen, index, tail = [], {}, [], (self.noise_dim,)
        if self._pair is not None:
            values, index = [self._pair], [0] * grid.n_steps
        else:
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
    """Chain states S(t_i, s) under coeffs at every knot of the one-row path
    they were solved along; the path's grid, seed and path_index are its
    provenance.

    entries[k-1] holds component k of every state, shape (n_steps + 1, d) +
    (d,)*k, row i at knot i (the initial state is row 0); the arrays are
    finite and read-only.  `state(i)` wraps a row as a FormalMapping.
    """

    coeffs: CoefficientFamily
    path: BrownianPath
    entries: tuple[np.ndarray, ...]

    def state(self, i: int) -> FormalMapping:
        """The state at knot i (negative i counts from the end)."""
        d = self.coeffs.dy
        comps = tuple(MultilinearMap(k, d, d, e[i]) for k, e in enumerate(self.entries, start=1))
        return FormalMapping(len(comps), d, d, comps)


def _noise(b_k: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """b_k, with a path axis (P or 1) first, and its noise slot fixed to each
    row of dw (P, m): shape (P,) + b_k's axes between, by one stacked
    matrix-vector product, bitwise b_k[p] @ dw[p]."""
    p, m = dw.shape
    out = b_k.reshape(len(b_k), -1, m) @ dw.reshape(p, m, 1)
    return out.reshape((p,) + b_k.shape[1:-1])


def _step_parts(steps: GridCoefficients, dt: float, d: int) -> tuple[list, list]:
    """Psi's parts for each of the V coefficient pairs of steps (`on_grid`),
    by degree k, slots-first: drift[k-1], (V,) + (d,)*(k+1), is id + a_1*dt,
    then a_k*dt; noise[k-1], (V, rows, m), is b_k as a matrix, None where
    zero at every pair.  Psi_k (k > 1) is zero, its drift None, where a_k
    and b_k are zero at every pair.  The one place Psi is decided."""
    n_pairs, drift = len(steps.values), []
    for k, (a_k, b_k) in enumerate(zip(steps.a, steps.b), start=1):
        if k > 1 and a_k is None and b_k is None:
            drift.append(None)
            continue
        e = np.broadcast_to(np.eye(d) if k == 1 else 0.0, (n_pairs,) + (d,) * (k + 1)).copy()
        if a_k is not None:
            e += dt * a_k
        drift.append(e)
    noise = [None if b_k is None else b_k.reshape(n_pairs, -1, b_k.shape[-1]) for b_k in steps.b]
    return drift, noise


def _step_sums(parts: tuple[list, list], index: np.ndarray, dw: np.ndarray, out: list) -> list:
    """Psi of J steps of P paths by degree from `_step_parts`' parts, one
    batched sum each, into out: slots-first arrays (J, P) + (d,)*(k+1) by
    degree, None where zero.  index gives each step's pair and dw, (J, P,
    m), the increments."""
    for drift_k, b_k, e in zip(*parts, out):
        if drift_k is None:
            continue
        if len(drift_k) == 1:  # one pair on the whole grid: broadcast, not gathered
            drift_k, b_k = drift_k[:, None], None if b_k is None else b_k[:, None]
        else:
            drift_k, b_k = drift_k[index, None], None if b_k is None else b_k[index, None]
        if b_k is None:
            np.copyto(e, drift_k)
        else:
            np.matmul(b_k, dw[..., None], out=e.reshape(e.shape[:2] + (-1, 1)))
            e += drift_k
    return out


def _step_maps(parts: tuple[list, list], index: np.ndarray, dw: np.ndarray) -> list:
    """`_step_sums` into fresh arrays, in the usual layout, (J, P, d) + (d,)*k."""
    out = [None if e is None else np.empty(dw.shape[:2] + e.shape[1:]) for e in parts[0]]
    return [None if e is None else np.moveaxis(e, -1, 2) for e in _step_sums(parts, index, dw, out)]


def one_step_map(a_t: FormalMapping, b_t: FormalMapping, dt: float, dw: np.ndarray) -> FormalMapping:
    """The formal mapping Psi of one Euler-Maruyama step.

    Psi_1 = id + a_1*dt + b_1(., dw); Psi_k = a_k*dt + b_k(..., dw) for k >= 2.
    Composing Psi with the current state reproduces the component-wise Euler
    update of the triangular system.  It is `_step_maps` of one step.
    """
    # checks the shapes of a_t and b_t; the grid's one step has the pair, dt is given
    steps = CoefficientFamily.constant(a_t, b_t).on_grid(TimeGrid(0.0, 1.0, 1))
    dw = np.asarray(dw, dtype=np.float64)
    if dw.shape != b_t.tail:
        raise ShapeError(f"dw has shape {dw.shape}, expected {b_t.tail}")
    d = a_t.dy
    psi = _step_maps(_step_parts(steps, dt, d), steps.index, dw[None, None])
    comps = tuple(
        MultilinearMap.zero(k, d, d) if e is None else MultilinearMap(k, d, d, e[0, 0])
        for k, e in enumerate(psi, start=1)
    )
    return FormalMapping(a_t.order, d, d, comps)


# Memory of `_euler_states`: the buffers of a block of J steps, all degrees'
# Psi, states, Horner classes and products, hold at most _EULER_FLOATS floats
# (1.25 MiB), J within 1..n_steps.  Measured in-process on 2 cores, paired
# with a loop that reruns one Horner `_Runner` per step (medians of 9-11
# rounds): solve-o6d3's chain (order 6, d 3, P 1, 34 416 floats a step) took
# 1.14x the loop's time in blocks of 1 step, 0.84x of 2, 0.70-0.77x of 3,
# 0.59x of 4, 0.56-0.60x of 5 and 0.59-0.64x of 7 to 23; its CLI solve, which
# encodes each state between blocks, 0.80-0.92x from 3 steps on.  Each step
# of a block adds 0.28 MB to the peak RSS there, so the budget stops at 4.
# formula-o3d2's chain (order 3, d 2, 144 floats a step) is one block of 512.
# `solve_chain_batch` runs chunks of paths of which one step fits it: a
# convergence level (order 1, d 1, 2 floats a path and step, 64 paths) is one
# block; at order 4, d 3 (2 610 floats) a chunk is 62 paths, in 1-step blocks.
_EULER_FLOATS = 5 << 15


def _euler_states(coeffs: CoefficientFamily, path: BrownianPath, state: list):
    """The Euler loop: yield the chain states along every row of path after
    each block of steps of its grid, entries by degree with a leading step
    axis, (J, P, d) + (d,)*n.

    The initial state lists its entries by degree, each with a leading path
    axis; it may have a single row shared by all P paths.  One
    `_Steps` schedule of zero patterns read off structure, Psi's from
    `_step_parts` and the state's from the initial state, serves every
    block: `_step_sums` writes the block's Psi into its buffers, and it
    composes Psi_i o S_i degree by degree, each step with the bits of a
    one-step `_Runner`.  A block's buffers hold at most _EULER_FLOATS
    floats, unless one step's alone hold more; the last block may be
    shorter.  A yielded block is a view of those buffers, valid until the
    next block is asked for; the last stays valid after the loop.  A
    consumer that keeps states copies them.
    """
    n_paths, n_steps = path.increments.shape[:2]
    steps = coeffs.on_grid(path.grid)
    parts = _step_parts(steps, path.grid.dt, coeffs.dy)
    run = _Steps(
        tuple(e is not None for e in parts[0]),
        tuple(bool(e.any()) for e in state),
        coeffs.dy,
        n_paths,
        n_steps,
        _EULER_FLOATS,
    )
    for s, e in zip(run.state, state):
        if s is not None:
            s[0] = e.reshape(len(e), coeffs.dy, -1)
    dw = path.increments.swapaxes(0, 1)
    for i in range(0, n_steps, run.steps):
        j = min(i + run.steps, n_steps)
        _step_sums(parts, steps.index[i:j], dw[i:j], [None if e is None else e[: j - i] for e in run.psi])
        yield run.run(j - i)


def _check_noise_dim(coeffs: CoefficientFamily, path: BrownianPath) -> None:
    if path.noise_dim != coeffs.noise_dim:
        raise ShapeError(f"path noise_dim {path.noise_dim} != coefficients {coeffs.noise_dim}")


def _path_blocks(coeffs: CoefficientFamily, initial: FormalMapping, path: BrownianPath):
    """The chain states along a one-row Brownian path, in blocks as
    `_euler_states` yields them, (J, 1, d) + (d,)*n by degree; initial's
    first, a block of one."""
    coeffs._checked("initial condition", path.grid.t_start, initial, ())
    _one_path(coeffs, path)
    start = [c.entries[None] for c in initial.components]
    yield [e[None] for e in start]
    yield from _euler_states(coeffs, path, start)


def _path_states(coeffs: CoefficientFamily, initial: FormalMapping, path: BrownianPath):
    """The chain states along a one-row Brownian path, initial's first, one
    at a time: entries by degree with a path axis of 1."""
    for block in _path_blocks(coeffs, initial, path):
        yield from zip(*block)


# Overflow surfaces as the typed BlowupError or finite mask, not as numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def solve_chain(
    coeffs: CoefficientFamily,
    initial: FormalMapping,
    path: BrownianPath,
) -> ChainSolution:
    """Integrate the triangular chain along a one-row Brownian path and keep
    every state, one array per degree.

    The whole path is integrated first; then one finiteness pass per degree
    raises BlowupError naming the first step whose state is not finite and
    that state's lowest non-finite degree.  A state's component n depends
    only on coefficients and initial components of degree <= n.
    """
    d, knot = coeffs.dy, 0
    entries = tuple(np.empty((path.grid.n_steps + 1, d) + (d,) * k) for k in range(1, coeffs.order + 1))
    for block in _path_blocks(coeffs, initial, path):
        for e, b in zip(entries, block):
            e[knot : knot + len(b)] = b[:, 0]
        knot += len(block[0])
    # finite[k, i]: degree k + 1 is finite at knot i (step i - 1)
    finite = np.array([np.isfinite(e).reshape(len(e), -1).all(axis=1) for e in entries])
    if not finite.all():
        knot = int(np.flatnonzero(~finite.all(axis=0))[0])
        raise BlowupError(step=knot - 1, component=int(np.flatnonzero(~finite[:, knot])[0]) + 1)
    for e in entries:
        e.setflags(write=False)
    return ChainSolution(coeffs, path, entries)


@np.errstate(over="ignore", invalid="ignore")
def solve_chain_batch(
    coeffs: CoefficientFamily, initial: FormalMapping, paths: BrownianPath
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The terminal chain state along every row of paths: the last state of
    the Euler loop (`_euler_states`), so row p has the bits of solve_chain's
    final state along path p.  The rows run in chunks of which one step fits
    _EULER_FLOATS floats with every degree nonzero (no zero pattern needs
    more); rows never mix in the loop, and only the last state is copied.

    Returns the terminal entries by degree k, each of shape (P, d) + (d,)*k,
    and a mask of shape (P,), False where that terminal state is not finite.
    """
    coeffs._checked("initial condition", paths.grid.t_start, initial, ())
    _check_noise_dim(coeffs, paths)
    n_paths, order, d = paths.n_paths, coeffs.order, coeffs.dy
    chunk = max(1, _EULER_FLOATS // _step_sizes((True,) * order, (True,) * order, d)[-1])
    start = [c.entries[None] for c in initial.components]
    terminal = tuple(np.empty((n_paths, d) + (d,) * k) for k in range(1, order + 1))
    for p in range(0, n_paths, chunk):
        rows = paths
        if chunk < n_paths:
            rows = BrownianPath(paths.grid, paths.increments[p : p + chunk], paths.seed, paths.path_index + p)
        for block in _euler_states(coeffs, rows, start):
            pass
        for out, e in zip(terminal, block):
            out[p : p + chunk] = e[-1]
    finite = np.all([np.isfinite(e).reshape(n_paths, -1).all(axis=1) for e in terminal], axis=0)
    return terminal, finite


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


def _forcing(state: list, a: list, b: list, shapes: list) -> tuple[list, list]:
    """Entries of f_n and g_n for n = 1.., one per shape, at each of J
    steps, along a leading step axis.

    f_n and g_n are component n of a after S and of b after S, each with its
    degree-1 coefficient zeroed.  state, a and b list entries by degree, each
    with the leading step axis, None where zero at every step; a and b are
    slots-first (see `_contract`).  f_n has shape (J, dz) + (dy,)*n; g_n
    keeps b's noise axis last, and is None when b_2..b_n are None.  One
    runner for f and one for g serve every degree, sharing Horner classes.
    """
    top = len(shapes)
    f = _Runner([None] + a[1:top], state, shapes).components()
    b = [None] + b[1:top]
    noisy = [any(e is not None for e in b[:n]) for n in range(1, top + 1)]
    if not any(noisy):
        return f, [None] * top
    m = next(e for e in b if e is not None).shape[-1]
    g = _Runner(b, state, [s + (m,) for s in shapes], tail=1).components()
    return f, [g_n if is_noisy else None for g_n, is_noisy in zip(g, noisy)]


def forcing_terms(
    n: int, states_at_t: FormalMapping, a_t: FormalMapping, b_t: FormalMapping
) -> tuple[MultilinearMap, MultilinearMap]:
    """Inhomogeneous terms of the degree-n equation.

    f_n and g_n are component n of a after S and of b after S, each with its
    degree-1 coefficient zeroed; so they involve state components of degree
    <= n - 1 only.  This is the one-step caller of the batched `_forcing`.
    """
    if n < 2:
        raise ShapeError(f"forcing terms are defined for n >= 2, got {n}")
    if states_at_t.order < n - 1 or min(a_t.order, b_t.order) < n:
        raise ShapeError(f"need state components up to degree {n - 1}, coefficients up to {n}")
    dy, dz, tail = states_at_t.dy, b_t.dz, (_noise_dim(b_t),)
    s, a, b = _nonzero_entries(states_at_t), _nonzero_entries(a_t, True), _nonzero_entries(b_t, True)
    f, g = (x[-1] for x in _forcing(s, a, b, [(1, a_t.dz) + (dy,) * k for k in range(1, n + 1)]))
    g = MultilinearMap.zero(n, dy, dz, tail) if g is None else MultilinearMap(n, dy, dz, g[0], tail)
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


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The norm of each row along x's last axis, sqrt(v @ v) as
    np.linalg.norm computes it, by one batched product: shape x.shape[:-1]."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _relative_errors(got: np.ndarray, ref: np.ndarray) -> list[float]:
    """|got[i] - ref[i]| / |ref[i]| in the Frobenius norm, for each row i of
    the leading axis; |got[i] - ref[i]| where ref[i] is zero or NaN.

    Both rows are first scaled by 2^-e, e the exponent (np.frexp) of
    ref[i]'s largest magnitude, or of the difference's where ref[i] is zero
    (whose norm is then scaled back), so that no norm overflows.  Scaling
    by a power of two is exact: where no square overflows or underflows,
    each ratio has the bits of np.linalg.norm(got[i] - ref[i]) / np.linalg.norm(ref[i]).
    """
    rows = len(ref)
    got, ref = got.reshape(rows, -1), ref.reshape(rows, -1)
    delta, top = got - ref, np.abs(ref).max(axis=1)
    zero = top == 0
    top[zero] = np.abs(delta[zero]).max(axis=1)
    e = np.frexp(top)[1]
    diff, norm = (_row_norms(np.ldexp(x, -e[:, None])) for x in (delta, ref))
    diff[zero] = np.ldexp(diff[zero], e[zero])
    return np.divide(diff, norm, out=diff, where=norm > 0).tolist()


def evolution_check(coeffs: CoefficientFamily, path: BrownianPath, split_knot: float) -> EvolutionReport:
    """Compare S(t, tau) o S(tau, s) against S(t, s) on one path, over its grid.

    Both sides compose the same per-step mappings, so the discrepancy is
    floating-point reordering noise only.  S(tau, s) is the full solve's
    state at tau: a solve along the path restricted to [s, tau] takes the
    same steps at the same knot times, so it has the same bits.
    """
    grid = path.grid
    i_tau = grid.knot_index(split_knot)
    if i_tau == 0 or i_tau == grid.n_steps:
        raise ShapeError("split knot must be strictly inside the interval")
    ident = identity(coeffs.order, coeffs.dy)
    full = solve_chain(coeffs, ident, path)
    right = solve_chain(coeffs, ident, path.restrict(i_tau, grid.n_steps))
    glued = compose(right.state(-1), full.state(i_tau))
    discrepancies = [
        _relative_errors(c.entries[None], e[-1:])[0] for c, e in zip(glued.components, full.entries)
    ]
    return EvolutionReport(split_knot, tuple(discrepancies))
