"""Truncated formal mappings: dense multilinear tensors and their composition algebra.

A formal mapping of order N from R^dY to R^dZ is a sequence of k-linear maps
(k = 1..N), each stored as a dense tensor of shape (dZ, dY, ..., dY) with the
output index slowest and the k argument indices following in argument order.
The contraction kernel reads the outer operand slots-first, (dY, ..., dY, dZ),
a layout each map builds once, on first use.  Composition is the
Faa-di-Bruno-type double sum over ordered integer compositions of the target
degree, evaluated by Horner's rule: partial terms of one shape are summed
before the next slot is filled, compiled once per zero pattern into a flat
list of contractions and additions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, repeat
from numbers import Real
from types import MappingProxyType
from typing import ClassVar, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible degrees, orders or dimensions."""


class NonFiniteError(ShapeError):
    """A tensor contains NaN or Inf entries."""

    def __init__(self, degree: int, message: str | None = None):
        self.degree = degree
        super().__init__(message or f"non-finite entries in degree-{degree} tensor")


@dataclass(frozen=True)
class MultilinearMap:
    """A k-linear map R^dy x ... x R^dy -> R^dz as a dense tensor.

    entries has shape (dz, dy, ..., dy) with k trailing dy-axes; flattening is
    row-major, so the output index varies slowest and the last argument index
    fastest.  A subclass may add trailing axes behind the k argument axes
    (`_tail`), such as the noise axis of a diffusion coefficient; they are
    not argument slots, and every operation keeps them open and last.
    """

    degree: int
    dy: int
    dz: int
    entries: np.ndarray

    # dict keys of the trailing axes' lengths, in the order of _tail()
    _TAIL_KEYS: ClassVar[tuple[str, ...]] = ()

    def _tail(self) -> tuple[int, ...]:
        """Lengths of the trailing axes behind the argument axes."""
        return ()

    def __post_init__(self):
        shape = (self.dz,) + (self.dy,) * self.degree + self._tail()
        if self.degree < 1 or min(shape) < 1:
            raise ShapeError(
                f"need degree >= 1 and dimensions >= 1, got degree {self.degree}, shape {shape}"
            )
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.size != math.prod(shape):
            raise ShapeError(f"{arr.size} entries of shape {arr.shape} do not fill shape {shape}")
        arr = arr.reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise NonFiniteError(self.degree)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @cached_property
    def is_zero(self) -> bool:
        return not self.entries.any()

    @cached_property
    def slots_first(self) -> np.ndarray:
        """entries with the argument axes leading, (dy, ..., dy, dz, tail...):
        the layout `_contract` plugs into.  Built on first use, once per map."""
        arr = np.ascontiguousarray(np.moveaxis(self.entries, 0, self.degree))
        arr.setflags(write=False)
        return arr

    @classmethod
    def zero(cls, degree: int, dy: int, dz: int, *tail: int) -> "MultilinearMap":
        """The zero map; tail gives the trailing axes' lengths, if the type has any."""
        return cls(degree, dy, dz, *tail, np.zeros((dz,) + (dy,) * degree + tail))

    def to_dict(self) -> dict:
        out = {"degree": self.degree, "dy": self.dy, "dz": self.dz}
        out.update(zip(self._TAIL_KEYS, self._tail()))
        out["entries"] = self.entries.ravel().tolist()
        return out

    @classmethod
    def from_dict(cls, d: dict, where: str = "component") -> "MultilinearMap":
        """The map that d describes; where names d in errors, such as "drift component 1"."""
        _require(d, where, ("degree", "dy", "dz", *cls._TAIL_KEYS), "entries")
        entries = np.asarray(d["entries"], dtype=object)
        for kind in set(map(type, entries.flat)):
            if kind in (bool, np.bool_) or not issubclass(kind, Real):
                raise ShapeError(
                    f"entries of a degree-{d['degree']} map must be numbers, got {kind.__name__}"
                )
        entries = entries.astype(np.float64)
        return cls(d["degree"], d["dy"], d["dz"], *(d[key] for key in cls._TAIL_KEYS), entries)


@dataclass(frozen=True)
class FormalMapping:
    """A truncated formal mapping: components of degrees 1..order, each a
    `_COMPONENT`, with the trailing axes `_tail` (none here)."""

    order: int
    dy: int
    dz: int
    components: tuple[MultilinearMap, ...]

    _COMPONENT: ClassVar[type] = MultilinearMap

    def _tail(self) -> tuple[int, ...]:
        """Lengths of the trailing axes every component carries."""
        return ()

    def __post_init__(self):
        if self.order < 1:
            raise ShapeError(f"order must be >= 1, got {self.order}")
        comps = tuple(self.components)
        if len(comps) != self.order:
            raise ShapeError(f"expected {self.order} components, got {len(comps)}")
        tail = self._tail()
        for k, c in enumerate(comps, start=1):
            expected = (self.dz,) + (self.dy,) * k + tail
            if c.degree != k or c.entries.shape != expected:
                raise ShapeError(
                    f"component {k} has degree {c.degree} and shape {c.entries.shape}, "
                    f"expected degree {k} and shape {expected}"
                )
        object.__setattr__(self, "components", comps)

    @staticmethod
    def _dims(c: MultilinearMap) -> tuple[int, int]:
        """The constructor's dimension arguments for a mapping with components like c."""
        return c.dy, c.dz

    @classmethod
    def _of(cls, order: int, comps: Sequence[MultilinearMap]) -> "FormalMapping":
        """The mapping of this type holding comps, its dimensions read off comps[0]."""
        if not comps:
            raise ShapeError("a formal mapping needs at least one component")
        return cls(order, *cls._dims(comps[0]), tuple(comps))

    def component(self, k: int) -> MultilinearMap:
        """1-based access to the degree-k component."""
        if not 1 <= k <= self.order:
            raise ShapeError(f"degree {k} out of range 1..{self.order}")
        return self.components[k - 1]

    @classmethod
    def from_scalar_coeffs(cls, coeffs: Sequence[float]) -> "FormalMapping":
        """Mapping with every dimension 1 and the given degree-1.. coefficients."""
        ones = (1,) * len(cls._COMPONENT._TAIL_KEYS)
        comps = [cls._COMPONENT(k, 1, 1, *ones, float(c)) for k, c in enumerate(coeffs, start=1)]
        return cls._of(len(comps), comps)

    def scalar_coeffs(self) -> np.ndarray:
        if max((self.dy, self.dz) + self._tail()) != 1:
            raise ShapeError("scalar_coeffs requires every dimension to be 1")
        return np.array([c.entries.ravel()[0] for c in self.components])

    def to_dict(self) -> dict:
        return {"order": self.order, "components": [c.to_dict() for c in self.components]}

    @classmethod
    def from_dict(cls, d: dict, where: str = "mapping") -> "FormalMapping":
        """The mapping that d describes; where names d in errors, such as "initial"."""
        _require(d, where, ("order",), "components")
        comps = d["components"]
        if not isinstance(comps, list):
            raise ShapeError(f"{where} components must be a list, got {type(comps).__name__}")
        return cls._of(
            d["order"], [cls._COMPONENT.from_dict(c, f"{where} component {i}") for i, c in enumerate(comps, 1)]
        )


def _require(d: dict, where: str, integers: Sequence[str], other: str) -> None:
    """d must be a dict with the keys integers, each an int, and the key other;
    where names d in errors."""
    if not isinstance(d, dict):
        raise ShapeError(f"{where} must be an object, got {type(d).__name__}")
    missing = [key for key in (*integers, other) if key not in d]
    if missing:
        raise ShapeError(f"{where} is missing {', '.join(map(repr, missing))}")
    for key in integers:
        if isinstance(d[key], bool) or not isinstance(d[key], int):
            raise ShapeError(f"{where} {key} must be an integer, got {d[key]!r}")


def _operands(t: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The operands (lhs, rhs) of `_contract`; lhs is a view of t when t is contiguous."""
    return t.reshape((len(t), a.shape[1], -1)).swapaxes(-1, -2), a


def _contract(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The slot-contraction kernel: plug a into the leading argument slot of t.

    Axis 0 of t and of a is the row axis, broadcast against each other; each
    row is one matrix product.  a is a matrix stack (rows, m, cols): the
    inner map's output axis, then its input axes flattened.  t is
    slots-first: after its row axis, its entries in C order run over the
    slot being filled slowest (see `MultilinearMap.slots_first`); the rest
    of its shape does not matter.  The product takes t's slot axis
    transposed as it lies, so nothing is copied.  The result is the matrix
    stack (rows, r, cols): r runs over t's other axes in order, its next
    slot slowest, so it feeds the next call as it is, and cols over a's
    input axes.  Once every slot is filled, it reshapes to (rows, out,
    trailing..., inputs...).
    """
    return np.matmul(*_operands(t, a))


def enumerate_compositions(n: int, k: int) -> list[tuple[int, ...]]:
    """All ordered tuples of k positive integers summing to n, lexicographic.

    There are exactly C(n-1, k-1) of them, one per choice of k-1 cut points
    in 1..n-1.
    """
    if n < 1 or k < 1 or k > n:
        raise ShapeError(f"need 1 <= k <= n, got n={n}, k={k}")
    return [
        tuple(hi - lo for lo, hi in zip((0,) + cuts, cuts + (n,)))
        for cuts in combinations(range(1, n), k - 1)
    ]


@lru_cache
def _classes(
    order: int, b_nonzero: tuple[bool, ...], a_nonzero: tuple[bool, ...]
) -> tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...]:
    """Horner's rule for components 1..order, compiled for one zero pattern.

    Class (r, s) sums the partial terms b_k(a_j1, ..., a_ji, ...) with
    r = k - i slots open and s = j_1 + ... + j_i, which share a shape and
    completions.  (k, 0) is b_k and (0, n) is component n.  Entry ((r, t),
    sources), r descending, makes class (r, t) as the sum over its sources
    (s, j), s ascending, of class (r + 1, s) with a_j in its leading slot.
    A product is kept if it is a prefix of a term with no zero operand, as
    b_nonzero[k-1] and a_nonzero[j-1] tell.
    """
    sources: dict = {}
    for n in range(1, order + 1):
        for k in range(1, n + 1):
            for parts in enumerate_compositions(n, k):
                if b_nonzero[k - 1] and all(a_nonzero[j - 1] for j in parts):
                    for i, j in enumerate(parts):
                        s = sum(parts[:i])
                        sources.setdefault((k - i - 1, s + j), set()).add((s, j))
    targets = sorted(sources, key=lambda c: (-c[0], c[1]))
    return tuple(((r, t), tuple(sorted(sources[r, t]))) for r, t in targets)


def _class_ops(plan, values: dict, a: list, buffer) -> list:
    """The ops (ufunc, x, y, out) of each class ((r, t), sources) of plan, in
    its order: np.matmul of a source's `_operands` (class (r + 1, s) of
    values, a[j - 1]), the first into the class and each later one into a
    scratch array and then np.add into the class.  buffer(key, size) gives
    the (rows, size) array of key, the class or "scratch"; values records
    each class's."""
    ops = []
    for (r, t), sources in plan:
        pairs = [_operands(values[r + 1, s], a[j - 1]) for s, j in sources]
        size = pairs[0][0].shape[-2] * pairs[0][1].shape[-1]
        acc = values[r, t] = buffer((r, t), size)
        scratch = buffer("scratch", size) if len(pairs) > 1 else None
        for i, (x, y) in enumerate(pairs):
            out = acc.reshape(len(acc), x.shape[-2], y.shape[-1])
            product = scratch.reshape(out.shape) if i else out
            ops.append((np.matmul, x, y, product))
            if i:
                ops.append((np.add, out, product, out))
    return ops


class _Runner:
    """Components 1.. of b after a, one per shape, by `_classes`.

    b lists entries by degree in slots-first layout, a in the usual layout,
    each None where zero.  The last `tail` axes of b's entries are not slots;
    they stay last in the results.  Axis 0 of every entry and shape is the
    row axis (see `_contract`), of one length in a runner.  A runner holds a
    buffer per class and the flat list of `_class_ops` on views.  `components`
    returns fresh arrays, zeros where no class makes a component.
    """

    def __init__(self, b: list, a: list, shapes: list, tail: int = 0):
        order = len(shapes)
        rows, self.tail = shapes[0][0], tail
        b = b[:order]
        a = [None if e is None else e.reshape(e.shape[:2] + (-1,)) for e in a[:order]]
        b_nonzero = tuple(e is not None for e in b)
        a_nonzero = tuple(j < len(a) and a[j] is not None for j in range(order))
        values = {(k, 0): e for k, e in enumerate(b, start=1) if e is not None}
        plan = _classes(order, b_nonzero, a_nonzero)
        self.ops = _class_ops(plan, values, a, lambda key, size: np.empty((rows, size)))
        self.outs = []
        for n, shape in enumerate(shapes, start=1):
            # component n comes out (rows, out, trailing..., inputs...), see _contract
            cut = len(shape) - tail
            raw = shape[:2] + shape[cut:] + shape[2:cut]
            v = values.get((0, n))
            self.outs.append((raw, None if v is None else v.reshape(raw)))
        for f, x, y, z in self.ops:
            f(x, y, z)

    def components(self) -> list[np.ndarray]:
        out = []
        for raw, v in self.outs:
            # adding 0.0 reads a sum of -0.0 terms as 0.0, as a sum from zeros would
            out.append(_tail_last(np.zeros(raw) if v is None else np.add(v, 0.0), self.tail))
        return out


@lru_cache
def _step_sizes(psi_nonzero: tuple, start_nonzero: tuple, d: int) -> tuple:
    """The sizing of a `_Steps` schedule: its plan and the state's zero
    pattern, both at the fixed point a step keeps, the floats per row of
    each pooled buffer (both maps read only, as every caller shares them),
    and the floats of one step of one path."""
    order, pattern, nonzero = len(psi_nonzero), None, start_nonzero
    while nonzero != pattern:
        pattern = nonzero
        plan = dict(_classes(order, psi_nonzero, pattern))
        nonzero = tuple((0, n) in plan for n in range(1, order + 1))
    sizes = {(r, t): d ** (r + t + 1) for r, t in plan}
    pool = {key: size for key, size in sizes.items() if key[0]}
    pool["scratch"] = max([sizes[c] for c, src in plan.items() if c[0] and len(src) > 1], default=0)
    pool["products"] = max([(len(src) - 1) * sizes[c] for c, src in plan.items() if not c[0]], default=0)
    operands = sum(d ** (k + 1) * (psi_nonzero[k - 1] + nonzero[k - 1]) for k in range(1, order + 1))
    return MappingProxyType(plan), nonzero, MappingProxyType(pool), sum(pool.values()) + operands


class _Steps:
    """The chain S_{i+1} = Psi_i o S_i of P paths, every dimension d, in
    blocks of up to J steps, degree by degree, by one `_classes` plan.

    The plan is that of Psi's zero pattern psi_nonzero (Psi_1 nonzero) and
    of the state's, grown from start_nonzero to the pattern that a step
    keeps (`nonzero`).  Class (0, n) is Psi_1 S_n, its first source, plus
    the sources (s, n - s), s >= 1, which read S_1..S_{n-1} only.  So for
    n = 1..order a block makes, in one batched pass over its rows, the
    classes (r >= 1, n - 1) and the products of class (1, s) with S_{n-s},
    each kept apart; then, step by step, S_n[i + 1] = Psi_1[i] S_n[i] plus
    those products in source order; then S_n + 0.0.  Each row takes the ops
    of a one-step `_Runner`, in their order.  Where a step's pattern is
    smaller, the extra products add signed zeros, which the + 0.0 reads as
    that runner's zeros.

    The buffers are bound once: psi, (J, P) + (d,)*(k+1) slots-first by
    degree, which the caller fills for each block; state, (J + 1, P, d,
    d^n) by degree, row 0 the state before the block, each None where zero;
    and the classes, one scratch and the products.  A step's buffers hold
    `floats` floats, and J of them fill the budget, J within 1..n_steps.
    `run` runs a block by the ops compiled once per length (`ops`), and
    returns views of the states, valid until the next block.
    """

    def __init__(
        self, psi_nonzero: tuple, start_nonzero: tuple, d: int, paths: int, n_steps: int, budget: int
    ):
        self.plan, self.nonzero, pool, floats = _step_sizes(psi_nonzero, start_nonzero, d)
        self.d, self.paths = d, paths
        self.floats = paths * floats
        self.steps = max(1, min(n_steps, budget // self.floats))
        rows = self.steps * paths
        self.pool = {key: np.empty(rows * size) for key, size in pool.items()}
        self.psi = [
            np.empty((self.steps, paths) + (d,) * (k + 1)) if nonzero else None
            for k, nonzero in enumerate(psi_nonzero, start=1)
        ]
        self.state = [
            np.empty((self.steps + 1, paths, d, d**n)) if nonzero else None
            for n, nonzero in enumerate(self.nonzero, start=1)
        ]
        self.compiled = {}

    def ops(self, steps: int) -> list:
        """The ops of a block of steps, on prefix views of the buffers."""
        rows, d = steps * self.paths, self.d

        def buffer(key, size):
            return self.pool[key][: rows * size].reshape(rows, size)

        values = {(k, 0): e[:steps].reshape(rows, -1) for k, e in enumerate(self.psi, start=1) if e is not None}
        a = [None if e is None else e[:steps].reshape(rows, d, -1) for e in self.state]
        psi_1 = list(self.psi[0][:steps].swapaxes(-1, -2))  # Psi_1[i] as _operands makes it
        ops = []
        for n, s_n in enumerate(self.state, start=1):
            classes = [((r, t), src) for (r, t), src in self.plan.items() if r and t == n - 1]
            ops += _class_ops(classes, values, a, buffer)
            if s_n is None:
                continue
            products, offset = [], 0
            for s, j in self.plan[0, n][1:]:
                x, y = _operands(values[1, s], a[j - 1])
                out = self.pool["products"][offset : offset + rows * x.shape[-2] * y.shape[-1]]
                offset += out.size
                ops.append((np.matmul, x, y, out.reshape(rows, x.shape[-2], y.shape[-1])))
                products.append(list(out.reshape(steps, self.paths, d, -1)))
            knots = list(s_n[: steps + 1])
            # step i: Psi_1[i] S_n[i] into S_n[i + 1], then each product added
            made = [zip(repeat(np.matmul), psi_1, knots, knots[1:])]
            made += [zip(repeat(np.add), knots[1:], p, knots[1:]) for p in products]
            ops += chain.from_iterable(zip(*made))
            # adding 0.0 reads a sum of -0.0 terms as 0.0, as `_Runner.components` does
            ops.append((np.add, s_n[1 : steps + 1], 0.0, s_n[1 : steps + 1]))
        return ops

    def run(self, steps: int) -> list[np.ndarray]:
        """Run a block of steps on psi and state row 0; return the states
        after each step by degree, (steps, P, d) + (d,)*n, and move the last
        into row 0.  The states are views of the buffers (fresh zeros where
        a degree is zero), valid until the next block is run."""
        if (ops := self.compiled.get(steps)) is None:
            ops = self.compiled[steps] = self.ops(steps)
        for f, x, y, z in ops:
            f(x, y, z)
        out = []
        for n, s_n in enumerate(self.state, start=1):
            shape = (steps, self.paths, self.d) + (self.d,) * n
            if s_n is None:
                out.append(np.zeros(shape))
            else:
                out.append(s_n[1 : steps + 1].reshape(shape))
                s_n[0] = s_n[steps]
        return out


def _tail_last(t: np.ndarray, tail: int) -> np.ndarray:
    """Contraction leaves the `tail` trailing axes of b_k behind its output
    axis, ahead of the plugged-in input axes; move them back last (a view)."""
    if not tail:
        return t
    return np.moveaxis(t, range(2, 2 + tail), range(t.ndim - tail, t.ndim))


def _nonzero_entries(mapping, slots_first: bool = False) -> list[np.ndarray | None]:
    """Entries of each component of a mapping behind a row axis of 1, None
    where zero; in slots-first layout if asked, for the outer operand of a
    composition."""
    return [
        None if c.is_zero else (c.slots_first if slots_first else c.entries)[None]
        for c in mapping.components
    ]


def apply_to_tuple(b_k: MultilinearMap, args: Sequence[MultilinearMap]) -> MultilinearMap:
    """Plug the maps a_{j_1}..a_{j_k} into the k slots of b_k.

    The result is an n-linear map of b_k's type (n = sum of argument degrees)
    whose inputs are distributed to the argument maps in order; trailing axes
    of b_k, such as a noise axis, stay open and last.
    """
    if len(args) != b_k.degree:
        raise ShapeError(f"b_k has {b_k.degree} slots, got {len(args)} argument maps")
    for a in args:
        if (a.dy, a.dz) != (args[0].dy, b_k.dy) or a._tail():
            raise ShapeError(
                f"argument maps must map R^{args[0].dy} to R^{b_k.dy} with no trailing axes, "
                f"got shape {a.entries.shape}"
            )
    t = b_k.slots_first[None]
    for a in args:
        t = _contract(t, a.entries.reshape(1, a.dz, -1))
    tail = b_k._tail()
    n = sum(a.degree for a in args)
    t = t.reshape((1, b_k.dz) + tail + (args[0].dy,) * n)
    return type(b_k)(n, args[0].dy, b_k.dz, *tail, _tail_last(t, len(tail))[0])


def compose(b: FormalMapping, a: FormalMapping) -> FormalMapping:
    """Composition b after a, truncated to min(a.order, b.order).

    Component n is the double sum over k = 1..n and over ordered compositions
    (j_1..j_k) of n, of b_k plugged with a_{j_1}..a_{j_k}.  Terms with an
    all-zero operand are skipped, so component n depends only on nonzero
    components of degree <= n of both operands.  The result has b's type:
    trailing axes of b's components, such as a noise axis, stay open and last.
    """
    if a.dz != b.dy or a._tail():
        raise ShapeError(
            f"a must map into b's domain R^{b.dy} with no trailing axes, "
            f"got codomain R^{a.dz} and trailing axes {a._tail()}"
        )
    order = min(a.order, b.order)
    tail = b._tail()
    shapes = [(1, b.dz) + (a.dy,) * n + tail for n in range(1, order + 1)]
    entries = _Runner(
        _nonzero_entries(b, slots_first=True), _nonzero_entries(a), shapes, tail=len(tail)
    ).components()
    comps = [b._COMPONENT(n, a.dy, b.dz, *tail, e[0]) for n, e in enumerate(entries, start=1)]
    return b._of(order, comps)


def identity(order: int, d: int) -> FormalMapping:
    """Identity formal mapping: id in degree 1, zero above."""
    if order < 1 or d < 1:
        raise ShapeError(f"need order >= 1 and d >= 1, got {order}, {d}")
    comps = [MultilinearMap(1, d, d, np.eye(d))]
    comps += [MultilinearMap.zero(k, d, d) for k in range(2, order + 1)]
    return FormalMapping(order, d, d, tuple(comps))


def evaluate(a: FormalMapping, y: np.ndarray) -> np.ndarray:
    """Truncated power-series value: sum over k of a_k(y, ..., y).

    y has shape (dy,), or (P, dy) for the values at P points, shape (P, dz).
    Trailing axes of a's components stay last: a diffusion family's value at
    y is its (dz, m) noise matrix there.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (1, 2) or y.shape[-1] != a.dy:
        raise ShapeError(f"y has shape {y.shape}, expected ({a.dy},) or (P, {a.dy})")
    rows = y.reshape(-1, a.dy, 1)
    out = np.zeros((len(rows), a.dz) + a._tail())
    for comp in a.components:
        if comp.is_zero:
            continue
        t = comp.slots_first[None]
        for _ in range(comp.degree):
            t = _contract(t, rows)
        out += t.reshape(out.shape)
    return out.reshape(y.shape[:-1] + out.shape[1:])
