"""Truncated formal mappings: dense multilinear tensors and their composition algebra.

A formal mapping of order N from R^dY to R^dZ is a sequence of k-linear maps
(k = 1..N), each stored as a dense tensor of shape (dZ, dY, ..., dY) with the
output index slowest and the k argument indices following in argument order.
The contraction kernel reads the outer operand slots-first, (dY, ..., dY, dZ),
a layout each map builds once, on first use.  Composition is the
Faa-di-Bruno-type double sum over ordered integer compositions of the target
degree, compiled once per zero pattern into a flat list of contractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from numbers import Real
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

    def apply(self, *vectors: np.ndarray) -> np.ndarray:
        """Value on k vectors, contracting argument slots in order."""
        if len(vectors) != self.degree:
            raise ShapeError(f"expected {self.degree} vectors, got {len(vectors)}")
        out = self.slots_first
        for v in vectors:
            v = np.asarray(v, dtype=np.float64)
            if v.shape != (self.dy,):
                raise ShapeError(f"argument vector has shape {v.shape}, expected ({self.dy},)")
            out = _contract(out, v[:, None])
        return out.reshape((self.dz,) + self._tail())

    def to_dict(self) -> dict:
        out = {"degree": self.degree, "dy": self.dy, "dz": self.dz}
        out.update(zip(self._TAIL_KEYS, self._tail()))
        out["entries"] = self.entries.ravel().tolist()
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "MultilinearMap":
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
    def from_dict(cls, d: dict) -> "FormalMapping":
        return cls._of(d["order"], [cls._COMPONENT.from_dict(c) for c in d["components"]])


def _contract(t: np.ndarray, a: np.ndarray, batch: int = 0) -> np.ndarray:
    """The slot-contraction kernel: plug a into the leading argument slot of t.

    a is a matrix stack (batch..., m, cols): the inner map's output axis,
    then its input axes flattened.  t is slots-first: after its first
    `batch` axes, its entries in C order run over the slot being filled
    slowest (see `MultilinearMap.slots_first`); the rest of its shape does
    not matter.  The product takes t's slot axis transposed as it lies, so
    nothing is copied.  The result is the matrix stack (batch..., rows,
    cols): rows run over t's other axes in order, its next slot slowest, so
    it feeds the next call as it is, and columns over a's input axes.  Once
    every slot is filled, it reshapes to (out, trailing..., inputs...).
    The first `batch` axes of t and a are path axes, broadcast against each
    other; each path is one matrix product, bitwise equal to the unbatched
    call.
    """
    m = a.shape[batch]
    return t.reshape(t.shape[:batch] + (m, -1)).swapaxes(-1, -2) @ a


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
def _plan(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The composition plan of component n: its terms (k, parts) in summation order."""
    return tuple((k, parts) for k in range(1, n + 1) for parts in enumerate_compositions(n, k))


@lru_cache
def _schedule(
    order: int, b_nonzero: tuple[bool, ...], a_nonzero: tuple[bool, ...], first: int = 1
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """The plan terms of components first..order, compiled for one zero pattern.

    b_nonzero[k-1] and a_nonzero[j-1] tell whether b_k and a_j are nonzero;
    a term with a zero operand is dropped.  Values 0..order-1 are b_1..b_order,
    and op i, (source, j), makes value order + i by plugging a_j into the
    leading slot of value source.  Each prefix (k, j_1..j_i) of a kept term
    is one op, shared by every term that starts with it.  terms[n - first]
    lists the values that component n sums, in plan order.
    """
    made: dict = {}
    ops, terms = [], []
    for n in range(first, order + 1):
        kept = []
        for k, parts in _plan(n):
            if not (b_nonzero[k - 1] and all(a_nonzero[j - 1] for j in parts)):
                continue
            v = k - 1
            for i, j in enumerate(parts, start=1):
                if (k, parts[:i]) not in made:
                    made[k, parts[:i]] = order + len(ops)
                    ops.append((v, j))
                v = made[k, parts[:i]]
            kept.append(v)
        terms.append(tuple(kept))
    return tuple(ops), tuple(terms)


def _compose_entries(
    b: list, a: list, shapes: list, batch: int = 0, tail: int = 0, first: int = 1
) -> list[np.ndarray]:
    """Components first.. of b after a, one per shape, by their `_schedule`.

    b lists entries by degree in slots-first layout, a in the usual layout,
    each None where zero.  The last `tail` axes of b's entries are not slots;
    they stay last in the results.  The first `batch` axes of every entry are
    path axes (see `_contract`); the shapes include them.
    """
    order = first + len(shapes) - 1
    a = [None if e is None else e.reshape(e.shape[: batch + 1] + (-1,)) for e in a[:order]]
    ops, terms = _schedule(
        order,
        tuple(e is not None for e in b[:order]),
        tuple(j < len(a) and a[j] is not None for j in range(order)),
        first,
    )
    values = list(b[:order])
    for source, j in ops:
        values.append(_contract(values[source], a[j - 1], batch))
    out = []
    for shape, term in zip(shapes, terms):
        # the terms come out (out, trailing..., inputs...), see _contract
        cut = len(shape) - tail
        raw = shape[: batch + 1] + shape[cut:] + shape[batch + 1 : cut]
        acc = np.zeros(raw)
        for v in term:
            t = values[v]
            acc += t.reshape(t.shape[:batch] + raw[batch:])
        out.append(_tail_last(acc, batch, tail))
    return out


def _tail_last(t: np.ndarray, batch: int, tail: int) -> np.ndarray:
    """Contraction leaves the `tail` trailing axes of b_k behind its output
    axis, ahead of the plugged-in input axes; move them back last (a view)."""
    if not tail:
        return t
    lead = range(batch + 1, batch + 1 + tail)
    return np.moveaxis(t, lead, range(t.ndim - tail, t.ndim))


def _nonzero_entries(mapping, slots_first: bool = False) -> list[np.ndarray | None]:
    """Entries of each component of a mapping, None where zero; in
    slots-first layout if asked, for the outer operand of a composition."""
    return [
        None if c.is_zero else c.slots_first if slots_first else c.entries
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
    t = b_k.slots_first
    for a in args:
        t = _contract(t, a.entries.reshape(a.dz, -1))
    tail = b_k._tail()
    n = sum(a.degree for a in args)
    t = t.reshape((b_k.dz,) + tail + (args[0].dy,) * n)
    return type(b_k)(n, args[0].dy, b_k.dz, *tail, _tail_last(t, 0, len(tail)))


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
    shapes = [(b.dz,) + (a.dy,) * n + tail for n in range(1, order + 1)]
    entries = _compose_entries(
        _nonzero_entries(b, slots_first=True), _nonzero_entries(a), shapes, tail=len(tail)
    )
    comps = [b._COMPONENT(n, a.dy, b.dz, *tail, e) for n, e in enumerate(entries, start=1)]
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
    batch = y.ndim - 1
    out = np.zeros(y.shape[:-1] + (a.dz,) + a._tail())
    for comp in a.components:
        if comp.is_zero:
            continue
        t = comp.slots_first[(None,) * batch]
        for _ in range(comp.degree):
            t = _contract(t, y[..., None], batch)
        out += t.reshape(out.shape)
    return out
