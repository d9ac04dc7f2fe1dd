"""Truncated formal mappings: dense multilinear tensors and their composition algebra.

A formal mapping of order N from R^dY to R^dZ is a sequence of k-linear maps
(k = 1..N), each stored as a dense tensor of shape (dZ, dY, ..., dY) with the
output index slowest and the k argument indices following in argument order.
Composition is the Faa-di-Bruno-type double sum over ordered integer
compositions of the target degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Sequence

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
    fastest.
    """

    degree: int
    dy: int
    dz: int
    entries: np.ndarray

    def __post_init__(self):
        if self.degree < 1:
            raise ShapeError(f"degree must be >= 1, got {self.degree}")
        if self.dy < 1 or self.dz < 1:
            raise ShapeError(f"dimensions must be >= 1, got dy={self.dy}, dz={self.dz}")
        arr = np.asarray(self.entries, dtype=np.float64)
        expected = (self.dz,) + (self.dy,) * self.degree
        if arr.size != self.dz * self.dy**self.degree:
            raise ShapeError(
                f"entry count {arr.size} != dz*dy^k = {self.dz * self.dy**self.degree}"
            )
        arr = arr.reshape(expected).copy()
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(self.degree)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @cached_property
    def is_zero(self) -> bool:
        return not self.entries.any()

    @classmethod
    def zero(cls, degree: int, dy: int, dz: int) -> "MultilinearMap":
        return cls(degree, dy, dz, np.zeros((dz,) + (dy,) * degree))

    def apply(self, *vectors: np.ndarray) -> np.ndarray:
        """Value on k vectors, contracting argument slots in order."""
        if len(vectors) != self.degree:
            raise ShapeError(f"expected {self.degree} vectors, got {len(vectors)}")
        out = self.entries
        for v in vectors:
            v = np.asarray(v, dtype=np.float64)
            if v.shape != (self.dy,):
                raise ShapeError(f"argument vector has shape {v.shape}, expected ({self.dy},)")
            out = _contract(out, v)
        return out

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "dy": self.dy,
            "dz": self.dz,
            "entries": self.entries.ravel().tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MultilinearMap":
        return cls(d["degree"], d["dy"], d["dz"], np.asarray(d["entries"], dtype=np.float64))


@dataclass(frozen=True)
class FormalMapping:
    """A truncated formal mapping: components of degrees 1..order."""

    order: int
    dy: int
    dz: int
    components: tuple[MultilinearMap, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ShapeError(f"order must be >= 1, got {self.order}")
        comps = tuple(self.components)
        if len(comps) != self.order:
            raise ShapeError(f"expected {self.order} components, got {len(comps)}")
        for k, c in enumerate(comps, start=1):
            if c.degree != k:
                raise ShapeError(f"component {k} has degree {c.degree}")
            if c.dy != self.dy or c.dz != self.dz:
                raise ShapeError(
                    f"component {k} dims ({c.dy},{c.dz}) != mapping dims ({self.dy},{self.dz})"
                )
        object.__setattr__(self, "components", comps)

    def component(self, k: int) -> MultilinearMap:
        """1-based access to the degree-k component."""
        if not 1 <= k <= self.order:
            raise ShapeError(f"degree {k} out of range 1..{self.order}")
        return self.components[k - 1]

    @classmethod
    def from_scalar_coeffs(cls, coeffs: Sequence[float]) -> "FormalMapping":
        """Scalar (dy = dz = 1) mapping with the given degree-1.. coefficients."""
        comps = tuple(
            MultilinearMap(k, 1, 1, np.array(float(c)).reshape((1,) * (k + 1)))
            for k, c in enumerate(coeffs, start=1)
        )
        return cls(len(comps), 1, 1, comps)

    def scalar_coeffs(self) -> np.ndarray:
        if self.dy != 1 or self.dz != 1:
            raise ShapeError("scalar_coeffs requires dy = dz = 1")
        return np.array([c.entries.ravel()[0] for c in self.components])

    def to_dict(self) -> dict:
        return {"order": self.order, "components": [c.to_dict() for c in self.components]}

    @classmethod
    def from_dict(cls, d: dict) -> "FormalMapping":
        comps = tuple(MultilinearMap.from_dict(c) for c in d["components"])
        if not comps:
            raise ShapeError("a formal mapping needs at least one component")
        return cls(d["order"], comps[0].dy, comps[0].dz, comps)


def _contract(t: np.ndarray, a: np.ndarray, batch: int = 0) -> np.ndarray:
    """The slot-contraction kernel: plug a into the leading argument slot of t.

    a's input axes are appended last, so repeated calls fill t's slots in order.
    The first `batch` axes of t and a are path axes, broadcast against each
    other.  Each path is one matrix product with the shape and layout of the
    unbatched call, so it gives the same bits.
    """
    m = t.shape[batch + 1]
    if t.ndim > batch + 2:
        # move the slot axis last (np.moveaxis costs more than the product here)
        t = t.transpose(tuple(range(batch + 1)) + tuple(range(batch + 2, t.ndim)) + (batch + 1,))
    out = t.reshape(t.shape[:batch] + (-1, m)) @ a.reshape(a.shape[:batch] + (m, -1))
    return out.reshape(out.shape[:batch] + t.shape[batch:-1] + a.shape[batch + 1 :])


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


def _compose_component(
    n: int, b: list, a: list, shape: tuple, memo: dict, batch: int = 0
) -> np.ndarray:
    """Component n of b after a, its plan terms summed in order.

    b and a list entries by degree, None where zero; a term with a zero operand
    is skipped, b_k tested first.  memo holds each b_k contracted with leading
    parts, shared by all components of one composition.  Axes of b_k after its
    slots ride along behind the output axis.  The first `batch` axes of every
    entry are path axes (see `_contract`); shape includes them.
    """
    acc = np.zeros(shape)
    for k, parts in _plan(n):
        if b[k - 1] is None or any(a[j - 1] is None for j in parts):
            continue
        t = b[k - 1]
        for i in range(1, len(parts) + 1):
            key = (k, parts[:i])
            if key not in memo:
                memo[key] = _contract(t, a[parts[i - 1] - 1], batch)
            t = memo[key]
        acc += t
    return acc


def _nonzero_entries(mapping) -> list[np.ndarray | None]:
    """Entries of each component of a mapping or family, None where zero."""
    return [None if c.is_zero else c.entries for c in mapping.components]


def _plug(b_k, args: Sequence[MultilinearMap]) -> np.ndarray:
    """Entries of b_k with args plugged into its k slots, in order; axes of
    b_k after its slots ride along behind the output axis."""
    if len(args) != b_k.degree:
        raise ShapeError(f"b_k has {b_k.degree} slots, got {len(args)} argument maps")
    for a in args:
        if a.dz != b_k.dy:
            raise ShapeError(f"argument codomain {a.dz} != b_k domain {b_k.dy}")
        if a.dy != args[0].dy:
            raise ShapeError("argument maps must share a common domain dimension")
    t = b_k.entries
    for a in args:
        t = _contract(t, a.entries)
    return t


def apply_to_tuple(b_k: MultilinearMap, args: Sequence[MultilinearMap]) -> MultilinearMap:
    """Plug the maps a_{j_1}..a_{j_k} into the k slots of b_k.

    The result is an n-linear map (n = sum of argument degrees) whose inputs
    are distributed to the argument maps in order.
    """
    t = _plug(b_k, args)
    return MultilinearMap(sum(a.degree for a in args), args[0].dy, b_k.dz, t)


def compose(b: FormalMapping, a: FormalMapping) -> FormalMapping:
    """Composition b after a, truncated to min(a.order, b.order).

    Component n is the double sum over k = 1..n and over ordered compositions
    (j_1..j_k) of n, of b_k plugged with a_{j_1}..a_{j_k}.  Terms with an
    all-zero operand are skipped, so component n depends only on nonzero
    components of degree <= n of both operands.
    """
    if a.dz != b.dy:
        raise ShapeError(f"a codomain {a.dz} != b domain {b.dy}")
    order = min(a.order, b.order)
    b_entries, a_entries = _nonzero_entries(b), _nonzero_entries(a)
    memo: dict = {}
    comps = []
    for n in range(1, order + 1):
        acc = _compose_component(n, b_entries, a_entries, (b.dz,) + (a.dy,) * n, memo)
        comps.append(MultilinearMap(n, a.dy, b.dz, acc))
    return FormalMapping(order, a.dy, b.dz, tuple(comps))


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
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (1, 2) or y.shape[-1] != a.dy:
        raise ShapeError(f"y has shape {y.shape}, expected ({a.dy},) or (P, {a.dy})")
    batch = y.ndim - 1
    out = np.zeros(y.shape[:-1] + (a.dz,))
    for comp in a.components:
        if comp.is_zero:
            continue
        t = comp.entries[(None,) * batch]
        for _ in range(comp.degree):
            t = _contract(t, y, batch)
        out += t
    return out
