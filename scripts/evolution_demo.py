#!/usr/bin/env python3
"""Demonstrate the discrete evolution property on a random instance.

Solves the chain on [0, 1], splits at a random interior knot, and prints
the per-component relative discrepancy of S(t, tau) o S(tau, s) vs S(t, s).
Exits 1 if the largest discrepancy exceeds 1e-10, the default tolerance of
`formalflow evolution-check`.
"""

import argparse
import sys

import numpy as np

from formalflow import (
    CoefficientFamily,
    DiffusionFamily,
    DiffusionMap,
    FormalMapping,
    MultilinearMap,
    TimeGrid,
    evolution_check,
    sample_path,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=4)
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--noise-dim", type=int, default=2)
    parser.add_argument("--steps", type=int, default=128)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    dy, m, order = args.dim, args.noise_dim, args.order
    a = FormalMapping(
        order, dy, dy,
        tuple(MultilinearMap(k, dy, dy, 0.3 * rng.standard_normal((dy,) + (dy,) * k))
              for k in range(1, order + 1)),
    )
    b = DiffusionFamily(
        order, dy, m,
        tuple(DiffusionMap(k, dy, dy, m, 0.3 * rng.standard_normal((dy,) + (dy,) * k + (m,)))
              for k in range(1, order + 1)),
    )
    coeffs = CoefficientFamily.constant(a, b)
    grid = TimeGrid(0.0, 1.0, args.steps)
    path = sample_path(grid, m, seed=args.seed, path_index=1)
    split = grid.dt * int(rng.integers(1, args.steps))
    rep = evolution_check(coeffs, path, split)
    print(f"split knot tau = {rep.split_knot:.6f}")
    for k, d in enumerate(rep.component_discrepancies, start=1):
        print(f"  component {k}: relative discrepancy {d:.3e}")
    print(f"max = {rep.max_discrepancy:.3e}")
    return 0 if rep.max_discrepancy <= 1e-10 else 1


if __name__ == "__main__":
    sys.exit(main())
