"""Interleaved in-process A/B timings of two formalflow checkouts.

Usage (from the repository root):

    python3 scripts/ab_layers.py PARENT_ROOT CHANGE_ROOT [--rounds 21] [--out FILE]

Both checkouts' `src/formalflow` packages are loaded into one process, under
two module names.  Each round times every layer on each side as the minimum
of 3 repeats of a fixed number of calls, on `time.thread_time`, alternating
which side goes first; the record holds the median over rounds of each
side, their ratio (change / parent), the paired ratio (the median over
rounds of each round's change / parent) and the rounds the change won.
The paired ratio follows the rounds the change won where the machine's
load drifts between rounds, which the ratio of the medians may not.  Timing
both sides in the same minutes of the same process keeps the drift of a
shared machine out of the ratio, which back-to-back runs of
`scripts/bench_layers.py` do not.  The layers, on fixed seeds and sizes:
  - euler_loop_o6d3: the whole `chain._euler_states` loop of the solve-o6d3
    benchmark config (order 6, d 3, m 2, P 1, 512 steps, config seed 1);
  - euler_loop_o3d2: that loop on the formula-o3d2 benchmark config (order
    3, d 2, m 2, P 1, 512 steps, config seed 1) from the identity, as
    formula-check solves it;
  - compose_o6d3: `compose` of two dense order-6, d = 3 mappings;
  - euler_step_o1d1_p64: GBM (order 1, d 1, P 64, 512 steps), per step;
  - variation_of_constants_o3d2: `explicit.variation_of_constants` for
    degrees 2 and 3 in one call, on the formula-o3d2 benchmark config's
    chain solution (config seed 1), solved once outside the timing;
  - formula_check_o3d2: `cli._cmd_formula_check` on the formula-o3d2
    benchmark config (order 3, d 2, m 2, 512 steps, config seed 1), report
    write included;
  - batch_terminal_o1d1_p64: `chain.solve_chain_batch` on the convergence-gbm
    shape (GBM, order 1, d 1, P 64) over its six nested grids of 16..512
    steps, all six solves per call;
  - batch_terminal_o4d3_p64: `chain.solve_chain_batch` at order 4, d 3, m 2,
    P 64, 256 steps, from the identity, on dense constant coefficients
    (`random_coefficients`, entries 0.3 times standard normals of SEED).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import inspect
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import config_bytes  # noqa: E402

SEED = 20261018
CONFIG_SEED = 1


def load(root: Path, name: str):
    """The formalflow package under root/src, imported as the module name."""
    init = root / "src" / "formalflow" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def random_coefficients(chain, order: int, d: int, m: int):
    """Dense constant coefficients of the module chain: drift, then
    diffusion, entries 0.3 times standard normals of SEED, degree by degree."""
    rng = np.random.default_rng(SEED)
    drift = [chain.MultilinearMap(k, d, d, 0.3 * rng.standard_normal((d,) * (k + 1))) for k in range(1, order + 1)]
    noise = [
        chain.DiffusionMap(k, d, d, m, 0.3 * rng.standard_normal((d,) * (k + 1) + (m,))) for k in range(1, order + 1)
    ]
    return chain.CoefficientFamily.constant(
        chain.FormalMapping(order, d, d, tuple(drift)), chain.DiffusionFamily(order, d, m, noise)
    )


def layers(name: str, out_dir: Path) -> dict:
    """Each layer's (callable, calls per repeat, divisor) on the package
    `name`; the formula check writes its report to out_dir."""
    algebra, chain, cli, explicit = (
        importlib.import_module(f"{name}.{m}") for m in ("algebra", "chain", "cli", "explicit")
    )
    rng = np.random.default_rng(SEED)

    def dense(order, d):
        comps = tuple(
            algebra.MultilinearMap(k, d, d, 0.3 * rng.standard_normal((d,) * (k + 1)))
            for k in range(1, order + 1)
        )
        return algebra.FormalMapping(order, d, d, comps)

    # the Euler loop takes (coeffs, path, state); in packages before it did,
    # (coeffs, grid, state, dw)
    with_grid = len(inspect.signature(chain._euler_states).parameters) == 4

    def loop(coeffs, path, start):
        args = (path.grid, start, path.increments) if with_grid else (path, start)
        for _ in chain._euler_states(coeffs, *args):
            pass

    outer, inner = dense(6, 3), dense(6, 3)
    cfg = cli.ExperimentConfig.from_dict(json.loads(config_bytes("solve-o6d3", CONFIG_SEED)))
    coeffs, path = cfg.coefficients(), cfg.path()
    start = [c.entries[None] for c in cfg.initial_mapping().components]
    gbm = chain.CoefficientFamily.constant_scalar([1.0], [0.5])
    paths = chain.sample_paths(chain.TimeGrid(0.0, 1.0, 512), 1, SEED, 64)
    one = [c.entries[None] for c in algebra.identity(1, 1).components]
    formula = cli.ExperimentConfig.from_dict(json.loads(config_bytes("formula-o3d2", CONFIG_SEED)))
    formula_coeffs, formula_path = formula.coefficients(), formula.path()
    formula_start = [c.entries[None] for c in algebra.identity(formula.order, formula.dy).components]
    formula_solution = chain.solve_chain(formula_coeffs, algebra.identity(formula.order, formula.dy), formula_path)
    formula_degrees = list(range(2, formula.order + 1))
    levels = [paths.coarsen(2**j) for j in range(6)]
    o4d3 = random_coefficients(chain, 4, 3, 2)
    o4d3_paths = chain.sample_paths(chain.TimeGrid(0.0, 1.0, 256), 2, SEED, 64)

    def batch_terminal():
        for level in levels:
            chain.solve_chain_batch(gbm, algebra.identity(1, 1), level)

    return {
        "euler_loop_o6d3": (lambda: loop(coeffs, path, start), 1, 1),
        "euler_loop_o3d2": (lambda: loop(formula_coeffs, formula_path, formula_start), 5, 1),
        "compose_o6d3": (lambda: algebra.compose(outer, inner), 20, 1),
        "euler_step_o1d1_p64": (lambda: loop(gbm, paths, one), 1, 512),
        "variation_of_constants_o3d2": (
            lambda: explicit.variation_of_constants(formula_degrees, formula_solution), 5, 1
        ),
        "formula_check_o3d2": (lambda: cli._cmd_formula_check(formula, out_dir), 1, 1),
        "batch_terminal_o1d1_p64": (batch_terminal, 5, 1),
        "batch_terminal_o4d3_p64": (
            lambda: chain.solve_chain_batch(o4d3, algebra.identity(4, 3), o4d3_paths), 1, 1
        ),
    }


def seconds(fn, number: int, divisor: int) -> float:
    runs = []
    for _ in range(3):
        start = time.thread_time()
        for _ in range(number):
            fn()
        runs.append((time.thread_time() - start) / number / divisor)
    return min(runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--out", type=Path, default=None, help="write the JSON here, not to stdout")
    args = parser.parse_args()
    sides = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side, root in (("parent", args.parent), ("change", args.change)):
            load(root.resolve(), f"formalflow_{side}")
            (Path(tmp) / side).mkdir()
            sides[side] = layers(f"formalflow_{side}", Path(tmp) / side)
        times = {layer: {"parent": [], "change": []} for layer in sides["parent"]}
        for r in range(args.rounds):
            for layer, record in times.items():
                for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                    record[side].append(seconds(*sides[side][layer]))
    result = {}
    for layer, record in times.items():
        parent, change = (statistics.median(record[s]) for s in ("parent", "change"))
        result[layer] = {
            "parent_median_s": parent,
            "change_median_s": change,
            "ratio": change / parent,
            "paired_ratio": statistics.median(c / p for p, c in zip(record["parent"], record["change"])),
            "change_wins": sum(c < p for p, c in zip(record["parent"], record["change"])),
            "rounds": args.rounds,
            "calls_per_repeat": sides["parent"][layer][1],
        }
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
