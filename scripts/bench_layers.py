"""Per-layer timings of formalflow, measured in-process.

Usage (from the repository root):

    python3 scripts/bench_layers.py [--repeats 7] [--out FILE]

Times, on fixed seeds and sizes:
  - contract_hot: one `_contract` call on the hottest operands of the
    order-6 Euler step, (1, 3, 3^6) x (1, 3, 3);
  - compose_o6d3: `compose` of two dense order-6, d = 3 mappings;
  - horner_products_o6d3: the 56 matrix products of one order-6, d = 3
    composition with every component nonzero, run on the views of an
    `algebra._Runner` and nothing else (not its 35 additions);
  - euler_step_o6d3 / euler_loop_o6d3: the solve-o6d3 benchmark config
    (order 6, d 3, m 2, P 1, 512 steps, config seed 1), per step and for
    the whole loop of `chain._euler_states`, with the block length and the
    ops of its `algebra._Steps` schedule;
  - euler_loop_o3d2: the loop of the formula-o3d2 benchmark config (order
    3, d 2, m 2, P 1, 512 steps, config seed 1) from the identity, as
    formula-check solves it, with its schedule's block length and ops;
  - euler_step_o1d1_p64: GBM (order 1, d 1, P 64, 512 steps), per step;
  - batch_terminal_o1d1_p64: `solve_chain_batch` on the convergence-gbm
    shape (GBM, order 1, d 1, P 64) over its six nested grids of 16..512
    steps, all six solves per call;
  - batch_terminal_o4d3_p64: `solve_chain_batch` at order 4, d 3, m 2, P 64,
    256 steps, from the identity, on dense constant coefficients (as in
    `scripts/ab_layers.py`);
  - variation_of_constants_o3d2: the one call for degrees 2 and 3 of the
    formula-o3d2 benchmark config (config seed 1);
  - fundamental_o3d2: `explicit.fundamental` on that config, its coefficient
    pass included;
  - json_floats_o6d3: `cli._json_floats` of each of the solve-o6d3 states,
    one call per state as the solve makes it: the encoder alone;
  - report_write_o6d3: `cli._write_report` of those states, each written
    by that encoder;
  - cli_solve_o6d3: `cli.main solve` on that config, end to end.

Each timing is repeated --repeats times; the file holds the minimum and the
median, in seconds.  The layers that compose also record the products,
additions and flops of their runner's or schedule's op list.  The file holds the seed,
the sizes, the numpy and orjson
versions, the core count, the commit and a digest of the sources.  The same
script runs on any checkout whose functions keep these names, so two
commits can be compared.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from formalflow import cli  # noqa: E402
from formalflow.algebra import (  # noqa: E402
    FormalMapping,
    MultilinearMap,
    _contract,
    _Runner,
    compose,
    identity,
)
from formalflow import chain  # noqa: E402
from formalflow.chain import (  # noqa: E402
    CoefficientFamily,
    TimeGrid,
    _euler_states,
    sample_paths,
    solve_chain,
    solve_chain_batch,
)
from formalflow.explicit import fundamental, variation_of_constants  # noqa: E402
from workloads import config_bytes  # noqa: E402
from ab_layers import random_coefficients  # noqa: E402  (this script's directory)

SEED = 20261018
CONFIG_SEED = 1


def timed(fn, repeats: int, number: int = 1) -> dict:
    """Minimum and median seconds per call of fn over repeats runs of number calls."""
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        runs.append((time.perf_counter() - start) / number)
    return {"min_s": min(runs), "median_s": statistics.median(runs)}


def plan_counts(ops: list) -> dict:
    """The products, additions and flops of an op list."""
    kinds = [f for f, *_ in ops]
    flops = sum(2 * z.size * x.shape[-1] if f is np.matmul else z.size for f, x, _, z in ops)
    return {"products": kinds.count(np.matmul), "additions": kinds.count(np.add), "flops": flops}


def euler_loop(coeffs, path, start):
    for _ in _euler_states(coeffs, path, start):
        pass


def block_counts(coeffs, grid, start, n_paths) -> dict:
    """The block length of the schedule `_euler_states` builds, and the
    products, additions and flops of a full block's ops."""
    parts = chain._step_parts(coeffs.on_grid(grid), grid.dt, coeffs.dy)
    steps = chain._Steps(
        tuple(e is not None for e in parts[0]),
        tuple(bool(e.any()) for e in start),
        coeffs.dy,
        n_paths,
        grid.n_steps,
        chain._EULER_FLOATS,
    )
    return {"block_steps": steps.steps, "block": plan_counts(steps.ops(steps.steps))}


def workload_config(name: str) -> cli.ExperimentConfig:
    return cli.ExperimentConfig.from_dict(json.loads(config_bytes(name, CONFIG_SEED)))


def git(*args: str) -> str | None:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the package sources, as perfbench/run.py computes it."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "formalflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(repeats: int) -> dict:
    rng = np.random.default_rng(SEED)
    out: dict = {}

    t = rng.standard_normal((1, 3) + (3,) * 6)
    a = rng.standard_normal((1, 3, 3))
    out["contract_hot"] = dict(
        timed(lambda: _contract(t, a), repeats, 2000), sizes="(1, 3, 3^6) x (1, 3, 3), one row"
    )

    def dense(order, d):
        comps = tuple(
            MultilinearMap(k, d, d, 0.3 * rng.standard_normal((d,) * (k + 1)))
            for k in range(1, order + 1)
        )
        return FormalMapping(order, d, d, comps)

    outer, inner = dense(6, 3), dense(6, 3)
    composed = _Runner(
        [c.slots_first[None] for c in outer.components],
        [c.entries[None] for c in inner.components],
        [(1,) + (3,) * (n + 1) for n in range(1, 7)],
    )
    out["compose_o6d3"] = dict(
        timed(lambda: compose(outer, inner), repeats, 20), sizes="order 6, d 3", **plan_counts(composed.ops)
    )

    # one composition's operands, slots-first and the usual layout, a row axis of 1 each
    psi = [rng.standard_normal((1,) + (3,) * (k + 1)) for k in range(1, 7)]
    state = [rng.standard_normal((1,) + (3,) * (k + 1)) for k in range(1, 7)]
    run = _Runner(psi, state, [(1,) + (3,) * (n + 1) for n in range(1, 7)])
    products = [op for op in run.ops if op[0] is np.matmul]

    def matmuls():
        for f, x, y, z in products:
            f(x, y, z)

    out["horner_products_o6d3"] = dict(
        timed(matmuls, repeats, 200),
        sizes="order 6, d 3, P 1, every component nonzero, products only",
        products=len(products),
        flops=sum(2 * z.size * x.shape[-1] for _, x, _, z in products),
    )

    cfg = workload_config("solve-o6d3")
    coeffs, path = cfg.coefficients(), cfg.path()
    start = [c.entries[None] for c in cfg.initial_mapping().components]
    loop = timed(lambda: euler_loop(coeffs, path, start), repeats)
    steps = path.grid.n_steps
    counts = block_counts(coeffs, path.grid, start, 1)
    out["euler_loop_o6d3"] = dict(loop, sizes=f"order 6, d 3, m 2, P 1, {steps} steps", **counts)
    out["euler_step_o6d3"] = dict({k: v / steps for k, v in loop.items()}, sizes="order 6, d 3, m 2, P 1, per step")

    cfg = workload_config("formula-o3d2")
    coeffs, path = cfg.coefficients(), cfg.path()
    start = [c.entries[None] for c in identity(cfg.order, cfg.dy).components]
    out["euler_loop_o3d2"] = dict(
        timed(lambda: euler_loop(coeffs, path, start), repeats, 5),
        sizes=f"order 3, d 2, m 2, P 1, {path.grid.n_steps} steps, from the identity",
        **block_counts(coeffs, path.grid, start, 1),
    )

    gbm = CoefficientFamily.constant_scalar([1.0], [0.5])
    paths = sample_paths(TimeGrid(0.0, 1.0, 512), 1, SEED, 64)
    one = [c.entries[None] for c in identity(1, 1).components]
    loop = timed(lambda: euler_loop(gbm, paths, one), repeats, 5)
    out["euler_step_o1d1_p64"] = dict(
        {k: v / 512 for k, v in loop.items()}, sizes="order 1, d 1, m 1, P 64, per step of 512"
    )
    levels = [paths.coarsen(2**j) for j in range(6)]

    def batch_terminal():
        for level in levels:
            solve_chain_batch(gbm, identity(1, 1), level)

    out["batch_terminal_o1d1_p64"] = dict(
        timed(batch_terminal, repeats, 5), sizes="order 1, d 1, m 1, P 64, grids of 16..512 steps, six solves"
    )
    o4d3 = random_coefficients(chain, 4, 3, 2)
    o4d3_paths = sample_paths(TimeGrid(0.0, 1.0, 256), 2, SEED, 64)
    out["batch_terminal_o4d3_p64"] = dict(
        timed(lambda: solve_chain_batch(o4d3, identity(4, 3), o4d3_paths), repeats),
        sizes="order 4, d 3, m 2, P 64, 256 steps, from the identity",
    )

    cfg = workload_config("formula-o3d2")
    coeffs, path = cfg.coefficients(), cfg.path()
    sol = solve_chain(coeffs, identity(cfg.order, cfg.dy), path)

    degrees = list(range(2, cfg.order + 1))
    out["variation_of_constants_o3d2"] = dict(
        timed(lambda: variation_of_constants(degrees, sol), repeats),
        sizes=f"order 3, d 2, m 2, {cfg.n_steps} steps, degrees 2 and 3 in one call",
    )
    out["fundamental_o3d2"] = dict(
        timed(lambda: fundamental(coeffs, path), repeats, 20), sizes=f"d 2, {cfg.n_steps} steps"
    )

    cfg = workload_config("solve-o6d3")
    sol = solve_chain(cfg.coefficients(), cfg.initial_mapping(), cfg.path())
    n_floats = sum(e.size for e in sol.entries)
    sizes = f"{len(sol.entries[0])} states of order 6, d 3, {n_floats} floats"
    entries = list(zip(*sol.entries))  # each state's arrays by degree
    frame = cli._state_frame(sol.state(0))

    def texts():
        return (cli._json_floats(*state, frame=frame) for state in entries)

    def json_floats():
        for _ in texts():
            pass

    def write(out_dir):
        cli._write_report(out_dir, "solve", cfg, cli._solve_results(cfg.grid().knots(), texts()))

    out["json_floats_o6d3"] = dict(timed(json_floats, repeats), sizes=sizes)
    with tempfile.TemporaryDirectory() as tmp:
        out["report_write_o6d3"] = dict(timed(lambda: write(Path(tmp)), repeats), sizes=sizes)
        config = Path(tmp) / "config.json"
        config.write_bytes(config_bytes("solve-o6d3", CONFIG_SEED))
        argv = ["solve", "--config", str(config), "--out", str(Path(tmp) / "out")]
        out["cli_solve_o6d3"] = dict(timed(lambda: cli.main(argv), repeats), sizes="solve-o6d3, config seed 1")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", type=Path, default=None, help="write the JSON here, not to stdout")
    args = parser.parse_args()
    record = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "orjson": importlib.metadata.version("orjson"),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "commit": git("rev-parse", "HEAD"),
            # sources differ from the commit (uncommitted edits under src/)
            "sources_modified": bool(git("status", "--porcelain", "--", "src")),
            "source_sha256": source_sha256(),
        },
        "seed": SEED,
        "config_seed": CONFIG_SEED,
        "repeats": args.repeats,
        "timings": measure(args.repeats),
    }
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
