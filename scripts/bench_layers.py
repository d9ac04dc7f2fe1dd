"""Per-layer timings of formalflow, measured in-process.

Usage (from the repository root):

    python3 scripts/bench_layers.py [--repeats 7] [--out FILE]

Times, on fixed seeds and sizes:
  - contract_hot: one `_contract` call on the hottest operands of the
    order-6 Euler step, (1, 3, 3^6) x (1, 3, 3);
  - compose_o6d3: `compose` of two dense order-6, d = 3 mappings;
  - euler_step_o6d3 / euler_loop_o6d3: the solve-o6d3 benchmark config
    (order 6, d 3, m 2, P 1, 512 steps, config seed 1), per step and for
    the whole loop of `chain._euler_states`;
  - euler_step_o1d1_p64: GBM (order 1, d 1, P 64, 512 steps), per step;
  - variation_of_constants_o3d2: degrees 2 and 3 of the formula-o3d2
    benchmark config (config seed 1);
  - report_write_o6d3: `cli._write_report` of the solve-o6d3 states;
  - cli_solve_o6d3: `cli.main solve` on that config, end to end.

Each timing is repeated --repeats times; the file holds the minimum and the
median, in seconds, with the seed, the sizes, the numpy version, the core
count, the commit and a digest of the sources.  The same script runs on any
checkout whose functions keep these names, so two commits can be compared.
"""

from __future__ import annotations

import argparse
import hashlib
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
from formalflow.algebra import FormalMapping, MultilinearMap, _contract, compose, identity  # noqa: E402
from formalflow.chain import (  # noqa: E402
    CoefficientFamily,
    TimeGrid,
    _euler_states,
    sample_paths,
    solve_chain,
)
from formalflow.explicit import variation_of_constants  # noqa: E402
from workloads import config_bytes  # noqa: E402

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


def euler_loop(coeffs, grid, start, dw):
    for _ in _euler_states(coeffs, grid, start, dw):
        pass


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
        timed(lambda: _contract(t, a, 1), repeats, 2000), sizes="(1, 3, 3^6) x (1, 3, 3), batch 1"
    )

    def dense(order, d):
        comps = tuple(
            MultilinearMap(k, d, d, 0.3 * rng.standard_normal((d,) * (k + 1)))
            for k in range(1, order + 1)
        )
        return FormalMapping(order, d, d, comps)

    outer, inner = dense(6, 3), dense(6, 3)
    out["compose_o6d3"] = dict(
        timed(lambda: compose(outer, inner), repeats, 20), sizes="order 6, d 3"
    )

    cfg = workload_config("solve-o6d3")
    coeffs, path = cfg.coefficients(), cfg.path()
    start = [c.entries[None] for c in cfg.initial_mapping().components]
    loop = timed(lambda: euler_loop(coeffs, path.grid, start, path.increments[None]), repeats)
    steps = path.grid.n_steps
    out["euler_loop_o6d3"] = dict(loop, sizes=f"order 6, d 3, m 2, P 1, {steps} steps")
    out["euler_step_o6d3"] = dict(
        {k: v / steps for k, v in loop.items()}, sizes="order 6, d 3, m 2, P 1, per step"
    )

    gbm = CoefficientFamily.constant_scalar([1.0], [0.5])
    paths = sample_paths(TimeGrid(0.0, 1.0, 512), 1, SEED, 64)
    one = [c.entries[None] for c in identity(1, 1).components]
    loop = timed(lambda: euler_loop(gbm, paths.grid, one, paths.increments), repeats, 5)
    out["euler_step_o1d1_p64"] = dict(
        {k: v / 512 for k, v in loop.items()}, sizes="order 1, d 1, m 1, P 64, per step of 512"
    )

    cfg = workload_config("formula-o3d2")
    coeffs, path = cfg.coefficients(), cfg.path()
    states = solve_chain(coeffs, identity(cfg.order, cfg.dy), path).states

    def voc():
        for n in range(2, cfg.order + 1):
            variation_of_constants(n, coeffs, states, path)

    out["variation_of_constants_o3d2"] = dict(
        timed(voc, repeats), sizes=f"order 3, d 2, m 2, {cfg.n_steps} steps, degrees 2 and 3"
    )

    cfg = workload_config("solve-o6d3")
    sol = solve_chain(cfg.coefficients(), cfg.initial_mapping(), cfg.path())

    def results():
        return {"knots": cfg.grid().knots().tolist(), "states": [s.to_dict() for s in sol.states]}

    with tempfile.TemporaryDirectory() as tmp:
        out["report_write_o6d3"] = dict(
            timed(lambda: cli._write_report(Path(tmp), "solve", cfg, results()), repeats),
            sizes="513 states of order 6, d 3",
        )
        config = Path(tmp) / "config.json"
        config.write_bytes(config_bytes("solve-o6d3", CONFIG_SEED))
        argv = ["solve", "--config", str(config), "--out", str(Path(tmp) / "out")]
        out["cli_solve_o6d3"] = dict(
            timed(lambda: cli.main(argv), repeats), sizes="solve-o6d3, config seed 1"
        )
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
