"""Per-layer timings of two formalflow checkouts, interleaved in one process.

Usage (from the repository root):

    python3 scripts/ab_layers.py PARENT_ROOT CHANGE_ROOT [--rounds 21] [--out FILE]

To time one checkout alone, give it on both sides (`. .`).  Both
checkouts' `src/formalflow` packages are loaded into one process, under two
module names.  Each round times every layer on each side as the minimum of
3 repeats of a fixed number of calls, alternating which side goes first.
The timer is `time.thread_time`, the CPU time of this thread: the waits of
a contended shared machine (an OpenBLAS worker descheduled, another
process on the core) are not counted, where the wall clock counts them.
Neither is the CPU time of BLAS worker threads, so a layer whose products
BLAS splits over threads reads the calling thread's share of its work.

The record (JSON, to stdout or --out) holds the environment once (Python,
numpy and orjson versions, core count, machine, timer), the seeds and the
rounds; each side's root, commit, whether its sources differ from that
commit and their digest (as perfbench/run.py computes it); and for each
layer its sizes, each side's median over rounds and quartiles ([q1, q3] by
`statistics.quantiles(n=4)`, null under 2 rounds), the ratio of the
medians (change / parent), the paired ratio (the median over rounds of each round's change /
parent), the rounds the change won and, where the layer composes, each
side's counts: the products, additions and flops of the ops of each
`_Runner` and of one full block of each `_Steps` schedule that one untimed
call builds, summed, and each schedule's block length.  The paired ratio
follows the rounds won where the machine's load drifts between rounds,
which the ratio of the medians may not.

The 15 layers of `layers()` run on fixed seeds (SEED, and config seed 1
of the benchmark's workload configs) at the sizes each records: the
contraction kernel, `compose` and its Horner products alone at order 6;
the Euler loop (`chain._euler_states`) of solve-o6d3, of formula-o3d2 and
of GBM on 64 paths; `solve_chain_batch` on the convergence-gbm grids and at
order 4, d 3; `variation_of_constants`, `fundamental` and the formula
check on formula-o3d2; and the float encoder, the report write and the
CLI solve of solve-o6d3.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import config_bytes  # noqa: E402

SEED = 20261018
CONFIG_SEED = 1
REPEATS = 3


class Layer(NamedTuple):
    """A timed callable: calls per repeat, the divisor of each call's time
    (the steps of a per-step layer), its sizes and its counts (`op_counts`)."""

    fn: Callable
    number: int
    divisor: int
    sizes: str
    counts: dict | None


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


def built_by(modules: list, fn: Callable) -> list:
    """The `_Runner`s and `_Steps` schedules that one call of fn builds, in
    order.  Each module that names either class has it wrapped for the call,
    so whatever arguments a checkout builds them with are its own."""
    built, wrapped = [], []

    def recording(cls):
        def build(*args, **kwargs):
            built.append(cls(*args, **kwargs))
            return built[-1]

        return build

    for module in modules:
        for attr in ("_Runner", "_Steps"):
            if hasattr(module, attr):
                wrapped.append((module, attr, getattr(module, attr)))
                setattr(module, attr, recording(getattr(module, attr)))
    try:
        fn()
    finally:
        for module, attr, cls in wrapped:
            setattr(module, attr, cls)
    return built


def op_counts(built: list) -> dict | None:
    """The products, additions and flops of the ops of each runner and of
    one full block of each schedule (a schedule's `ops` is a method), summed,
    and each schedule's block length; None if nothing was built."""
    if not built:
        return None
    ops, blocks = [], []
    for obj in built:
        if callable(obj.ops):
            blocks.append(obj.steps)
            ops += obj.ops(obj.steps)
        else:
            ops += obj.ops
    kinds = [f for f, *_ in ops]
    flops = sum(2 * z.size * x.shape[-1] if f is np.matmul else z.size for f, x, _, z in ops)
    return {"products": kinds.count(np.matmul), "additions": kinds.count(np.add), "flops": flops, "block_steps": blocks}


def layers(name: str, out_dir: Path) -> dict[str, Layer]:
    """Each layer of the package `name`, with the counts of one untimed call;
    the layers that write files write them under out_dir."""
    modules = [importlib.import_module(f"{name}.{m}") for m in ("algebra", "chain", "cli", "explicit")]
    algebra, chain, cli, explicit = modules
    rng = np.random.default_rng(SEED)

    def dense(order, d):
        comps = tuple(
            algebra.MultilinearMap(k, d, d, 0.3 * rng.standard_normal((d,) * (k + 1)))
            for k in range(1, order + 1)
        )
        return algebra.FormalMapping(order, d, d, comps)

    def config(workload):
        return cli.ExperimentConfig.from_dict(json.loads(config_bytes(workload, CONFIG_SEED)))

    def succeeds(run):  # a CLI run that fails has timed nothing worth comparing
        def call():
            if run() != 0:
                raise RuntimeError("a CLI layer's run did not exit 0")

        return call

    def loop(coeffs, path, start):
        for _ in chain._euler_states(coeffs, path, start):
            pass

    t, a = rng.standard_normal((1, 3) + (3,) * 6), rng.standard_normal((1, 3, 3))
    outer, inner = dense(6, 3), dense(6, 3)
    products = [op for op in built_by(modules, lambda: algebra.compose(outer, inner))[0].ops if op[0] is np.matmul]

    def horner_products():
        for f, x, y, z in products:
            f(x, y, z)

    solve = config("solve-o6d3")
    coeffs, path = solve.coefficients(), solve.path()
    start = [c.entries[None] for c in solve.initial_mapping().components]
    solution = chain.solve_chain(coeffs, solve.initial_mapping(), path)
    states = list(zip(*solution.entries))  # each state's arrays by degree
    frame = cli._state_frame(solution.state(0))
    floats = sum(e.size for e in solution.entries)

    def texts():
        return (cli._json_floats(*state, frame=frame) for state in states)

    def json_floats():
        for _ in texts():
            pass

    def report_write():
        cli._write_report(out_dir, "solve", solve, cli._solve_results(solve.grid().knots(), texts()))

    config_path = out_dir / "solve-o6d3.json"
    config_path.write_bytes(config_bytes("solve-o6d3", CONFIG_SEED))
    argv = ["solve", "--config", str(config_path), "--out", str(out_dir / "solve")]

    formula = config("formula-o3d2")
    formula_coeffs, formula_path = formula.coefficients(), formula.path()
    formula_start = [c.entries[None] for c in algebra.identity(formula.order, formula.dy).components]
    formula_solution = chain.solve_chain(formula_coeffs, algebra.identity(formula.order, formula.dy), formula_path)
    formula_degrees = list(range(2, formula.order + 1))

    gbm = chain.CoefficientFamily.constant_scalar([1.0], [0.5])
    paths = chain.sample_paths(chain.TimeGrid(0.0, 1.0, 512), 1, SEED, 64)
    levels = [paths.coarsen(2**j) for j in range(6)]
    one = [c.entries[None] for c in algebra.identity(1, 1).components]
    o4d3 = random_coefficients(chain, 4, 3, 2)
    o4d3_paths = chain.sample_paths(chain.TimeGrid(0.0, 1.0, 256), 2, SEED, 64)

    def batch_terminal():
        for level in levels:
            chain.solve_chain_batch(gbm, algebra.identity(1, 1), level)

    def batch_o4d3():
        chain.solve_chain_batch(o4d3, algebra.identity(4, 3), o4d3_paths)

    def voc():
        explicit.variation_of_constants(formula_degrees, formula_solution)

    o6d3 = f"order 6, d 3, m 2, P 1, {path.grid.n_steps} steps, solve-o6d3"
    o3d2 = f"order 3, d 2, m 2, P 1, {formula_path.grid.n_steps} steps, formula-o3d2"
    table = {
        "contract_hot": (lambda: algebra._contract(t, a), 2000, 1, "(1, 3, 3^6) x (1, 3, 3), one row"),
        "compose_o6d3": (lambda: algebra.compose(outer, inner), 20, 1, "order 6, d 3, every component dense"),
        "horner_products_o6d3": (horner_products, 200, 1, "order 6, d 3, P 1, every component dense, products only"),
        "euler_loop_o6d3": (lambda: loop(coeffs, path, start), 1, 1, o6d3),
        "euler_step_o6d3": (lambda: loop(coeffs, path, start), 1, path.grid.n_steps, o6d3 + ", per step"),
        "euler_loop_o3d2": (
            lambda: loop(formula_coeffs, formula_path, formula_start), 5, 1, o3d2 + ", from the identity"
        ),
        "euler_step_o1d1_p64": (lambda: loop(gbm, paths, one), 1, 512, "order 1, d 1, m 1, P 64, per step of 512"),
        "batch_terminal_o1d1_p64": (batch_terminal, 5, 1, "order 1, d 1, m 1, P 64, six grids of 16..512 steps"),
        "batch_terminal_o4d3_p64": (batch_o4d3, 1, 1, "order 4, d 3, m 2, P 64, 256 steps, from the identity"),
        "variation_of_constants_o3d2": (voc, 5, 1, o3d2 + ", degrees 2 and 3 in one call"),
        "fundamental_o3d2": (lambda: explicit.fundamental(formula_coeffs, formula_path), 20, 1, o3d2),
        "formula_check_o3d2": (
            succeeds(lambda: cli._cmd_formula_check(formula, out_dir)), 1, 1, o3d2 + ", report write included"
        ),
        "json_floats_o6d3": (json_floats, 1, 1, f"{len(states)} states of order 6, d 3, {floats} floats"),
        "report_write_o6d3": (report_write, 1, 1, f"{len(states)} states of order 6, d 3, {floats} floats"),
        "cli_solve_o6d3": (succeeds(lambda: cli.main(argv)), 1, 1, "solve-o6d3, end to end"),
    }
    return {layer: Layer(*spec, op_counts(built_by(modules, spec[0]))) for layer, spec in table.items()}


def seconds(layer: Layer) -> float:
    """The minimum over REPEATS repeats of the layer's thread time per call
    and divisor."""
    runs = []
    for _ in range(REPEATS):
        start = time.thread_time()
        for _ in range(layer.number):
            layer.fn()
        runs.append((time.thread_time() - start) / layer.number / layer.divisor)
    return min(runs)


def checkout(root: str) -> dict:
    """root as given, its commit, whether its sources differ from that
    commit (None outside git) and the digest of its package sources."""

    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((Path(root) / "src" / "formalflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain", "--", "src")
    return {
        "root": root,
        "commit": git("rev-parse", "HEAD"),
        "sources_modified": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
    }


def quartiles(times: list[float]) -> list[float] | None:
    """[q1, q3] of times by statistics.quantiles(n=4); None under 2 rounds, which have none."""
    if len(times) < 2:
        return None
    q1, _, q3 = statistics.quantiles(times, n=4)
    return [q1, q3]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--out", type=Path, default=None, help="write the JSON here, not to stdout")
    args = parser.parse_args()
    roots = {"parent": args.parent, "change": args.change}
    sides = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side, root in roots.items():
            load(Path(root).resolve(), f"formalflow_{side}")
            (Path(tmp) / side).mkdir()
            sides[side] = layers(f"formalflow_{side}", Path(tmp) / side)
        times = {layer: {"parent": [], "change": []} for layer in sides["parent"]}
        for r in range(args.rounds):
            for layer, record in times.items():
                for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                    record[side].append(seconds(sides[side][layer]))
    result = {}
    for layer, record in times.items():
        parent, change = (statistics.median(record[s]) for s in ("parent", "change"))
        result[layer] = {
            "sizes": sides["parent"][layer].sizes,
            "calls_per_repeat": sides["parent"][layer].number,
            "divisor": sides["parent"][layer].divisor,
            "parent_median_s": parent,
            "change_median_s": change,
            "parent_quartiles_s": quartiles(record["parent"]),
            "change_quartiles_s": quartiles(record["change"]),
            "ratio": change / parent,
            "paired_ratio": statistics.median(c / p for p, c in zip(record["parent"], record["change"])),
            "change_wins": sum(c < p for p, c in zip(record["parent"], record["change"])),
        }
        if sides["parent"][layer].counts or sides["change"][layer].counts:
            result[layer]["counts"] = {side: sides[side][layer].counts for side in sides}
    record = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "orjson": importlib.metadata.version("orjson"),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "timer": "time.thread_time",
        },
        "seed": SEED,
        "config_seed": CONFIG_SEED,
        "rounds": args.rounds,
        "repeats": REPEATS,
        "sides": {side: checkout(root) for side, root in roots.items()},
        "layers": result,
    }
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
