"""formalflow benchmark: one CLI subcommand per workload, repeated for a while.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-o6d3 --seed 1 --seconds 20 --trace 0

The config is generated from --seed (see workloads.py).  Each repeat runs
`formalflow.cli.main` in a fresh interpreter, one repeat at a time, until
--seconds have passed; timings are medians over the repeats.  Every repeat's
output is checked, and a failed check counts in `failed`.

With --trace 0 the last line reports the end-to-end metrics.  With --trace 1,
untraced and traced repeats alternate; the traced ones wrap formalflow's
public functions (tracer.py) and the last line reports per-layer metrics
(layers.py) plus the tracing overhead.  Lines before the last one describe
the environment and each metric in words.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
from workloads import WORKLOADS, config_bytes, euler_steps, n_paths

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"

# A run must end within 180 s: no repeat starts that could run past this.
DEADLINE_S = 165.0
MIN_REPEATS = 3


def environment() -> dict:
    """numpy, BLAS and its threads, Python, cores and the code's identity."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((SRC / "formalflow").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def blas_threads() -> int | str:
    """Threads numpy's BLAS would use, from the library itself if it says."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run_repeat(workload: str, work: Path, config_path: Path, i: int, traced: bool,
               timeout: float) -> dict:
    """One repeat in a fresh interpreter; returns its timings and check."""
    out = work / f"out{i}"
    spec = {
        "subcommand": WORKLOADS[workload][0],
        "config": str(config_path),
        "out": str(out),
        "result": str(work / f"result{i}.json"),
        "spans": str(work / f"spans{i}.npz") if traced else "",
    }
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)]
    spawned = time.monotonic()
    proc = subprocess.Popen(child, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return {"problem": "timed out", "traced": traced}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if code != 0:
        return {"problem": f"repeat process exited with {code}", "traced": traced}
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["setup_s"] = result.pop("setup_end") - spawned
    result["traced"] = traced
    result["spans"] = spec["spans"]
    return result


def end_to_end(done: list[dict], steps: int, paths: int, attempted: int, failed: int) -> dict:
    run_s = statistics.median(r["run_s"] for r in done)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in done), "s"),
        "run_s": (run_s, "s"),
        "chain_steps_per_s": (steps / run_s, "1/s"),
        "paths_per_s": (paths / run_s, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(done: list[dict], paths: int) -> dict:
    traced = [r for r in done if r["traced"]]
    untraced = [r for r in done if not r["traced"]]
    runs = [layers.span_metrics(r["spans"], paths) for r in traced]
    metrics = {}
    for name, (_, unit) in runs[0][0].items():
        metrics[name] = (statistics.median(m[name][0] for m, _ in runs), unit)
    for name, unit in (("algebra.compose.us_per_call", "us"), ("chain.step_us", "us")):
        pooled = np.concatenate([samples[name] for _, samples in runs])
        metrics.update(layers.percentiles(name, pooled, unit))
    traced_run_s = statistics.median(r["run_s"] for r in traced)
    untraced_run_s = statistics.median(r["run_s"] for r in untraced)
    self_total = statistics.median(
        sum(m[f"layer.{layer}.self_s"][0] for layer in layers.LAYERS) / r["run_s"]
        for (m, _), r in zip(runs, traced)
    )
    metrics["cli.report.bytes"] = (statistics.median(r["report_bytes"] for r in traced),
                                   "byte_computed")
    metrics["trace.run_s"] = (traced_run_s, "s")
    metrics["trace.untraced_run_s"] = (untraced_run_s, "s")
    metrics["trace.overhead_s"] = (traced_run_s - untraced_run_s, "s")
    metrics["trace.self_share"] = (self_total, "ratio")
    metrics["trace.repeats"] = (len(traced), "count")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "formalflow" / "cli.py").is_file():
        print(f"error: no formalflow sources under {SRC}", file=sys.stderr)
        return 2

    subcommand = WORKLOADS[args.workload][0]
    config_data = config_bytes(args.workload, args.seed)
    config = json.loads(config_data)
    steps, paths = euler_steps(config, subcommand), n_paths(config, subcommand)
    print("# environment " + json.dumps(environment(), sort_keys=True), flush=True)

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_bytes(config_data)
        min_repeats = 2 * MIN_REPEATS if args.trace else MIN_REPEATS
        start = time.monotonic()
        done, attempted, failed, durations = [], 0, 0, []
        while True:
            # Start no repeat that would end after --seconds once the minimum
            # is met, nor any that could run past the deadline.
            elapsed = time.monotonic() - start
            if durations and elapsed + statistics.median(durations) > args.seconds \
                    and attempted >= min_repeats:
                break
            if durations and elapsed + 1.5 * max(durations) > DEADLINE_S:
                break
            traced = bool(args.trace) and attempted % 2 == 1
            result = run_repeat(args.workload, work, config_path, attempted, traced,
                                DEADLINE_S - elapsed)
            attempted += 1
            durations.append(time.monotonic() - start - elapsed)
            if result["problem"] is not None:
                failed += 1
                print(f"# repeat {attempted} failed: {result['problem']}", flush=True)
            if "run_s" in result:
                done.append(result)
                print(f"# repeat {attempted}: traced={traced} setup_s={result['setup_s']:.4f} "
                      f"run_s={result['run_s']:.4f} peak_rss_mb={result['peak_rss_mb']:.1f}",
                      flush=True)
            if result["problem"] == "timed out":
                break
        kinds = {r["traced"] for r in done}
        if not done or (args.trace and kinds != {True, False}):
            print("error: too few repeats completed", file=sys.stderr)
            return 1
        if args.trace:
            metrics = per_layer(done, paths)
        else:
            metrics = end_to_end(done, steps, paths, attempted, failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
