"""Per-layer metrics from the spans a traced run wrote.

Self time of a span is its duration minus the durations of its direct
children; the wrappers sit on every layer boundary, so the self times of all
spans add up to the root `cli` span.
"""

from __future__ import annotations

import json

import numpy as np

LAYERS = ("algebra", "chain", "explicit", "verification", "cli")


def compositions(n: int, k: int):
    """Ordered k-tuples of positive integers summing to n, lexicographic."""
    if k == 1:
        yield (n,)
        return
    for j in range(1, n - k + 2):
        for rest in compositions(n - j, k - 1):
            yield (j,) + rest


def compose_flops(order: int, dy: int, dmid: int, dz: int, b_nonzero, a_nonzero) -> int:
    """Floating-point operations of one `compose(b, a)`, counted from shapes.

    Mirrors the composition double sum with its prefix memo: each slot
    contraction of b_k (shape (dz, dmid^k)) with a_j (shape (dmid, dy^j))
    costs 2 * dmid flops per output entry, and each accumulated term costs
    one add per entry of the degree-n result.  Terms with a zero operand are
    skipped, as in the kernel.
    """
    flops = 0
    memo = set()
    for n in range(1, order + 1):
        for k in range(1, n + 1):
            if not b_nonzero[k - 1]:
                continue
            for parts in compositions(n, k):
                if not all(a_nonzero[j - 1] for j in parts):
                    continue
                start = 0
                for i in range(len(parts) - 1, 0, -1):
                    if (k, parts[:i]) in memo:
                        start = i
                        break
                for i in range(start, len(parts)):
                    out_size = dz * dmid ** (k - i - 1) * dy ** sum(parts[: i + 1])
                    flops += 2 * out_size * dmid
                    memo.add((k, parts[: i + 1]))
                flops += dz * dy**n
    return flops


def percentiles(prefix: str, values: np.ndarray, unit: str) -> dict:
    n = len(values)
    p50, p99 = np.percentile(values, [50, 99]) if n else (0.0, 0.0)
    return {
        f"{prefix}.p50": (float(p50), unit),
        f"{prefix}.p99": (float(p99), unit),
        f"{prefix}.n": (n, "count"),
    }


def span_metrics(spans_file, n_paths: int) -> tuple[dict, dict]:
    """Metrics of one traced run: (name -> (value, unit), samples to pool).

    The pooled samples are per-call compose times and per-step chain times,
    in microseconds, whose percentiles are taken over all traced runs.
    """
    with np.load(spans_file) as z:
        names = [str(s) for s in z["names"]]
        name_ids, parents = z["name_ids"], z["parents"]
        starts, ends = z["starts"], z["ends"]
        compose_keys = z["compose_keys"]
        shape_keys = json.loads(str(z["shape_keys"]))

    dur = ends - starts
    has_parent = parents >= 0
    child_time = np.zeros(len(dur))
    np.add.at(child_time, parents[has_parent], dur[has_parent])
    self_time = dur - child_time
    idx = {name: np.flatnonzero(name_ids == i) for i, name in enumerate(names)}

    def calls(name):
        return len(idx[name])

    def self_s(name):
        return float(self_time[idx[name]].sum())

    def total_s(name):
        return float(dur[idx[name]].sum())

    m = {}
    for name in (
        "algebra.compose", "algebra.apply_to_tuple", "chain.one_step_map",
        "chain.diffusion_apply_to_tuple", "explicit.forcing_terms",
    ):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in names:
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["algebra.multilinear_map.constructed"] = (calls("algebra.multilinear_map"), "count")

    key_flops = [compose_flops(*key) for key in shape_keys]
    flops = int(sum(key_flops[k] for k in compose_keys))
    m["algebra.compose.flops"] = (flops, "flop_computed")
    compose_s = total_s("algebra.compose")
    m["algebra.compose.gflops_per_s"] = (flops / compose_s / 1e9 if compose_s else 0.0, "GFLOP/s")

    m["verification.estimate_order.ms_per_path"] = (
        1e3 * total_s("verification.estimate_order") / n_paths, "ms"
    )
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (
            sum(self_s(name) for name in names if name.split(".")[0] == layer), "s"
        )
    m["trace.spans"] = (len(dur), "count")

    # One Euler step: from the step map's start to the end of the
    # composition it feeds, for each step of a solve_chain span.
    in_solve = np.isin(parents, idx["chain.solve_chain"])
    step_maps = idx["chain.one_step_map"][in_solve[idx["chain.one_step_map"]]]
    step_composes = idx["algebra.compose"][in_solve[idx["algebra.compose"]]]
    if len(step_maps) != len(step_composes):
        raise ValueError("unpaired step map and composition spans")
    steps_us = 1e6 * (ends[step_composes] - starts[step_maps])
    samples = {
        "algebra.compose.us_per_call": 1e6 * dur[idx["algebra.compose"]],
        "chain.step_us": steps_us,
    }
    return m, samples
