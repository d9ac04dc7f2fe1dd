"""Benchmark workloads: one formalflow CLI subcommand and a seeded config each.

The generator depends only on the standard library, so the same seed gives
byte-identical config files on every machine.  The program under test sees
only the generated config, never the benchmark seed.
"""

from __future__ import annotations

import json
import random

# Config seeds are drawn below 2**31 so they fit every integer type the
# solver keys its Philox streams with.
_SEED_RANGE = 2**31


def _dense_drift(rng: random.Random, order: int, dy: int, magnitude: float) -> list[dict]:
    return [
        {
            "degree": k,
            "dy": dy,
            "dz": dy,
            "entries": [rng.uniform(-magnitude, magnitude) for _ in range(dy ** (k + 1))],
        }
        for k in range(1, order + 1)
    ]


def _dense_diffusion(
    rng: random.Random, order: int, dy: int, m: int, magnitude: float, first_degree: int = 1
) -> list[dict]:
    return [
        {
            "degree": k,
            "dy": dy,
            "dz": dy,
            "m": m,
            "entries": [rng.uniform(-magnitude, magnitude) for _ in range(dy ** (k + 1) * m)],
        }
        for k in range(first_degree, order + 1)
    ]


def _solve_o6d3(rng: random.Random) -> dict:
    order, dy, m, magnitude = 6, 3, 2, 0.3
    return {
        "dy": dy,
        "noise_dim": m,
        "order": order,
        "t_end": 1.0,
        "n_steps": 512,
        "seed": rng.randrange(_SEED_RANGE),
        "drift": _dense_drift(rng, order, dy, magnitude),
        "diffusion": _dense_diffusion(rng, order, dy, m, magnitude),
    }


def _convergence_gbm(rng: random.Random) -> dict:
    # With 64 paths the fitted slope scatters with a standard deviation of
    # about 0.05 around 0.555 (20000 seeds: range 0.38..0.76), four times the
    # scatter of the 1000-path acceptance study and its 0.15 tolerance, so the
    # check allows 0.3, about five standard deviations.
    return {
        "dy": 1,
        "noise_dim": 1,
        "order": 1,
        "t_end": 1.0,
        "seed": rng.randrange(_SEED_RANGE),
        "n_paths": 64,
        "problem": {"kind": "gbm", "alpha": 1.0, "beta": 0.5},
        "dt_values": [2.0**-j for j in range(4, 10)],
        "expected_slope": 0.5,
        "slope_tol": 0.3,
    }


def _formula_o3d2(rng: random.Random) -> dict:
    order, dy, m, magnitude = 3, 2, 2, 0.4
    return {
        "dy": dy,
        "noise_dim": m,
        "order": order,
        "t_end": 1.0,
        "n_steps": 512,
        "seed": rng.randrange(_SEED_RANGE),
        "drift": _dense_drift(rng, order, dy, magnitude),
        # b_1 stays zero: the explicit formula needs a deterministic
        # fundamental solution.
        "diffusion": _dense_diffusion(rng, order, dy, m, magnitude, first_degree=2),
    }


# name -> (CLI subcommand, config generator)
WORKLOADS = {
    "solve-o6d3": ("solve", _solve_o6d3),
    "convergence-gbm": ("convergence", _convergence_gbm),
    "formula-o3d2": ("formula-check", _formula_o3d2),
}


def make_config(workload: str, seed: int) -> dict:
    """The config for one workload, determined by the benchmark seed alone."""
    _, generate = WORKLOADS[workload]
    # A string seed is hashed with SHA-512 by `random`, independent of
    # PYTHONHASHSEED, so each workload gets its own stream.
    return generate(random.Random(f"{workload}:{seed}"))


def config_bytes(workload: str, seed: int) -> bytes:
    """The config file contents, serialised canonically."""
    return json.dumps(make_config(workload, seed), sort_keys=True, indent=1).encode()


def euler_steps(config: dict, subcommand: str) -> int:
    """Euler steps the subcommand integrates, over all paths and levels."""
    if subcommand == "convergence":
        horizon = float(config["t_end"])
        per_path = sum(round(horizon / dt) for dt in config["dt_values"])
        return per_path * int(config["n_paths"])
    return int(config["n_steps"])


def n_paths(config: dict, subcommand: str) -> int:
    """Brownian paths the subcommand integrates."""
    return int(config["n_paths"]) if subcommand == "convergence" else 1
