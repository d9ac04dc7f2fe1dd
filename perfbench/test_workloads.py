"""Tests of the benchmark's workload generator.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, config_bytes, make_config

HERE = Path(__file__).resolve().parent
SEEDS = range(10)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_bytes(workload):
    # A fresh interpreter with another hash seed must write the same file.
    code = f"import sys; from workloads import config_bytes; sys.stdout.buffer.write(config_bytes({workload!r}, 7))"
    env = dict(os.environ, PYTHONHASHSEED="12345")
    other = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, check=True
    ).stdout
    assert other == config_bytes(workload, 7)


@pytest.mark.parametrize("workload", ["solve-o6d3", "formula-o3d2"])
def test_other_seed_gives_other_coefficients(workload):
    a, b = make_config(workload, 1), make_config(workload, 2)
    assert a["seed"] != b["seed"]
    for key in ("drift", "diffusion"):
        assert [c["degree"] for c in a[key]] == [c["degree"] for c in b[key]]
        for ca, cb in zip(a[key], b[key]):
            assert ca["entries"] != cb["entries"]


def test_other_seed_gives_other_paths():
    a, b = make_config("convergence-gbm", 1), make_config("convergence-gbm", 2)
    assert a["seed"] != b["seed"]
    assert {**a, "seed": 0} == {**b, "seed": 0}


def test_formula_workload_has_no_degree1_noise():
    for seed in SEEDS:
        assert all(c["degree"] >= 2 for c in make_config("formula-o3d2", seed)["diffusion"])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_neither_blows_up_nor_fails_its_check(workload, seed, tmp_path):
    from formalflow.cli import EXIT_OK, main

    config = tmp_path / "config.json"
    config.write_bytes(config_bytes(workload, seed))
    subcommand = WORKLOADS[workload][0]
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    if subcommand != "solve":
        assert report["results"]["passed"] is True
