import json

import numpy as np
import pytest

from formalflow import MultilinearMap
from formalflow.cli import ExperimentConfig, main
from conftest import random_coefficients


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def scalar_tensor(degree, value):
    return {"degree": degree, "dy": 1, "dz": 1, "entries": [value]}


def scalar_diffusion(degree, value):
    return {"degree": degree, "dy": 1, "dz": 1, "m": 1, "entries": [value]}


class TestConfig:
    def test_round_trip(self):
        raw = {
            "dy": 2,
            "noise_dim": 1,
            "order": 2,
            "t_end": 1.0,
            "n_steps": 8,
            "seed": 3,
            "n_paths": 1,
            "drift": [],
            "diffusion": [],
            "split_knot": 0.5,
        }
        assert ExperimentConfig.from_dict(raw).to_dict() == raw

    def test_hash_changes_with_content(self):
        c1 = ExperimentConfig.from_dict({"seed": 1})
        c2 = ExperimentConfig.from_dict({"seed": 2})
        assert c1.config_hash() != c2.config_hash()


class TestSolve:
    def test_zero_coefficients_stay_identity(self, tmp_path):
        cfg = {
            "dy": 1,
            "order": 2,
            "t_end": 1.0,
            "n_steps": 4,
            "seed": 0,
            "drift": [],
            "diffusion": [],
        }
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        for state in report["results"]["states"]:
            m1 = MultilinearMap.from_dict(state["components"][0])
            m2 = MultilinearMap.from_dict(state["components"][1])
            assert np.array_equal(m1.entries, np.eye(1))
            assert m2.is_zero
        assert (out / "trajectory.csv").exists()

    def test_results_block_is_byte_identical_across_runs(self, tmp_path):
        cfg = {
            "dy": 1,
            "order": 1,
            "t_end": 1.0,
            "n_steps": 8,
            "seed": 12,
            "drift": [scalar_tensor(1, 1.0)],
            "diffusion": [scalar_diffusion(1, 0.5)],
        }
        path = write_config(tmp_path, "c.json", cfg)
        blobs = []
        for name in ("out1", "out2"):
            out = tmp_path / name
            assert main(["solve", "--config", path, "--out", str(out)]) == 0
            raw = (out / "report.json").read_text()
            blobs.append(raw.split('"results": ', 1)[1])
        assert blobs[0] == blobs[1]

    def test_blowup_exit_code(self, tmp_path):
        cfg = {
            "dy": 1,
            "order": 1,
            "t_end": 1.0,
            "n_steps": 4,
            "seed": 0,
            "drift": [scalar_tensor(1, 1e160)],
            "diffusion": [],
        }
        rc = main(
            ["solve", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 3

    def test_seed_override_changes_results(self, tmp_path):
        cfg = {
            "dy": 1,
            "order": 1,
            "t_end": 1.0,
            "n_steps": 8,
            "seed": 1,
            "drift": [scalar_tensor(1, 1.0)],
            "diffusion": [scalar_diffusion(1, 0.5)],
        }
        path = write_config(tmp_path, "c.json", cfg)
        outs = []
        for name, seed in (("a", "1"), ("b", "2")):
            out = tmp_path / name
            assert main(["solve", "--config", path, "--out", str(out), "--seed", seed]) == 0
            outs.append(read_report(out)["results"])
        assert outs[0] != outs[1]


class TestComposeCheck:
    def test_scalar_self_composition(self, tmp_path):
        cfg = {
            "order": 4,
            "a": {"order": 4, "components": [scalar_tensor(k, 1.0 if k <= 2 else 0.0) for k in (1, 2, 3, 4)]},
            "b": {"order": 4, "components": [scalar_tensor(k, 1.0 if k <= 2 else 0.0) for k in (1, 2, 3, 4)]},
        }
        out = tmp_path / "out"
        rc = main(
            ["compose-check", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]
        )
        assert rc == 0
        results = read_report(out)["results"]
        got = [c["entries"][0] for c in results["composed"]["components"]]
        assert got == [1.0, 2.0, 2.0, 1.0]
        assert results["passed"] is True

    def test_missing_operand_is_validation_error(self, tmp_path):
        rc = main(
            [
                "compose-check",
                "--config",
                write_config(tmp_path, "c.json", {"a": {"order": 1, "components": [scalar_tensor(1, 1.0)]}}),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2


class TestEvolutionCheck:
    def test_random_instance_passes(self, tmp_path, rng):
        co = random_coefficients(rng, 4, 3, 2)
        cfg = {
            "dy": 3,
            "noise_dim": 2,
            "order": 4,
            "t_end": 1.0,
            "n_steps": 128,
            "seed": 5,
            "drift": [c.to_dict() for c in co.drift(0.0).components],
            "diffusion": [c.to_dict() for c in co.diffusion(0.0).components],
            "split_knot": 0.5,
        }
        out = tmp_path / "out"
        rc = main(
            ["evolution-check", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]
        )
        assert rc == 0
        results = read_report(out)["results"]
        assert results["max_discrepancy"] <= 1e-10
        assert len(results["component_discrepancies"]) == 4

    def test_off_grid_split_knot_is_validation_error(self, tmp_path):
        cfg = {"dy": 1, "order": 1, "n_steps": 8, "drift": [], "diffusion": [], "split_knot": 0.3}
        rc = main(
            [
                "evolution-check",
                "--config",
                write_config(tmp_path, "c.json", cfg),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2


class TestTaylorCheck:
    def test_quadratic_scalar_passes(self, tmp_path):
        cfg = {
            "dy": 1,
            "order": 3,
            "t_end": 1.0,
            "n_steps": 128,
            "seed": 0,
            "drift": [scalar_tensor(1, 1.0), scalar_tensor(2, 0.5)],
            "diffusion": [],
            "y0": [0.1],
            "halvings": 5,
        }
        out = tmp_path / "out"
        rc = main(
            ["taylor-check", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]
        )
        assert rc == 0
        assert (out / "scaling.csv").exists()


class TestFormulaCheck:
    def test_scalar_quadratic_passes(self, tmp_path):
        cfg = {
            "dy": 1,
            "order": 2,
            "t_end": 1.0,
            "n_steps": 128,
            "seed": 2,
            "drift": [scalar_tensor(1, 1.0), scalar_tensor(2, 0.5)],
            "diffusion": [scalar_diffusion(2, 0.25)],
        }
        out = tmp_path / "out"
        rc = main(
            ["formula-check", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]
        )
        assert rc == 0
        results = read_report(out)["results"]
        assert results["max_relative_error_by_degree"]["2"] <= 1e-9

    def test_degree_one_noise_is_validation_error(self, tmp_path):
        cfg = {
            "dy": 1,
            "order": 2,
            "n_steps": 16,
            "drift": [scalar_tensor(1, 1.0)],
            "diffusion": [scalar_diffusion(1, 0.5)],
        }
        rc = main(
            [
                "formula-check",
                "--config",
                write_config(tmp_path, "c.json", cfg),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2


class TestConvergence:
    def test_quadratic_problem_passes(self, tmp_path):
        cfg = {
            "t_end": 1.0,
            "seed": 0,
            "n_paths": 1,
            "drift": [],
            "diffusion": [],
            "problem": {"kind": "quadratic", "alpha": 1.0, "gamma": 0.5, "y0": 0.1},
            "dt_values": [2**-k for k in range(4, 9)],
            "expected_slope": 1.0,
            "slope_tol": 0.1,
        }
        out = tmp_path / "out"
        rc = main(
            ["convergence", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]
        )
        assert rc == 0
        assert (out / "convergence.csv").exists()

    def test_wrong_expected_slope_fails_check(self, tmp_path):
        cfg = {
            "t_end": 1.0,
            "seed": 0,
            "n_paths": 1,
            "drift": [],
            "diffusion": [],
            "problem": {"kind": "quadratic"},
            "dt_values": [0.25, 0.125, 0.0625],
            "expected_slope": 0.25,
            "slope_tol": 0.1,
        }
        rc = main(
            [
                "convergence",
                "--config",
                write_config(tmp_path, "c.json", cfg),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 4

    def test_unknown_problem_kind_is_validation_error(self, tmp_path):
        cfg = {
            "drift": [],
            "diffusion": [],
            "problem": {"kind": "nonsense"},
            "dt_values": [0.5, 0.25, 0.125],
        }
        rc = main(
            [
                "convergence",
                "--config",
                write_config(tmp_path, "c.json", cfg),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2


    def test_non_numeric_slope_tol_is_validation_error(self, tmp_path):
        cfg = {
            "n_paths": 1,
            "problem": {"kind": "quadratic"},
            "dt_values": [0.5, 0.25, 0.125],
            "expected_slope": 1.0,
            "slope_tol": "abc",
        }
        rc = main(
            ["convergence", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_too_many_blowups_exit_code_and_message(self, tmp_path, capsys):
        cfg = {
            "n_paths": 1,
            "problem": {"kind": "quadratic", "alpha": 1.0, "gamma": 1e300, "y0": 1.0},
            "dt_values": [0.5, 0.25, 0.125],
        }
        rc = main(
            ["convergence", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 3
        assert "1 of 1 paths blew up (limit 1%)" in capsys.readouterr().err


class TestErrorHandling:
    def test_unreadable_config(self, tmp_path):
        rc = main(["solve", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_shape_violation_in_tensor(self, tmp_path):
        cfg = {
            "dy": 2,
            "order": 1,
            "drift": [{"degree": 1, "dy": 2, "dz": 2, "entries": [1.0, 2.0, 3.0]}],
            "diffusion": [],
        }
        rc = main(
            ["solve", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_non_integer_path_index(self, tmp_path):
        cfg = {"dy": 1, "order": 1, "n_steps": 4, "path_index": "x"}
        rc = main(
            ["solve", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 2
