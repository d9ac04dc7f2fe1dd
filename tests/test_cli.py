import json
from pathlib import Path

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


    @pytest.mark.parametrize("halvings", [0, -1])
    def test_no_halving_is_validation_error(self, tmp_path, capsys, halvings):
        # with no halving there is no ratio, and the check used to pass
        cfg = {"dy": 1, "order": 2, "n_steps": 8, "halvings": halvings}
        path = write_config(tmp_path, "c.json", cfg)
        rc = main(["taylor-check", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "halving" in capsys.readouterr().err

    def test_no_reliable_ratio_fails(self, tmp_path):
        # a linear flow has no truncation gap, so every ratio is unreliable
        cfg = {"dy": 1, "order": 1, "n_steps": 8, "drift": [scalar_tensor(1, 1.0)], "halvings": 3}
        out = tmp_path / "o"
        path = write_config(tmp_path, "c.json", cfg)
        rc = main(["taylor-check", "--config", path, "--out", str(out)])
        results = read_report(out)["results"]
        assert not any(results["reliable"])
        assert rc == 4 and results["passed"] is False


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

    def test_empty_degree_list_is_validation_error(self, tmp_path, capsys):
        # "degrees": [] used to check nothing and report passed
        cfg = {"dy": 1, "order": 2, "n_steps": 8, "drift": [scalar_tensor(2, 0.5)], "degrees": []}
        path = write_config(tmp_path, "c.json", cfg)
        rc = main(["formula-check", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "degrees" in capsys.readouterr().err

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


    @pytest.mark.parametrize(
        "dt_values, problem",
        [([0.5, 0.25, 0], "positive"), ([0.5, 0.25, 0.25], "distinct")],
    )
    def test_bad_step_sizes_are_validation_errors(self, tmp_path, capsys, dt_values, problem):
        # a zero step was a ZeroDivisionError traceback; a repeated one fitted
        # the slope through two distinct step sizes and exited 0
        cfg = {"n_paths": 1, "problem": {"kind": "quadratic"}, "dt_values": dt_values}
        path = write_config(tmp_path, "c.json", cfg)
        rc = main(["convergence", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert problem in capsys.readouterr().err

    def test_closed_form_overflow_is_blowup(self, tmp_path, capsys):
        # exp(800) overflows a float; this used to end in an OverflowError traceback
        cfg = {"n_paths": 1, "problem": {"kind": "gbm", "alpha": 800.0}, "dt_values": [0.5, 0.25, 0.125]}
        rc = main(
            ["convergence", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 3
        assert "numerical blowup" in capsys.readouterr().err

    def test_quadratic_problem_without_linear_drift(self, tmp_path):
        # alpha = 0 used to divide by zero in the closed form
        cfg = {
            "n_paths": 1,
            "problem": {"kind": "quadratic", "alpha": 0.0, "gamma": 0.5, "y0": 0.1},
            "dt_values": [2**-k for k in range(4, 9)],
            "expected_slope": 1.0,
            "slope_tol": 0.1,
        }
        out = tmp_path / "o"
        rc = main(["convergence", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)])
        assert rc == 0
        assert np.isfinite(read_report(out)["results"]["errors"]).all()


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


class TestStrictConfig:
    def run(self, tmp_path, subcommand, cfg):
        path = write_config(tmp_path, "c.json", cfg)
        return main([subcommand, "--config", path, "--out", str(tmp_path / "o")])

    def test_misspelled_key_is_rejected(self, tmp_path, capsys):
        # "n_step" used to run the default 64 steps and exit 0
        cfg = {"dy": 1, "order": 1, "n_step": 8, "drift": [scalar_tensor(1, 1.0)]}
        assert self.run(tmp_path, "solve", cfg) == 2
        assert "n_step" in capsys.readouterr().err

    def test_key_of_another_subcommand_is_rejected(self, tmp_path, capsys):
        cfg = {"dy": 1, "order": 1, "n_steps": 8, "split_knot": 0.5}
        assert self.run(tmp_path, "solve", cfg) == 2
        assert "split_knot" in capsys.readouterr().err

    def test_degree_above_order_is_rejected(self, tmp_path, capsys):
        cfg = {"dy": 1, "order": 1, "n_steps": 8, "drift": [scalar_tensor(1, 1.0), scalar_tensor(2, 0.5)]}
        assert self.run(tmp_path, "solve", cfg) == 2
        assert "degree 2 exceeds order 1" in capsys.readouterr().err

    def test_duplicate_degree_is_rejected(self, tmp_path, capsys):
        cfg = {
            "dy": 1,
            "order": 2,
            "n_steps": 8,
            "diffusion": [scalar_diffusion(2, 0.5), scalar_diffusion(2, 0.25)],
        }
        assert self.run(tmp_path, "solve", cfg) == 2
        assert "duplicate diffusion component of degree 2" in capsys.readouterr().err

    def test_unknown_problem_key_is_rejected(self, tmp_path, capsys):
        cfg = {"n_paths": 1, "problem": {"kind": "gbm", "gamma": 0.5}, "dt_values": [0.5, 0.25, 0.125]}
        assert self.run(tmp_path, "convergence", cfg) == 2
        assert "gamma" in capsys.readouterr().err

    def test_non_finite_numbers_are_rejected(self, tmp_path):
        for entry in ("1e400", "NaN", "-Infinity"):
            path = tmp_path / "c.json"
            path.write_text('{"dy": 1, "order": 1, "drift": [{"degree": 1, "dy": 1, "dz": 1, "entries": [%s]}]}' % entry)
            assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("subcommand", ["solve", "evolution-check", "formula-check"])
    def test_several_paths_rejected_on_single_path_subcommands(self, tmp_path, capsys, subcommand):
        # solve --paths 100 used to integrate one path and record n_paths = 100
        cfg = {"dy": 1, "order": 2, "n_steps": 4, "drift": [scalar_tensor(1, 1.0)]}
        path = write_config(tmp_path, "c.json", cfg)
        assert main([subcommand, "--config", path, "--out", str(tmp_path / "o"), "--paths", "100"]) == 2
        assert "n_paths = 100" in capsys.readouterr().err
        path = write_config(tmp_path, "c.json", dict(cfg, n_paths=3))
        assert main([subcommand, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "n_paths = 3" in capsys.readouterr().err
        assert main([subcommand, "--config", path, "--out", str(tmp_path / "o"), "--paths", "1"]) == 0

    @pytest.mark.parametrize(
        "subcommand, fields, key",
        [
            ("solve", {"n_steps": 8.5}, "n_steps"),  # used to integrate 8 steps
            ("solve", {"n_steps": True}, "n_steps"),  # used to integrate 1 step
            ("solve", {"path_index": 1.9}, "path_index"),  # used path 1
            ("convergence", {"n_paths": 2.5}, "n_paths"),  # used 2 paths
            ("solve", {"dy": 1.0}, "dy"),
            ("solve", {"noise_dim": 1.5}, "noise_dim"),
            ("solve", {"order": False}, "order"),
            ("solve", {"seed": 3.5}, "seed"),
            ("taylor-check", {"halvings": 2.5}, "halvings"),
            ("formula-check", {"degrees": [2, 3.0]}, "degrees"),
        ],
    )
    def test_non_integer_values_are_rejected(self, tmp_path, capsys, subcommand, fields, key):
        cfg = {"dy": 1, "order": 3, "n_steps": 8, "drift": [scalar_tensor(2, 0.5)]}
        if subcommand == "convergence":
            cfg = {"problem": {"kind": "gbm"}, "dt_values": [0.5, 0.25, 0.125]}
        assert self.run(tmp_path, subcommand, dict(cfg, **fields)) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["convergence_gbm.json", "convergence_quadratic.json"])
    def test_shipped_configs_pass(self, tmp_path, name):
        config = Path(__file__).resolve().parent.parent / "scripts" / name
        assert main(["convergence", "--config", str(config), "--out", str(tmp_path / "o")]) == 0

    def test_shipped_formula_check_passes(self, tmp_path):
        config = Path(__file__).resolve().parent.parent / "scripts" / "formula_check.json"
        assert main(["formula-check", "--config", str(config), "--out", str(tmp_path / "o")]) == 0


class TestOverflow:
    def test_overflow_in_composition_is_blowup(self, tmp_path, capsys):
        # b_2(a_1, a_1) = 1e400 overflows; this used to exit 2 after a RuntimeWarning
        cfg = {
            "a": {"order": 2, "components": [scalar_tensor(1, 1e200), scalar_tensor(2, 0.0)]},
            "b": {"order": 2, "components": [scalar_tensor(1, 0.0), scalar_tensor(2, 1.0)]},
        }
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["compose-check", "--config", path, "--out", str(tmp_path / "o")]) == 3
        assert "blowup" in capsys.readouterr().err

