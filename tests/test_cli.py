import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalflow import MultilinearMap
from formalflow.cli import ExperimentConfig, _json_default, _write_json, main
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

    @pytest.mark.parametrize(
        "subcommand, fields, message",
        [
            ("evolution-check", {"t_end": True}, "t_end must be a number"),  # ran on [0, 1]
            ("evolution-check", {"tolerance": True}, "tolerance must be a number"),  # recorded 1.0
            ("evolution-check", {"split_knot": True}, "split_knot must be a number"),
            ("formula-check", {"tolerance": "1e-9"}, "tolerance must be a number"),
            ("taylor-check", {"y0": [True]}, "y0 must be a number"),
            ("taylor-check", {"y0": 0.1}, "y0 must be a list"),
            # a quadratic run with slope_tol true passed with tolerance 1.0
            ("convergence", {"expected_slope": 1.0, "slope_tol": True}, "slope_tol must be a number"),
            ("convergence", {"expected_slope": True}, "expected_slope must be a number"),
            ("convergence", {"dt_values": [0.5, True, 0.125]}, "dt_values must be a number"),
            ("convergence", {"problem": {"kind": "gbm", "alpha": True}}, "problem alpha must be a number"),
            ("convergence", {"problem": {"kind": "gbm", "beta": True}}, "problem beta must be a number"),
            ("convergence", {"problem": {"kind": "quadratic", "gamma": True}}, "problem gamma must be a number"),
            ("convergence", {"problem": {"kind": "quadratic", "y0": True}}, "problem y0 must be a number"),
            # drift entries [true] ran as 1.0
            ("solve", {"drift": [scalar_tensor(1, True)]}, "entries of a degree-1 map must be numbers"),
            ("solve", {"diffusion": [scalar_diffusion(2, False)]}, "entries of a degree-2 map must be numbers"),
            ("solve", {"drift": [scalar_tensor(2, "0.5")]}, "entries of a degree-2 map must be numbers, got str"),
        ],
    )
    def test_non_number_values_are_rejected(self, tmp_path, capsys, subcommand, fields, message):
        cfg = {"dy": 1, "order": 2, "n_steps": 8, "drift": [scalar_tensor(1, 0.5)]}
        if subcommand == "convergence":
            cfg = {"problem": {"kind": "quadratic"}, "dt_values": [0.5, 0.25, 0.125]}
        assert self.run(tmp_path, subcommand, dict(cfg, **fields)) == 2
        assert message in capsys.readouterr().err

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



def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default)


def streamed(obj):
    fh = io.StringIO()
    _write_json(fh, obj)
    return fh.getvalue()


_leaves = st.one_of(
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.text(max_size=5),
    st.booleans(),
    st.none(),
    st.floats().map(np.float64),
    st.integers(-(2**31), 2**31).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.floats(allow_nan=False), max_size=4).map(np.array),
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=30,
)


class TestReportStream:
    @given(_documents)
    @settings(max_examples=300, deadline=None)
    def test_streamed_bytes_equal_json_dumps(self, obj):
        assert streamed(obj) == dumps(obj)

    @given(st.lists(st.dictionaries(st.text(max_size=3), _leaves, max_size=3), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_generator_is_written_as_its_list(self, items):
        doc = {"states": (item for item in items), "knots": [0.0, 0.5]}
        assert streamed(doc) == dumps({"states": items, "knots": [0.0, 0.5]})


class TestSolveSmokeConfig:
    """scripts/solve_o4d2.json: order 4, dy 2, two noise components, 64 steps."""

    CONFIG = Path(__file__).resolve().parent.parent / "scripts" / "solve_o4d2.json"

    def run(self, out):
        assert main(["solve", "--config", str(self.CONFIG), "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        return text[text.index(', "results": ') :]

    def test_states_match_the_fundamental_product_and_reproduce(self, tmp_path):
        from formalflow.explicit import fundamental

        results = self.run(tmp_path / "a")
        assert self.run(tmp_path / "b") == results
        report = read_report(tmp_path / "a")
        states = report["results"]["states"]
        cfg = ExperimentConfig.from_dict(report["provenance"]["config"])
        assert len(states) == cfg.n_steps + 1 == 65
        product = np.eye(cfg.dy)
        for state, factor in zip(states[1:], fundamental(cfg.coefficients(), cfg.path()).factors):
            for c in state["components"]:
                assert np.isfinite(c["entries"]).all()
            product = factor @ product
            degree1 = np.reshape(state["components"][0]["entries"], (cfg.dy, cfg.dy))
            # the benchmark's rule: relative Frobenius error at most 1e-10
            assert np.linalg.norm(degree1 - product) <= 1e-10 * np.linalg.norm(product)
