import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from formalflow import FormalMapping, MultilinearMap, TimeGrid, chain, cli, sample_path, solve_chain
from formalflow.algebra import NonFiniteError
from formalflow.cli import ExperimentConfig, main
from conftest import random_coefficients, random_mapping

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def read_strict_report(out_dir):
    """report.json parsed as RFC 8259 JSON: a NaN or Infinity token raises."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    with open(out_dir / "report.json") as fh:
        return json.load(fh, parse_constant=reject)


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

    def test_blowup_exit_code(self, tmp_path, capsys):
        # (n_steps, drift, step of the blowup): one at the first step, one
        # after 19 states went to the report
        cases = [(4, 1e160, 1), (40, 1.2e17, 19)]
        for n_steps, drift, step in cases:
            cfg = {"dy": 1, "order": 1, "n_steps": n_steps, "drift": [scalar_tensor(1, drift)]}
            out = tmp_path / f"o{n_steps}"
            rc = main(["solve", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)])
            assert rc == 3
            assert f"numerical blowup at step {step}, component 1" in capsys.readouterr().err
            # no report, no trajectory, no partial file
            assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("failure, code", [({"drift": [scalar_tensor(1, 1e160)]}, 3), ({"n_step": 4}, 2)])
    def test_failed_run_leaves_no_earlier_output(self, tmp_path, capsys, failure, code):
        # a failed run used to leave the earlier run's report, which then read as its own
        cfg = {"dy": 1, "order": 1, "n_steps": 4, "drift": [scalar_tensor(1, 0.5)]}
        out = tmp_path / "o"
        assert main(["solve", "--config", write_config(tmp_path, "good.json", cfg), "--out", str(out)]) == 0
        assert (out / "report.json").exists() and (out / "trajectory.csv").exists()
        path = write_config(tmp_path, "bad.json", dict(cfg, **failure))
        assert main(["solve", "--config", path, "--out", str(out)]) == code
        assert not any(out.iterdir())

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

    def test_blowup_names_the_lowest_degree_of_the_first_bad_step(self, tmp_path, capsys):
        # dt = 0.5: component 2 is 7.5e307 after step 0, 1.5e308 after step 1
        # and overflows at step 2, while component 1 stays 1
        cfg = {"dy": 1, "order": 2, "t_end": 4.0, "n_steps": 8, "drift": [scalar_tensor(2, 1.5e308)]}
        out = tmp_path / "o"
        assert main(["solve", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 3
        assert "numerical blowup at step 2, component 2" in capsys.readouterr().err
        assert not out.exists()

    def test_no_multilinear_map_per_state(self, tmp_path, monkeypatch):
        # the states pass from the Euler loop to the report as arrays
        built = []
        post_init = MultilinearMap.__post_init__

        def counted(self):
            built.append(self.degree)
            post_init(self)

        monkeypatch.setattr(MultilinearMap, "__post_init__", counted)
        config = str(SCRIPTS / "solve_o4d2.json")
        counts = []
        for steps in (64, 256):
            built.clear()
            out = tmp_path / f"o{steps}"
            assert main(["solve", "--config", config, "--out", str(out), "--steps", str(steps)]) == 0
            counts.append(len(built))
        assert counts[0] == counts[1] > 0

    def test_trajectory_norms_are_the_report_states_norms(self, tmp_path, rng):
        # bit for bit what np.linalg.norm gives on each state's entries
        for order, d, m in ((1, 1, 1), (3, 2, 2), (4, 3, 1)):
            co = random_coefficients(rng, order, d, m)
            cfg = {
                "dy": d, "noise_dim": m, "order": order, "n_steps": 12, "seed": order,
                "drift": [c.to_dict() for c in co.drift(0.0).components],
                "diffusion": [c.to_dict() for c in co.diffusion(0.0).components],
            }
            out = tmp_path / f"o{order}"
            assert main(["solve", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
            states = read_report(out)["results"]["states"]
            with open(out / "trajectory.csv") as fh:
                rows = list(csv.reader(fh))[1:]
            assert len(rows) == len(states) == 13
            for row, state in zip(rows, states):
                want = [np.linalg.norm(np.array(c["entries"])) for c in state["components"]]
                assert [float(x) for x in row[1:]] == want

    def test_provenance_embeds_the_hashed_config_text(self, tmp_path):
        out = tmp_path / "o"
        assert main(["solve", "--config", str(SCRIPTS / "solve_o4d2.json"), "--out", str(out), "--steps", "4"]) == 0
        text = (out / "report.json").read_text()
        config = text[text.index('{"provenance": {"config": ') + 26 : text.index(', "config_hash": ')]
        provenance = read_report(out)["provenance"]
        cfg = ExperimentConfig.from_dict(provenance["config"])
        assert config == cfg.config_text() == dumps(provenance["config"])
        assert provenance["config_hash"] == hashlib.sha256(config.encode()).hexdigest() == cfg.config_hash()


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

    @pytest.mark.parametrize("halvings", [300, 1100])
    def test_a_gap_that_underflows_to_zero_writes_a_null_ratio(self, tmp_path, halvings):
        # some smaller gap underflows to 0: its ratio was written as Infinity,
        # and beyond 1023 halvings 2.0**i overflowed and exited 3
        cfg = {
            "dy": 1,
            "order": 3,
            "n_steps": 128,
            "drift": [scalar_tensor(1, 1.0), scalar_tensor(2, 0.5)],
            "y0": [0.1],
            "halvings": halvings,
        }
        out = tmp_path / "o"
        rc = main(["taylor-check", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)])
        results = read_strict_report(out)["results"]
        assert rc == 0 and results["passed"] is True
        nulls = [r is None for r in results["ratios"]]
        assert any(nulls) and nulls == [g == 0.0 for g in results["gaps"][1:]]

    def test_direct_overflow_is_blowup(self, tmp_path, capsys):
        # the chain stays finite; the direct simulation y' = 1e200*y^2 from 1.0 overflows
        cfg = {"dy": 1, "order": 2, "n_steps": 4, "drift": [scalar_tensor(2, 1e200)], "y0": [1.0]}
        out = tmp_path / "o"
        rc = main(["taylor-check", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)])
        assert rc == 3
        assert "numerical blowup at step" in capsys.readouterr().err
        assert not out.exists()


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

    def test_duplicate_degree_is_validation_error(self, tmp_path, capsys):
        # [2, 2] used to check degree 2 twice and report it once
        cfg = {"dy": 1, "order": 3, "n_steps": 8, "drift": [scalar_tensor(2, 0.5)], "degrees": [2, 3, 2]}
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["formula-check", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: invalid config or shapes: duplicate degree 2 in 'degrees'\n"

    def test_coefficients_are_checked_once_per_pass(self, tmp_path, monkeypatch):
        # formula-o3d2 (config seed 1) made 5 123 checks when each consumer
        # read the coefficients step by step; now the config, the initial
        # state, the solve and the formula check each once
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        config = tmp_path / "c.json"
        config.write_bytes(workloads.config_bytes("formula-o3d2", 1))
        checked = chain.CoefficientFamily._checked
        calls = []

        def counted(self, *args):
            calls.append(args[0])
            return checked(self, *args)

        monkeypatch.setattr(chain.CoefficientFamily, "_checked", counted)
        assert main(["formula-check", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) <= 10

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


    def test_no_multilinear_map_per_knot(self, tmp_path, monkeypatch):
        # the chain states and the trajectories pass to the comparison as arrays
        built = []
        post_init = MultilinearMap.__post_init__

        def counted(self):
            built.append(self.degree)
            post_init(self)

        monkeypatch.setattr(MultilinearMap, "__post_init__", counted)
        config = str(SCRIPTS / "formula_check.json")
        counts = []
        for steps in (64, 256):
            built.clear()
            out = tmp_path / f"o{steps}"
            assert main(["formula-check", "--config", config, "--out", str(out), "--steps", str(steps)]) == 0
            counts.append(len(built))
        assert counts[0] == counts[1] > 0

    def test_non_finite_trajectory_is_blowup(self, tmp_path, capsys, monkeypatch):
        solve_chain = cli.solve_chain

        def huge(coeffs, initial, path):
            # degree-1 states of 1e160 make the load a_2(S_1, S_1)*dt overflow
            sol = solve_chain(coeffs, initial, path)
            return dataclasses.replace(sol, entries=(np.full_like(sol.entries[0], 1e160),) + sol.entries[1:])

        monkeypatch.setattr(cli, "solve_chain", huge)
        cfg = {"dy": 1, "order": 2, "n_steps": 4, "drift": [scalar_tensor(2, 1.0)]}
        out = tmp_path / "o"
        assert main(["formula-check", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 3
        assert "non-finite entries in degree-2 tensor" in capsys.readouterr().err
        assert not out.exists()


def overflow_config(exponent):
    """dy 2, order 2, 8 steps, seed 3, with a_2 and b_2 scaled by 2**exponent:
    degree 2 of the states, the loads and the trajectories scales by the same
    power of two, exactly, and their relative errors keep their bits."""
    return {
        "dy": 2, "noise_dim": 1, "order": 2, "n_steps": 8, "seed": 3,
        "drift": [
            {"degree": 1, "dy": 2, "dz": 2, "entries": [-0.5, 1.0, -1.0, -0.5]},
            {"degree": 2, "dy": 2, "dz": 2,
             "entries": [math.ldexp(x, exponent) for x in (0.3, -0.2, 0.1, 0.4, -0.3, 0.25, 0.2, -0.1)]},
        ],
        "diffusion": [
            {"degree": 2, "dy": 2, "dz": 2, "m": 1,
             "entries": [math.ldexp(x, exponent) for x in (0.2, 0.1, -0.1, 0.3, 0.15, -0.2, 0.1, 0.05)]},
        ],
    }


@pytest.mark.parametrize(
    "subcommand, key, module",
    [
        ("formula-check", "max_relative_error_by_degree", cli),
        ("evolution-check", "component_discrepancies", chain),
    ],
)
class TestRelativeErrors:
    def test_entries_near_1e160_do_not_overflow(self, tmp_path, subcommand, key, module):
        # 2**530 is about 3.5e159: the squares of the states' entries overflow,
        # and the relative errors used to read 0.0
        results = []
        for exponent in (0, 530):
            out = tmp_path / f"o{exponent}"
            path = write_config(tmp_path, "c.json", overflow_config(exponent))
            assert main([subcommand, "--config", path, "--out", str(out)]) == 0
            errors = read_report(out)["results"][key]
            results.append(list(errors.values()) if isinstance(errors, dict) else errors)
        assert results[0] == results[1] and max(results[1]) > 0

    def test_a_nan_error_fails_the_check(self, tmp_path, subcommand, key, module, monkeypatch):
        relative_errors = module._relative_errors

        def nan_last(got, ref):
            # NaN in the last row of degree 2, the last error compared: a
            # max that drops NaN would pass the check
            errors = relative_errors(got, ref)
            return errors[:-1] + [math.nan] if ref[0].ndim == 3 else errors

        monkeypatch.setattr(module, "_relative_errors", nan_last)
        out = tmp_path / "o"
        path = write_config(tmp_path, "c.json", overflow_config(0))
        assert main([subcommand, "--config", path, "--out", str(out)]) == 4
        assert read_report(out)["results"]["passed"] is False


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

    def test_path_noise_dim_must_match_the_problem(self, tmp_path, capsys):
        # the quadratic problem has one noise column; this was numpy's raw matmul error
        cfg = {"noise_dim": 2, "n_paths": 1, "problem": {"kind": "quadratic"}, "dt_values": [0.5, 0.25, 0.125]}
        rc = main(["convergence", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "path noise_dim 2 != coefficients 1" in capsys.readouterr().err

    def test_closed_form_overflow_is_blowup(self, tmp_path, capsys):
        # exp(800) overflows a float; this used to end in an OverflowError traceback
        cfg = {"n_paths": 1, "problem": {"kind": "gbm", "alpha": 800.0}, "dt_values": [0.5, 0.25, 0.125]}
        rc = main(
            ["convergence", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 3
        assert "numerical blowup" in capsys.readouterr().err

    def test_exact_agreement_writes_a_null_slope(self, tmp_path):
        # with no drift and no noise every error is 0: there is no log-log
        # fit, and the slope and intercept were written as NaN
        cfg = {"n_paths": 8, "problem": {"kind": "gbm", "alpha": 0.0, "beta": 0.0}, "dt_values": [0.5, 0.25, 0.125]}
        out = tmp_path / "o"
        rc = main(["convergence", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)])
        results = read_strict_report(out)["results"]
        assert rc == 0 and results["errors"] == [0.0, 0.0, 0.0]
        assert results["slope"] is None and results["intercept"] is None

    def test_a_step_too_small_for_the_horizon_is_a_validation_error(self, tmp_path, capsys):
        # the step count t_end / dt overflows; round() of it exited 3 as a blowup
        cfg = {"n_paths": 8, "problem": {"kind": "gbm"}, "dt_values": [5e-324, 1e-323, 2e-323]}
        rc = main(["convergence", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "dt=5e-324" in err and "horizon 1.0" in err

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


    def test_run_too_large_for_memory_is_validation_error(self, tmp_path, capsys, monkeypatch):
        # n_steps 10^9 ended in a numpy _ArrayMemoryError traceback and exit 1;
        # the stub raises before anything is allocated
        def refuse(grid, m, seed, path_index=0):
            raise MemoryError(f"Unable to allocate 7.45 GiB for an array with shape ({grid.n_steps}, {m})")

        monkeypatch.setattr(cli, "sample_path", refuse)
        cfg = {"dy": 1, "order": 1, "n_steps": 10**9, "drift": [scalar_tensor(1, 0.5)]}
        out = tmp_path / "o"
        assert main(["solve", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
        assert "not enough memory for a run of this size: Unable to allocate" in capsys.readouterr().err
        assert not out.exists()


class TestOutputs:
    @pytest.mark.parametrize("subcommand", ["taylor-check", "solve"])
    @pytest.mark.parametrize("below", [False, True])
    def test_out_that_is_a_file_is_validation_error(self, tmp_path, capsys, subcommand, below):
        # taylor-check used to run the whole check, then end in a FileExistsError traceback
        cfg = {"dy": 1, "order": 2, "n_steps": 8, "drift": [scalar_tensor(1, 1.0), scalar_tensor(2, 0.5)]}
        path = write_config(tmp_path, "c.json", cfg)
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "sub" if below else blocker
        assert main([subcommand, "--config", path, "--out", str(out)]) == 2
        assert f"cannot write to '{out}'" in capsys.readouterr().err
        assert blocker.read_text() == "kept"

    def test_out_that_cannot_be_made_is_validation_error(self, tmp_path, capsys, monkeypatch):
        # convergence used to run the whole study and only then fail to write
        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        cfg = {"dy": 1, "order": 1, "n_steps": 4, "drift": [scalar_tensor(1, 0.5)]}
        path = write_config(tmp_path, "c.json", cfg)
        study = mock.Mock(wraps=cli.estimate_order)
        monkeypatch.setattr(cli, "estimate_order", study)
        monkeypatch.setattr(Path, "mkdir", refuse)
        out = tmp_path / "o"
        for subcommand, config in (("solve", path), ("convergence", str(SCRIPTS / "convergence_gbm.json"))):
            assert main([subcommand, "--config", config, "--out", str(out)]) == 2
            assert f"cannot write to '{out}': [Errno 13] Permission denied" in capsys.readouterr().err
        assert not study.called

    def test_failed_run_removes_only_the_directories_it_made(self, tmp_path):
        cfg = {"dy": 1, "order": 1, "n_steps": 4, "drift": [scalar_tensor(1, 1e160)]}
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "a" / "b" / "c")]) == 3
        assert not (tmp_path / "a").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main(["solve", "--config", path, "--out", str(kept)]) == 3
        assert kept.is_dir() and not any(kept.iterdir())

    def test_csv_fields_parse_as_numbers(self, tmp_path):
        # numpy 2 wrote np.float64(0.015625) for the knot, error and error_sem columns
        scripts = Path(__file__).resolve().parent.parent / "scripts"
        quadratic = [scalar_tensor(1, 1.0), scalar_tensor(2, 0.5)]
        taylor = {"dy": 1, "order": 3, "n_steps": 128, "drift": quadratic}
        runs = [
            ("solve", str(scripts / "solve_o4d2.json"), "trajectory.csv"),
            ("convergence", str(scripts / "convergence_gbm.json"), "convergence.csv"),
            ("taylor-check", write_config(tmp_path, "taylor.json", taylor), "scaling.csv"),
        ]
        for subcommand, config, name in runs:
            out = tmp_path / subcommand
            assert main([subcommand, "--config", config, "--out", str(out)]) == 0
            with open(out / name, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and all(len(row) == len(header) for row in rows)
            for row in rows:
                for value in row:
                    float(value)


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

    @pytest.mark.parametrize(
        "subcommand, fields, message",
        [
            # "x" exited 2 with "string indices must be integers, not 'str'"
            ("solve", {"drift": "x"}, "drift must be a list of components, got str"),
            ("solve", {"drift": ["x"]}, "drift component 1 must be an object, got str"),
            # a component without entries exited 2 with just "'entries'"
            ("solve", {"drift": [{"degree": 1}]}, "drift component 1 is missing 'dy', 'dz', 'entries'"),
            ("solve", {"diffusion": [scalar_tensor(1, 0.5)]}, "diffusion component 1 is missing 'm'"),
            ("solve", {"drift": [scalar_tensor(1, 0.5), {"degree": 2, "dy": 1, "dz": 1}]},
             "drift component 2 is missing 'entries'"),
            ("solve", {"drift": [scalar_tensor("2", 0.5)]}, "drift component 1 degree must be an integer, got '2'"),
            ("solve", {"initial": "x"}, "initial must be an object, got str"),
            ("solve", {"initial": {"order": 1, "components": "x"}}, "initial components must be a list, got str"),
            ("solve", {"initial": {"order": 1, "components": [{"degree": 1}]}},
             "initial component 1 is missing 'dy', 'dz', 'entries'"),
            ("solve", {"initial": {"components": []}}, "initial is missing 'order'"),
            ("compose-check", {"a": {"order": 1, "components": "x"}}, "a components must be a list, got str"),
            ("compose-check", {"a": {"order": 1, "components": [{"degree": 1, "dy": 1, "dz": 1}]}},
             "a component 1 is missing 'entries'"),
        ],
    )
    def test_malformed_coefficients_are_named(self, tmp_path, capsys, subcommand, fields, message):
        cfg = {"dy": 1, "order": 1, "n_steps": 4}
        if subcommand == "compose-check":
            identity1 = {"order": 1, "components": [scalar_tensor(1, 1.0)]}
            cfg = {"a": identity1, "b": identity1}
        assert self.run(tmp_path, subcommand, dict(cfg, **fields)) == 2
        assert f"error: invalid config or shapes: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, fields, message",
        [
            # these said "'float' object is not iterable", "unhashable type: 'list'"
            # and "'int' object is not iterable"
            ("convergence", {"dt_values": 0.1}, "dt_values must be a list of numbers, got float"),
            ("convergence", {"problem": {"kind": [1]}}, "problem kind must be one of 'gbm', 'quadratic', got [1]"),
            ("convergence", {"problem": {"kind": "x"}}, "problem kind must be one of 'gbm', 'quadratic', got 'x'"),
            ("formula-check", {"degrees": 3}, "degrees must be a list of integers, got int"),
            ("taylor-check", {"y0": {"x": 1}}, "y0 must be a list of numbers, got dict"),
        ],
    )
    def test_list_options_are_named(self, tmp_path, capsys, subcommand, fields, message):
        cfg = {"dy": 1, "order": 3, "n_steps": 8, "drift": [scalar_tensor(2, 0.5)]}
        if subcommand == "convergence":
            cfg = {"problem": {"kind": "gbm"}, "dt_values": [0.5, 0.25, 0.125]}
        assert self.run(tmp_path, subcommand, dict(cfg, **fields)) == 2
        assert f"error: invalid config or shapes: {message}\n" == capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "subcommand, fields, argv, message",
        [
            # seed -1 drew the path of 2**64 - 1, and seed 2**64 that of 0
            ("solve", {"seed": -1}, [], "seed must be in [0, 2**64), got -1"),
            ("solve", {"seed": 2**64}, [], f"seed must be in [0, 2**64), got {2**64}"),
            ("solve", {}, ["--seed", "-1"], "seed must be in [0, 2**64), got -1"),
            ("solve", {"path_index": -1}, [], "path_index must be in [0, 2**64), got -1"),
            ("convergence", {"seed": -1}, [], "seed must be in [0, 2**64), got -1"),
        ],
    )
    def test_seed_outside_64_bits_is_rejected(self, tmp_path, capsys, subcommand, fields, argv, message):
        cfg = {"dy": 1, "order": 1, "n_steps": 8, "drift": [scalar_tensor(1, 0.5)]}
        if subcommand == "convergence":
            cfg = {"problem": {"kind": "gbm"}, "dt_values": [0.5, 0.25, 0.125]}
        path = write_config(tmp_path, "c.json", dict(cfg, **fields))
        assert main([subcommand, "--config", path, "--out", str(tmp_path / "o"), *argv]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "fields, argv, key",
        [
            # a GBM run with order 3 and --steps 7 integrated order 1 on the
            # grids of dt_values, and recorded order 3 and n_steps 7
            ({"order": 3}, [], "order"),
            ({"dy": 2}, [], "dy"),
            ({"drift": [scalar_tensor(1, 0.5)]}, [], "drift"),
            ({"diffusion": [scalar_diffusion(1, 0.5)]}, [], "diffusion"),
            ({"initial": {"order": 1, "components": [scalar_tensor(1, 1.0)]}}, [], "initial"),
            ({"n_steps": 7}, [], "n_steps"),
            ({}, ["--steps", "7"], "--steps"),
        ],
    )
    def test_convergence_rejects_what_it_does_not_read(self, tmp_path, capsys, fields, argv, key):
        cfg = {"n_paths": 4, "problem": {"kind": "gbm"}, "dt_values": [0.5, 0.25, 0.125]}
        path = write_config(tmp_path, "c.json", dict(cfg, **fields))
        assert main(["convergence", "--config", path, "--out", str(tmp_path / "o"), *argv]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # the same config without them runs
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["convergence", "--config", path, "--out", str(tmp_path / "o")]) == 0

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
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestReportStream:
    @pytest.mark.filterwarnings("error")
    def test_results_block_is_canonical_json(self, tmp_path, rng):
        # solve frames its block by hand; every other block is one json.dumps,
        # which raises on a numpy scalar such as np.bool_
        co = random_coefficients(rng, 3, 2, 2)
        mapping = {"order": 2, "components": [scalar_tensor(1, 1.0), scalar_tensor(2, 0.5)]}
        evolution = {
            "dy": 2, "noise_dim": 2, "order": 3, "n_steps": 16, "seed": 5,
            "drift": [c.to_dict() for c in co.drift(0.0).components],
            "diffusion": [c.to_dict() for c in co.diffusion(0.0).components],
        }
        taylor = {"dy": 1, "order": 3, "n_steps": 128, "drift": mapping["components"]}
        runs = [
            ("compose-check", write_config(tmp_path, "compose.json", {"order": 2, "a": mapping, "b": mapping})),
            ("evolution-check", write_config(tmp_path, "evolution.json", evolution)),
            ("taylor-check", write_config(tmp_path, "taylor.json", taylor)),
            ("formula-check", str(SCRIPTS / "formula_check.json")),
            ("convergence", str(SCRIPTS / "convergence_gbm.json")),
            ("solve", str(SCRIPTS / "solve_o4d2.json")),
        ]
        for i, (subcommand, config) in enumerate(runs):
            out = tmp_path / f"o{i}"
            assert main([subcommand, "--config", config, "--out", str(out)]) == 0, subcommand
            text = (out / "report.json").read_text()
            assert text.endswith("}\n")
            block = text[text.index(', "results": ') + len(', "results": ') : -2]
            assert block == dumps(json.loads(block)), subcommand


class TestJsonFloats:
    """cli._json_floats writes a float array as json.dumps writes its list, in bytes."""

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=0, max_dims=3, min_side=0),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps(self, x):
        assert cli._json_floats(x) == json.dumps(x.ravel().tolist(), separators=(",", ":")).encode()

    def test_equals_json_dumps_at_the_format_edges(self):
        # orjson writes 0.00001 for 1e-05 and 1e16 for 1e+16: those take repr
        edges = [1e-4, 1e16, np.finfo(float).tiny]
        values = [0.0, 5e-324, 1e-5, 1e15, 123456789012345678.0, np.finfo(float).max, *edges]
        values += [np.nextafter(v, direction) for v in edges for direction in (0.0, np.inf)]
        values += [-v for v in values]
        x = np.array(values)
        for arr in (x, x[::-1], x.reshape(2, -1), *x[:, None]):
            assert cli._json_floats(arr) == json.dumps(arr.ravel().tolist(), separators=(",", ":")).encode()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, value):
        # orjson would write null
        with pytest.raises(ValueError, match="non-finite"):
            cli._json_floats(np.array([1.0, value, 1e-5]))

    @pytest.mark.parametrize(
        "magnitude, start, off_format",
        [
            (1e-7, 1e-6, lambda e: (0 < np.abs(e)) & (np.abs(e) < 1e-4)),
            (0.3, 1e12, lambda e: np.abs(e) >= 1e16),
        ],
    )
    def test_state_text_is_json_dumps(self, rng, magnitude, start, off_format):
        # states with entries outside [1e-4, 1e16), where orjson's format differs
        coeffs = random_coefficients(rng, 3, 2, 2, magnitude)
        initial = random_mapping(rng, 3, 2, 2, start)
        path = sample_path(TimeGrid(0.0, 1.0, 16), 2, 7)
        sol = solve_chain(coeffs, initial, path)
        states = [sol.state(i) for i in range(17)]
        frame = cli._state_frame(initial)
        for s in states:
            assert cli._json_floats(*(c.entries for c in s.components), frame=frame) == dumps(s.to_dict()).encode()
        entries = np.concatenate([c.entries.ravel() for s in states for c in s.components])
        assert off_format(entries).sum() >= 100

    @given(
        order=st.integers(1, 4),
        d=st.integers(1, 3),
        data=st.data(),
        special=st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-5, -1e-5, 1e16, -3e17, 1.7e308]),
        bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    )
    @settings(max_examples=150, deadline=None)
    def test_drawn_state_text_is_json_dumps(self, order, d, data, special, bad):
        """The encoder writes a whole state in one pass, each component's
        entries in runs between the entries orjson formats differently; a
        non-finite entry names the lowest degree that has one."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        parts = []
        for k in range(1, order + 1):
            e = rng.standard_normal((d,) + (d,) * k) * 10.0 ** rng.integers(-6, 18)
            e.ravel()[rng.random(e.size) < data.draw(st.floats(0, 1))] = special
            parts.append(e)
        state = FormalMapping(order, d, d, tuple(MultilinearMap(k, d, d, e) for k, e in enumerate(parts, 1)))
        frame = cli._state_frame(state)
        if bad is None:
            assert cli._json_floats(*parts, frame=frame) == dumps(state.to_dict()).encode()
            return
        degrees = data.draw(st.sets(st.integers(1, order), min_size=1))
        for k in degrees:
            parts[k - 1].ravel()[rng.integers(parts[k - 1].size)] = bad
        with pytest.raises(NonFiniteError) as exc:
            cli._json_floats(*parts, frame=frame)
        assert exc.value.degree == min(degrees)


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

    def test_benchmark_check_accepts_the_report(self, tmp_path):
        # the benchmark checks each solve with perfbench/child.py's check_solve,
        # which reads ExperimentConfig, sample_path, fundamental(...).factors
        # and the report format
        child_py = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
        spec = importlib.util.spec_from_file_location("perfbench_child", child_py)
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        self.run(tmp_path)
        with open(tmp_path / "report.json") as fh:
            report = json.load(fh, parse_constant=child.reject_non_finite)
        assert child.check_solve(json.loads(self.CONFIG.read_text()), report) is None


@pytest.mark.parametrize(
    "subcommand, text, message",
    [
        ("solve", "[1, 2]", "config must be a JSON object"),
        ("solve", '{"t_end": 1' + "0" * 399 + "}", "t_end is too large"),
        ("convergence", '{"dt_values": [0.5, 0.25, 0.125]}', "convergence needs a 'problem' object with a 'kind' field"),
    ],
    ids=["not-an-object", "400-digit-t_end", "no-problem"],
)
def test_invalid_configs_exit_2_with_their_message(tmp_path, capsys, subcommand, text, message):
    config = tmp_path / "c.json"
    config.write_text(text)
    assert main([subcommand, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
