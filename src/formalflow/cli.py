"""Config-driven command line front end.

Subcommands: solve, compose-check, evolution-check, taylor-check,
formula-check, convergence.  Each run writes report.json (provenance block
plus a deterministic results block) and, where a trajectory or study is
produced, a CSV next to it.

Exit codes: 0 success, 2 validation failure, 3 numerical blowup, 4 failed
acceptance check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .algebra import (
    FormalMapping,
    MultilinearMap,
    ShapeError,
    compose,
    identity,
)
from .chain import (
    BlowupError,
    BrownianPath,
    CoefficientFamily,
    DiffusionFamily,
    DiffusionMap,
    TimeGrid,
    evolution_check,
    sample_path,
    solve_chain,
)
from .explicit import variation_of_constants
from .verification import (
    bernoulli_closed_form,
    estimate_order,
    gbm_closed_form,
    polynomial_oracle_compose,
    truncation_scaling,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BLOWUP = 3
EXIT_CHECK_FAILED = 4


@dataclass
class ExperimentConfig:
    """One experiment: dimensions, grid, seed, coefficients, options.

    Coefficients are constant in time at the CLI; the library accepts
    time-dependent providers.
    """

    dy: int = 1
    noise_dim: int = 1
    order: int = 1
    t_end: float = 1.0
    n_steps: int = 64
    seed: int = 0
    n_paths: int = 1
    drift: list = field(default_factory=list)
    diffusion: list = field(default_factory=list)
    initial: dict | None = None
    options: dict = field(default_factory=dict)

    _KNOWN = {
        "dy", "noise_dim", "order", "t_end", "n_steps", "seed", "n_paths",
        "drift", "diffusion", "initial",
    }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ShapeError("config must be a JSON object")
        known = {k: v for k, v in d.items() if k in cls._KNOWN}
        options = {k: v for k, v in d.items() if k not in cls._KNOWN}
        return cls(**known, options=options)

    def to_dict(self) -> dict:
        out = {
            "dy": self.dy,
            "noise_dim": self.noise_dim,
            "order": self.order,
            "t_end": self.t_end,
            "n_steps": self.n_steps,
            "seed": self.seed,
            "n_paths": self.n_paths,
            "drift": self.drift,
            "diffusion": self.diffusion,
        }
        if self.initial is not None:
            out["initial"] = self.initial
        out.update(self.options)
        return out

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def grid(self) -> TimeGrid:
        return TimeGrid(0.0, float(self.t_end), int(self.n_steps))

    def drift_mapping(self) -> FormalMapping:
        comps = [MultilinearMap.from_dict(c) for c in self.drift]
        by_degree = {c.degree: c for c in comps}
        full = tuple(
            by_degree.get(k, MultilinearMap.zero(k, self.dy, self.dy))
            for k in range(1, self.order + 1)
        )
        return FormalMapping(self.order, self.dy, self.dy, full)

    def diffusion_family(self) -> DiffusionFamily:
        comps = [DiffusionMap.from_dict(c) for c in self.diffusion]
        by_degree = {c.degree: c for c in comps}
        full = tuple(
            by_degree.get(k, DiffusionMap.zero(k, self.dy, self.dy, self.noise_dim))
            for k in range(1, self.order + 1)
        )
        return DiffusionFamily(self.order, self.dy, self.noise_dim, full)

    def coefficients(self) -> CoefficientFamily:
        return CoefficientFamily.constant(self.drift_mapping(), self.diffusion_family())

    def initial_mapping(self) -> FormalMapping:
        if self.initial is None:
            return identity(self.order, self.dy)
        return FormalMapping.from_dict(self.initial)


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_report(out_dir: Path, subcommand: str, cfg: ExperimentConfig, results: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    provenance = {
        "subcommand": subcommand,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "version": __version__,
        "config": cfg.to_dict(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    report_path = out_dir / "report.json"
    results_blob = json.dumps(results, sort_keys=True, separators=(",", ":"), default=_json_default)
    with open(report_path, "w") as fh:
        fh.write('{"provenance": ')
        fh.write(json.dumps(provenance, sort_keys=True))
        fh.write(', "results": ')
        fh.write(results_blob)
        fh.write("}\n")
    return report_path


def _frobenius_norms(mapping: FormalMapping) -> list[float]:
    return [float(np.linalg.norm(c.entries)) for c in mapping.components]


def _cmd_solve(cfg: ExperimentConfig, out_dir: Path) -> int:
    coeffs = cfg.coefficients()
    path = sample_path(cfg.grid(), cfg.noise_dim, cfg.seed, int(cfg.options.get("path_index", 0)))
    sol = solve_chain(coeffs, cfg.initial_mapping(), path)
    knots = cfg.grid().knots()
    results = {
        "knots": knots.tolist(),
        "states": [s.to_dict() for s in sol.states],
    }
    _write_report(out_dir, "solve", cfg, results)
    with open(out_dir / "trajectory.csv", "w") as fh:
        fh.write("knot," + ",".join(f"frobenius_norm_degree_{k}" for k in range(1, cfg.order + 1)) + "\n")
        for t, s in zip(knots, sol.states):
            fh.write(f"{t!r}," + ",".join(repr(v) for v in _frobenius_norms(s)) + "\n")
    return EXIT_OK


def _cmd_compose_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    if "a" not in cfg.options or "b" not in cfg.options:
        raise ShapeError("compose-check needs 'a' and 'b' formal mappings in the config")
    a = FormalMapping.from_dict(cfg.options["a"])
    b = FormalMapping.from_dict(cfg.options["b"])
    c = compose(b, a)
    tol = float(cfg.options.get("tolerance", 1e-12))
    results: dict[str, Any] = {"composed": c.to_dict()}
    passed = True
    if a.dy == a.dz == b.dy == b.dz == 1:
        oracle = polynomial_oracle_compose(
            a.scalar_coeffs().tolist(), b.scalar_coeffs().tolist(), c.order
        )
        oracle_f = [float(x) for x in oracle]
        got = c.scalar_coeffs().tolist()
        err = max(
            abs(g - o) / max(1.0, abs(o)) for g, o in zip(got, oracle_f)
        )
        results["oracle"] = oracle_f
        results["max_relative_error"] = err
        passed = err <= tol
    results["passed"] = passed
    _write_report(out_dir, "compose-check", cfg, results)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_evolution_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    coeffs = cfg.coefficients()
    grid = cfg.grid()
    split = cfg.options.get("split_knot")
    if split is None:
        split = grid.t_start + (grid.n_steps // 2) * grid.dt
    path = sample_path(grid, cfg.noise_dim, cfg.seed, int(cfg.options.get("path_index", 0)))
    report = evolution_check(coeffs, grid, path, float(split))
    tol = float(cfg.options.get("tolerance", 1e-10))
    passed = report.max_discrepancy <= tol
    results = {
        "split_knot": report.split_knot,
        "component_discrepancies": list(report.component_discrepancies),
        "max_discrepancy": report.max_discrepancy,
        "tolerance": tol,
        "passed": passed,
    }
    _write_report(out_dir, "evolution-check", cfg, results)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_taylor_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    coeffs = cfg.coefficients()
    y0 = np.asarray(cfg.options.get("y0", [0.1] * cfg.dy), dtype=np.float64)
    halvings = int(cfg.options.get("halvings", 5))
    report = truncation_scaling(coeffs, cfg.grid(), y0, halvings)
    expected = report.expected_ratio
    checked = [r for r, ok in zip(report.ratios, report.reliable) if ok]
    passed = all(0.5 * expected <= r <= 2.0 * expected for r in checked)
    results = report.to_dict()
    results["passed"] = passed
    _write_report(out_dir, "taylor-check", cfg, results)
    report.write_csv(out_dir / "scaling.csv")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_formula_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    coeffs = cfg.coefficients()
    grid = cfg.grid()
    path = sample_path(grid, cfg.noise_dim, cfg.seed, int(cfg.options.get("path_index", 0)))
    sol = solve_chain(coeffs, identity(cfg.order, cfg.dy), path)
    degrees = cfg.options.get("degrees", list(range(2, cfg.order + 1)))
    tol = float(cfg.options.get("tolerance", 1e-9))
    per_degree = {}
    passed = True
    for n in degrees:
        voc = variation_of_constants(int(n), coeffs, sol.states, path)
        worst = 0.0
        for i, s in enumerate(sol.states):
            diff = np.linalg.norm(voc[i].entries - s.component(int(n)).entries)
            ref = np.linalg.norm(s.component(int(n)).entries)
            worst = max(worst, diff / ref if ref > 0 else diff)
        per_degree[str(n)] = worst
        passed = passed and worst <= tol
    results = {"max_relative_error_by_degree": per_degree, "tolerance": tol, "passed": passed}
    _write_report(out_dir, "formula-check", cfg, results)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_convergence(cfg: ExperimentConfig, out_dir: Path) -> int:
    problem = cfg.options.get("problem")
    if not isinstance(problem, dict) or "kind" not in problem:
        raise ShapeError("convergence needs a 'problem' object with a 'kind' field")
    dt_values = cfg.options.get("dt_values")
    if not dt_values:
        raise ShapeError("convergence needs a 'dt_values' list")
    kind = problem["kind"]
    if kind == "gbm":
        alpha = float(problem.get("alpha", 1.0))
        beta = float(problem.get("beta", 0.5))
        coeffs = CoefficientFamily.constant_scalar([alpha], [beta])

        def simulate(path: BrownianPath) -> np.ndarray:
            sol = solve_chain(coeffs, identity(1, 1), path)
            return sol.states[-1].component(1).entries.ravel()

        def exact(path: BrownianPath) -> np.ndarray:
            w_t = float(path.cumulative()[-1, 0])
            return np.array([gbm_closed_form(alpha, beta, cfg.t_end, w_t)])

    elif kind == "quadratic":
        alpha = float(problem.get("alpha", 1.0))
        gamma = float(problem.get("gamma", 0.5))
        y0 = float(problem.get("y0", 0.1))
        coeffs = CoefficientFamily.constant_scalar([alpha, gamma])
        from .chain import simulate_direct

        def simulate(path: BrownianPath) -> np.ndarray:
            return simulate_direct(coeffs, np.array([y0]), path)[-1]

        def exact(path: BrownianPath) -> np.ndarray:
            return np.array([bernoulli_closed_form(alpha, gamma, cfg.t_end, y0)])

    else:
        raise ShapeError(f"unknown convergence problem kind '{kind}'")

    report = estimate_order(
        simulate,
        exact,
        t_end=float(cfg.t_end),
        noise_dim=cfg.noise_dim,
        dt_values=[float(x) for x in dt_values],
        n_paths=int(cfg.n_paths),
        seed=int(cfg.seed),
    )
    results = report.to_dict()
    passed = True
    if "expected_slope" in cfg.options:
        tol = float(cfg.options.get("slope_tol", 0.15))
        passed = abs(report.slope - float(cfg.options["expected_slope"])) <= tol
        results["expected_slope"] = float(cfg.options["expected_slope"])
        results["slope_tol"] = tol
    results["passed"] = passed
    _write_report(out_dir, "convergence", cfg, results)
    report.write_csv(out_dir / "convergence.csv")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


_COMMANDS = {
    "solve": _cmd_solve,
    "compose-check": _cmd_compose_check,
    "evolution-check": _cmd_evolution_check,
    "taylor-check": _cmd_taylor_check,
    "formula-check": _cmd_formula_check,
    "convergence": _cmd_convergence,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formalflow",
        description="Truncated formal-mapping stochastic chain experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default="./out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--paths", type=int, default=None, help="override config n_paths")
        p.add_argument("--steps", type=int, default=None, help="override config n_steps")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config '{args.config}': {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        cfg = ExperimentConfig.from_dict(raw)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.paths is not None:
            cfg.n_paths = args.paths
        if args.steps is not None:
            cfg.n_steps = args.steps
        return _COMMANDS[args.subcommand](cfg, Path(args.out))
    except BlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        print(f"error: invalid config or shapes: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
