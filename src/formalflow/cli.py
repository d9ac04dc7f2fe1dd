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
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import GeneratorType
from typing import Any

import numpy as np

from . import __version__
from .algebra import (
    FormalMapping,
    MultilinearMap,
    NonFiniteError,
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
    PathBatch,
    TimeGrid,
    evolution_check,
    sample_path,
    simulate_direct,
    solve_chain,
    solve_chain_batch,
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

    def __post_init__(self):
        for f in fields(self):
            if f.type in (int, "int"):
                _integer(f.name, getattr(self, f.name))
            elif f.type in (float, "float"):
                _number(f.name, getattr(self, f.name))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ShapeError("config must be a JSON object")
        known = {f.name for f in fields(cls)} - {"options"}
        options = {k: v for k, v in d.items() if k not in known}
        return cls(**{k: v for k, v in d.items() if k in known}, options=options)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "options"}
        if self.initial is None:
            del out["initial"]
        out.update(self.options)
        return out

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def grid(self) -> TimeGrid:
        return TimeGrid(0.0, float(self.t_end), self.n_steps)

    def path(self) -> BrownianPath:
        """The Brownian path (seed, path_index) on the config's grid."""
        index = _integer("path_index", self.options.get("path_index", 0))
        return sample_path(self.grid(), self.noise_dim, self.seed, index)

    def drift_mapping(self) -> FormalMapping:
        comps = self._components("drift", MultilinearMap)
        return FormalMapping(self.order, self.dy, self.dy, comps)

    def diffusion_family(self) -> DiffusionFamily:
        comps = self._components("diffusion", DiffusionMap, self.noise_dim)
        return DiffusionFamily(self.order, self.dy, self.noise_dim, comps)

    def _components(self, key: str, kind: type, *tail: int) -> tuple:
        """The components listed under key, zero where missing; each degree once at most, <= order."""
        comps = [kind.zero(k, self.dy, self.dy, *tail) for k in range(1, self.order + 1)]
        listed = set()
        for c in map(kind.from_dict, getattr(self, key)):
            if c.degree > self.order:
                raise ShapeError(f"{key} component of degree {c.degree} exceeds order {self.order}")
            if c.degree in listed:
                raise ShapeError(f"duplicate {key} component of degree {c.degree}")
            listed.add(c.degree)
            comps[c.degree - 1] = c
        return tuple(comps)

    def coefficients(self) -> CoefficientFamily:
        return CoefficientFamily.constant(self.drift_mapping(), self.diffusion_family())

    def initial_mapping(self) -> FormalMapping:
        if self.initial is None:
            return identity(self.order, self.dy)
        return FormalMapping.from_dict(self.initial)


def _integer(key: str, value) -> int:
    """value, if it is an integer; a float or bool in its place is an error, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ShapeError(f"{key} must be an integer, got {value!r}")
    return value


def _number(key: str, value) -> float:
    """value as a float, if it is a number; a bool or string in its place is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ShapeError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ShapeError(f"{key} is too large, got {value!r}") from None


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


_JSON_OPTIONS = {"sort_keys": True, "separators": (",", ":"), "default": _json_default}


def _write_json(fh, obj) -> None:
    """Write obj as json.dumps(obj, **_JSON_OPTIONS) would, without building
    the whole string.

    A dict is written key by key in sorted order (its keys must be strings,
    as in every results block), and a generator item by item, as the list of
    its items; so only one item of a generator exists at a time.  Anything
    else is one json.dumps call.
    """
    if isinstance(obj, dict):
        fh.write("{")
        for i, key in enumerate(sorted(obj)):
            fh.write("," if i else "")
            fh.write(json.dumps(key) + ":")
            _write_json(fh, obj[key])
        fh.write("}")
    elif isinstance(obj, GeneratorType):
        fh.write("[")
        for i, item in enumerate(obj):
            fh.write("," if i else "")
            _write_json(fh, item)
        fh.write("]")
    else:
        fh.write(json.dumps(obj, **_JSON_OPTIONS))


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
    with open(report_path, "w") as fh:
        fh.write('{"provenance": ')
        fh.write(json.dumps(provenance, sort_keys=True))
        fh.write(', "results": ')
        _write_json(fh, results)
        fh.write("}\n")
    return report_path


def _frobenius_norms(mapping: FormalMapping) -> list[float]:
    return [float(np.linalg.norm(c.entries)) for c in mapping.components]


def _cmd_solve(cfg: ExperimentConfig, out_dir: Path) -> int:
    coeffs = cfg.coefficients()
    path = cfg.path()
    sol = solve_chain(coeffs, cfg.initial_mapping(), path)
    knots = cfg.grid().knots()
    results = {
        "knots": knots.tolist(),
        # streamed: one state's float lists at a time
        "states": (s.to_dict() for s in sol.states),
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
    tol = _number("tolerance", cfg.options.get("tolerance", 1e-12))
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
    tol = _number("tolerance", cfg.options.get("tolerance", 1e-10))
    report = evolution_check(coeffs, grid, cfg.path(), _number("split_knot", split))
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
    y0 = cfg.options.get("y0", [0.1] * cfg.dy)
    if not isinstance(y0, list):
        raise ShapeError(f"y0 must be a list of {cfg.dy} numbers, got {y0!r}")
    y0 = np.array([_number("y0", v) for v in y0])
    halvings = _integer("halvings", cfg.options.get("halvings", 5))
    report = truncation_scaling(coeffs, cfg.grid(), y0, halvings)
    expected = report.expected_ratio
    checked = [r for r, ok in zip(report.ratios, report.reliable) if ok]
    # with no reliable ratio, nothing was checked
    passed = bool(checked) and all(0.5 * expected <= r <= 2.0 * expected for r in checked)
    results = report.to_dict()
    results["passed"] = passed
    _write_report(out_dir, "taylor-check", cfg, results)
    report.write_csv(out_dir / "scaling.csv")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_formula_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    coeffs = cfg.coefficients()
    grid = cfg.grid()
    path = cfg.path()
    sol = solve_chain(coeffs, identity(cfg.order, cfg.dy), path)
    degrees = [_integer("degrees", n) for n in cfg.options.get("degrees", range(2, cfg.order + 1))]
    if not degrees:
        raise ShapeError("formula-check needs at least one degree in 'degrees'")
    tol = _number("tolerance", cfg.options.get("tolerance", 1e-9))
    per_degree = {}
    passed = True
    for n in degrees:
        voc = variation_of_constants(n, coeffs, sol.states, path)
        worst = 0.0
        for i, s in enumerate(sol.states):
            diff = np.linalg.norm(voc[i].entries - s.component(n).entries)
            ref = np.linalg.norm(s.component(n).entries)
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
    if kind not in _PROBLEM_KEYS:
        raise ShapeError(f"unknown convergence problem kind '{kind}'")
    _reject_unknown(problem, _PROBLEM_KEYS[kind], f"problem kind '{kind}'")
    dt_values = [_number("dt_values", x) for x in dt_values]
    check = "expected_slope" in cfg.options
    if check:
        expected = _number("expected_slope", cfg.options["expected_slope"])
        tol = _number("slope_tol", cfg.options.get("slope_tol", 0.15))

    def number(key: str, default: float) -> float:
        return _number(f"problem {key}", problem.get(key, default))

    if kind == "gbm":
        alpha = number("alpha", 1.0)
        beta = number("beta", 0.5)
        coeffs = CoefficientFamily.constant_scalar([alpha], [beta])

        def simulate(paths: PathBatch) -> np.ndarray:
            entries, finite = solve_chain_batch(coeffs, identity(1, 1), paths)
            return np.where(finite[:, None], entries[0].reshape(paths.n_paths, 1), np.nan)

        def exact(paths: PathBatch) -> np.ndarray:
            w_t = paths.cumulative()[:, -1, 0]
            return np.array([[gbm_closed_form(alpha, beta, cfg.t_end, float(w))] for w in w_t])

    else:
        alpha = number("alpha", 1.0)
        gamma = number("gamma", 0.5)
        y0 = number("y0", 0.1)
        coeffs = CoefficientFamily.constant_scalar([alpha, gamma])

        def simulate(paths: PathBatch) -> np.ndarray:
            return simulate_direct(coeffs, np.full((paths.n_paths, 1), y0), paths)[-1]

        def exact(paths: PathBatch) -> np.ndarray:
            return np.full((paths.n_paths, 1), bernoulli_closed_form(alpha, gamma, cfg.t_end, y0))

    report = estimate_order(
        simulate,
        exact,
        t_end=float(cfg.t_end),
        noise_dim=cfg.noise_dim,
        dt_values=dt_values,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
    )
    results = report.to_dict()
    passed = True
    if check:
        passed = abs(report.slope - expected) <= tol
        results["expected_slope"] = expected
        results["slope_tol"] = tol
    results["passed"] = passed
    _write_report(out_dir, "convergence", cfg, results)
    report.write_csv(out_dir / "convergence.csv")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# subcommand -> (runner, the config keys it reads besides ExperimentConfig's fields)
_COMMANDS = {
    "solve": (_cmd_solve, {"path_index"}),
    "compose-check": (_cmd_compose_check, {"a", "b", "tolerance"}),
    "evolution-check": (_cmd_evolution_check, {"split_knot", "path_index", "tolerance"}),
    "taylor-check": (_cmd_taylor_check, {"y0", "halvings"}),
    "formula-check": (_cmd_formula_check, {"path_index", "degrees", "tolerance"}),
    "convergence": (_cmd_convergence, {"problem", "dt_values", "expected_slope", "slope_tol"}),
}

# convergence problem kind -> the keys its 'problem' object may hold
_PROBLEM_KEYS = {
    "gbm": {"kind", "alpha", "beta"},
    "quadratic": {"kind", "alpha", "gamma", "y0"},
}


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ShapeError(f"unknown key(s) for {where}: {', '.join(unknown)}")


def _finite_float(text: str) -> float:
    """JSON number and NaN/Infinity hook: config numbers must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


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
        p.add_argument("--paths", type=int, default=None, help="override config n_paths (convergence only)")
        p.add_argument("--steps", type=int, default=None, help="override config n_steps")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config '{args.config}': {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    run, options = _COMMANDS[args.subcommand]
    try:
        cfg = ExperimentConfig.from_dict(raw)
        _reject_unknown(cfg.options, options, args.subcommand)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.paths is not None:
            cfg.n_paths = args.paths
        if args.steps is not None:
            cfg.n_steps = args.steps
        if cfg.n_paths != 1 and args.subcommand != "convergence":
            raise ShapeError(
                f"{args.subcommand} integrates one path, got n_paths = {cfg.n_paths}; "
                "only convergence runs several"
            )
        # config numbers are finite, so a non-finite value is numerical overflow
        with np.errstate(over="ignore", invalid="ignore"):
            return run(cfg, Path(args.out))
    except BlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (NonFiniteError, OverflowError) as exc:
        print(f"error: numerical blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        print(f"error: invalid config or shapes: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
