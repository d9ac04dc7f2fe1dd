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
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

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
    TimeGrid,
    _integer,
    _path_states,
    _relative_errors,
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

    def config_text(self) -> str:
        """The config as canonical JSON text: sorted keys, no whitespace."""
        return json.dumps(self.to_dict(), **_JSON_OPTIONS)

    def config_hash(self) -> str:
        return hashlib.sha256(self.config_text().encode()).hexdigest()

    def grid(self) -> TimeGrid:
        return TimeGrid(0.0, float(self.t_end), self.n_steps)

    def path(self) -> BrownianPath:
        """The Brownian path (seed, path_index) on the config's grid."""
        index = _integer("path_index", self.options.get("path_index", 0))
        return sample_path(self.grid(), self.noise_dim, self.seed, index)

    def drift_mapping(self) -> FormalMapping:
        comps = self._components("drift", ())
        return FormalMapping(self.order, self.dy, self.dy, comps)

    def diffusion_family(self) -> FormalMapping:
        # DiffusionFamily checks each component's "m" against noise_dim
        comps = self._components("diffusion", (self.noise_dim,))
        return DiffusionFamily(self.order, self.dy, self.noise_dim, comps)

    def _components(self, key: str, tail: tuple[int, ...]) -> tuple:
        """The components listed under key, zero where missing; each degree once at most, <= order."""
        comps = [MultilinearMap.zero(k, self.dy, self.dy, tail) for k in range(1, self.order + 1)]
        listed, given = set(), getattr(self, key)
        if not isinstance(given, list):
            raise ShapeError(f"{key} must be a list of components, got {type(given).__name__}")
        for i, d in enumerate(given, 1):
            c = MultilinearMap.from_dict(d, f"{key} component {i}", noise=bool(tail))
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
        return FormalMapping.from_dict(self.initial, "initial")


def _number(key: str, value) -> float:
    """value as a float, if it is a number; a bool or string in its place is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ShapeError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ShapeError(f"{key} is too large, got {value!r}") from None


def _list(key: str, value, item: Callable, items: str) -> list:
    """value with item(key, x) applied to each x, if it is a list; items names what x must be."""
    if not isinstance(value, list):
        raise ShapeError(f"{key} must be a list of {items}, got {type(value).__name__}")
    return [item(key, x) for x in value]


_JSON_OPTIONS = {"sort_keys": True, "separators": (",", ":")}


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[Path]:
    """A temporary name for path: moved onto path when the block succeeds,
    removed when it raises, so that a failed run leaves no partial file."""
    tmp = path.with_name(path.name + ".partial")
    try:
        yield tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_report(
    out_dir: Path, subcommand: str, cfg: ExperimentConfig, results: dict | Iterable[bytes]
) -> Path:
    """Write out_dir/report.json: the provenance, then results, a dict or
    the pieces of its JSON text in bytes (as `_solve_results` makes them)."""
    if isinstance(results, dict):
        results = [json.dumps(results, **_JSON_OPTIONS).encode()]
    config = cfg.config_text().encode()
    provenance = {
        "subcommand": subcommand,
        "config_hash": hashlib.sha256(config).hexdigest(),
        "seed": cfg.seed,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    report_path = out_dir / "report.json"
    with _replacing(report_path) as tmp, open(tmp, "wb") as fh:
        # the canonical text the hash is of; "config" sorts before the other keys
        head = json.dumps(provenance, sort_keys=True)[1:].encode()
        fh.writelines([b'{"provenance": {"config": ', config, b", ", head])
        del config  # not held while the results are made
        fh.write(b', "results": ')
        fh.writelines(results)
        fh.write(b"}\n")
    return report_path


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Iterable[float]]) -> None:
    """Write a CSV through `_replacing`: the header, then each row's numbers
    as repr(float(v)), which every CSV reader parses as a number."""
    with _replacing(path) as tmp, open(tmp, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _json_floats(*parts: np.ndarray, frame: bytes = b"null") -> bytes:
    """frame, a JSON text in bytes, with its k-th null replaced by the JSON
    list of the float64 array parts[k]: for one array x and the default
    frame, json.dumps(x.ravel().tolist(), **_JSON_OPTIONS).encode().  A NaN
    or Inf in parts[k] raises NonFiniteError(k + 1).

    orjson prints each float as its shortest round-trip digits, as repr
    does, about 10 times faster.  It writes the same text for 0, -0 and
    every 1e-4 <= |v| < 1e16, and only formats the other magnitudes
    differently (0.00007 for 7e-05, 1e16 for 1e+16).  One pass over all
    parts finds those and the non-finite entries; the former are written
    with repr, between runs that orjson writes."""
    import orjson

    def numbers(a: np.ndarray) -> bytes:  # a's JSON list without its brackets
        return orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]

    flat = np.concatenate([x.ravel() for x in parts])
    mag = np.abs(flat)
    # the comparisons agree where 0 < |v| < 1e-4 or v is NaN; Inf is >= 1e16
    off = np.flatnonzero(((mag < 1e-4) == (mag > 0)) | (mag >= 1e16))
    ends = np.cumsum([x.size for x in parts])
    stops, off, values = np.searchsorted(off, ends).tolist(), off.tolist(), flat[off].tolist()
    pieces = frame.split(b"null")
    text, start, j = [pieces[0]], 0, 0
    for k, (end, stop, piece) in enumerate(zip(ends.tolist(), stops, pieces[1:])):
        items = []
        for i, v in zip(off[j:stop], values[j:stop]):
            if not math.isfinite(v):
                raise NonFiniteError(k + 1, "a non-finite float has no JSON number")
            items += [numbers(flat[start:i]), repr(v).encode()]
            start = i + 1
        items.append(numbers(flat[start:end]))
        text += [b"[" + b",".join(filter(None, items)) + b"]", piece]  # an empty run is b""
        start, j = end, stop
    return b"".join(text)


def _state_frame(state: FormalMapping) -> bytes:
    """json.dumps(state.to_dict(), **_JSON_OPTIONS) with null for each
    component's entries, in bytes: `_json_floats` fills it with any such state's."""
    d = state.to_dict()
    comps = [dict(c, entries=None) for c in d["components"]]
    return json.dumps(dict(d, components=comps), **_JSON_OPTIONS).encode()


def _solve_results(knots: np.ndarray, states: Iterable[bytes]) -> Iterator[bytes]:
    """The JSON text of a solve's results block in bytes, in pieces: the
    knots, then the states, one text at a time.  Joined, it is what
    json.dumps(..., **_JSON_OPTIONS) writes for the same dict."""
    yield b'{"knots":' + json.dumps(knots.tolist(), **_JSON_OPTIONS).encode() + b',"states":['
    for i, state in enumerate(states):
        if i:
            yield b","
        yield state
    yield b"]}"


def _cmd_solve(cfg: ExperimentConfig, out_dir: Path) -> int:
    coeffs, initial, path = cfg.coefficients(), cfg.initial_mapping(), cfg.path()
    knots = cfg.grid().knots()
    frame = _state_frame(initial)
    norms = []

    def states() -> Iterator[bytes]:
        for i, state in enumerate(_path_states(coeffs, initial, path), -1):  # after step i; initial -1
            # the trajectory norms, as np.linalg.norm computes them, without its overhead
            norms.append([math.sqrt(v @ v) for v in (e.ravel() for e in state)])
            try:
                text = _json_floats(*state, frame=frame)
            except NonFiniteError as exc:
                raise BlowupError(step=i, component=exc.degree) from exc
            yield text

    _write_report(out_dir, "solve", cfg, _solve_results(knots, states()))
    header = ["knot"] + [f"frobenius_norm_degree_{k}" for k in range(1, cfg.order + 1)]
    _write_csv(out_dir / "trajectory.csv", header, ([t, *row] for t, row in zip(knots, norms)))
    return EXIT_OK


def _cmd_compose_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    if "a" not in cfg.options or "b" not in cfg.options:
        raise ShapeError("compose-check needs 'a' and 'b' formal mappings in the config")
    a = FormalMapping.from_dict(cfg.options["a"], "a")
    b = FormalMapping.from_dict(cfg.options["b"], "b")
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
    coeffs, path = cfg.coefficients(), cfg.path()
    split = cfg.options.get("split_knot")
    if split is None:
        split = path.grid.knot(path.grid.n_steps // 2)
    tol = _number("tolerance", cfg.options.get("tolerance", 1e-10))
    report = evolution_check(coeffs, path, _number("split_knot", split))
    passed = bool(report.max_discrepancy <= tol)
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
    y0 = np.array(_list("y0", cfg.options.get("y0", [0.1] * cfg.dy), _number, "numbers"))
    halvings = _integer("halvings", cfg.options.get("halvings", 5))
    report = truncation_scaling(coeffs, cfg.grid(), y0, halvings)
    expected = report.expected_ratio
    checked = [r for r, ok in zip(report.ratios, report.reliable) if ok]
    # with no reliable ratio, nothing was checked
    passed = bool(checked) and all(0.5 * expected <= r <= 2.0 * expected for r in checked)
    results = asdict(report)
    # a ratio whose smaller gap is 0 has no value: JSON null, not Infinity
    results["ratios"] = [r if g > 0 else None for r, g in zip(report.ratios, report.gaps[1:])]
    results["passed"] = passed
    _write_report(out_dir, "taylor-check", cfg, results)
    _write_csv(out_dir / "scaling.csv", ["y0_norm", "gap"], zip(report.y0_norms, report.gaps))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_formula_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    sol = solve_chain(cfg.coefficients(), identity(cfg.order, cfg.dy), cfg.path())
    degrees = _list("degrees", cfg.options.get("degrees", list(range(2, cfg.order + 1))), _integer, "integers")
    tol = _number("tolerance", cfg.options.get("tolerance", 1e-9))
    voc = variation_of_constants(degrees, sol)
    # the worst knot of each degree; NaN if any error is NaN, so that the check fails
    worst = {str(n): float(np.max(_relative_errors(v, sol.entries[n - 1]))) for n, v in zip(degrees, voc)}
    passed = all(e <= tol for e in worst.values())
    results = {"max_relative_error_by_degree": worst, "tolerance": tol, "passed": passed}
    _write_report(out_dir, "formula-check", cfg, results)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _convergence_reads(raw: dict, steps: int | None) -> None:
    """convergence takes its scalar order-1 coefficients and start from
    'problem' and its grids from 'dt_values'.  A config key or flag that
    would set them otherwise is an error, not a run of another experiment
    than the one its report records."""
    for key in ("dy", "order"):
        if raw.get(key, 1) != 1:
            raise ShapeError(f"convergence problems are scalar and of order 1, got {key} = {raw[key]!r}")
    for key in ("drift", "diffusion"):
        if raw.get(key, []) != []:
            raise ShapeError(f"convergence takes its coefficients from 'problem', got a non-empty '{key}'")
    for key in ("initial", "n_steps"):
        if key in raw:
            raise ShapeError(f"convergence does not read '{key}': 'problem' and 'dt_values' set its runs")
    if steps is not None:
        raise ShapeError("convergence does not read --steps: 'dt_values' sets its grids")


def _cmd_convergence(cfg: ExperimentConfig, out_dir: Path) -> int:
    problem = cfg.options.get("problem")
    if not isinstance(problem, dict) or "kind" not in problem:
        raise ShapeError("convergence needs a 'problem' object with a 'kind' field")
    dt_values = _list("dt_values", cfg.options.get("dt_values"), _number, "numbers")
    kind = problem["kind"]
    if not isinstance(kind, str) or kind not in _PROBLEM_KEYS:
        raise ShapeError(f"problem kind must be one of {', '.join(map(repr, _PROBLEM_KEYS))}, got {kind!r}")
    _reject_unknown(problem, _PROBLEM_KEYS[kind], f"problem kind '{kind}'")
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

        def simulate(paths: BrownianPath) -> np.ndarray:
            entries, finite = solve_chain_batch(coeffs, identity(1, 1), paths)
            return np.where(finite[:, None], entries[0].reshape(paths.n_paths, 1), np.nan)

        def exact(paths: BrownianPath) -> np.ndarray:
            w_t = paths.cumulative()[:, -1, 0]
            return np.array([[gbm_closed_form(alpha, beta, cfg.t_end, float(w))] for w in w_t])

    else:
        alpha = number("alpha", 1.0)
        gamma = number("gamma", 0.5)
        y0 = number("y0", 0.1)
        coeffs = CoefficientFamily.constant_scalar([alpha, gamma])

        def simulate(paths: BrownianPath) -> np.ndarray:
            return simulate_direct(coeffs, np.full((paths.n_paths, 1), y0), paths)[-1]

        def exact(paths: BrownianPath) -> np.ndarray:
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
    results = asdict(report)
    if 0.0 in report.errors:  # exact agreement at some level: no log-log fit, JSON null, not NaN
        results["slope"] = results["intercept"] = None
    passed = True
    if check:
        passed = abs(report.slope - expected) <= tol
        results["expected_slope"] = expected
        results["slope_tol"] = tol
    results["passed"] = passed
    _write_report(out_dir, "convergence", cfg, results)
    _write_csv(
        out_dir / "convergence.csv",
        ["dt", "error", "error_sem"],
        zip(report.dt_values, report.errors, report.error_sems),
    )
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# subcommand -> (runner, the config keys it reads besides ExperimentConfig's
# fields, the CSV it writes beside report.json or None)
_COMMANDS = {
    "solve": (_cmd_solve, {"path_index"}, "trajectory.csv"),
    "compose-check": (_cmd_compose_check, {"a", "b", "tolerance"}, None),
    "evolution-check": (_cmd_evolution_check, {"split_knot", "path_index", "tolerance"}, None),
    "taylor-check": (_cmd_taylor_check, {"y0", "halvings"}, "scaling.csv"),
    "formula-check": (_cmd_formula_check, {"path_index", "degrees", "tolerance"}, None),
    "convergence": (
        _cmd_convergence, {"problem", "dt_values", "expected_slope", "slope_tol"}, "convergence.csv"
    ),
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
    out = Path(args.out)
    # the levels of out this run makes, deepest first
    made = [level for level in (out, *out.parents) if not level.exists()]
    rc = None
    try:
        rc = _main(args, out)
        return rc
    finally:
        if rc != EXIT_OK:
            for level in made:  # rmdir removes only empty directories
                with contextlib.suppress(OSError):
                    level.rmdir()


def _main(args: argparse.Namespace, out: Path) -> int:
    run, options, csv = _COMMANDS[args.subcommand]
    try:
        # an earlier run's outputs must not read as this run's, whatever it does
        for name in filter(None, ("report.json", csv)):
            (out / name).unlink(missing_ok=True)
    except OSError as exc:
        return _cannot_write(out, exc)
    try:
        with open(args.config) as fh:
            raw = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config '{args.config}': {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        cfg = ExperimentConfig.from_dict(raw)
        _reject_unknown(cfg.options, options, args.subcommand)
        if args.subcommand == "convergence":
            _convergence_reads(raw, args.steps)
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
        # made before the run, so that an out that cannot be made fails first
        out.mkdir(parents=True, exist_ok=True)
        # config numbers are finite, so a non-finite value is numerical overflow
        with np.errstate(over="ignore", invalid="ignore"):
            return run(cfg, out)
    except BlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (NonFiniteError, OverflowError) as exc:
        print(f"error: numerical blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        print(f"error: invalid config or shapes: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # sizes too large for this machine, such as n_steps
        print(f"error: not enough memory for a run of this size: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        if exc.filename is None:  # not a file operation, so not a failed write
            raise
        return _cannot_write(out, exc)


def _cannot_write(out: Path, exc: OSError) -> int:
    print(f"error: cannot write to '{out}': {exc}", file=sys.stderr)
    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
