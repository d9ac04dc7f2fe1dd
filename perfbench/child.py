"""One benchmark repeat: a fresh interpreter runs one formalflow CLI command.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON names the subcommand, the config file, the output directory, the
result file and, when tracing, the spans file.  The parent
times the interpreter start; this process records when set-up (imports,
config parse, coefficient build) ended, the wall time of `formalflow.cli.main`,
its peak resident memory, and whether the outputs passed their check.
"""

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

# Relative Frobenius tolerance between the solver's final degree-1 component
# and the ordered product of the fundamental-solution factors.  Both are
# products of the same 512 step matrices, so they differ by rounding only.
DEGREE1_RTOL = 1e-10


def reject_non_finite(token: str):
    """JSON hook for NaN and Infinity: every reported number must be finite."""
    raise ValueError(f"non-finite number {token} in the report")


def check_solve(config: dict, report: dict) -> str | None:
    """None if the solve report is correct, else what is wrong with it.

    Every state is finite (the report is parsed with `reject_non_finite`),
    there is one state per knot, and the final degree-1 component is the
    ordered product of the fundamental-solution factors.
    """
    from formalflow.chain import sample_path
    from formalflow.cli import ExperimentConfig
    from formalflow.explicit import fundamental

    states = report["results"]["states"]
    if len(states) != config["n_steps"] + 1:
        return f"{len(states)} states for {config['n_steps']} steps"
    cfg = ExperimentConfig.from_dict(config)
    path = sample_path(cfg.grid(), cfg.noise_dim, cfg.seed, 0)
    product = np.eye(cfg.dy)
    for factor in fundamental(cfg.coefficients(), path).factors:
        product = factor @ product
    final = np.asarray(states[-1]["components"][0]["entries"]).reshape(cfg.dy, cfg.dy)
    err = np.linalg.norm(final - product) / np.linalg.norm(product)
    if not err <= DEGREE1_RTOL:
        return f"degree-1 component differs from the fundamental product by {err:.3e}"
    return None


def check_passed(report: dict) -> str | None:
    """None if the subcommand's own acceptance check passed."""
    return None if report["results"].get("passed") is True else "report says not passed"


def main() -> None:
    spec = json.loads(sys.argv[1])
    import formalflow.cli as cli

    with open(spec["config"]) as fh:
        config = json.load(fh)
    cli.ExperimentConfig.from_dict(config).coefficients()
    setup_end = time.monotonic()

    tracer = None
    if spec["spans"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    argv = [spec["subcommand"], "--config", spec["config"], "--out", spec["out"]]
    t0 = time.perf_counter()
    rc = cli.main(argv)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = Path(spec["out"])
    report_bytes = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
    if tracer is not None:
        tracer.uninstall()
        tracer.save(spec["spans"])

    problem = None
    if rc != 0:
        problem = f"exit code {rc}"
    else:
        try:
            with open(out / "report.json") as fh:
                report = json.load(fh, parse_constant=reject_non_finite)
        except ValueError as exc:
            problem = f"bad report: {exc}"
        else:
            if spec["subcommand"] == "solve":
                problem = check_solve(config, report)
            else:
                problem = check_passed(report)

    with open(spec["result"], "w") as fh:
        json.dump(
            {
                "setup_end": setup_end,
                "run_s": run_s,
                "peak_rss_mb": peak_rss_mb,
                "report_bytes": report_bytes,
                "exit_code": rc,
                "problem": problem,
            },
            fh,
        )


if __name__ == "__main__":
    main()
