"""SHA-256 of the results and CSVs of fixed runs of one or two formalflow checkouts.

Usage (from the repository root):

    python3 scripts/bits_record.py [PARENT_ROOT] CHANGE_ROOT

Each case runs `python -W error -m formalflow.cli SUBCOMMAND --config ...`
on a checkout's `src`, from a fresh directory: every benchmark workload at
config seeds 1 and 2 (`perfbench/workloads.py`), every `scripts/*.json`
through its subcommand, and evolution-check on `scripts/solve_o4d2.json`.
"results" is the SHA-256 of the bytes of `report.json` after
`, "results": ` up to, not including, the final closing brace; each CSV
the run writes is digested whole.  The script prints every digest of
every side.  It exits 1 if a run fails, or if given two checkouts, on any
digest that differs between them; else 0.  The configs are this
checkout's, the same for both sides.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, config_bytes  # noqa: E402

SCRIPTS = {
    "compose_check_o6": "compose-check",
    "convergence_gbm": "convergence",
    "convergence_quadratic": "convergence",
    "formula_check": "formula-check",
    "solve_o4d2": "solve",
    "taylor_check": "taylor-check",
}
RESULTS = b', "results": '


def cases() -> list[tuple[str, str, bytes]]:
    """(name, subcommand, config bytes) of every case."""
    out = [
        (f"{workload}/{seed}", WORKLOADS[workload][0], config_bytes(workload, seed))
        for workload in sorted(WORKLOADS)
        for seed in (1, 2)
    ]
    configs = sorted((ROOT / "scripts").glob("*.json"))
    if unknown := sorted({p.stem for p in configs} - set(SCRIPTS)):
        raise SystemExit(f"no subcommand known for scripts/{unknown[0]}.json")
    out += [(f"scripts/{p.stem}", SCRIPTS[p.stem], p.read_bytes()) for p in configs]
    out.append(("evolution-check on scripts/solve_o4d2", "evolution-check", (ROOT / "scripts/solve_o4d2.json").read_bytes()))
    return out


def digests(root: Path, subcommand: str, config: bytes) -> dict[str, str]:
    """The digests of one run on the checkout at root, by file; "exit" holds
    the exit status and the last line of stderr if the run failed."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "config.json").write_bytes(config)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        argv = [sys.executable, "-W", "error", "-m", "formalflow.cli", subcommand]
        argv += ["--config", "config.json", "--out", "out"]
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            return {"exit": f"{proc.returncode}: {last[0]}"}
        report = (work / "out" / "report.json").read_bytes()
        start = report.index(RESULTS) + len(RESULTS)
        out = {"results": hashlib.sha256(report[start : report.rindex(b"}")]).hexdigest()}
        for csv in sorted((work / "out").glob("*.csv")):
            out[csv.name] = hashlib.sha256(csv.read_bytes()).hexdigest()
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", type=Path, nargs="+", metavar="ROOT", help="[PARENT_ROOT] CHANGE_ROOT")
    args = parser.parse_args()
    if len(args.roots) > 2:
        parser.error("give one or two checkouts")
    roots = [root.resolve() for root in args.roots]
    failed = False
    for name, subcommand, config in cases():
        sides = [digests(root, subcommand, config) for root in roots]
        differs = len(sides) == 2 and sides[0] != sides[1]
        failed |= differs or any("exit" in side for side in sides)
        print(f"{name} ({subcommand}){': DIFFERS' if differs else ''}")
        for root, side in zip(roots, sides):
            for key, value in side.items():
                print(f"  {root.name or root}: {key} {value}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
