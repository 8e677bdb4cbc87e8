"""chainrank benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses the package under
``src/`` and nothing installed. Each run

1. generates the workload's inputs from the seed in fresh set-up processes
   (several with ``--trace 0``; ``setup_s`` and ``setup_peak_rss_mb`` are
   their medians),
2. solves and checks them round after round for S seconds in one fresh
   measured process that generates nothing (see measure.py),
3. checks every solution written with the independent checker (checker.py),
   outside any timed region,
4. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics, or with ``--trace 1`` the per-layer metrics.

Inputs, solutions, span files and the full result go to
``perfbench/_out/<workload>-s<seed>/``. Without the package sources the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
BUDGET_S = 170  # every child process must end within this many seconds of the start

END_TO_END_UNITS = {
    "solve_s": "s",
    "check_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "setup_peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "instance_gen.gen_s": "s",
    "instance_gen.peak_alloc_mb": "MB",
    "hardness.build_reduction_s": "s",
    "cli_io.parse_instance_s": "s",
    "cli_io.write_solution_s": "s",
    "cli_io.parse_solution_s": "s",
    "cli_io.solution_bytes": "bytes",
    "dp_engine.solve_s": "s",
    "dp_engine.families_s": "s",
    "dp_engine.window_states": "count",
    "dp_engine.peak_alloc_mb": "MB",
    "core_model.verify_s": "s",
    "ideal.derive_question_order_s": "s",
    "exact_oracle.solve_s": "s",
    "exact_oracle.orderings": "count",
    "exact_oracle.orderings_per_s": "1/s",
    "trace.overhead_s": "s",
    "trace.solve_coverage_pct": "%",
}


class ChildError(Exception):
    pass


def child(script: str, args: list[str], deadline: float) -> dict:
    """Run a benchmark script in a fresh interpreter that imports chainrank
    from ``src/``; returns the JSON object on its last line of output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{script} did not finish in time") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildError(f"{script} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one chainrank benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (SRC / "chainrank" / "__init__.py").is_file():
        print(f"error: no chainrank sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    work = OUT / f"{workload.name}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_args = ["--workload", workload.name, "--seed", str(args.seed), "--out", str(work)]
    measure_args = ["--workdir", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    repeats = 1 if args.trace else workload.setup_repeats
    try:
        setups = [child("setup_inputs.py", setup_args + ["--trace", str(args.trace)], deadline) for _ in range(repeats)]
        measured = child("measure.py", measure_args, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = checker.check_run(work, measured["costs"])
    for name, fails in report.items():
        for fail in fails:
            print(f"check failed: {name}: {fail}", file=sys.stderr)
    reproducible = len({s["digest"] for s in setups}) == 1
    if not reproducible:
        print("check failed: set-up wrote different files from the same seed", file=sys.stderr)

    if args.trace:
        values = {**setups[0]["layers"], **measured["layers"]}
        units = PER_LAYER_UNITS
    else:
        values = {
            "solve_s": measured["solve_s"],
            "check_s": measured["check_s"],
            "peak_rss_mb": measured["peak_rss_mb"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "setup_peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in setups),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": reproducible and not any(report.values()),
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {"rounds": measured["rounds"], "setups": setups, "measured": measured, "checker": report}
    (work / "result.json").write_text(json.dumps({**result, "detail": detail}, indent=1), encoding="utf-8")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
