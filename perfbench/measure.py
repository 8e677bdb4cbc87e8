"""Measured process: solve and check one workload's inputs, round after round.

    python3 perfbench/measure.py --workdir DIR --seconds S [--trace 1]

A round runs, for each item of the workload in order, ``chainrank solve`` and
then ``chainrank check`` on the solution just written, both in-process
through ``chainrank.cli_io.main``. Rounds repeat while one more would end
within S seconds; only whole rounds run, and always at least one. An
operation fails when it exits non-zero, raises, or when a solve prints
another cost or writes another solution file than in the first round.

Timings are per operation: for each item the median over the rounds, then
the mean over the workload's items. With ``--trace 1`` each round also runs
the same solve and check through the public functions of each layer, with a
span around every call, and the untraced commands beside them to measure the
tracing overhead.

Every timed operation starts after a full garbage collection, so no
operation pays for the garbage of the one before it, as with a fresh
``chainrank`` process. Prints one JSON line with the counts, the timings
and the peak RSS of this process, which generates nothing. The traced run
writes its spans to DIR/spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path

from chainrank import cli_io, dp_engine, exact_oracle, ideal
from chainrank.core_model import Mode, ProblemSpec, Variant, apply_edits, verify_solution

from spans import Spans, duration


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stdout, wall seconds) of one in-process chainrank command.
    An exception escaping ``main`` counts as exit code -1."""
    out = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli_io.main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        rc = -1
    return rc, out.getvalue(), time.perf_counter() - start


def solve_argv(entry: dict, instance: str, solution: str) -> list[str]:
    argv = ["solve", *_problem_args(entry), "--input", instance, "--output", solution]
    if entry["variant"] == "unconstrained" and entry["mode"] == "editing":
        argv.append("--exponential-ok")
    return argv


def check_argv(entry: dict, instance: str, solution: str) -> list[str]:
    return ["check", *_problem_args(entry), "--input", instance, "--solution", solution]


def _problem_args(entry: dict) -> list[str]:
    return ["--variant", entry["variant"], "--mode", entry["mode"], "--k", str(entry["k"])]


def another_round_fits(start: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean round so far, would end
    within ``seconds`` of ``start``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def per_op(samples: dict[str, list[float]], names: list[str]) -> float:
    """Mean over the items of each item's median sample (0 for an item
    without samples)."""
    return sum(statistics.median(samples[n]) if samples.get(n) else 0.0 for n in names) / len(names)


def solver_for(entry: dict):
    """(span name, solve function) that ``chainrank solve`` dispatches to."""
    k, mode = entry["k"], Mode(entry["mode"])
    if entry["variant"] == "constrained":
        return "dp_engine.solve", lambda inst: dp_engine.solve_constrained_knear(inst, k, mode)
    if entry["variant"] == "both":
        return "dp_engine.solve", lambda inst: dp_engine.solve_both_knear(inst, k, mode)
    if mode == Mode.ADDITION:
        return "dp_engine.solve", lambda inst: dp_engine.solve_unconstrained_knear_addition(inst, k)
    return "exact_oracle.solve", lambda inst: exact_oracle.solve_unconstrained_knear_editing_exact(inst, k)


def window_states(k: int, n: int) -> int:
    """Window sets over every (position, occupant) pair a DP visits, through
    the public ``enumerate_window_sets``."""
    k = min(k, n)
    return sum(
        len(dp_engine.enumerate_window_sets(i, u, k, n))
        for i in range(1, n + 1)
        for u in range(max(1, i - k), min(n, i + k) + 1)
    )


class Rounds:
    """Runs the untraced solve and check of every item and tracks failures."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.costs: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.times: dict[str, dict[str, list[float]]] = {"solve": defaultdict(list), "check": defaultdict(list)}

    def paths(self, entry: dict) -> tuple[str, str]:
        return str(self.workdir / entry["instance"]), str(self.workdir / entry["solution"])

    def same_output(self, entry: dict, cost: str) -> bool:
        """True if the solution file and printed cost match the first round's."""
        digest = hashlib.sha256(Path(self.paths(entry)[1]).read_bytes()).hexdigest()
        first_cost = self.costs.setdefault(entry["name"], cost)
        first_digest = self.digests.setdefault(entry["name"], digest)
        return cost == first_cost and digest == first_digest

    def solve(self, entry: dict) -> None:
        self.attempted += 1
        rc, out, seconds = run_cli(solve_argv(entry, *self.paths(entry)))
        if rc != 0 or not self.same_output(entry, out.strip()):
            self.failed += 1
            return
        self.times["solve"][entry["name"]].append(seconds)

    def check(self, entry: dict) -> None:
        self.attempted += 1
        rc, _out, seconds = run_cli(check_argv(entry, *self.paths(entry)))
        if rc != 0:
            self.failed += 1
            return
        self.times["check"][entry["name"]].append(seconds)


class TracedRounds:
    """The traced operations of one round: solve, check and the layer calls
    the solver makes internally, each call inside a span."""

    def __init__(self, rounds: Rounds) -> None:
        self.rounds = rounds
        self.spans = Spans()
        self.solutions: dict[str, object] = {}

    def solve(self, entry: dict, op: str) -> None:
        r = self.rounds
        r.attempted += 1
        instance, solution = r.paths(entry)
        name, solve = solver_for(entry)
        spec = ProblemSpec(Variant(entry["variant"]), Mode(entry["mode"]), entry["k"])
        sp = self.spans
        gc.collect()
        try:
            with sp.span("solve", op):
                with sp.span("cli_io.parse_instance", op):
                    inst = cli_io.read_instance(instance)
                with sp.span(name, op):
                    sol = solve(inst)
                with sp.span("core_model.verify", op):
                    report = verify_solution(inst, spec, sol)
                if not report.ok:
                    raise AssertionError(f"solver output failed checks: {report.failed()}")
                with sp.span("cli_io.write_solution", op):
                    cli_io.write_solution(sol, True, solution)
        except Exception:
            traceback.print_exc()
            r.failed += 1
            return
        if not r.same_output(entry, f"cost: {sol.cost}"):
            r.failed += 1
        self.solutions[entry["name"]] = (inst, sol)

    def check(self, entry: dict, op: str) -> None:
        r = self.rounds
        r.attempted += 1
        instance, solution = r.paths(entry)
        spec = ProblemSpec(Variant(entry["variant"]), Mode(entry["mode"]), entry["k"])
        sp = self.spans
        gc.collect()
        try:
            with sp.span("check", op):
                with sp.span("cli_io.parse_instance", op):
                    inst = cli_io.read_instance(instance)
                with sp.span("cli_io.parse_solution", op):
                    sol, _verified = cli_io.read_solution(solution)
                with sp.span("core_model.verify", op):
                    report = verify_solution(inst, spec, sol)
        except Exception:
            traceback.print_exc()
            r.failed += 1
            return
        if not report.ok:
            r.failed += 1

    def layers(self, entry: dict, op: str) -> None:
        """Layer calls made inside the solver, repeated from here so that
        each gets its own span: the window families of the DPs, and the
        question-order derivation of unconstrained addition."""
        if entry["name"] not in self.solutions or solver_for(entry)[0] != "dp_engine.solve":
            return
        inst, sol = self.solutions[entry["name"]]
        gc.collect()
        with self.spans.span("dp_engine.families", op) as record:
            states = window_states(entry["k"], inst.num_students)
            if entry["variant"] == "both":
                states += window_states(entry["k"], inst.num_questions)
        record["window_states"] = states
        if entry["variant"] == "unconstrained":
            edited = apply_edits(inst, sol.edits)
            gc.collect()
            with self.spans.span("ideal.derive_question_order", op):
                ideal.derive_question_order(edited, sol.student_order)


def measure(entries: list[dict], workdir: Path, seconds: float) -> dict:
    rounds = Rounds(workdir)
    start = time.perf_counter()
    count = 0
    while True:
        for entry in entries:
            rounds.solve(entry)
            rounds.check(entry)
        count += 1
        if not another_round_fits(start, count, seconds):
            break
    names = [e["name"] for e in entries]
    return {
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "rounds": count,
        "costs": rounds.costs,
        "solve_s": per_op(rounds.times["solve"], names),
        "check_s": per_op(rounds.times["check"], names),
        "samples": rounds.times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(entries: list[dict], workdir: Path, seconds: float) -> dict:
    rounds = Rounds(workdir)
    traced = TracedRounds(rounds)
    start = time.perf_counter()
    count = 0
    while True:
        for entry in entries:
            op = f"r{count}.{entry['name']}"
            # Alternate which side runs first, so drifts in machine speed
            # weigh on traced and untraced operations alike.
            if count % 2:
                rounds.solve(entry)
                rounds.check(entry)
            traced.solve(entry, f"{op}.solve")
            traced.check(entry, f"{op}.check")
            if not count % 2:
                rounds.solve(entry)
                rounds.check(entry)
            traced.layers(entry, f"{op}.layers")
        count += 1
        if not another_round_fits(start, count, seconds):
            break

    peak_alloc = 0
    for entry in entries:
        name, solve = solver_for(entry)
        if name != "dp_engine.solve":
            continue
        inst = cli_io.read_instance(rounds.paths(entry)[0])
        tracemalloc.start()
        solve(inst)
        peak_alloc = max(peak_alloc, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    names = [e["name"] for e in entries]
    samples: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    states: dict[str, int] = {}
    by_id = {r["id"]: r for r in traced.spans.records}
    inside: dict[int, float] = defaultdict(float)  # span id -> time in its child spans
    for record in traced.spans.records:
        item = record["op"].split(".")[1]
        parent = by_id.get(record["parent"]) if record["parent"] else None
        key = f"{parent['name']}/{record['name']}" if parent else record["name"]
        samples[key][item].append(duration(record))
        if parent:
            inside[parent["id"]] += duration(record)
        if "window_states" in record:
            states[item] = record["window_states"]
    for record in traced.spans.records:
        if record["name"] == "solve":
            item = record["op"].split(".")[1]
            samples["solve coverage"][item].append(inside[record["id"]] / duration(record))

    def stat(key: str) -> float:
        return per_op(samples[key], names)

    exact_s = stat("solve/exact_oracle.solve")
    orderings = sum(
        exact_oracle.count_knear_permutations(entry["students"], min(entry["k"], entry["students"]))
        for entry in entries
        if solver_for(entry)[0] == "exact_oracle.solve"
    ) / len(names)
    layers = {
        "cli_io.parse_instance_s": stat("solve/cli_io.parse_instance"),
        "cli_io.write_solution_s": stat("solve/cli_io.write_solution"),
        "cli_io.parse_solution_s": stat("check/cli_io.parse_solution"),
        "cli_io.solution_bytes": sum((workdir / e["solution"]).stat().st_size for e in entries) / len(names),
        "dp_engine.solve_s": stat("solve/dp_engine.solve"),
        "dp_engine.families_s": stat("dp_engine.families"),
        "dp_engine.window_states": sum(states.values()) / len(names),
        "dp_engine.peak_alloc_mb": peak_alloc / 2**20,
        "core_model.verify_s": stat("solve/core_model.verify"),
        "ideal.derive_question_order_s": stat("ideal.derive_question_order"),
        "exact_oracle.solve_s": exact_s,
        "exact_oracle.orderings": orderings,
        "exact_oracle.orderings_per_s": orderings / exact_s if exact_s else 0.0,
        "trace.overhead_s": stat("solve") - per_op(rounds.times["solve"], names),
        "trace.solve_coverage_pct": 100.0 * stat("solve coverage"),
    }
    traced.spans.write(workdir / "spans.jsonl")
    return {
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "rounds": count,
        "costs": rounds.costs,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    entries = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    if args.trace:
        result = measure_traced(entries, workdir, args.seconds)
    else:
        result = measure(entries, workdir, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
