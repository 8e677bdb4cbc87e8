"""Set-up process: generate and write one workload's input files.

    python3 perfbench/setup_inputs.py --workload NAME --seed N --out DIR [--trace 1]

run.py starts this in a fresh process, before and apart from the measured
process, so generator memory never shows in the measured peak RSS. It writes
the instance files and ``manifest.json`` into DIR and prints one JSON line:
``setup_s`` (time spent generating and writing the inputs), ``peak_rss_mb``
of this process and a digest of the files written. With ``--trace 1`` it
also records spans around the generator calls and reports the per-layer
generator figures, writing the spans to DIR/setup_spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import resource
import sys
import time
import tracemalloc
from pathlib import Path

from chainrank import cli_io, hardness, instance_gen
from chainrank.core_model import with_base_orders

import workloads
from spans import Spans, duration
from workloads import RandomItem


class _NoSpans:
    def span(self, name: str, op: str):
        return contextlib.nullcontext()


def generate(item: RandomItem, seed: int, spans, op: str):
    """The planted ideal instance, the noisy instance with base orders, and
    the hidden true orders."""
    cfg = instance_gen.GenConfig(
        num_students=item.n,
        num_questions=item.n,
        seed=seed,
        flip_count=item.flips,
        k_perturb=item.k,
    )
    with spans.span("instance_gen.gen_ideal", op):
        planted, true_s, true_q = instance_gen.gen_ideal(cfg, item.prefix_lengths)
    with spans.span("instance_gen.perturb_edges", op):
        noisy = instance_gen.perturb_edges(planted, cfg)
    with spans.span("instance_gen.perturb_order", op):
        base_s = instance_gen.perturb_order(true_s, item.k, seed)
        base_q = instance_gen.perturb_order(true_q, item.question_shift, seed + 1)
    with spans.span("core_model.with_base_orders", op):
        inst = with_base_orders(noisy, student_order=base_s, question_order=base_q)
    return planted, inst, true_s, true_q


def cnf_text(item, seed: int) -> str:
    """DIMACS text of the item's CNF (see ReductionItem)."""
    rng = random.Random(f"{seed}:{item.name}")
    patterns = list(itertools.product((1, -1), repeat=item.variables))
    rng.shuffle(patterns)
    patterns = patterns[: item.clauses]
    lines = [f"p cnf {item.variables} {len(patterns)}"]
    for signs in patterns:
        lines.append(" ".join(str(sign * var) for var, sign in enumerate(signs, start=1)) + " 0")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spans = Spans() if args.trace else _NoSpans()
    manifest = []
    written: list[Path] = []
    setup_s = 0.0

    for index, item in enumerate(workload.items):
        seed = workloads.item_seed(args.seed, index)
        instance = out / f"{item.name}.txt"
        entry = {
            "name": item.name,
            "variant": item.variant,
            "mode": item.mode,
            "k": item.k,
            "students": item.students,
            "instance": instance.name,
            "solution": f"{item.name}.sol",
        }
        op = f"setup.{item.name}"
        if isinstance(item, RandomItem):
            start = time.perf_counter()
            planted, inst, true_s, true_q = generate(item, seed, spans, op)
            with spans.span("cli_io.write_instance", op):
                cli_io.write_instance(inst, instance)
            setup_s += time.perf_counter() - start
            flips = len(set(planted.edges()) ^ set(inst.edges()))
            entry["truth"] = {
                "kind": "random",
                "flips": flips,
                "true_students": list(true_s),
                "true_questions": list(true_q),
            }
        else:
            cnf = out / f"{item.name}.cnf"
            text = cnf_text(item, seed)
            start = time.perf_counter()
            cnf.write_text(text, encoding="utf-8")
            with spans.span("cli_io.main.reduce", op), contextlib.redirect_stdout(io.StringIO()):
                rc = cli_io.main(["reduce", "--cnf", str(cnf), "--output", str(instance)])
            setup_s += time.perf_counter() - start
            if rc != 0:
                print(f"error: chainrank reduce exited {rc} on {cnf}", file=sys.stderr)
                return 1
            written.append(cnf)
            entry["truth"] = {"kind": "reduction", "cnf": cnf.name}
            if args.trace:
                # The reduction again, through the public functions, so the
                # construction gets a span of its own.
                phi = hardness.parse_cnf(text)
                with spans.span("hardness.build_reduction", f"layer.{item.name}"):
                    hardness.build_reduction(phi)
        written.append(instance)
        manifest.append(entry)

    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    digest = hashlib.sha256()
    for path in written:
        digest.update(path.read_bytes())
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest.hexdigest(),
    }

    if args.trace:
        peak_alloc = 0
        for index, item in enumerate(workload.items):
            if not isinstance(item, RandomItem):
                continue
            tracemalloc.start()
            generate(item, workloads.item_seed(args.seed, index), _NoSpans(), "")
            peak_alloc = max(peak_alloc, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        records = spans.records
        result["layers"] = {
            "instance_gen.gen_s": sum(
                (duration(r) for r in records if r["name"].startswith("instance_gen.")), 0.0
            ),
            "instance_gen.peak_alloc_mb": peak_alloc / 2**20,
            "hardness.build_reduction_s": sum(
                (duration(r) for r in records if r["name"] == "hardness.build_reduction"), 0.0
            ),
        }
        spans.write(out / "setup_spans.jsonl")

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
