"""Plain-text file formats and the chainrank command line.

Instance files: a header line ``chainrank v1 <students> <questions>``, one
0/1 row per student (column q is question q), then optional ``students:`` and
``questions:`` base-order lines listing the entity at each position, weakest
or easiest first. ``#`` starts a comment line anywhere.

Exit codes: 0 success, 1 usage or bad input, 2 infeasible or violated check,
3 internal assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path
from typing import Sequence

from .core_model import (
    ChainRankError,
    EditSet,
    Instance,
    Mode,
    ParseError,
    ProblemSpec,
    Side,
    Solution,
    Variant,
    validate_instance,
    verify_solution,
    with_base_orders,
)
from .dp_engine import (
    CorruptTableError,
    solve_both_knear,
    solve_constrained_knear,
    solve_unconstrained_knear_addition,
)
from .exact_oracle import DEFAULT_CAP, oracle_solve, solve_unconstrained_knear_editing_exact
from .hardness import build_reduction, parse_cnf
from .ideal import NotIdeal, recognize_ideal, solve_fixed_side
from .instance_gen import GenConfig, gen_ideal, perturb_edges, perturb_order

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_INTERNAL = 3

_HEADER = "chainrank v1"
_SOLUTION_HEADER = "chainrank-solution v1"


# ---------------------------------------------------------------------------
# Instance files


def format_instance(inst: Instance) -> str:
    lines = [f"{_HEADER} {inst.num_students} {inst.num_questions}"]
    for row in inst.adjacency:
        cells = set(row)
        lines.append("".join("1" if q in cells else "0" for q in range(1, inst.num_questions + 1)))
    if inst.base_student_order is not None:
        lines.append("students: " + " ".join(map(str, inst.base_student_order)))
    if inst.base_question_order is not None:
        lines.append("questions: " + " ".join(map(str, inst.base_question_order)))
    return "\n".join(lines) + "\n"


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((lineno, line))
    return out


def parse_instance(text: str) -> Instance:
    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty instance file", line=1)
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "chainrank" or parts[1] != "v1":
        raise ParseError("expected header 'chainrank v1 <students> <questions>'", line=lineno)
    try:
        n, m = int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError("non-integer sizes in header", line=lineno) from None
    if len(lines) < 1 + n:
        raise ParseError(f"expected {n} adjacency rows", line=lineno)
    rows = []
    for s in range(1, n + 1):
        lineno, line = lines[s]
        if len(line) != m or set(line) - {"0", "1"}:
            raise ParseError(f"row for student {s} must be {m} characters of 0/1", line=lineno)
        rows.append(tuple(q for q in range(1, m + 1) if line[q - 1] == "1"))
    student_order = None
    question_order = None
    for lineno, line in lines[1 + n :]:
        key, _, rest = line.partition(":")
        key = key.strip()
        if key == "students" and student_order is None:
            student_order = _parse_ints(rest, lineno)
        elif key == "questions" and question_order is None:
            question_order = _parse_ints(rest, lineno)
        else:
            raise ParseError(f"unexpected line {line!r}", line=lineno)
    return validate_instance(
        Instance(
            num_students=n,
            num_questions=m,
            adjacency=tuple(rows),
            base_student_order=student_order,
            base_question_order=question_order,
        )
    )


def _parse_ints(text: str, lineno: int) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ParseError(f"expected integers, got {text!r}", line=lineno) from None


def read_instance(path: str | Path) -> Instance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def write_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(format_instance(inst), encoding="utf-8")


# ---------------------------------------------------------------------------
# Solution files


def format_solution(sol: Solution, verified: bool) -> str:
    lines = [
        _SOLUTION_HEADER,
        f"cost: {sol.cost}",
        "student_order: " + " ".join(map(str, sol.student_order)),
        "question_order: " + " ".join(map(str, sol.question_order)),
        f"additions: {len(sol.edits.additions)}",
    ]
    lines.extend(f"{s} {q}" for s, q in sorted(sol.edits.additions))
    lines.append(f"deletions: {len(sol.edits.deletions)}")
    lines.extend(f"{s} {q}" for s, q in sorted(sol.edits.deletions))
    lines.append(f"solver_tag: {sol.solver_tag}")
    lines.append(f"verified: {'true' if verified else 'false'}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> tuple[Solution, bool]:
    lines = _significant_lines(text)
    if not lines or lines[0][1] != _SOLUTION_HEADER:
        raise ParseError(f"expected header {_SOLUTION_HEADER!r}", line=lines[0][0] if lines else 1)
    fields: dict[str, str] = {}
    pairs: dict[str, list[tuple[int, int]]] = {"additions": [], "deletions": []}
    idx = 1

    def take(key: str) -> str:
        nonlocal idx
        if idx >= len(lines):
            raise ParseError(f"missing field {key!r}", line=lines[-1][0])
        lineno, line = lines[idx]
        k, _, rest = line.partition(":")
        if k.strip() != key:
            raise ParseError(f"expected field {key!r}, got {line!r}", line=lineno)
        idx += 1
        return rest.strip()

    fields["cost"] = take("cost")
    student_order = _parse_ints(take("student_order"), lines[idx - 1][0])
    question_order = _parse_ints(take("question_order"), lines[idx - 1][0])
    for key in ("additions", "deletions"):
        count_text = take(key)
        try:
            count = int(count_text)
        except ValueError:
            raise ParseError(f"bad count for {key}: {count_text!r}", line=lines[idx - 1][0]) from None
        for _ in range(count):
            if idx >= len(lines):
                raise ParseError(f"missing {key} pair", line=lines[-1][0])
            lineno, line = lines[idx]
            toks = line.split()
            if len(toks) != 2:
                raise ParseError(f"expected 'student question', got {line!r}", line=lineno)
            pairs[key].append(_parse_ints(line, lineno))
            idx += 1
    fields["solver_tag"] = take("solver_tag")
    verified_text = take("verified")
    if verified_text not in ("true", "false"):
        raise ParseError(f"verified must be true or false, got {verified_text!r}", line=lines[idx - 1][0])
    if idx != len(lines):
        raise ParseError(f"unexpected trailing content {lines[idx][1]!r}", line=lines[idx][0])
    try:
        cost = int(fields["cost"])
    except ValueError:
        raise ParseError(f"bad cost {fields['cost']!r}") from None
    sol = Solution(
        cost=cost,
        student_order=student_order,
        question_order=question_order,
        edits=EditSet.of(pairs["additions"], pairs["deletions"]),
        solver_tag=fields["solver_tag"],
    )
    return sol, verified_text == "true"


def read_solution(path: str | Path) -> tuple[Solution, bool]:
    return parse_solution(Path(path).read_text(encoding="utf-8"))


def write_solution(sol: Solution, verified: bool, path: str | Path) -> None:
    Path(path).write_text(format_solution(sol, verified), encoding="utf-8")


# ---------------------------------------------------------------------------
# Commands


def _spec_from_args(args: argparse.Namespace, default_variant: str = "imo") -> ProblemSpec:
    variant = Variant(getattr(args, "variant", None) or default_variant)
    side = None
    if variant == Variant.FIXED_ONE_SIDE:
        if not getattr(args, "fixed_side", None):
            raise ChainRankError("--fixed-side is required with variant fixed-side")
        side = Side(args.fixed_side)
    return ProblemSpec(
        variant=variant,
        mode=Mode(getattr(args, "mode", None) or "editing"),
        k=getattr(args, "k", 0) or 0,
        fixed_side=side,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = read_instance(args.input)
    mode = Mode(args.mode)
    k = args.k
    if args.variant == "fixed-side":
        side = Side(args.fixed_side) if args.fixed_side else None
        if side is None:
            print("error: --fixed-side {students,questions} is required", file=sys.stderr)
            return EXIT_USAGE
        fixed = (
            inst.base_student_order if side == Side.STUDENTS_FIXED else inst.base_question_order
        )
        if fixed is None:
            print(f"error: instance has no base order for {side.value}", file=sys.stderr)
            return EXIT_USAGE
        sol = solve_fixed_side(inst, side, fixed, mode)
        spec = ProblemSpec(Variant.FIXED_ONE_SIDE, mode, 0, side)
    elif args.variant == "constrained":
        sol = solve_constrained_knear(inst, k, mode)
        spec = ProblemSpec(Variant.CONSTRAINED_KNEAR, mode, k)
    elif args.variant == "both":
        sol = solve_both_knear(inst, k, mode)
        spec = ProblemSpec(Variant.BOTH_KNEAR, mode, k)
    elif args.variant == "unconstrained":
        spec = ProblemSpec(Variant.UNCONSTRAINED_KNEAR, mode, k)
        if mode == Mode.ADDITION:
            sol = solve_unconstrained_knear_addition(inst, k)
        elif args.exponential_ok:
            sol = solve_unconstrained_knear_editing_exact(inst, k, cap=args.cap)
        else:
            print(
                "error: unconstrained k-near editing is NP-hard; there is no polynomial\n"
                "solver. Re-run with --exponential-ok to accept exponential enumeration,\n"
                "or use the `oracle` subcommand directly.",
                file=sys.stderr,
            )
            return EXIT_USAGE
    else:
        print(f"error: unknown variant {args.variant!r}", file=sys.stderr)
        return EXIT_USAGE

    report = verify_solution(inst, spec, sol)
    if not report.ok:
        print(
            f"internal error: solver output failed checks: {[c.name for c in report.failed()]}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    if args.output:
        write_solution(sol, report.ok, args.output)
    print(f"cost: {sol.cost}")
    return EXIT_OK


def _cmd_recognize(args: argparse.Namespace) -> int:
    inst = read_instance(args.input)
    result = recognize_ideal(inst)
    if isinstance(result, NotIdeal):
        s1, s2 = result.witness
        print(f"NOT_IDEAL witness: students {s1} and {s2} have incomparable neighborhoods")
        return EXIT_VIOLATION
    print("IDEAL")
    print("student_order: " + " ".join(map(str, result.student_order)))
    print("question_order: " + " ".join(map(str, result.question_order)))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    inst = read_instance(args.input)
    sol, _recorded = read_solution(args.solution)
    spec = _spec_from_args(args)
    report = verify_solution(inst, spec, sol)
    for check in report.checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = GenConfig(
        num_students=args.students,
        num_questions=args.questions,
        seed=args.seed,
        flip_count=args.flips,
        flip_probability=args.flip_prob,
        k_perturb=args.k_perturb,
        mode_hint=args.noise_mode,
    )
    inst, true_students, true_questions = gen_ideal(cfg)
    inst = perturb_edges(inst, cfg)
    inst = with_base_orders(
        inst,
        student_order=perturb_order(true_students, cfg.k_perturb, cfg.seed),
        question_order=perturb_order(true_questions, cfg.k_perturb, cfg.seed + 1),
    )
    write_instance(inst, args.output)
    print(f"wrote {args.output}: {inst.num_students}x{inst.num_questions}, {inst.edge_count} edges")
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    phi = parse_cnf(Path(args.cnf).read_text(encoding="utf-8"))
    red = build_reduction(phi)
    body = format_instance(red.instance)
    comments = [
        "# 3-SAT reduction to unconstrained 1-near editing",
        "# k: 1",
        f"# t_phi: {red.t_phi}",
        "# clause_questions: " + " ".join(map(str, red.clause_question_ids)),
    ]
    Path(args.output).write_text("\n".join(comments) + "\n" + body, encoding="utf-8")
    print(
        f"wrote {args.output}: {red.instance.num_students} students, "
        f"{red.instance.num_questions} questions, t_phi = {red.t_phi}"
    )
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = read_instance(args.input)
    spec = _spec_from_args(args, default_variant="imo")
    sol = oracle_solve(inst, spec, cap=args.cap)
    report = verify_solution(inst, spec, sol)
    if not report.ok:
        print(
            f"internal error: oracle output failed checks: {[c.name for c in report.failed()]}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    if args.output:
        write_solution(sol, report.ok, args.output)
    print(f"cost: {sol.cost}")
    return EXIT_OK


def _bench_solve(inst: Instance, variant: str, mode: Mode, k: int, cap: int) -> Solution:
    if variant == "constrained":
        return solve_constrained_knear(inst, k, mode)
    if variant == "both":
        return solve_both_knear(inst, k, mode)
    if variant == "unconstrained":
        if mode == Mode.ADDITION:
            return solve_unconstrained_knear_addition(inst, k)
        return solve_unconstrained_knear_editing_exact(inst, k, cap=cap)
    if variant == "fixed-side":
        return solve_fixed_side(inst, Side.QUESTIONS_FIXED, inst.base_question_order, mode)
    raise ChainRankError(f"unknown bench variant {variant!r}")


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(t) for t in args.sizes.split(",") if t]
    ks = [int(t) for t in args.ks.split(",") if t != ""]
    rows = []
    for size in sizes:
        for k in ks:
            for seed in range(args.seeds):
                cfg = GenConfig(
                    num_students=size,
                    num_questions=size,
                    seed=seed,
                    flip_probability=args.flip_prob,
                    k_perturb=k,
                )
                inst, true_s, true_q = gen_ideal(cfg)
                inst = perturb_edges(inst, cfg)
                inst = with_base_orders(
                    inst,
                    student_order=perturb_order(true_s, k, seed),
                    question_order=perturb_order(true_q, k, seed + 1),
                )
                start = time.perf_counter()
                sol = _bench_solve(inst, args.variant, Mode(args.mode), k, args.cap)
                wall_ms = (time.perf_counter() - start) * 1000.0
                rows.append(
                    {
                        "variant": args.variant,
                        "mode": args.mode,
                        "n_students": size,
                        "n_questions": size,
                        "k": k,
                        "seed": seed,
                        "cost": sol.cost,
                        "wall_ms": f"{wall_ms:.3f}",
                    }
                )
                print(f"{args.variant} {args.mode} n={size} k={k} seed={seed}: "
                      f"cost={sol.cost} wall_ms={wall_ms:.1f}")
    with open(args.output, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(
            handle,
            fieldnames=["variant", "mode", "n_students", "n_questions", "k", "seed", "cost", "wall_ms"],
        )
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.output} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chainrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_variant: bool, variants: tuple[str, ...]) -> None:
        if with_variant:
            p.add_argument("--variant", choices=variants, required=False)
        p.add_argument("--mode", choices=["editing", "addition"], default="editing")
        p.add_argument("--k", type=int, default=0)
        p.add_argument("--fixed-side", choices=["students", "questions"], default=None)

    p = sub.add_parser("solve", help="run a polynomial solver")
    p.add_argument("--variant", choices=["constrained", "unconstrained", "both", "fixed-side"], required=True)
    p.add_argument("--mode", choices=["editing", "addition"], default="editing")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--fixed-side", choices=["students", "questions"], default=None)
    p.add_argument("--exponential-ok", action="store_true")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("recognize", help="decide whether an instance is ideal")
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_recognize)

    p = sub.add_parser("check", help="verify a solution file against an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--solution", required=True)
    add_common(p, True, ("imo", "fixed-both", "fixed-side", "constrained", "unconstrained", "both"))
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("gen", help="generate a seeded noisy instance")
    p.add_argument("--students", type=int, required=True)
    p.add_argument("--questions", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--flips", type=int, default=None)
    p.add_argument("--flip-prob", type=float, default=None)
    p.add_argument("--noise-mode", choices=["toggle", "add", "delete"], default="toggle")
    p.add_argument("--k-perturb", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("reduce", help="build the hardness instance for a DIMACS CNF")
    p.add_argument("--cnf", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("oracle", help="brute-force exact solve (any variant)")
    add_common(p, True, ("imo", "fixed-both", "fixed-side", "constrained", "unconstrained", "both"))
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("bench", help="timing sweep, CSV output")
    p.add_argument("--variant", choices=["constrained", "unconstrained", "both", "fixed-side"], required=True)
    p.add_argument("--mode", choices=["editing", "addition"], default="editing")
    p.add_argument("--sizes", required=True, help="comma-separated square sizes, e.g. 20,40")
    p.add_argument("--ks", default="1", help="comma-separated k values")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--flip-prob", type=float, default=0.1)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except CorruptTableError as exc:
        print(f"internal error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ChainRankError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
