"""Plain-text file formats and the chainrank command line.

Instance files: a header line ``chainrank v1 <students> <questions>``, one
0/1 row per student (column q is question q), then optional ``students:`` and
``questions:`` base-order lines listing the entity at each position, weakest
or easiest first. ``#`` starts a comment line anywhere.

Solution files list the cost, both orders, then an ``additions: <count>``
and a ``deletions: <count>`` block of ``student question`` lines, sorted.
The writer prints each block from ``EditSet.grouped``, which walks a
solver's per-student rows or groups a parsed set's pairs, one string per
student's run of lines. The parser feeds each block, run by run of one
student's lines, into per-student rows (``core_model.EditRowBuilder``),
with no pair tuples. A file may name any int, such as a negative or huge
id, which only the verifier judges; at the first run whose ids are past
what the rows hold, the row parse stops and the blocks are read again into
a pair-built EditSet.

Exit codes: 0 success, 1 usage or bad input, 2 infeasible or violated check,
3 internal assertion failure.
"""

from __future__ import annotations

import argparse
import sys
from itertools import groupby, islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .core_model import (
    ChainRankError,
    EditRowBuilder,
    EditSet,
    Instance,
    Mode,
    ParseError,
    ProblemSpec,
    Side,
    Solution,
    Variant,
    verify_solution,
    with_base_orders,
)
from .dp_engine import CorruptTableError, solve
from .exact_oracle import DEFAULT_CAP, oracle_solve
from .hardness import build_reduction, parse_cnf
from .ideal import NotIdeal, recognize_ideal
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
    m = inst.num_questions
    lines = [f"{_HEADER} {inst.num_students} {m}"]
    # Bit q-1 of a row's bitset is question q; bin() read backwards lists
    # them from question 1, which is the inverse of parse_instance.
    lines.extend(bin(bits)[:1:-1].ljust(m, "0") for bits in inst.adj_bits)
    if inst.base_student_order is not None:
        lines.append("students: " + " ".join(map(str, inst.base_student_order)))
    if inst.base_question_order is not None:
        lines.append("questions: " + " ".join(map(str, inst.base_question_order)))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    lines = _Lines(text)
    header = lines.next()
    if header is None:
        raise ParseError("empty instance file", line=1)
    header_lineno = lines.lineno
    parts = header.split()
    if len(parts) != 4 or parts[0] != "chainrank" or parts[1] != "v1":
        raise ParseError("expected header 'chainrank v1 <students> <questions>'", line=header_lineno)
    try:
        n, m = int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError("non-integer sizes in header", line=header_lineno) from None
    if n < 1 or m < 1:
        raise ParseError(f"header sizes must be at least 1, got {n}x{m}", line=header_lineno)
    bits = []
    for s in range(1, n + 1):
        line = lines.next()
        if line is None:
            raise ParseError(f"expected {n} adjacency rows", line=header_lineno)
        if len(line) != m or line.strip("01"):
            raise ParseError(f"row for student {s} must be {m} characters of 0/1", line=lines.lineno)
        bits.append(int(line[::-1], 2))  # column q becomes bit q-1
    student_order = None
    question_order = None
    while (line := lines.next()) is not None:
        key, _, rest = line.partition(":")
        key = key.strip()
        if key == "students" and student_order is None:
            student_order = _parse_ints(rest, lines.lineno)
        elif key == "questions" and question_order is None:
            question_order = _parse_ints(rest, lines.lineno)
        else:
            raise ParseError(f"unexpected line {line!r}", line=lines.lineno)
    return Instance(n, m, bits, student_order, question_order)


def _parse_ints(text: str, lineno: int) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.split()))
    except ValueError:
        raise ParseError(f"expected integers, got {text!r}", line=lineno) from None


def _read_text(path: str | Path) -> str:
    """A file's text, with invalid UTF-8 reported as a ParseError. Line ends
    are left as they are: every parser splits with ``str.splitlines``."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line=line) from None


def read_instance(path: str | Path) -> Instance:
    return parse_instance(_read_text(path))


def write_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(format_instance(inst), encoding="utf-8")


# ---------------------------------------------------------------------------
# Solution files


def format_solution(sol: Solution, verified: bool) -> str:
    (additions, add_count), (deletions, del_count) = map(_pair_block, sol.edits.grouped())
    lines = [
        _SOLUTION_HEADER,
        f"cost: {sol.cost}",
        "student_order: " + " ".join(map(str, sol.student_order)),
        "question_order: " + " ".join(map(str, sol.question_order)),
        f"additions: {add_count}{additions}",
        f"deletions: {del_count}{deletions}",
        f"solver_tag: {sol.solver_tag}",
        f"verified: {'true' if verified else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def _pair_block(groups) -> tuple[str, int]:
    """The ``s q`` lines of a block grouped by student (see
    ``EditSet.grouped``), each after a newline, as one string, and their
    number. A student's run is one ``lead + lead.join(ids)`` with ``lead``
    its newline and ``s `` prefix."""
    runs = []
    count = 0
    for s, ids in groups:
        lead = f"\n{s} "
        run = lead + lead.join(ids)
        count += run.count("\n")
        runs.append(run)
    return "".join(runs), count


class _Lines:
    """The significant lines of a text, read in order, skipping blank lines
    and ``#`` comment lines. ``lineno`` is the 1-based number of the last
    line read (1 before any)."""

    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.at = 0  # index in raw of the next line to look at
        self.lineno = 1

    def next(self) -> str | None:
        while self.at < len(self.raw):
            line = self.raw[self.at].strip()
            self.at += 1
            if line and not line.startswith("#"):
                self.lineno = self.at
                return line
        return None

    def field(self, key: str) -> str:
        """The value of the ``key: value`` line that must come next."""
        line = self.next()
        if line is None:
            raise ParseError(f"missing field {key!r}", line=self.lineno)
        k, _, rest = line.partition(":")
        if k.strip() != key:
            raise ParseError(f"expected field {key!r}, got {line!r}", line=self.lineno)
        return rest.strip()

    def runs(self, key: str, count: int) -> Iterator[tuple[int, list[int]]]:
        """The next ``count`` lines as ``student question`` pairs, in runs
        of one student: (student, its question ids in file order)."""
        done = 0
        # The fast path takes whole runs of lines that each hold two integer
        # tokens. At the first run with another line (a blank, a comment or
        # an error) the lines from that run's start on are walked one by
        # one, which skips blanks and comments and finds the line of any
        # error.
        try:
            for s, run in groupby(map(str.split, islice(self.raw, self.at, self.at + count)), itemgetter(0)):
                tokens = list(run)
                if set(map(len, tokens)) != {2}:
                    break
                qids = list(map(int, map(itemgetter(1), tokens)))
                yield int(s), qids
                done += len(tokens)
        except (IndexError, ValueError):  # a blank line has no token 0
            pass
        if done:
            self.at += done
            self.lineno = self.at
        for s, q in self.walk(key, count - done):
            yield s, [q]

    def pairs(self, key: str, count: int) -> Iterable[tuple[int, int]]:
        """The next ``count`` lines as ``student question`` pairs. A block
        whose every line is two integer tokens and one space, as the writer
        prints them, is read whole, with no work per line in Python; any
        other line sends the whole block to ``walk``."""
        block = "\n".join(self.raw[self.at : self.at + count])
        tokens = block.split()
        students, qids = tokens[::2], tokens[1::2]
        if len(tokens) == 2 * count and block == "\n".join(map(" ".join, zip(students, qids))):
            try:
                pairs = list(zip(map(int, students), map(int, qids)))
            except ValueError:
                pass
            else:
                if count:
                    self.at += count
                    self.lineno = self.at
                return pairs
        return self.walk(key, count)

    def walk(self, key: str, count: int) -> Iterator[tuple[int, int]]:
        """The next ``count`` significant lines as ``student question``
        pairs, read one by one: blanks and comments are skipped, and an
        error names its line."""
        for _ in range(count):
            line = self.next()
            if line is None:
                raise ParseError(f"missing {key} pair", line=self.lineno)
            if len(line.split()) != 2:
                raise ParseError(f"expected 'student question', got {line!r}", line=self.lineno)
            yield _parse_ints(line, self.lineno)


def _block_count(lines: _Lines, key: str) -> int:
    """The count of the ``key: <count>`` line that must come next."""
    count_text = lines.field(key)
    try:
        count = int(count_text)
    except ValueError:
        count = -1
    if count < 0:
        raise ParseError(f"bad count for {key}: {count_text!r}", line=lines.lineno)
    return count


def _read_edits(lines: _Lines, add: Callable[[int, int, list[int]], bool]) -> None:
    """Read the additions and then the deletions block, passing each run
    of one student's question ids to ``add(block, student, qids)``, block
    0 for additions and 1 for deletions. Stops at once, the rest unread,
    when ``add`` returns False."""
    for block, key in enumerate(("additions", "deletions")):
        for s, qids in lines.runs(key, _block_count(lines, key)):
            if not add(block, s, qids):
                return


def parse_solution(text: str) -> tuple[Solution, bool]:
    lines = _Lines(text)
    if lines.next() != _SOLUTION_HEADER:
        raise ParseError(f"expected header {_SOLUTION_HEADER!r}", line=lines.lineno)
    cost_text = lines.field("cost")
    cost_lineno = lines.lineno
    student_order = _parse_ints(lines.field("student_order"), lines.lineno)
    question_order = _parse_ints(lines.field("question_order"), lines.lineno)
    start = lines.at
    rows = EditRowBuilder()
    _read_edits(lines, rows.add)
    edits = rows.edits()
    if edits is None:  # ids that rows cannot hold: read the blocks again as pairs
        lines.at = start
        additions, deletions = (
            frozenset(lines.pairs(key, _block_count(lines, key))) for key in ("additions", "deletions")
        )
        edits = EditSet(additions, deletions)
    solver_tag = lines.field("solver_tag")
    verified_text = lines.field("verified")
    if verified_text not in ("true", "false"):
        raise ParseError(f"verified must be true or false, got {verified_text!r}", line=lines.lineno)
    trailing = lines.next()
    if trailing is not None:
        raise ParseError(f"unexpected trailing content {trailing!r}", line=lines.lineno)
    try:
        cost = int(cost_text)
    except ValueError:
        raise ParseError(f"bad cost {cost_text!r}", line=cost_lineno) from None
    sol = Solution(
        cost=cost,
        student_order=student_order,
        question_order=question_order,
        edits=edits,
        solver_tag=solver_tag,
    )
    return sol, verified_text == "true"


def read_solution(path: str | Path) -> tuple[Solution, bool]:
    return parse_solution(_read_text(path))


def write_solution(sol: Solution, verified: bool, path: str | Path) -> None:
    Path(path).write_text(format_solution(sol, verified), encoding="utf-8")


# ---------------------------------------------------------------------------
# Commands


def _spec_from_args(args: argparse.Namespace) -> ProblemSpec:
    """The spec named by --variant (recognition when absent), --mode, --k
    and --fixed-side."""
    variant = Variant(args.variant or "imo")
    side = None
    if variant == Variant.FIXED_ONE_SIDE:
        if not args.fixed_side:
            raise ChainRankError("--fixed-side is required with variant fixed-side")
        side = Side(args.fixed_side)
    return ProblemSpec(variant=variant, mode=Mode(args.mode), k=args.k, fixed_side=side)


def _cmd_solve(args: argparse.Namespace) -> int:
    """``solve`` and ``oracle``, which differ in ``args.solver`` and in the
    gate that only ``solve`` has."""
    spec = _spec_from_args(args)
    if spec.variant == Variant.UNCONSTRAINED_KNEAR and spec.mode == Mode.EDITING and not args.exponential_ok:
        print(
            "error: unconstrained k-near editing is NP-hard; there is no polynomial\n"
            "solver. Re-run with --exponential-ok to accept exponential enumeration,\n"
            "or use the `oracle` subcommand directly.",
            file=sys.stderr,
        )
        return EXIT_USAGE
    inst = read_instance(args.input)
    sol = args.solver(inst, spec, cap=args.cap)
    report = verify_solution(inst, spec, sol)
    if not report.ok:
        print(
            f"internal error: {args.command} output failed checks: {[c.name for c in report.failed()]}",
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
    phi = parse_cnf(_read_text(args.cnf))
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


# ---------------------------------------------------------------------------
# Parser and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chainrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, variants: tuple[str, ...], required: bool = False) -> None:
        p.add_argument("--variant", choices=variants, required=required)
        p.add_argument("--mode", choices=["editing", "addition"], default="editing")
        p.add_argument("--k", type=_non_negative_int, default=0)
        p.add_argument("--fixed-side", choices=["students", "questions"], default=None)

    def add_run(p, solver) -> None:
        p.add_argument("--cap", type=_non_negative_int, default=DEFAULT_CAP)
        p.add_argument("--input", required=True)
        p.add_argument("--output", default=None)
        p.set_defaults(handler=_cmd_solve, solver=solver)

    p = sub.add_parser("solve", help="run a polynomial solver")
    add_common(p, ("constrained", "unconstrained", "both", "fixed-side"), required=True)
    p.add_argument("--exponential-ok", action="store_true")
    add_run(p, solve)

    p = sub.add_parser("recognize", help="decide whether an instance is ideal")
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_recognize)

    p = sub.add_parser("check", help="verify a solution file against an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--solution", required=True)
    add_common(p, ("imo", "fixed-both", "fixed-side", "constrained", "unconstrained", "both"))
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
    add_common(p, ("imo", "fixed-both", "fixed-side", "constrained", "unconstrained", "both"))
    add_run(p, oracle_solve)
    p.set_defaults(exponential_ok=True)  # enumerating is what the oracle is for

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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
