"""Independent checker for the solutions a benchmark run wrote.

    python3 perfbench/checker.py WORKDIR

It imports nothing from ``chainrank``: it reads the instance and solution
files with its own parsers, and every rule and bound below is computed here.
It checks each solution for

* feasibility: the edits are valid against the instance, the cost equals the
  number of edits, addition mode deletes nothing, neighborhoods nest along
  the returned student order, each neighborhood is a prefix of the returned
  question order, and the orders keep within the variant's bounds;
* optimum bounds: the cost is at most the cost with k = 0 and at most the
  cost of the generator's planted orders (for editing, at most the number of
  planted noise flips); for constrained it is at least the cost with the
  student order left free;
* for a 3-SAT reduction instance: the cost equals the budget
  t_phi = clauses * (3 * variables - 1) when the CNF's truth table has a
  satisfying row, and exceeds it otherwise.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

_INF = float("inf")


class FormatError(Exception):
    pass


@dataclass
class Inst:
    n: int
    m: int
    rows: list[int]  # rows[s - 1]: bit q - 1 set iff student s answers q
    base_students: list[int] | None
    base_questions: list[int] | None


@dataclass
class Sol:
    cost: int
    students: list[int]
    questions: list[int]
    additions: list[tuple[int, int]]
    deletions: list[tuple[int, int]]
    verified: str


def _lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]


def _ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split()]
    except ValueError:
        raise FormatError(f"expected integers: {text!r}") from None


def parse_instance(text: str) -> Inst:
    lines = _lines(text)
    head = lines[0].split() if lines else []
    if len(head) != 4 or head[:2] != ["chainrank", "v1"]:
        raise FormatError("bad instance header")
    n, m = int(head[2]), int(head[3])
    rows = []
    for line in lines[1 : n + 1]:
        if len(line) != m or set(line) - {"0", "1"}:
            raise FormatError(f"bad instance row {line[:20]!r}")
        rows.append(int(line[::-1], 2))
    if len(rows) != n:
        raise FormatError("missing instance rows")
    orders: dict[str, list[int]] = {}
    for line in lines[n + 1 :]:
        key, _, rest = line.partition(":")
        orders[key.strip()] = _ints(rest)
    return Inst(n, m, rows, orders.get("students"), orders.get("questions"))


def parse_solution(text: str) -> Sol:
    lines = _lines(text)
    if not lines or lines[0] != "chainrank-solution v1":
        raise FormatError("bad solution header")
    pos = 1

    def field(key: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise FormatError(f"missing {key}")
        name, _, rest = lines[pos].partition(":")
        if name.strip() != key:
            raise FormatError(f"expected {key}, got {lines[pos]!r}")
        pos += 1
        return rest.strip()

    def pairs(key: str) -> list[tuple[int, int]]:
        nonlocal pos
        count = int(field(key))
        out = []
        for line in lines[pos : pos + count]:
            s, q = _ints(line)
            out.append((s, q))
        if len(out) != count:
            raise FormatError(f"missing {key} pairs")
        pos += count
        return out

    cost = int(field("cost"))
    students = _ints(field("student_order"))
    questions = _ints(field("question_order"))
    additions = pairs("additions")
    deletions = pairs("deletions")
    field("solver_tag")
    verified = field("verified")
    if pos != len(lines):
        raise FormatError("trailing lines in solution")
    return Sol(cost, students, questions, additions, deletions, verified)


# ---------------------------------------------------------------------------
# Feasibility


def _max_shift(order: list[int], base: list[int]) -> int:
    where = {e: p for p, e in enumerate(base)}
    return max(abs(p - where[e]) for p, e in enumerate(order))


def feasibility_failures(inst: Inst, sol: Sol, variant: str, mode: str, k: int) -> list[str]:
    n, m = inst.n, inst.m
    fails = []
    if sorted(sol.students) != list(range(1, n + 1)):
        return ["student order is not a permutation"]
    if sorted(sol.questions) != list(range(1, m + 1)):
        return ["question order is not a permutation"]
    adds, dels = set(sol.additions), set(sol.deletions)
    if len(adds) != len(sol.additions) or len(dels) != len(sol.deletions):
        fails.append("repeated edit pair")
    if adds & dels:
        fails.append("pair both added and deleted")
    edited = list(inst.rows)
    for pairs, present in ((adds, False), (dels, True)):
        for s, q in pairs:
            if not (1 <= s <= n and 1 <= q <= m):
                return fails + [f"edit ({s},{q}) out of range"]
            if bool(inst.rows[s - 1] >> (q - 1) & 1) != present:
                fails.append(f"edit ({s},{q}) {'deletes an absent' if present else 'adds a present'} edge")
            edited[s - 1] ^= 1 << (q - 1)
    if sol.cost != len(adds) + len(dels):
        fails.append(f"cost {sol.cost} != {len(adds) + len(dels)} edits")
    if mode == "addition" and dels:
        fails.append("addition solution deletes edges")
    for weak, strong in zip(sol.students, sol.students[1:]):
        if edited[weak - 1] & ~edited[strong - 1]:
            fails.append(f"neighborhood of {weak} not inside that of {strong}")
            break
    qpos = [0] * (m + 1)
    for p, q in enumerate(sol.questions):
        qpos[q] = p
    for s, bits in enumerate(edited, start=1):
        mask = 0
        q = 1
        while bits:
            if bits & 1:
                mask |= 1 << qpos[q]
            bits >>= 1
            q += 1
        if mask & (mask + 1):
            fails.append(f"neighborhood of {s} is not a prefix of the question order")
            break
    if _max_shift(sol.students, inst.base_students) > k:
        fails.append(f"student order moves an entity more than {k}")
    if variant == "constrained" and sol.questions != inst.base_questions:
        fails.append("question order differs from the base order")
    if variant == "both" and _max_shift(sol.questions, inst.base_questions) > k:
        fails.append(f"question order moves an entity more than {k}")
    if sol.verified != "true":
        fails.append("solution file not marked verified")
    return fails


# ---------------------------------------------------------------------------
# Optimum bounds


def _prefix_costs(bits: int, question_order: list[int], mode: str) -> list[float]:
    """costs[t]: edits making this neighborhood the first t questions of the
    order; infinite where addition mode would have to delete."""
    degree = bin(bits).count("1")
    costs = [float(degree)]
    hits = 0
    last = 0  # position of the hardest question answered
    for t, q in enumerate(question_order, start=1):
        if bits >> (q - 1) & 1:
            hits += 1
            last = t
        costs.append((degree - hits) + (t - hits))
    if mode == "addition":
        costs = [c if t >= last else _INF for t, c in enumerate(costs)]
    return costs


def fixed_orders_cost(inst: Inst, students: list[int], questions: list[int], mode: str) -> float:
    """Least edits with both orders fixed: thresholds non-decreasing along
    the student order, by a running prefix minimum."""
    best = [0.0] * (inst.m + 1)
    for s in students:
        costs = _prefix_costs(inst.rows[s - 1], questions, mode)
        run = _INF
        for t in range(inst.m + 1):
            run = min(run, best[t])
            best[t] = run + costs[t]
    return min(best)


def free_students_cost(inst: Inst, questions: list[int], mode: str) -> float:
    """Least edits with the question order fixed and the student order free:
    each student takes its own best threshold."""
    return sum(min(_prefix_costs(bits, questions, mode)) for bits in inst.rows)


def free_questions_cost(inst: Inst, students: list[int], mode: str) -> int:
    """Least edits with the student order fixed and the question order free.

    Addition: each student takes the union of its weaker students'
    neighborhoods. Editing: each question takes its best set of strongest
    students.
    """
    if mode == "addition":
        union = 0
        total = 0
        for s in students:
            union |= inst.rows[s - 1]
            total += bin(union & ~inst.rows[s - 1]).count("1")
        return total
    total = 0
    for q in range(inst.m):
        answered = [inst.rows[s - 1] >> q & 1 for s in reversed(students)]
        cost = sum(answered)
        best = cost
        for a in answered:
            cost += -1 if a else 1
            best = min(best, cost)
        total += best
    return total


def satisfiable(cnf_text: str) -> tuple[bool, int, int]:
    """(satisfiable, variables, clauses) of a DIMACS CNF by its truth table."""
    clauses = []
    variables = 0
    for line in cnf_text.splitlines():
        toks = line.split()
        if not toks or toks[0] in ("c", "p"):
            continue
        lits = [int(t) for t in toks if t != "0"]
        variables = max([variables] + [abs(x) for x in lits])
        clauses.append(lits)
    sat = any(
        all(any((lit > 0) == row[abs(lit) - 1] for lit in clause) for clause in clauses)
        for row in product((False, True), repeat=variables)
    )
    return sat, variables, len(clauses)


def bound_failures(inst: Inst, entry: dict, cost: int, workdir: Path) -> list[str]:
    variant, mode, truth = entry["variant"], entry["mode"], entry["truth"]
    base_s, base_q = inst.base_students, inst.base_questions
    fails = []
    if variant == "unconstrained":
        upper = free_questions_cost(inst, base_s, mode)
    else:
        upper = fixed_orders_cost(inst, base_s, base_q, mode)
    if cost > upper:
        fails.append(f"cost {cost} above the k=0 cost {upper}")
    if truth["kind"] == "random":
        true_s, true_q = truth["true_students"], truth["true_questions"]
        if variant == "unconstrained":
            planted = free_questions_cost(inst, true_s, mode)
        else:
            planted = fixed_orders_cost(inst, true_s, true_q, mode)
        if cost > planted:
            fails.append(f"cost {cost} above the planted orders' cost {planted}")
        if mode == "editing" and cost > truth["flips"]:
            fails.append(f"cost {cost} above the {truth['flips']} planted flips")
    else:
        sat, variables, clauses = satisfiable((workdir / truth["cnf"]).read_text(encoding="utf-8"))
        budget = clauses * (3 * variables - 1)
        if sat and cost != budget:
            fails.append(f"satisfiable CNF but cost {cost} != budget {budget}")
        if not sat and cost <= budget:
            fails.append(f"unsatisfiable CNF but cost {cost} <= budget {budget}")
    if variant == "constrained":
        lower = free_students_cost(inst, base_q, mode)
        if cost < lower:
            fails.append(f"cost {cost} below the free-student-order cost {lower}")
    return fails


def check_run(workdir: Path, printed_costs: dict[str, str] | None = None) -> dict[str, list[str]]:
    """Failures per item of the run in ``workdir`` (empty lists when all
    pass). ``printed_costs`` holds what each solve printed, if known."""
    entries = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    report = {}
    for entry in entries:
        try:
            inst = parse_instance((workdir / entry["instance"]).read_text(encoding="utf-8"))
            sol = parse_solution((workdir / entry["solution"]).read_text(encoding="utf-8"))
        except (OSError, FormatError, ValueError) as exc:
            report[entry["name"]] = [f"unreadable: {exc}"]
            continue
        fails = feasibility_failures(inst, sol, entry["variant"], entry["mode"], entry["k"])
        fails += bound_failures(inst, entry, sol.cost, workdir)
        if printed_costs is not None and printed_costs.get(entry["name"]) != f"cost: {sol.cost}":
            fails.append(f"solve printed {printed_costs.get(entry['name'])!r}, file has {sol.cost}")
        report[entry["name"]] = fails
    return report


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/checker.py WORKDIR")
    result = check_run(Path(sys.argv[1]))
    for name, fails in result.items():
        print(f"{'FAIL' if fails else 'PASS'} {name}" + "".join(f"\n  {f}" for f in fails))
    sys.exit(1 if any(result.values()) else 0)
