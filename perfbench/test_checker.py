"""Tests for the independent checker: it accepts a correct solution and
rejects corrupted ones.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import tempfile
import unittest
from pathlib import Path

import checker

TEST_ROOT = Path(__file__).resolve().parent / "_out"


def temp_dir(test: unittest.TestCase) -> Path:
    """A fresh directory under perfbench/_out, removed after the test."""
    TEST_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.TemporaryDirectory(dir=TEST_ROOT)
    test.addCleanup(tmp.cleanup)
    return Path(tmp.name)

# Student 2 answers questions 1 and 3; with the question order fixed at
# 1 2 3 the cheapest repair deletes (2, 3), cost 1.
INSTANCE = """chainrank v1 3 3
100
101
111
students: 1 2 3
questions: 1 2 3
"""


def solution(cost=1, students="1 2 3", questions="1 2 3", additions=(), deletions=((2, 3),)):
    lines = [
        "chainrank-solution v1",
        f"cost: {cost}",
        f"student_order: {students}",
        f"question_order: {questions}",
        f"additions: {len(additions)}",
        *(f"{s} {q}" for s, q in additions),
        f"deletions: {len(deletions)}",
        *(f"{s} {q}" for s, q in deletions),
        "solver_tag: test",
        "verified: true",
    ]
    return "\n".join(lines) + "\n"


def entry(variant="constrained", mode="editing", k=1):
    return {
        "name": "tiny",
        "variant": variant,
        "mode": mode,
        "k": k,
        "students": 3,
        "instance": "tiny.txt",
        "solution": "tiny.sol",
        "truth": {"kind": "random", "flips": 1, "true_students": [1, 2, 3], "true_questions": [1, 2, 3]},
    }


class FeasibilityTest(unittest.TestCase):
    def failures(self, text, variant="constrained", mode="editing", k=1):
        inst = checker.parse_instance(INSTANCE)
        return checker.feasibility_failures(inst, checker.parse_solution(text), variant, mode, k)

    def test_accepts_optimal_solution(self):
        self.assertEqual(self.failures(solution()), [])

    def test_rejects_rows_that_do_not_nest(self):
        fails = self.failures(solution(students="1 3 2"))
        self.assertTrue(any("not inside" in f for f in fails), fails)

    def test_rejects_displacement_over_k(self):
        # 2 1 3 nests (students 1 and 2 both end with {1}) but moves two
        # students by one position, over k = 0.
        fails = self.failures(solution(students="2 1 3"), k=0)
        self.assertTrue(any("student order moves" in f for f in fails), fails)
        self.assertEqual(self.failures(solution(students="2 1 3"), k=1), [])

    def test_rejects_cost_mismatch(self):
        fails = self.failures(solution(cost=2))
        self.assertTrue(any("cost 2 != 1 edits" in f for f in fails), fails)

    def test_rejects_deletions_in_addition_mode(self):
        fails = self.failures(solution(), mode="addition")
        self.assertTrue(any("deletes edges" in f for f in fails), fails)

    def test_rejects_invalid_edits(self):
        fails = self.failures(solution(cost=2, additions=((1, 1),)))
        self.assertTrue(any("adds a present edge" in f for f in fails), fails)
        fails = self.failures(solution(deletions=((1, 2),)))
        self.assertTrue(any("deletes an absent edge" in f for f in fails), fails)

    def test_rejects_non_prefix_neighborhoods(self):
        fails = self.failures(solution(questions="2 1 3"), variant="both")
        self.assertTrue(any("not a prefix" in f for f in fails), fails)

    def test_rejects_moved_question_order_in_constrained(self):
        fails = self.failures(solution(questions="1 3 2"))
        self.assertTrue(any("differs from the base order" in f for f in fails), fails)


class BoundsTest(unittest.TestCase):
    def setUp(self):
        self.inst = checker.parse_instance(INSTANCE)
        self.tmp = temp_dir(self)

    def test_optimum_within_bounds(self):
        self.assertEqual(checker.bound_failures(self.inst, entry(), 1, self.tmp), [])

    def test_rejects_cost_below_lower_bound(self):
        fails = checker.bound_failures(self.inst, entry(), 0, self.tmp)
        self.assertTrue(any("below the free-student-order cost" in f for f in fails), fails)

    def test_rejects_cost_above_upper_bounds(self):
        fails = checker.bound_failures(self.inst, entry(), 2, self.tmp)
        self.assertTrue(any("k=0 cost" in f for f in fails), fails)
        self.assertTrue(any("planted flips" in f for f in fails), fails)

    def test_bounds_in_addition_mode(self):
        # Addition must give student 2 question 2 (cost 1); nothing cheaper.
        self.assertEqual(checker.bound_failures(self.inst, entry(mode="addition"), 1, self.tmp), [])
        fails = checker.bound_failures(self.inst, entry(mode="addition"), 0, self.tmp)
        self.assertTrue(fails)

    def test_reduction_budget_follows_truth_table(self):
        (self.tmp / "sat.cnf").write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
        (self.tmp / "unsat.cnf").write_text("p cnf 1 2\n1 0\n-1 0\n")
        self.assertEqual(checker.satisfiable((self.tmp / "sat.cnf").read_text()), (True, 2, 2))
        self.assertEqual(checker.satisfiable((self.tmp / "unsat.cnf").read_text()), (False, 1, 2))
        sat = dict(entry(variant="unconstrained"), truth={"kind": "reduction", "cnf": "sat.cnf"})
        unsat = dict(entry(variant="unconstrained"), truth={"kind": "reduction", "cnf": "unsat.cnf"})
        # Budgets: 2 * (3*2 - 1) = 10 and 2 * (3*1 - 1) = 4.
        self.assertTrue(any("!= budget 10" in f for f in checker.bound_failures(self.inst, sat, 1, self.tmp)))
        self.assertTrue(any("<= budget 4" in f for f in checker.bound_failures(self.inst, unsat, 1, self.tmp)))


class CheckRunTest(unittest.TestCase):
    def run_dir(self, text, printed="cost: 1"):
        tmp = temp_dir(self)
        (tmp / "manifest.json").write_text(json.dumps([entry()]))
        (tmp / "tiny.txt").write_text(INSTANCE)
        (tmp / "tiny.sol").write_text(text)
        return checker.check_run(tmp, {"tiny": printed})["tiny"]

    def test_clean_run_passes(self):
        self.assertEqual(self.run_dir(solution()), [])

    def test_printed_cost_must_match_file(self):
        self.assertTrue(self.run_dir(solution(), printed="cost: 2"))

    def test_unreadable_solution_fails(self):
        fails = self.run_dir(solution().replace("2 3\n", "2 x\n"))
        self.assertTrue(fails and fails[0].startswith("unreadable"), fails)


if __name__ == "__main__":
    unittest.main()
