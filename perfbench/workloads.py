"""What each benchmark workload is made of.

A workload is a fixed list of items. Each item is one instance file that the
measured process solves with ``chainrank solve`` and then checks with
``chainrank check``, once per round. The list, the sizes and the solver flags
never depend on the seed; the seed only changes the random content of the
instances (graph, noise, base orders, CNF clauses). Every run therefore
attempts whole rounds of the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass

FLIP_SHARE = 0.1


@dataclass(frozen=True)
class RandomItem:
    """A square noisy instance from ``instance_gen``.

    The generator plants an ideal n x n instance with hidden true orders, in
    which the student at true position p answers the first p*n // (n+1)
    questions, toggles ``FLIP_SHARE`` of all student-question pairs, and
    scrambles the true student order within k to get the base student order.
    The base question order is scrambled within k as well, except for the
    constrained variant, whose question order is fixed: there it is the true
    question order, so the planted repair stays admissible. Fixing the prefix
    lengths and the number of flips keeps the work of an item nearly the
    same from seed to seed.
    """

    name: str
    variant: str  # constrained | both | unconstrained
    mode: str  # editing | addition
    n: int
    k: int

    @property
    def students(self) -> int:
        return self.n

    @property
    def flips(self) -> int:
        return round(FLIP_SHARE * self.n * self.n)

    @property
    def prefix_lengths(self) -> list[int]:
        return [p * self.n // (self.n + 1) for p in range(1, self.n + 1)]

    @property
    def question_shift(self) -> int:
        return 0 if self.variant == "constrained" else self.k


@dataclass(frozen=True)
class ReductionItem:
    """``chainrank reduce`` on a random CNF, then an exact unconstrained
    1-near editing solve of the reduction instance.

    Every clause uses all v variables, so each clause rules out exactly one
    of the 2^v assignments. An unsatisfiable formula lists all 2^v sign
    patterns; a satisfiable one lists 2^v - 1 of them. Clause order and the
    left-out pattern come from the seed.
    """

    name: str
    variables: int
    satisfiable: bool

    variant = "unconstrained"
    mode = "editing"
    k = 1

    @property
    def clauses(self) -> int:
        return 2**self.variables - (1 if self.satisfiable else 0)

    @property
    def students(self) -> int:
        return 6 * self.variables


@dataclass(frozen=True)
class Workload:
    """The reason for each workload is its ``why`` in BENCHMARK.json."""

    name: str
    items: tuple
    setup_repeats: int  # set-up processes per run; setup_s is their median


# Two workloads, not one per solver family: with four, a run gets about 20 s
# of the time budget, and on a 2-core machine whose speed swings by 1.45x
# and more over seconds to minutes the timings then spread by up to 0.22
# from seed to seed. Runs of 45 s average more of those swings out.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "large",
            (
                RandomItem("c600-k1-edit", "constrained", "editing", 600, 1),
                RandomItem("c400-k2-edit", "constrained", "editing", 400, 2),
                RandomItem("c300-k2-add", "constrained", "addition", 300, 2),
                RandomItem("u400-k3-add", "unconstrained", "addition", 400, 3),
                RandomItem("u400-k2-add", "unconstrained", "addition", 400, 2),
                # A one-clause reduction (6 students, 13 orderings) keeps the
                # reduction construction and the oracle running, at under 1%
                # of the time, so their per-layer times never read a flat 0.
                ReductionItem("sat-1", 1, True),
            ),
            setup_repeats=3,
        ),
        Workload(
            "small",
            (
                RandomItem("b80-k1-edit", "both", "editing", 80, 1),
                RandomItem("b60-k1-add", "both", "addition", 60, 1),
                RandomItem("b30-k2-edit", "both", "editing", 30, 2),
                RandomItem("b40-k2-add", "both", "addition", 40, 2),
                RandomItem("u60-k2-add", "unconstrained", "addition", 60, 2),
                ReductionItem("sat-7", 3, True),
                ReductionItem("unsat-8", 3, False),
                RandomItem("x10-k3-edit", "unconstrained", "editing", 10, 3),
                RandomItem("x11-k2-edit", "unconstrained", "editing", 11, 2),
                RandomItem("x12-k2-edit", "unconstrained", "editing", 12, 2),
            ),
            setup_repeats=5,
        ),
    )
}


def item_seed(seed: int, index: int) -> int:
    """Generator seed of the index-th item of a run with workload seed ``seed``."""
    return seed * 100 + index

