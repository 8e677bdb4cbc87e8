from __future__ import annotations

import random
from itertools import accumulate, chain, repeat
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank import (
    EMPTY_EDITS,
    EditSet,
    GenConfig,
    Mode,
    NestingCertificate,
    NotIdeal,
    NotNestedError,
    ProblemSpec,
    Side,
    Solution,
    Variant,
    derive_question_order,
    gen_ideal,
    make_instance,
    oracle_solve,
    recognize_ideal,
    solve_fixed_side,
    verify_solution,
)
from chainrank.core_model import bit_ids
from chainrank.ideal import nested_solution
from conftest import PairEdits, adjacency, figure_one, random_instance


class TestRecognizeIdeal:
    def test_figure_one_certificate(self, fig1):
        cert = recognize_ideal(fig1)
        assert isinstance(cert, NestingCertificate)
        assert cert.student_order == (1, 2, 3)
        assert cert.question_order == (1, 2, 3, 4, 5)

    def test_incomparable_singletons(self):
        inst = make_instance(2, 2, [(1, 1), (2, 2)])
        result = recognize_ideal(inst)
        assert isinstance(result, NotIdeal)
        assert result.witness == (1, 2)
        s1, s2 = result.witness
        n1, n2 = set(adjacency(inst)[s1 - 1]), set(adjacency(inst)[s2 - 1])
        assert not n1 <= n2
        assert not n2 <= n1

    def test_edgeless_graph_gets_identity_orders(self):
        inst = make_instance(3, 4, [])
        cert = recognize_ideal(inst)
        assert cert.student_order == (1, 2, 3)
        assert cert.question_order == (1, 2, 3, 4)

    def test_certificate_passes_verifier(self):
        rng = random.Random(5)
        for _ in range(30):
            inst = random_instance(rng, max_side=5, with_orders=False)
            result = recognize_ideal(inst)
            if isinstance(result, NotIdeal):
                continue
            sol = Solution(0, result.student_order, result.question_order, EMPTY_EDITS, "cert")
            assert verify_solution(inst, ProblemSpec(Variant.IMO_RECOGNIZE), sol).ok

    def test_recognition_agrees_with_zero_cost_oracle(self):
        rng = random.Random(6)
        for _ in range(40):
            inst = random_instance(rng, max_side=4, with_orders=False)
            ideal = isinstance(recognize_ideal(inst), NestingCertificate)
            opt = oracle_solve(inst, ProblemSpec(Variant.IMO_RECOGNIZE)).cost
            assert ideal == (opt == 0)


class TestDeriveQuestionOrder:
    def test_figure_one(self, fig1):
        assert derive_question_order(fig1, (1, 2, 3)) == (1, 2, 3, 4, 5)

    def test_answered_questions_come_first(self):
        inst = make_instance(1, 2, [(1, 2)])
        assert derive_question_order(inst, (1,)) == (2, 1)

    def test_crossing_pair_raises(self):
        inst = make_instance(2, 2, [(1, 1), (2, 2)])
        with pytest.raises(NotNestedError):
            derive_question_order(inst, (1, 2))


def _enumerate_prefix_costs(neighborhood, question_order, mode):
    """Tiny oracle: cost of forcing the neighborhood to each prefix."""
    out = {}
    for t in range(len(question_order) + 1):
        target = set(question_order[:t])
        if mode == Mode.ADDITION and not neighborhood <= target:
            continue
        out[t] = len(target ^ neighborhood)
    return out


class TestSolveFixedSide:
    def test_single_student_editing_prefers_deletion(self):
        inst = make_instance(1, 2, [(1, 2)])
        costs = _enumerate_prefix_costs({2}, (1, 2), Mode.EDITING)
        assert min(costs.values()) == 1 and costs[0] == 1
        sol = solve_fixed_side(inst, Side.QUESTIONS_FIXED, (1, 2), Mode.EDITING)
        assert sol.cost == 1
        assert sol.edits.deletions == {(1, 2)} and not sol.edits.additions

    def test_single_student_addition_forced_over_threshold(self):
        inst = make_instance(1, 2, [(1, 2)])
        costs = _enumerate_prefix_costs({2}, (1, 2), Mode.ADDITION)
        assert costs == {2: 1}
        sol = solve_fixed_side(inst, Side.QUESTIONS_FIXED, (1, 2), Mode.ADDITION)
        assert sol.cost == 1
        assert sol.edits.additions == {(1, 1)} and not sol.edits.deletions

    def test_ideal_instance_costs_nothing(self, fig1):
        sol = solve_fixed_side(fig1, Side.QUESTIONS_FIXED, (1, 2, 3, 4, 5))
        assert sol.cost == 0
        assert sol.student_order == (1, 2, 3)

    def test_editing_never_beats_addition(self):
        rng = random.Random(11)
        for _ in range(60):
            inst = random_instance(rng, max_side=5, with_orders=False)
            order = tuple(rng.sample(range(1, inst.num_questions + 1), inst.num_questions))
            editing = solve_fixed_side(inst, Side.QUESTIONS_FIXED, order, Mode.EDITING)
            addition = solve_fixed_side(inst, Side.QUESTIONS_FIXED, order, Mode.ADDITION)
            assert editing.cost <= addition.cost

    def test_solutions_verify_both_sides(self):
        rng = random.Random(12)
        for _ in range(40):
            inst = random_instance(rng)
            for side in (Side.QUESTIONS_FIXED, Side.STUDENTS_FIXED):
                order = (
                    inst.base_question_order
                    if side == Side.QUESTIONS_FIXED
                    else inst.base_student_order
                )
                for mode in (Mode.EDITING, Mode.ADDITION):
                    sol = solve_fixed_side(inst, side, order, mode)
                    spec = ProblemSpec(Variant.FIXED_ONE_SIDE, mode, 0, side)
                    assert verify_solution(inst, spec, sol).ok

    def test_matches_exhaustive_threshold_enumeration(self):
        rng = random.Random(14)
        for _ in range(40):
            inst = random_instance(rng, max_side=4, with_orders=False)
            m = inst.num_questions
            order = tuple(rng.sample(range(1, m + 1), m))
            for mode in (Mode.EDITING, Mode.ADDITION):
                expected = 0
                for s in range(1, inst.num_students + 1):
                    costs = _enumerate_prefix_costs(set(adjacency(inst)[s - 1]), order, mode)
                    expected += min(costs.values())
                sol = solve_fixed_side(inst, Side.QUESTIONS_FIXED, order, mode)
                assert sol.cost == expected


# ---------------------------------------------------------------------------
# The frozenset procedures that the bitset ones replaced, kept as references


def _derive_question_order_reference(inst, student_order):
    seen: set[int] = set()
    layers: list[int] = []
    prev: frozenset[int] = frozenset()
    for s in student_order:
        nbh = frozenset(adjacency(inst)[s - 1])
        if not prev <= nbh:
            raise NotNestedError(
                f"neighborhood of student {s} does not contain its weaker predecessor's"
            )
        layers.extend(sorted(nbh - seen))
        seen |= nbh
        prev = nbh
    layers.extend(q for q in range(1, inst.num_questions + 1) if q not in seen)
    return tuple(layers)


def _recognize_ideal_reference(inst):
    nbh = [frozenset(row) for row in adjacency(inst)]
    order = sorted(range(1, inst.num_students + 1), key=lambda s: (len(nbh[s - 1]), s))
    for weak, strong in zip(order, order[1:]):
        if not nbh[weak - 1] <= nbh[strong - 1]:
            return NotIdeal((weak, strong))
    return NestingCertificate(tuple(order), _derive_question_order_reference(inst, order))


def _nearly_ideal(rng: random.Random):
    """An ideal instance with up to two pairs toggled, so that both nested
    and crossing neighborhoods come up."""
    n, m = rng.randint(1, 8), rng.randint(1, 8)
    inst, _, _ = gen_ideal(GenConfig(num_students=n, num_questions=m, seed=rng.randint(0, 10**6)))
    edges = set(inst.edges())
    for _ in range(rng.choice([0, 0, 1, 2])):
        edges ^= {(rng.randint(1, n), rng.randint(1, m))}
    return make_instance(n, m, edges)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_recognition_and_derivation_match_frozenset_reference(data):
    """Equal certificates and witnesses; equal question orders, or the same
    NotNestedError message, along the recognized order and random ones."""
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    inst = _nearly_ideal(rng) if rng.random() < 0.7 else random_instance(rng, with_orders=False)
    result = recognize_ideal(inst)
    assert result == _recognize_ideal_reference(inst)
    n = inst.num_students
    orders = [rng.sample(range(1, n + 1), n) for _ in range(3)]
    if isinstance(result, NestingCertificate):
        orders.append(list(result.student_order))
    for order in orders:
        try:
            want = _derive_question_order_reference(inst, order)
        except NotNestedError as exc:
            with pytest.raises(NotNestedError) as got:
                derive_question_order(inst, order)
            assert str(got.value) == str(exc)
        else:
            assert derive_question_order(inst, order) == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_nested_solution_verifies_and_counts_its_edits(data):
    """For any student order, question order and non-decreasing prefix
    lengths, the Solution passes the verifier and its edits number the sum
    of (row ^ prefix[t]).bit_count()."""
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    inst = random_instance(rng, with_orders=False)
    n, m = inst.num_students, inst.num_questions
    student_order = rng.sample(range(1, n + 1), n)
    question_order = rng.sample(range(1, m + 1), m)
    lengths = sorted(rng.randint(0, m) for _ in range(n))
    sol = nested_solution(inst, student_order, question_order, lengths, "test")
    assert verify_solution(inst, ProblemSpec(Variant.IMO_RECOGNIZE), sol).ok
    prefix = [sum(1 << (q - 1) for q in question_order[:t]) for t in range(m + 1)]
    want = sum((inst.adj_bits[s - 1] ^ prefix[t]).bit_count() for s, t in zip(student_order, lengths))
    assert sol.edits.size == sol.cost == want
    assert (sol.student_order, sol.question_order) == (tuple(student_order), tuple(question_order))


def _nested_solution_reference(inst, student_order, question_order, prefix_lengths, solver_tag):
    """``nested_solution`` as it was when it built the edit pairs from
    each student's set differences, kept as the reference for the
    row-built edits."""
    prefix = list(accumulate((1 << (q - 1) for q in question_order), or_, initial=0))
    qids = list(range(1, inst.num_questions + 1))
    additions = []
    deletions = []
    for s, t in zip(student_order, prefix_lengths):
        row, target = inst.adj_bits[s - 1], prefix[t]
        additions.append(zip(repeat(s), bit_ids(target & ~row, qids)))
        deletions.append(zip(repeat(s), bit_ids(row & ~target, qids)))
    edits = PairEdits(chain.from_iterable(additions), chain.from_iterable(deletions))
    return Solution(
        cost=edits.size,
        student_order=tuple(student_order),
        question_order=tuple(question_order),
        edits=edits,
        solver_tag=solver_tag,
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_built_nested_solution_matches_pair_reference(data):
    """The row-built Solution equals the pair-built reference, whole, in
    both directions of ``==`` and under ``hash``, for any prefix lengths
    and for student orders that repeat a student (their edits unite)."""
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    inst = random_instance(rng, max_side=10, with_orders=False)
    n, m = inst.num_students, inst.num_questions
    if rng.random() < 0.8:
        student_order = rng.sample(range(1, n + 1), n)
    else:
        student_order = [rng.randint(1, n) for _ in range(n)]
    question_order = rng.sample(range(1, m + 1), m)
    lengths = [rng.randint(0, m) for _ in range(n)]
    if rng.random() < 0.5:
        lengths.sort()
    got = nested_solution(inst, student_order, question_order, lengths, "test")
    want = _nested_solution_reference(inst, student_order, question_order, lengths, "test")
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert got.edits.counts == (len(want.edits.additions), len(want.edits.deletions))
    assert (got.edits.additions, got.edits.deletions) == (want.edits.additions, want.edits.deletions)
