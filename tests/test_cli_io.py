from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import random
import tempfile
import time
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chainrank import (
    ChainRankError,
    CorruptTableError,
    EditConflictError,
    EditSet,
    Mode,
    ParseError,
    ProblemSpec,
    Solution,
    Instance,
    Variant,
    apply_edits,
    make_instance,
    verify_solution,
    with_base_orders,
)
from chainrank import cli_io, core_model
from chainrank.cli_io import (
    format_instance,
    format_solution,
    main,
    parse_instance,
    parse_solution,
    read_solution,
)
from conftest import PairEdits, adjacency, random_instance, row_pairs
from test_core_model import _apply_edits_reference, _outcome, _reference_verify

FIG1_TEXT = """chainrank v1 3 5
11000
11110
11111
"""


class TestInstanceFormat:
    def test_figure_one_file(self):
        inst = parse_instance(FIG1_TEXT)
        assert inst.num_students == 3 and inst.num_questions == 5
        assert adjacency(inst)[1] == (1, 2, 3, 4)

    def test_dense_instance_shares_its_question_ids(self):
        """A parsed dense 400x400 instance, once its rows are read, holds
        them as 1.3 MB of tuples, and not one int object per edge whose id
        is above 256 (3 MB)."""
        n = 400
        text = f"chainrank v1 {n} {n}\n" + ("1" * n + "\n") * n
        gc.collect()
        tracemalloc.start()
        try:
            inst = parse_instance(text)
            assert len(adjacency(inst)) == n
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert inst.edge_count == n * n
        assert held < 2 * 2**20, f"{held / 2**20:.2f} MB"

    def test_dense_instance_holds_only_its_bitsets(self):
        """Until its rows are read, a parsed dense 400x400 instance holds its
        400 bitsets of 400 bits (about 0.03 MB), not row tuples (1.3 MB)."""
        n = 400
        text = f"chainrank v1 {n} {n}\n" + ("1" * n + "\n") * n
        gc.collect()
        tracemalloc.start()
        try:
            inst = parse_instance(text)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert inst.edge_count == n * n
        assert held < 0.25 * 2**20, f"{held / 2**20:.2f} MB"

    def test_write_read_round_trip(self):
        rng = random.Random(41)
        for _ in range(30):
            inst = random_instance(rng)
            text = format_instance(inst)
            assert parse_instance(text) == inst
            assert format_instance(parse_instance(text)) == text

    def test_rows_match_the_per_cell_formula(self):
        """Rows read off the bitsets equal the per-cell formula they replaced,
        on empty, full and random rows, m = 1 and m not a multiple of 8."""

        def per_cell(inst):
            lines = [f"chainrank v1 {inst.num_students} {inst.num_questions}"]
            for row in adjacency(inst):
                cells = set(row)
                lines.append("".join("1" if q in cells else "0" for q in range(1, inst.num_questions + 1)))
            return "\n".join(lines) + "\n"

        rng = random.Random(47)
        for m in (1, 2, 7, 8, 9, 13, 16, 17, 64, 65):
            n = rng.randint(1, 6)
            full = [(s, q) for s in range(1, n + 1) for q in range(1, m + 1)]
            cases = [[], full, [e for e in full if e[0] != 1], [e for e in full if rng.random() < 0.5]]
            for edges in cases:
                inst = make_instance(n, m, edges)
                assert format_instance(inst) == per_cell(inst), (n, m, edges)
        for _ in range(200):
            inst = random_instance(rng, max_side=20, with_orders=False)
            assert format_instance(inst) == per_cell(inst)

    def test_orders_round_trip(self):
        inst = make_instance(2, 3, [(1, 2)], (2, 1), (3, 1, 2))
        assert parse_instance(format_instance(inst)) == inst

    def test_parsed_bitsets_match_rows(self):
        rng = random.Random(43)
        for _ in range(30):
            inst = parse_instance(format_instance(random_instance(rng, max_side=9)))
            assert inst.adj_bits == tuple(sum(1 << (q - 1) for q in row) for row in adjacency(inst))
            orders = (inst.base_student_order, inst.base_question_order)
            assert Instance(inst.num_students, inst.num_questions, inst.adj_bits, *orders) == inst

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\n\nchainrank v1 1 2\n# rows\n10\n"
        inst = parse_instance(text)
        assert adjacency(inst) == ((1,),)

    def test_wrong_row_length_reports_line(self):
        text = "chainrank v1 2 3\n101\n10\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "text, message",
        [
            ("chainrank v1 3 2\n# rows\n10\n\n11\n", "line 1: expected 3 adjacency rows"),
            # Short of rows with a malformed row before the end: the first
            # fault in reading order.
            ("chainrank v1 3 2\n1\n", "line 2: row for student 1 must be 2 characters of 0/1"),
        ],
    )
    def test_missing_rows_reported_in_reading_order(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("row", ["1x1", "1_1", "+11", "1 1", "0b1", "١١١"])
    def test_row_of_other_characters_rejected(self, row):
        with pytest.raises(ParseError) as exc:
            parse_instance(f"chainrank v1 1 3\n{row}\n")
        assert str(exc.value) == "line 2: row for student 1 must be 3 characters of 0/1"

    def test_missing_header_reports_first_line(self):
        for text, message in (
            ("11\n10\n", "expected header"),
            ("chainrank v1 -1 3\n", "header sizes must be at least 1, got -1x3"),
            ("chainrank v1 2 -1\n11\n10\n", "header sizes must be at least 1, got 2x-1"),
            ("chainrank v1 0 3\n", "header sizes must be at least 1, got 0x3"),
        ):
            with pytest.raises(ParseError) as exc:
                parse_instance(text)
            assert exc.value.line == 1
            assert str(exc.value).startswith(f"line 1: {message}")


class TestSolutionFormat:
    def test_round_trip(self):
        sol = Solution(
            cost=2,
            student_order=(2, 1),
            question_order=(1, 2, 3),
            edits=EditSet.of([(1, 3)], [(2, 1)]),
            solver_tag="oracle.both.editing",
        )
        text = format_solution(sol, verified=True)
        parsed, verified = parse_solution(text)
        assert parsed == sol and verified is True
        assert format_solution(parsed, verified) == text

    def test_bad_cost_reports_its_line(self):
        sol = Solution(1, (1,), (1,), EditSet.of([(1, 1)]), "t")
        text = format_solution(sol, verified=False).replace("cost: 1\n", "cost: x\n")
        with pytest.raises(ParseError) as exc:
            parse_solution(text)
        assert str(exc.value) == "line 2: bad cost 'x'"

    def test_missing_field_rejected(self):
        sol = Solution(1, (1,), (1,), EditSet.of([(1, 1)]), "t")
        text = format_solution(sol, verified=False).replace("solver_tag: t\n", "")
        with pytest.raises(ParseError):
            parse_solution(text)


def _sorted_tuple_writer(sol: Solution, verified: bool) -> str:
    """``format_solution`` as it was when each pair block was written from
    the sorted pair tuples, kept as the reference for the grouped writer."""
    lines = [
        "chainrank-solution v1",
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


_ids = st.integers(-5, 12) | st.integers(-(10**30), 10**30)


@settings(max_examples=300, deadline=None)
@given(
    additions=st.lists(st.tuples(_ids, _ids), max_size=40),
    deletions=st.lists(st.tuples(_ids, _ids), max_size=40),
    verified=st.booleans(),
)
def test_grouped_pair_writer_matches_sorted_tuples(additions, deletions, verified):
    """Grouping each pair block by student writes the bytes of the sorted
    tuples, negative and huge ids included."""
    sol = Solution(len(additions) + len(deletions), (2, 1), (1,), EditSet.of(additions, deletions), "t")
    assert format_solution(sol, verified) == _sorted_tuple_writer(sol, verified)


_rows = st.lists(st.just(0) | st.integers(0, 2**12 - 1) | st.integers(0, 2**70), max_size=12)


@settings(max_examples=300, deadline=None)
@given(add_rows=_rows, del_rows=_rows, verified=st.booleans())
def test_row_writer_matches_sorted_tuples(add_rows, del_rows, verified):
    """A row-built edit set (``EditSet.from_rows``) writes the bytes of its
    pairs' sorted tuples; the rows may differ in count and width."""
    pairs = PairEdits(frozenset(row_pairs(add_rows)), frozenset(row_pairs(del_rows)))

    def solution(edits):
        return Solution(len(pairs.additions) + len(pairs.deletions), (2, 1), (1,), edits, "t")

    got = format_solution(solution(EditSet.from_rows(add_rows, del_rows)), verified)
    assert got == _sorted_tuple_writer(solution(pairs), verified)


_SOLUTION_HEAD = "chainrank-solution v1\ncost: 2\nstudent_order: 1 2 3\nquestion_order: 1 2 3 4 5\n"
_SOLUTION_TAIL = "solver_tag: t\nverified: true\n"


class TestPairBlocks:
    """Pair-block errors and their lines, as recorded when every pair line
    was parsed on its own."""

    @pytest.mark.parametrize(
        "blocks, message, line",
        [
            ("additions: 2\n1 3\n2\ndeletions: 0\n", "expected 'student question', got '2'", 7),
            ("additions: 0\ndeletions: 2\n3 5\n7\n", "expected 'student question', got '7'", 8),
            ("additions: 2\n1 3\n2 4 5\ndeletions: 0\n", "expected 'student question', got '2 4 5'", 7),
            ("additions: 2\n1 3\n2 x\ndeletions: 0\n", "expected integers, got '2 x'", 7),
            ("additions: 1\n1 3\ndeletions: 1\ny 5\n", "expected integers, got 'y 5'", 8),
            ("additions: 1\n1 1.5\ndeletions: 0\n", "expected integers, got '1 1.5'", 6),
            ("additions: 4\n1 3\n2 4\ndeletions: 0\n", "expected integers, got 'deletions: 0'", 8),
        ],
    )
    def test_error_and_line(self, blocks, message, line):
        with pytest.raises(ParseError) as exc:
            parse_solution(_SOLUTION_HEAD + blocks + _SOLUTION_TAIL)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    @pytest.mark.parametrize(
        "blocks, message, line",
        [
            ("additions: 1\n1 3\ndeletions: 3\n3 5\n", "missing deletions pair", 8),
            ("additions: 1\n1 3\n", "missing field 'deletions'", 6),
            ("additions: 1\n1 3\n\n# end\n", "missing field 'deletions'", 6),
            ("additions: 0\ndeletions: 1\n3 5\n", "missing field 'solver_tag'", 7),
        ],
    )
    def test_file_ends_early(self, blocks, message, line):
        with pytest.raises(ParseError) as exc:
            parse_solution(_SOLUTION_HEAD + blocks)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    @pytest.mark.parametrize(
        "blocks",
        [
            "additions: 2\n# c\n\n1 3\n   # x\n\n2 4\ndeletions: 1\n\n3 5\n# end\n",
            "additions: 2\n1\t3\n  2    4  \ndeletions: 1\n3 \t 5\n",
        ],
    )
    def test_comments_blanks_and_spacing_accepted(self, blocks):
        sol, verified = parse_solution(_SOLUTION_HEAD + blocks + _SOLUTION_TAIL)
        assert sol.edits == EditSet.of([(1, 3), (2, 4)], [(3, 5)])
        assert verified is True

    def test_ids_are_not_range_checked(self):
        sol, _ = parse_solution(_SOLUTION_HEAD + "additions: 2\n-1 3\n1 1000000000000\ndeletions: 0\n" + _SOLUTION_TAIL)
        assert sol.edits.additions == {(-1, 3), (1, 10**12)}


def _reference_pairs(lines, key: str, count: int) -> frozenset:
    """``_Lines.pairs`` as it was when every parsed block was pair-built,
    kept as the reference for the row parse."""
    block = lines.raw[lines.at : lines.at + count]
    if len(block) == count and set(map(len, map(str.split, block))) <= {2}:
        ints = map(int, chain.from_iterable(map(str.split, block)))
        try:
            pairs = frozenset(list(zip(ints, ints)))
        except ValueError:
            pass
        else:
            lines.at += count
            lines.lineno = lines.at
            return pairs
    walked = []
    for _ in range(count):
        line = lines.next()
        if line is None:
            raise ParseError(f"missing {key} pair", line=lines.lineno)
        if len(line.split()) != 2:
            raise ParseError(f"expected 'student question', got {line!r}", line=lines.lineno)
        walked.append(cli_io._parse_ints(line, lines.lineno))
    return frozenset(walked)


def _pair_parse_reference(text: str) -> tuple[Solution, bool]:
    """``parse_solution`` as it was when every parsed block was pair-built."""
    lines = cli_io._Lines(text)
    if lines.next() != "chainrank-solution v1":
        raise ParseError("expected header 'chainrank-solution v1'", line=lines.lineno)
    cost_text = lines.field("cost")
    cost_lineno = lines.lineno
    student_order = cli_io._parse_ints(lines.field("student_order"), lines.lineno)
    question_order = cli_io._parse_ints(lines.field("question_order"), lines.lineno)
    pairs = {}
    for key in ("additions", "deletions"):
        count_text = lines.field(key)
        try:
            count = int(count_text)
        except ValueError:
            count = -1
        if count < 0:
            raise ParseError(f"bad count for {key}: {count_text!r}", line=lines.lineno)
        pairs[key] = _reference_pairs(lines, key, count)
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
    edits = PairEdits(pairs["additions"], pairs["deletions"])
    return Solution(cost, student_order, question_order, edits, solver_tag), verified_text == "true"


def _parse_outcome(parse, text):
    """(solution, verified) of a parse, or the (type, message, line) it raised."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line


def _id_token(rng: random.Random, value: int) -> str:
    """An int token as a file may spell it: plain, zero-padded or signed."""
    how = rng.choice(["plain", "plain", "padded", "signed"])
    if how == "padded":
        return ("-" if value < 0 else "") + "00" + str(abs(value))
    if how == "signed" and value >= 0:
        return f"+{value}"
    return str(value)


def _drawn_pair_block(rng: random.Random, inst, pairs: list) -> tuple[int, list[str]]:
    """(count, lines) of a pair block for ``pairs``: shuffled or sorted,
    with repeats, some ids past the instance, at most 0, or huge, padded or
    signed tokens, tabs and spaces, and comment and blank lines between."""
    n, m = inst.num_students, inst.num_questions
    pairs = list(pairs)
    if pairs and rng.random() < 0.5:
        pairs += rng.choices(pairs, k=rng.randint(1, 3))  # repeated pairs
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        s, q = rng.randint(1, n), rng.randint(1, m)
        past = [(n + rng.randint(1, 2), q), (s, m + rng.randint(1, 2)), (s, 1 << 16)]  # rows hold these
        held_as_pairs = [(0, q), (s, 0), (-1, q), (s, -3), (10**12, q), (s, 10**12), (s, (1 << 16) + 1)]
        pairs.append(rng.choice(rng.choice([past, past, held_as_pairs])))
    if rng.random() < 0.5:
        rng.shuffle(pairs)  # students out of order, split over several runs
    else:
        pairs.sort()
    lines = []
    for s, q in pairs:
        while rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", "# note", "  # 1 2", "\t"]))
        sep = rng.choice([" ", " ", "\t", "  \t "])
        lines.append(rng.choice(["", " ", "\t"]) + _id_token(rng, s) + sep + _id_token(rng, q) + rng.choice(["", " ", "\t"]))
    return len(pairs), lines


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parsed_edits_match_pair_parse_reference(data):
    """The row parse gives the pair parse's Solution: the edit sets equal,
    with equal hashes and counts, the same ``verify_solution`` report,
    check by check, and the same ``apply_edits`` result or error text. A
    broken line raises the same error at the same line."""
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    side = rng.choice([8, 24])  # 24 gives runs of more than 16 lines
    inst = parse_instance(FIG1_TEXT + "students: 1 2 3\nquestions: 1 2 3 4 5\n") if rng.random() < 0.3 else random_instance(rng, max_side=side)
    n, m = inst.num_students, inst.num_questions
    edges = set(inst.edges())
    every = [(s, q) for s in range(1, n + 1) for q in range(1, m + 1)]
    density = rng.choice([0.1, 0.4, 0.9])
    chosen = [p for p in every if rng.random() < density]
    adds = [p for p in chosen if p not in edges or rng.random() < 0.05]
    dels = [p for p in chosen if p in edges or rng.random() < 0.05]
    blocks = []
    for key, pairs in (("additions", adds), ("deletions", dels)):
        count, lines = _drawn_pair_block(rng, inst, pairs)
        blocks += [f"{key}: {count}", *lines]
    if rng.random() < 0.1:  # a broken line somewhere in the blocks
        at = rng.randrange(1, len(blocks) + 1)
        blocks.insert(at, rng.choice(["1 x", "2", "1 2 3", "1 1.5", "deletions: 0"]))
    so = rng.sample(range(1, n + 1), n)
    qo = rng.sample(range(1, m + 1), m)
    text = "\n".join([
        "chainrank-solution v1", f"cost: {rng.randint(0, n * m)}",
        "student_order: " + " ".join(map(str, so)), "question_order: " + " ".join(map(str, qo)),
        *blocks, "solver_tag: t", "verified: true",
    ]) + "\n"

    got, want = _parse_outcome(parse_solution, text), _parse_outcome(_pair_parse_reference, text)
    assert got == want
    if isinstance(got[0], type):
        return
    got, want = got[0].edits, want[0].edits
    assert hash(got) == hash(want) and got.counts == want.counts and got.size == want.size
    for variant, mode, k in (("constrained", "editing", 1), ("both", "addition", 2), ("imo", "editing", 0)):
        spec = ProblemSpec(Variant(variant), Mode(mode), k)
        reports = [
            [(c.name, c.passed, c.detail) for c in verify_solution(inst, spec, Solution(2, tuple(so), tuple(qo), edits, "t")).checks]
            for edits in (got, want)
        ]
        assert reports[0] == reports[1]
    outcomes = []
    for edits in (got, want):
        try:
            outcomes.append(apply_edits(inst, edits))
        except EditConflictError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "additions, deletions, fed",
    [
        (["1 1", "2 70000", "3 1", "3 2"], ["1 2"], [(0, 1, [1]), (0, 2, [70000]), (0, 3, [1, 2]), (1, 1, [2])]),
        (["1 1", "2 -1", "2 x"], ["1 2"], [(0, 1, [1]), (0, 2, [-1])]),
        (
            ["1 1", "2 1"],
            ["3 4", "0 1", "1 5", "2 2"],
            [(0, 1, [1]), (0, 2, [1]), (1, 3, [4]), (1, 0, [1]), (1, 1, [5]), (1, 2, [2])],
        ),
        (["1 1", "1 2"], ["2 3", "2 4"], [(0, 1, [1, 2]), (1, 2, [3, 4])]),
        (["1 70000", "2 1 3", "3"], ["1 2"], [(0, 1, [70000])]),  # as many tokens as pairs, on irregular lines
    ],
)
def test_row_parse_stops_at_the_builders_refusal(monkeypatch, additions, deletions, fed):
    """The builder refuses no run: ids that rows cannot hold, such as
    70000 or -1, become its strays, and the parse reads on. So each run
    reaches ``EditRowBuilder`` exactly once, in file order, up to a broken
    line, and the outcome is the pair parse's, that broken line included."""
    calls = []

    class Recording(cli_io.EditRowBuilder):
        def add(self, block, s, qids):
            calls.append((block, s, list(qids)))
            super().add(block, s, qids)

    monkeypatch.setattr(cli_io, "EditRowBuilder", Recording)
    text = "\n".join([
        "chainrank-solution v1", "cost: 1", "student_order: 1 2 3", "question_order: 1 2 3 4 5",
        f"additions: {len(additions)}", *additions, f"deletions: {len(deletions)}", *deletions,
        "solver_tag: t", "verified: true",
    ]) + "\n"
    assert _parse_outcome(parse_solution, text) == _parse_outcome(_pair_parse_reference, text)
    assert calls == fed


_HOSTILE_IDS = (-1, 0, (1 << 16) + 1, 10**12)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rows_and_strays_match_the_references(data):
    """With the row budget cut to a few hundred bytes it runs out in the
    middle of the additions block, so a parsed set holds rows and strays
    side by side: pairs after that point, repeats of pairs the rows already
    hold among them, and ids of -1, 0, 2^16 + 1 and 10^12 anywhere. The
    parse gives the pair parse's outcome, and its edits are the drawn
    pairs, with exact counts, the set reference's verifier report, the
    reference's ``apply_edits`` result or error text, and the sorted-tuple
    writer's bytes."""
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    n, m = rng.randint(6, 24), rng.randint(6, 24)
    inst = Instance(n, m, [rng.getrandbits(m) for _ in range(n)])
    edges = set(inst.edges())
    density = rng.choice([0.4, 0.9])
    chosen = [(s, q) for s in range(1, n + 1) for q in range(1, m + 1) if rng.random() < density]
    blocks = {
        "additions": [p for p in chosen if p not in edges or rng.random() < 0.05],
        "deletions": [p for p in chosen if p in edges or rng.random() < 0.05],
    }
    adds = blocks["additions"]
    if len({s for s, _ in adds}) < 2:
        adds[:] = sorted({*adds, (1, 1), (n, m)})
    # The slots up to the last student cost the whole budget, so the rows
    # fill up by that student's run at the latest, and the first run fits.
    budget = 8 * adds[-1][0]
    for pairs in blocks.values():
        pairs += rng.choices(pairs, k=rng.randint(1, 4)) if pairs else []  # repeats past the budget
        for _ in range(rng.randint(1, 3)):
            hostile = rng.choice(_HOSTILE_IDS)
            pair = rng.choice([(hostile, rng.randint(1, m)), (rng.randint(1, n), hostile)])
            pairs.insert(rng.randint(1, max(len(pairs), 1)), pair)  # after the first run's first pair
    lines = ["chainrank-solution v1", "cost: 0", "student_order: 1", "question_order: 1"]
    for key, pairs in blocks.items():
        lines.append(f"{key}: {len(pairs)}")
        for s, q in pairs:
            if rng.random() < 0.05:
                lines.append(rng.choice(["", "# note"]))
            lines.append(_id_token(rng, s) + rng.choice([" ", "\t"]) + _id_token(rng, q))
    text = "\n".join([*lines, "solver_tag: t", "verified: false"]) + "\n"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core_model, "_ROW_BUDGET", budget)
        got = _parse_outcome(parse_solution, text)
        assert got == _parse_outcome(_pair_parse_reference, text)
    edits = got[0].edits
    pairs = PairEdits(frozenset(blocks["additions"]), frozenset(blocks["deletions"]))
    assert (edits.additions, edits.deletions) == (pairs.additions, pairs.deletions)
    assert edits.counts == (len(pairs.additions), len(pairs.deletions))
    row_held = [pair for rows in (edits._add_rows, edits._del_rows) for pair in row_pairs(rows)]
    assert row_held and all(edits._strays)
    assert any(0 < s <= n and 0 < q <= m for s, q in edits._strays[0])  # strays past the budget
    so, qo = tuple(rng.sample(range(1, n + 1), n)), tuple(rng.sample(range(1, m + 1), m))
    spec_inst = with_base_orders(inst, so, qo)
    for spec in (ProblemSpec(Variant.CONSTRAINED_KNEAR, Mode.EDITING, 1), ProblemSpec(Variant.IMO_RECOGNIZE)):
        cost = edits.size + rng.choice([0, 0, 1])
        report = verify_solution(spec_inst, spec, Solution(cost, so, qo, edits, "t"))
        want = _reference_verify(spec_inst, spec, Solution(cost, so, qo, pairs, "t"))
        assert [(c.name, c.passed, c.detail) for c in report.checks] == want
    assert _outcome(lambda: apply_edits(inst, edits)) == _outcome(lambda: _apply_edits_reference(inst, pairs))
    sol = Solution(edits.size, so, qo, edits, "t")
    assert format_solution(sol, True) == _sorted_tuple_writer(Solution(sol.cost, so, qo, pairs, "t"), True)


_FUZZ_BASES = {
    parse_instance: FIG1_TEXT + "students: 3 1 2\nquestions: 1 2 3 4 5\n",
    parse_solution: format_solution(
        Solution(2, (1, 2, 3), (1, 2, 3, 4, 5), EditSet.of([(1, 3)], [(3, 5)]), "t"), verified=True
    ),
}
_FUZZ_TOKENS = (
    "chainrank", "v1", "chainrank v1", "chainrank-solution v1", "students:", "questions:",
    "cost:", "student_order:", "question_order:", "additions:", "deletions:", "solver_tag:",
    "verified:", "true", ":", "#", " ", "\n", "0", "1", "-1", "1.5", "x",
)


@settings(max_examples=400, deadline=None)
@given(
    parse=st.sampled_from(list(_FUZZ_BASES)),
    edits=st.lists(
        st.tuples(
            st.none() | st.sampled_from(_FUZZ_TOKENS) | st.integers(-3, 99).map(str),
            st.integers(0, 10**4),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_parsers_raise_only_usage_errors(parse, edits):
    """Valid files with characters deleted (None) or tokens inserted parse,
    or raise a ChainRankError that the command line turns into exit 1."""
    text = _FUZZ_BASES[parse]
    for token, at in edits:
        at %= len(text) + 1
        text = text[:at] + text[at + 1 :] if token is None else text[:at] + token + text[at:]
    try:
        parse(text)
    except ChainRankError as exc:
        assert not isinstance(exc, CorruptTableError)  # the one subclass that exits 3


_SWEEP_BASE = "chainrank v1 4 5\n11000\n10110\n11101\n11111\nstudents: 2 1 4 3\nquestions: 1 3 2 5 4\n"
_SWEEP_TOKENS = (
    "0", "1", "-1", "3", "4", "5", "6", "x", "00000", "11111", "01110", "1011", "111111",
    "students:", "questions:", "#", "chainrank", "v1", "1" + "0" * 30,
)


def _run_main(argv: list[str]) -> tuple[int, str]:
    """``main(argv)`` in this process, as (exit code, standard error)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _mutations(tokens: tuple[str, ...]):
    """Up to three edits of a file for ``_mutated``, inserting or replacing
    with one of ``tokens``."""
    return st.lists(
        st.tuples(
            st.sampled_from(["swap", "replace", "delete", "insert", "drop line", "repeat line"]),
            st.integers(0, 99),
            st.integers(0, 99),
            st.integers(0, 99),
            st.integers(0, 99),
            st.sampled_from(tokens),
        ),
        min_size=1,
        max_size=3,
    )


def _mutated(text: str, mutations) -> str:
    """``text`` with tokens swapped, replaced, deleted or inserted, or lines
    dropped or repeated."""
    lines = [line.split() for line in text.splitlines()]
    for op, at, pos, other_at, other_pos, token in mutations:
        i, other = at % len(lines), other_at % len(lines)
        if op == "drop line" and len(lines) > 1:
            del lines[i]
        elif op == "repeat line":
            lines.insert(i, list(lines[i]))
        elif op == "insert" or not lines[i]:
            lines[i].insert(pos % (len(lines[i]) + 1), token)
        elif op == "swap" and lines[other]:
            pos, other_pos = pos % len(lines[i]), other_pos % len(lines[other])
            lines[i][pos], lines[other][other_pos] = lines[other][other_pos], lines[i][pos]
        elif op == "replace":
            lines[i][pos % len(lines[i])] = token
        else:
            del lines[i][pos % len(lines[i])]
    return "\n".join(map(" ".join, lines)) + "\n"


@seed(24)
@settings(max_examples=300, deadline=None, database=None)
@given(
    mutations=_mutations(_SWEEP_TOKENS),
    variant=st.sampled_from(["constrained", "both"]),
    mode=st.sampled_from(["editing", "addition"]),
    k=st.sampled_from([0, 3, 4, 10**30]),  # 0, n-1, n and far past n for the 4 students
)
def test_solve_survives_token_mutations(mutations, variant, mode, k):
    """``chainrank solve`` on a small instance file with tokens swapped,
    replaced, deleted or inserted, or lines dropped or repeated, exits 0, 1
    or 2 with no traceback, and a solution it writes passes ``chainrank
    check``."""
    flags = ["--variant", variant, "--mode", mode, "--k", str(k)]
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp, "in.txt"), Path(tmp, "out.sol")
        inp.write_text(_mutated(_SWEEP_BASE, mutations))
        code, err = _run_main(["solve", *flags, "--input", str(inp), "--output", str(out)])
        assert code in (0, 1, 2) and "Traceback" not in err, err
        if code == 0:
            assert _run_main(["check", *flags, "--input", str(inp), "--solution", str(out)]) == (0, "")


# A solution of constrained editing at k = 0 on _SWEEP_BASE, as ``solve``
# writes it, and ids at and past what per-student rows hold.
_SWEEP_SOLUTION = """chainrank-solution v1
cost: 3
student_order: 2 1 4 3
question_order: 1 3 2 5 4
additions: 1
1 3
deletions: 2
2 4
4 4
solver_tag: dp.constrained_knear.editing
verified: true
"""
_SWEEP_IDS = ("-1", "0", str(1 << 16), str((1 << 16) + 1), str(10**12), str(10**30))


@seed(25)
@settings(max_examples=200, deadline=None, database=None)
@given(
    mutations=_mutations(_SWEEP_IDS),
    variant=st.sampled_from(["constrained", "both"]),
    mode=st.sampled_from(["editing", "addition"]),
    k=st.sampled_from([0, 1, 10**30]),
)
def test_check_survives_token_mutations(mutations, variant, mode, k):
    """``chainrank check`` on a small solution file whose tokens are
    replaced or joined by ids of -1, 0, 2^16, 2^16 + 1, 10^12 and 10^30,
    swapped or deleted, or whose lines are dropped or repeated, exits 0, 1
    or 2 with no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        inp, sol = Path(tmp, "in.txt"), Path(tmp, "sol.txt")
        inp.write_text(_SWEEP_BASE)
        sol.write_text(_mutated(_SWEEP_SOLUTION, mutations))
        flags = ["--variant", variant, "--mode", mode, "--k", str(k)]
        code, err = _run_main(["check", *flags, "--input", str(inp), "--solution", str(sol)])
        assert code in (0, 1, 2) and "Traceback" not in err, err


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT + "students: 1 2 3\nquestions: 1 2 3 4 5\n")
    return path


class TestCli:
    def test_recognize_ideal_instance(self, fig1_file, capsys):
        assert main(["recognize", "--input", str(fig1_file)]) == 0
        out = capsys.readouterr().out
        assert "IDEAL" in out and "student_order: 1 2 3" in out

    def test_recognize_rejects_crossing(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("chainrank v1 2 2\n10\n01\n")
        assert main(["recognize", "--input", str(path)]) == 2
        assert "NOT_IDEAL" in capsys.readouterr().out

    def test_solve_and_check_round_trip(self, fig1_file, tmp_path, capsys):
        sol_path = tmp_path / "sol.txt"
        code = main([
            "solve", "--variant", "constrained", "--mode", "addition", "--k", "1",
            "--input", str(fig1_file), "--output", str(sol_path),
        ])
        assert code == 0
        assert "cost: 0" in capsys.readouterr().out
        code = main([
            "check", "--input", str(fig1_file), "--solution", str(sol_path),
            "--variant", "constrained", "--mode", "addition", "--k", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS student_order_constraint: max displacement 0 vs bound 1" in out
        assert "PASS question_order_constraint: max displacement 0 vs bound 0" in out

    @pytest.mark.parametrize(
        "good_line, bad_line",
        [
            ("1 3", "1 x"),
            ("student_order: 1 2 3", "student_order: 1 two 3"),
            ("question_order: 1 2 3 4 5", "question_order: 1 2 3 4 5x"),
        ],
    )
    def test_check_rejects_non_integer_token(self, fig1_file, tmp_path, capsys, good_line, bad_line):
        sol = Solution(1, (1, 2, 3), (1, 2, 3, 4, 5), EditSet.of([(1, 3)]), "t")
        text = format_solution(sol, verified=False)
        assert f"\n{good_line}\n" in text
        sol_path = tmp_path / "sol.txt"
        sol_path.write_text(text.replace(f"\n{good_line}\n", f"\n{bad_line}\n"))
        code = main(["check", "--input", str(fig1_file), "--solution", str(sol_path)])
        assert code == 1
        assert "expected integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "good_line, bad_line", [("additions: 0", "additions: -3"), ("deletions: 0", "deletions: -1")]
    )
    def test_check_rejects_negative_count(self, fig1_file, tmp_path, capsys, good_line, bad_line):
        sol = Solution(0, (1, 2, 3), (1, 2, 3, 4, 5), EditSet(), "t")
        text = format_solution(sol, verified=False)
        assert f"\n{good_line}\n" in text
        sol_path = tmp_path / "sol.txt"
        sol_path.write_text(text.replace(f"\n{good_line}\n", f"\n{bad_line}\n"))
        code = main(["check", "--input", str(fig1_file), "--solution", str(sol_path)])
        assert code == 1
        assert f"bad count for {good_line.split(':')[0]}" in capsys.readouterr().err

    def test_check_catches_tampered_cost(self, fig1_file, tmp_path, capsys):
        sol_path = tmp_path / "sol.txt"
        main([
            "solve", "--variant", "both", "--mode", "editing", "--k", "1",
            "--input", str(fig1_file), "--output", str(sol_path),
        ])
        sol, verified = read_solution(sol_path)
        tampered = Solution(sol.cost + 1, sol.student_order, sol.question_order, sol.edits, sol.solver_tag)
        sol_path.write_text(format_solution(tampered, verified))
        code = main(["check", "--input", str(fig1_file), "--solution", str(sol_path)])
        assert code == 2
        assert "FAIL cost_matches_edits" in capsys.readouterr().out

    @pytest.mark.parametrize("pair", ["1 1000000000000", "1000000000000 1"])
    def test_check_rejects_huge_ids_quickly(self, fig1_file, tmp_path, capsys, pair):
        sol_path = tmp_path / "sol.txt"
        sol_path.write_text(
            "chainrank-solution v1\ncost: 1\nstudent_order: 1 2 3\nquestion_order: 1 2 3 4 5\n"
            f"additions: 1\n{pair}\ndeletions: 0\nsolver_tag: t\nverified: true\n"
        )
        start = time.perf_counter()
        code = main(["check", "--input", str(fig1_file), "--solution", str(sol_path)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "FAIL edit_set_valid" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "pairs",
        [
            [f"{s} 1000000" for s in range(1, 20001)],
            ["1000000000000 1"],
            ["1 1000000000000"],
        ],
        ids=["20000-students-at-question-1000000", "huge-student", "huge-question"],
    )
    def test_hostile_ids_check_quickly_in_little_memory(self, fig1_file, tmp_path, capsys, pairs):
        """Ids past what per-student rows hold are read as pairs: the check
        fails in under 1 s, and the parse traces a few MB, not a row of a
        million bits per student."""
        text = (
            "chainrank-solution v1\ncost: 1\nstudent_order: 1 2 3\nquestion_order: 1 2 3 4 5\n"
            f"additions: {len(pairs)}\n" + "\n".join(pairs) + "\ndeletions: 0\nsolver_tag: t\nverified: true\n"
        )
        sol_path = tmp_path / "sol.txt"
        sol_path.write_text(text)
        start = time.perf_counter()
        code = main(["check", "--input", str(fig1_file), "--solution", str(sol_path)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "FAIL edit_set_valid" in capsys.readouterr().out
        gc.collect()
        tracemalloc.start()
        try:
            sol, _ = parse_solution(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.edits.counts == (len(pairs), 0)
        assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("role", ["solve --input", "check --input", "check --solution", "reduce --cnf"])
    def test_invalid_utf8_is_a_parse_error(self, fig1_file, tmp_path, capsys, role):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"chainrank v1 1 1\n\xff\n")
        sol_path = tmp_path / "sol.txt"
        assert main(["solve", "--variant", "constrained", "--input", str(fig1_file), "--output", str(sol_path)]) == 0
        capsys.readouterr()
        command, _, flag = role.partition(" ")
        files = {
            "solve": {"--input": fig1_file},
            "check": {"--input": fig1_file, "--solution": sol_path},
            "reduce": {"--cnf": fig1_file, "--output": tmp_path / "red.txt"},
        }[command]
        files[flag] = bad
        variant = ["--variant", "constrained"] if command != "reduce" else []
        code = main([command, *variant, *(a for key, path in files.items() for a in (key, str(path)))])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error[PARSE_ERROR]: line 2: invalid UTF-8 byte 0xff\n"

    def test_unconstrained_editing_refused_without_flag(self, fig1_file, capsys):
        code = main([
            "solve", "--variant", "unconstrained", "--mode", "editing", "--k", "1",
            "--input", str(fig1_file),
        ])
        assert code == 1
        assert "NP-hard" in capsys.readouterr().err

    def test_unconstrained_editing_with_flag(self, fig1_file, capsys):
        code = main([
            "solve", "--variant", "unconstrained", "--mode", "editing", "--k", "1",
            "--input", str(fig1_file), "--exponential-ok",
        ])
        assert code == 0
        assert "cost: 0" in capsys.readouterr().out

    def test_unconstrained_editing_over_the_cap(self, fig1_file, capsys):
        code = main([
            "solve", "--variant", "unconstrained", "--mode", "editing", "--k", "1",
            "--input", str(fig1_file), "--exponential-ok", "--cap", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error[INSTANCE_TOO_LARGE]: 3 orderings to enumerate exceeds the cap of 1" in err

    def test_usage_error_exits_one(self, capsys):
        assert main(["solve", "--variant", "bogus", "--input", "x"]) == 1

    def test_gen_reduce_oracle_pipeline(self, tmp_path, capsys):
        inst_path = tmp_path / "gen.txt"
        code = main([
            "gen", "--students", "5", "--questions", "5", "--seed", "3",
            "--flips", "2", "--k-perturb", "1", "--output", str(inst_path),
        ])
        assert code == 0
        sol_path = tmp_path / "oracle.txt"
        code = main([
            "oracle", "--variant", "both", "--mode", "editing", "--k", "1",
            "--input", str(inst_path), "--output", str(sol_path),
        ])
        assert code == 0
        code = main([
            "check", "--input", str(inst_path), "--solution", str(sol_path),
            "--variant", "both", "--k", "1",
        ])
        assert code == 0

        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        red_path = tmp_path / "red.txt"
        assert main(["reduce", "--cnf", str(cnf), "--output", str(red_path)]) == 0
        out = capsys.readouterr().out
        assert "t_phi = 2" in out
        sol2 = tmp_path / "red_sol.txt"
        code = main([
            "solve", "--variant", "unconstrained", "--mode", "editing", "--k", "1",
            "--exponential-ok", "--input", str(red_path), "--output", str(sol2),
        ])
        assert code == 0
        assert "cost: 2" in capsys.readouterr().out

    def test_reduce_reads_a_satlib_trailer(self, tmp_path):
        text = "p cnf 3 2\n1 -2 3 0\n-1 2 0\n"
        outputs = []
        for name, body in (("plain", text), ("satlib", text + "%\n0\n")):
            cnf = tmp_path / f"{name}.cnf"
            cnf.write_text(body)
            assert main(["reduce", "--cnf", str(cnf), "--output", str(tmp_path / f"{name}.txt")]) == 0
            outputs.append((tmp_path / f"{name}.txt").read_bytes())
        assert outputs[0] == outputs[1]

    def test_reduce_rejects_a_cut_file(self, tmp_path, capsys):
        cnf = tmp_path / "cut.cnf"
        cnf.write_text("p cnf 3 5\n1 -2 3 0\n-1 2 0\n")
        assert main(["reduce", "--cnf", str(cnf), "--output", str(tmp_path / "red.txt")]) != 0
        assert "5 clauses" in capsys.readouterr().err
        assert not (tmp_path / "red.txt").exists()

    @pytest.mark.parametrize(
        "size, seed, noise, digest",
        [
            ("5x7", 1, ["--flips", "6"], "0c141bb42aa29a2c901c02246462dda77122e4cb4d399a4727aa43be450b0b0c"),
            ("12x9", 2, ["--flips", "20", "--k-perturb", "2"], "f54979888d6da3a1366988df4a7005667473be4f01fb32bfb843753ba309a879"),
            ("40x40", 3, ["--flips", "160"], "3b9511364638728f2e1e5a4e25e9f88fb565781cc21385d99f392db7ca98f894"),
            ("5x7", 1, ["--flip-prob", "0.1"], "9fd80512b0514614fc0984d4db01514b90a29e361dc516086fd0b4e0fdb5f1d3"),
            ("12x9", 2, ["--flip-prob", "0.3", "--k-perturb", "2"], "c5150637032f25501ed57672adcbc48bf9cfb7a54d7e10d44b6a1615ac69c6c4"),
            ("40x40", 3, ["--flip-prob", "0.1"], "6e47fdb410ed87f29b16c2027234b5fd75671722d226ed0ba9e8a25c50ad03dd"),
            ("5x7", 1, ["--noise-mode", "add", "--flips", "6"], "617be87c8fbbe2da0056a428bab23701e3a88eceb9117de3139a230acff7caa3"),
            ("12x9", 2, ["--noise-mode", "add", "--flip-prob", "0.3", "--k-perturb", "2"], "5559c214867b7f2df32c378ffd0a677568d94f783ed8bb4de1c120265e3b67b9"),
            ("12x9", 2, ["--noise-mode", "delete", "--flips", "20", "--k-perturb", "2"], "31d66bcc3a88bc05712a66bc9ce710e94650ebbbabe0b8f4633857c27a930c79"),
            ("40x40", 3, ["--noise-mode", "delete", "--flip-prob", "0.1"], "e8c183b93f0cd684ca24a3a428a918137a23a0dd5024104c6c08e8f65b81bad9"),
        ],
    )
    def test_gen_output_is_pinned(self, tmp_path, size, seed, noise, digest):
        """Generated files keep their bytes: the digests were recorded when
        every noise mode drew from a list of (s, q) pairs, not from indices."""
        students, questions = size.split("x")
        path = tmp_path / "gen.txt"
        code = main([
            "gen", "--students", students, "--questions", questions, "--seed", str(seed),
            *noise, "--output", str(path),
        ])
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_gen_rejects_negative_flips(self, tmp_path, capsys):
        code = main([
            "gen", "--students", "3", "--questions", "3", "--flips", "-4",
            "--output", str(tmp_path / "gen.txt"),
        ])
        assert code == 1
        assert "flip_count must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "gen.txt").exists()

    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli_io, "_cmd_gen", exhausted)
        code = main(["gen", "--students", "3", "--questions", "3", "--output", str(tmp_path / "gen.txt")])
        assert code == 1
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize(
        "variant, mode, k, size, seed, noise, digest",
        [
            ("constrained", "editing", 1, "40x40", 11, ["--flips", "160", "--k-perturb", "1"], "246188fe7776fbd6dbfa20565b312e84b44ec8d6c569fb46f6883247f83c5016"),
            ("constrained", "editing", 2, "50x45", 12, ["--flip-prob", "0.1", "--k-perturb", "2"], "38ff1d2093daaca643b1c89276ada22e2869fe7b5619a80995d8db163b123a0f"),
            ("constrained", "addition", 1, "60x50", 13, ["--flips", "300", "--k-perturb", "1"], "15b93986b2edd8258c9f122e2d4ed40534b0fdd6ed63f85ec7d8411ae07ec9a7"),
            ("constrained", "addition", 2, "30x36", 14, ["--flip-prob", "0.15", "--k-perturb", "2"], "e5d1311a4087f2ca080c221067a4b1d9b9eec8a7ea0c1d061b8e9f4c0d7dbe66"),
            ("both", "editing", 1, "60x60", 15, ["--flips", "360", "--k-perturb", "1"], "00e892339d4d9a7fc448f9ed8f85760da2d2822b88424ae3e28ac9c365a244fc"),
            ("both", "editing", 2, "30x30", 16, ["--flip-prob", "0.1", "--k-perturb", "2"], "74f54ce1d379f730f9d7f1ad6b4f123104cf5575db4d3b28bf0cb958f28179c9"),
            ("both", "addition", 1, "50x40", 17, ["--flips", "200", "--k-perturb", "1"], "59fd27540e3387f2473bb9f608b5e36a96f253f726701ac273ec01e45c6b3a79"),
            ("both", "addition", 2, "40x40", 18, ["--flip-prob", "0.1", "--k-perturb", "2"], "044a647a4468dcdec291bb65efbab745067a88b86b0a3c7fb0fd30194651f07e"),
            ("fixed-side/students", "editing", 0, "30x25", 21, ["--flips", "120", "--k-perturb", "1"], "46a2ab926da8b7eb115773e1cceabe711c9ca06b59e8edcc28e5234ee17477ef"),
            ("fixed-side/students", "addition", 0, "25x30", 22, ["--flip-prob", "0.15"], "f8f5e33b808f8d5fa97af886b756d3abf2521b4f7497525167d8544f4014591a"),
            ("fixed-side/questions", "editing", 0, "25x30", 23, ["--flip-prob", "0.1", "--k-perturb", "2"], "6c9a7e093663cd076344683978ca46456eaf71f22fc9952c43962e9497042967"),
            ("fixed-side/questions", "addition", 0, "30x25", 24, ["--flips", "100"], "db590c029f8bf6a9d8f865b1b3e08690d780b36cd60b187df559d21686f12982"),
            ("unconstrained", "addition", 1, "40x40", 25, ["--flips", "160", "--k-perturb", "1"], "fb52634f208a698780c97e3220ae6d44a44f095d0eaccb725c3feca39ddf7375"),
            ("unconstrained", "addition", 2, "50x45", 26, ["--flip-prob", "0.1", "--k-perturb", "2"], "545768b98504d1df0e9089f7ec2589d22b08595f8c6913ded6fa3c4b708aea06"),
            ("unconstrained", "addition", 9, "9x8", 27, ["--flip-prob", "0.2", "--k-perturb", "3"], "5db188e3e42ff1b13c32725352951d90f377029dc05486f5efb5f30bb9d6337a"),
            ("constrained", "editing", 19, "20x15", 28, ["--flips", "40", "--k-perturb", "2"], "6a52afda41afb793b3411d1d82813c3d7cca16778284a531ba1fd34b74866217"),
            ("constrained", "addition", 25, "20x15", 29, ["--flip-prob", "0.1", "--k-perturb", "2"], "407f4e371a8475fdc8440111b763b082cc01da5fb27be6d4f1d85db2e8b36738"),
            ("both", "editing", 6, "9x6", 30, ["--flips", "10", "--k-perturb", "2"], "61df52b5f181bba72ebf18792094e55d97efa0ea9915f9716da448b6c3b10fc8"),
            ("both", "addition", 5, "9x6", 31, ["--flip-prob", "0.2", "--k-perturb", "2"], "8f38aac3bb0e4bd1a2257f7e9cf2118ffad234fc229516e6bee5746d88a70349"),
            ("unconstrained", "editing", 3, "10x10", 41, ["--flip-prob", "0.15", "--k-perturb", "3"], "471120b53343abb54e1a7c3120f7b3384de5e142b8b4d5f73420271bc06be41c"),
            ("unconstrained", "editing", 2, "12x12", 42, ["--flips", "25", "--k-perturb", "2"], "8f990458ae6dcde9fcbe7548da97c5e164bde940ba536d989125a71ac6d438d2"),
            ("unconstrained", "editing", 1, "16x16", 43, ["--flip-prob", "0.1", "--k-perturb", "1"], "e8816589beb772bc9a52c9d5cb2297c422eab197eb3aaac7eeb9de433b2bdbc3"),
            ("unconstrained", "editing", 9, "7x7", 44, ["--flips", "10", "--k-perturb", "3"], "59be26b2f65f3ed9c5fa0daed5a4a6c2f375d6c51e8a196848bd3d52e8fe62ba"),
        ],
    )
    def test_frontier_solution_is_pinned(self, tmp_path, variant, mode, k, size, seed, noise, digest):
        """Solution files keep their bytes, ties included. The first eight
        digests were recorded when every frontier state merged its own
        parents; the rest (fixed-side on each side, unconstrained addition,
        bounds at or past a side's size minus 1) when each per-variant solver
        still stated and clamped its own bounds. ``variant`` may name a fixed
        side after a slash. The unconstrained editing rows, solved by the
        branch-and-bound, were recorded while its candidates still came from
        a deadline rule over the base order, not from the automaton."""
        students, questions = size.split("x")
        variant, _, side = variant.partition("/")
        inst_path, sol_path = tmp_path / "gen.txt", tmp_path / "sol.txt"
        assert main([
            "gen", "--students", students, "--questions", questions, "--seed", str(seed),
            *noise, "--output", str(inst_path),
        ]) == 0
        assert main([
            "solve", "--variant", variant, *(["--fixed-side", side] if side else []),
            *(["--exponential-ok"] if (variant, mode) == ("unconstrained", "editing") else []),
            "--mode", mode, "--k", str(k), "--input", str(inst_path), "--output", str(sol_path),
        ]) == 0
        assert hashlib.sha256(sol_path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("k", ["39", "40"])
    @pytest.mark.parametrize(
        "variant, mode",
        [("both", "editing"), ("both", "addition"), ("unconstrained", "addition")],
    )
    def test_solve_refuses_oversize_table(self, tmp_path, capsys, variant, mode, k):
        inst_path, sol_path = tmp_path / "gen.txt", tmp_path / "sol.txt"
        assert main([
            "gen", "--students", "40", "--questions", "40", "--seed", "3", "--flips", "160",
            "--k-perturb", "2", "--output", str(inst_path),
        ]) == 0
        capsys.readouterr()
        start = time.perf_counter()
        code = main([
            "solve", "--variant", variant, "--mode", mode, "--k", k,
            "--input", str(inst_path), "--output", str(sol_path),
        ])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert "INSTANCE_TOO_LARGE" in err and "GiB" in err
        assert "Traceback" not in err
        assert not sol_path.exists()

    def test_solve_fixed_side_needs_side(self, fig1_file, capsys):
        code = main(["solve", "--variant", "fixed-side", "--input", str(fig1_file)])
        assert code == 1
        assert "--fixed-side" in capsys.readouterr().err

    def test_solve_fixed_side_needs_base_order(self, tmp_path, capsys):
        path = tmp_path / "no_orders.txt"
        path.write_text(FIG1_TEXT)
        code = main(["solve", "--variant", "fixed-side", "--fixed-side", "questions", "--input", str(path)])
        assert code == 1
        assert "MISSING_BASE_ORDER" in capsys.readouterr().err

    def test_bench_is_gone(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--variant", "constrained", "--sizes", "6", "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid choice: 'bench'" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "solve", "oracle", "solve --cap", "oracle --cap"])
    def test_negative_k_is_a_usage_error(self, fig1_file, tmp_path, capsys, command):
        """``--k -1``, or ``--cap -1`` where the command names that flag."""
        sol_path = tmp_path / "sol.txt"
        assert main(["solve", "--variant", "constrained", "--input", str(fig1_file), "--output", str(sol_path)]) == 0
        name, _, flag = command.partition(" ")
        argv = {
            "check": ["check", "--solution", str(sol_path)],
            "solve": ["solve"],
            "oracle": ["oracle"],
        }[name]
        code = main([*argv, "--input", str(fig1_file), "--variant", "constrained", flag or "--k", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "expected a non-negative integer, got '-1'" in err
