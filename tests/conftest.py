from __future__ import annotations

import random
import struct

import pytest

from chainrank import Instance, Mode, Variant, make_instance

# The (variant, mode) pairs that a polynomial dynamic program solves.
DP_VARIANT_MODES = (
    (Variant.CONSTRAINED_KNEAR, Mode.EDITING),
    (Variant.CONSTRAINED_KNEAR, Mode.ADDITION),
    (Variant.UNCONSTRAINED_KNEAR, Mode.ADDITION),
    (Variant.BOTH_KNEAR, Mode.EDITING),
    (Variant.BOTH_KNEAR, Mode.ADDITION),
)


def figure_one() -> Instance:
    """Three students answering prefixes of lengths 2, 4, 5 over five
    questions; the canonical tiny ideal instance."""
    edges = [(1, q) for q in (1, 2)]
    edges += [(2, q) for q in (1, 2, 3, 4)]
    edges += [(3, q) for q in (1, 2, 3, 4, 5)]
    return make_instance(3, 5, edges)


def adjacency(inst) -> tuple[tuple[int, ...], ...]:
    """``adjacency(inst)[s - 1]``: the question ids of student s, ascending,
    read off its bitset."""
    qids = range(1, inst.num_questions + 1)
    return tuple(tuple(q for q in qids if b >> (q - 1) & 1) for b in inst.adj_bits)


def row_pairs(rows) -> list[tuple[int, int]]:
    """The (student, question) pairs of per-student bitsets (index s-1),
    read bit by bit."""
    return [(s, q) for s, row in enumerate(rows, start=1) for q in range(1, row.bit_length() + 1) if row >> (q - 1) & 1]


# The infinite cell of a packed frontier row: all 31 value bits set.
CELL_INF = (1 << 31) - 1


def fields(row: int, off: int, nq: int) -> list[int]:
    """The nq raw 32-bit fields of a banded frontier row that starts at
    question state ``off``, as the engine lays them out on every host:
    field qi - off is bits 32(qi - off) to 32(qi - off) + 31, the
    (qi - off)-th little-endian word of the row's bytes, and every field
    below ``off`` is the all-ones field."""
    return [CELL_INF] * off + list(struct.unpack(f"<{nq - off}I", row.to_bytes(4 * (nq - off), "little")))


def cells(row: int, off: int, nq: int) -> list:
    """The nq cells of a banded frontier row, the all-ones field as inf:
    every cell below ``off`` is inf."""
    return [float("inf") if c == CELL_INF else c for c in fields(row, off, nq)]


def layer_cells(layer, nq: int) -> list[list]:
    """The cells of every row of a frontier layer, a pair (rows, offsets)."""
    rows, offs = layer
    return [cells(row, off, nq) for row, off in zip(rows, offs)]


def with_cell(row: int, off: int, nq: int, qi: int, value) -> tuple[int, int]:
    """(row, offset) for ``row`` with cell qi set to ``value`` (inf as the
    all-ones field). A finite value below ``off`` moves the offset down to
    qi, the cells between staying inf."""
    raw = fields(row, off, nq)
    raw[qi] = CELL_INF if value == float("inf") else value
    if value != float("inf"):
        off = min(off, qi)
    return int.from_bytes(struct.pack(f"<{nq - off}I", *raw[off:]), "little"), off


def cost_cells_reference(inst: Instance, qstates, mode: Mode) -> list[list]:
    """The frontier engine's per-student cost cells, one popcount per cell:
    label u (the student at base position u; label 0 answers nothing) at a
    question state with target t costs |b ^ t| in editing, b its
    neighborhood in the same question-position bits, and in addition the
    same where b lies inside t and inf elsewhere."""
    position = {q: p for p, q in enumerate(inst.base_question_order)}
    rows = adjacency(inst)
    nb = [0] + [sum(1 << position[q] for q in rows[s - 1]) for s in inst.base_student_order]
    targets = [st[3] for st in qstates]
    if mode == Mode.EDITING:
        return [[(b ^ t).bit_count() for t in targets] for b in nb]
    return [[(b ^ t).bit_count() if b & t == b else float("inf") for t in targets] for b in nb]


@pytest.fixture
def fig1() -> Instance:
    return figure_one()


def random_instance(
    rng: random.Random,
    max_side: int = 6,
    density: float | None = None,
    with_orders: bool = True,
) -> Instance:
    n = rng.randint(1, max_side)
    m = rng.randint(1, max_side)
    p = density if density is not None else rng.choice([0.2, 0.5, 0.8])
    edges = [
        (s, q)
        for s in range(1, n + 1)
        for q in range(1, m + 1)
        if rng.random() < p
    ]
    so = tuple(rng.sample(range(1, n + 1), n)) if with_orders else None
    qo = tuple(rng.sample(range(1, m + 1), m)) if with_orders else None
    return make_instance(n, m, edges, so, qo)
