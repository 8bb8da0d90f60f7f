"""Iceberg module: column histograms, uniformity, jump matrices, body reports."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import icelab as il
from icelab import iceberg
from icelab.errors import ConfigurationError, ResourceRefusal


# ---------------------------------------------------------------------------
# Column histograms
# ---------------------------------------------------------------------------


def test_cat_stage0_columns(cat_schedule):
    ib = il.from_stage(cat_schedule, 0)
    # rotations (0,1,2,2,0,1) on h=3: values 0,1,2 twice each
    assert ib.h == 3 and ib.q == 6
    assert ib.cuts.tolist() == [0, 1, 2] and ib.counts.tolist() == [2, 2, 2]
    assert [Fraction(c, ib.q) for c in ib.counts.tolist()] == [Fraction(1, 3)] * 3


def test_cat_stage0_uniformity_zero(cat_schedule):
    # Weights 1/3 each on h=3 -> exactly uniform.
    assert il.uniformity_deviation(il.from_stage(cat_schedule, 0)) == 0.0


def test_single_column_deviation():
    # One column of weight 1 on h=4: |1 - 1/4| + 3/4 = 3/2.
    ib = il.Iceberg(h=4, q=1, cuts=[2], counts=[1], cyclic=True)
    assert il.uniformity_deviation(ib) == pytest.approx(1.5)


def test_uniform_iceberg_deviation_zero():
    ib = il.Iceberg(h=5, q=5, cuts=np.arange(5), counts=[1] * 5, cyclic=True)
    assert il.uniformity_deviation(ib) == 0.0


@pytest.mark.parametrize("counts", [((1, 0), (2, 3)), ((1, -1), (2, 2), (3, 2))])
def test_iceberg_refuses_a_count_below_one(counts):
    # The rectangle sweep relies on every column having a copy: a zero or
    # negative count would let a reversed cut window (i > j) score highest.
    cuts, cnts = zip(*counts)
    with pytest.raises(ConfigurationError, match="positive"):
        il.Iceberg(h=4, q=sum(cnts), cuts=cuts, counts=cnts, cyclic=True)


@pytest.mark.parametrize("counts", [((3, 1), (1, 1)), ((1, 1), (1, 1))],
                         ids=["decreasing", "repeated"])
def test_iceberg_refuses_cut_values_out_of_order(counts):
    # The rectangle sweep and the uniformity deviation read the cuts as the
    # distinct, increasing values of a histogram: (3, 1), (1, 1) made the
    # sweep raise "cut window outside [1, h]", and (1, 1), (1, 1) gave a
    # deviation of 1.0 where weight 1 at cut 1 on h = 4 has 1.5.
    cuts, cnts = zip(*counts)
    with pytest.raises(ConfigurationError, match="distinct and increasing"):
        il.Iceberg(h=4, q=2, cuts=cuts, counts=cnts, cyclic=True)


@pytest.mark.parametrize("cuts, counts", [([1], [1, 1]), ([0, 1], [2]), ([[0, 1]], [[1, 1]])],
                         ids=["more-counts", "more-cuts", "2-d"])
def test_iceberg_refuses_cuts_and_counts_of_other_shapes(cuts, counts):
    # Without the pairs of the old format nothing else ties a count to its
    # cut: [1] with [1, 1] passed every other check and the sweep read one
    # column of weight 1/2.
    with pytest.raises(ConfigurationError, match="one length"):
        il.Iceberg(h=4, q=2, cuts=cuts, counts=counts, cyclic=True)


def test_iceberg_and_jump_matrix_fields_are_read_only(cat_schedule):
    ib = il.from_stage(cat_schedule, 0)
    jm = il.jump_matrix(cat_schedule.stages[0], 3)
    assert ib.cuts.dtype == ib.counts.dtype == jm.cells.dtype == np.int64
    for arr in (ib.cuts, ib.counts, jm.cells[0]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    counts = np.array([1, 1])  # an Iceberg never sets its caller's flags
    il.Iceberg(h=4, q=2, cuts=[0, 1], counts=counts)
    assert counts.flags.writeable


def test_from_stage_refuses_spacers():
    sch = il.rank_one_schedule("staircase", [3])
    with pytest.raises(ConfigurationError):
        il.from_stage(sch, 0)
    ib = il.from_stage(sch, 0, allow_spacers=True)
    assert not ib.cyclic


# ---------------------------------------------------------------------------
# Jump matrices
# ---------------------------------------------------------------------------


def test_jump_matrix_counts(cat_schedule):
    st_ = cat_schedule.stages[0]  # rotations (0,1,2,2,0,1)
    jm = il.jump_matrix(st_, 3)
    # successive pairs cyclically: (0,1),(1,2),(2,2),(2,0),(0,1),(1,0)
    cells = {(a, b): c for a, b, c in jm.cells.tolist()}
    assert cells == {(0, 1): 2, (1, 2): 1, (2, 2): 1, (2, 0): 1, (1, 0): 1}
    assert sum(cells.values()) == 6


def test_jump_matrix_row_sums_match_histogram(cat_schedule):
    st_ = cat_schedule.stages[0]
    jm = il.jump_matrix(st_, 3)
    hist = {0: 2, 1: 2, 2: 2}
    assert {a: int(jm.cells[jm.cells[:, 0] == a, 2].sum()) for a in hist} == hist


def test_jump_deviation_identity_rotations():
    # alpha_y = y mod h with q = h: every row has a single successor cell.
    h = 8
    st_ = il.Stage(h, tuple(range(h)))
    dev = il.jump_uniformity_deviation(il.jump_matrix(st_, h))
    assert dev == pytest.approx(2 * (1 - 1 / h))


def test_jump_deviation_single_copy():
    st_ = il.Stage(1, (3,))
    dev = il.jump_uniformity_deviation(il.jump_matrix(st_, 8))
    assert dev == pytest.approx(2 * (1 - 1 / 8))


def _row_unique_cells(st_: il.Stage, h: int) -> np.ndarray:
    """Jump cells by a row-wise ``np.unique`` of the (cut, next cut) pairs (the reference)."""
    al = st_.rotations % h
    pairs, cnts = np.unique(np.stack([al, np.roll(al, -1)], axis=1), axis=0, return_counts=True)
    return np.column_stack((pairs, cnts))


@given(
    h=st.one_of(st.integers(1, 64), st.integers(2**31, 2**40), st.integers(1, 2**40)),
    q=st.integers(1, 3000),
    distinct=st.one_of(st.integers(1, 4), st.integers(1, 4000)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_jump_matrix_matches_row_unique_reference(h, q, distinct, seed):
    # Rotations come from a pool of `distinct` values in [0, 2**40), so ties are
    # common when the pool is small; above h = 2**31.5 a key a*h + b overflows int64.
    rng = np.random.default_rng(seed)
    st_ = il.Stage(q, rng.choice(rng.integers(0, 2**40, distinct), q))
    cells = il.jump_matrix(st_, h).cells
    assert cells.dtype == np.int64 and np.array_equal(cells, _row_unique_cells(st_, h))


def test_jump_deviation_decreases_with_q():
    rng = np.random.default_rng(0)
    h = 16
    devs = []
    for q in (h**2, 4 * h**2, 16 * h**2):
        st_ = il.Stage(q, tuple(int(a) for a in rng.integers(0, h, q)))
        devs.append(il.jump_uniformity_deviation(il.jump_matrix(st_, h)))
    assert devs[0] > devs[1] > devs[2]


# ---------------------------------------------------------------------------
# Body reports
# ---------------------------------------------------------------------------


def test_body_depth_zero_or_one(cat_schedule):
    rep = il.body_report(cat_schedule, 0, 1)
    # Stage 0 cuts only create whole copies: all 6 intact.
    assert rep.total_copies == 6 and rep.intact_copies == 6
    assert rep.exact_fraction == 1.0


def test_body_cat_two_stages(cat_schedule):
    rep = il.body_report(cat_schedule, 0, 2)
    assert rep.total_copies == 18
    assert rep.intact_copies == 15
    assert rep.exact_fraction == pytest.approx(15 / 18)
    assert rep.lower_bound <= rep.exact_fraction


def test_body_morse_always_exact():
    for r in (2, 3, 4):
        sch = il.morse_schedule(r, 3, il.word_from_text(il.BINARY, "01" * r))
        for depth in (1, 2, 3):
            rep = il.body_report(sch, 0, depth)
            assert rep.exact_fraction == 1.0
            assert rep.intact_copies == rep.total_copies


def test_body_lower_bound_counts_q64():
    # Three stages of q = 64: Q_1 = 64, Q_2 = 63*64, Q_3 = (63*64 - 1)*64,
    # giving the frozen fraction 4031/4096 of 64^3 copies.
    sch = il.random_schedule([64, 64, 64], 0, il.word_from_text(il.BINARY, "01"))
    counts = il.body_lower_bound_counts(sch, 0, 3)
    q3 = ((64 - 1) * 64 - 1) * 64
    assert counts == [64, 63 * 64, q3]
    assert Fraction(q3, 64**3) == Fraction(4031, 4096)


def test_body_exact_ge_lower_random():
    rng = np.random.default_rng(21)
    w0 = il.word_from_text(il.BINARY, "011")
    for _ in range(25):
        depth = int(rng.integers(1, 4))
        qs = [int(rng.integers(2, 7)) for _ in range(depth)]
        sch = il.random_schedule(qs, int(rng.integers(0, 2**31)), w0)
        rep = il.body_report(sch, 0, depth)
        assert rep.exact_fraction >= rep.lower_bound - 1e-12


def _segment_intact(schedule, n, r):
    """Oracle: intact stage-``n`` copies of ``W_{n+r}`` by splicing a segment list.

    Segments are ``(length, intact)`` in word order; block ``y`` of the next
    word re-origins the list at its cut and severs the segment the cut lands
    strictly inside.  One tuple per segment: 38 MB at 4.4 M segments.
    """
    h_n = schedule.height(n)
    segs = [(h_n, True)] * schedule.stages[n].q
    for m in range(n + 1, n + r):
        bounds = np.concatenate(([0], np.cumsum([L for L, _ in segs])))
        rots = schedule.rotations_mod(m)
        idx = np.searchsorted(bounds, rots, side="right") - 1
        new_segs = []
        for i, off in zip(idx.tolist(), (rots - bounds[idx]).tolist()):
            if off == 0:
                new_segs += segs[i:] + segs[:i]
            else:
                new_segs += [(segs[i][0] - off, False)] + segs[i + 1:] + segs[:i] + [(off, False)]
        segs = new_segs
    return sum(1 for L, intact in segs if intact and L == h_n)


@st.composite
def body_questions(draw):
    """``(schedule, n, r)`` over pure schedules with q = 1 stages, zero
    rotations and rotations that are multiples of the stage height."""
    h = h0 = draw(st.integers(1, 6))
    qs = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    stages = []
    for q in qs:
        kind = draw(st.sampled_from(["any", "zero", "multiple"]))
        if kind == "any":
            rots = draw(st.lists(st.integers(0, 3 * h), min_size=q, max_size=q))
        elif kind == "zero":
            rots = [0] * q
        else:
            rots = [h * k for k in draw(st.lists(st.integers(0, 3), min_size=q, max_size=q))]
        stages.append(il.Stage(q, rots))
        h *= q
    sch = il.Schedule(il.BINARY, il.Word(il.BINARY, np.arange(h0) % 2), tuple(stages))
    n = draw(st.integers(0, sch.depth - 1))
    return sch, n, draw(st.integers(1, sch.depth - n))


# The stage-3 cut 5 sits at 5 = 8 - 3 in block 0 of W_3, whose cut is 3: it
# lands on position 0 of W_2 exactly, and is carried on down to W_1.
_WRAP_TO_ZERO = il.Schedule(il.BINARY, il.word_from_text(il.BINARY, "01"), (
    il.Stage(2, (0, 0)), il.Stage(2, (1, 0)), il.Stage(2, (3, 0)), il.Stage(1, (5,))))


@given(question=body_questions())
@example(question=(_WRAP_TO_ZERO, 0, 4))
@settings(max_examples=300, deadline=None)
def test_body_intact_count_matches_segment_oracle(question):
    sch, n, r = question
    assert il.body_report(sch, n, r).intact_copies == _segment_intact(sch, n, r)


def test_body_deep_stage_costs_nothing_per_segment():
    # The third stage would splice 4,443,895 segments (the list took 38 MB);
    # the cut recursion holds a few arrays of one entry per cut.
    w0 = il.word_from_text(il.Alphabet(tuple("0123")), "0123" * 4)
    sch = il.random_schedule([16, 64, 4096], 5, w0)
    expected = _segment_intact(sch, 0, 3)
    tracemalloc.start()
    try:
        rep = il.body_report(sch, 0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.intact_copies == expected
    assert peak < 4 * 2**20


def test_body_prices_carried_cuts_before_building(monkeypatch):
    # q = 1 stages keep h = 2, so the tower's cost is its cuts carried down,
    # 1 + 1*2 + 1*3 + 5*4 = 26 positions: a small limit stands in for
    # MAX_SYMBOLS, and the spy records every cut array built.
    sch = il.random_schedule([2, 1, 1, 1, 5], 3, il.word_from_text(il.BINARY, "01"))
    built = []
    rotations_mod = il.Schedule.rotations_mod

    def spy(self, m):
        built.append(m)
        return rotations_mod(self, m)

    monkeypatch.setattr(il.Schedule, "rotations_mod", spy)
    monkeypatch.setattr(iceberg, "MAX_SYMBOLS", 25)
    with pytest.raises(ResourceRefusal, match="26 > 25"):
        il.body_report(sch, 0, 5)
    assert built == []
    assert il.body_report(sch, 0, 5, force=True).intact_copies == _segment_intact(sch, 0, 5)
    monkeypatch.setattr(iceberg, "MAX_SYMBOLS", 26)
    assert il.body_report(sch, 0, 5).intact_copies == _segment_intact(sch, 0, 5)


def test_body_requires_pure_stages():
    sch = il.rank_one_schedule("staircase", [3, 3])
    with pytest.raises(ConfigurationError):
        il.body_report(sch, 0, 2)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(
    h=st.integers(min_value=2, max_value=24),
    q=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50, deadline=None)
def test_histogram_invariants(h, q, seed):
    rng = np.random.default_rng(seed)
    st_ = il.Stage(q, tuple(int(a) for a in rng.integers(0, h, q)))
    w0 = il.word_from_text(il.BINARY, "01" * (h // 2) + "0" * (h % 2))
    sch = il.Schedule(il.BINARY, w0, (st_,))
    ib = il.from_stage(sch, 0)
    assert ib.counts.sum() == q
    dev = il.uniformity_deviation(ib)
    assert 0.0 <= dev < 2.0
    jm = il.jump_matrix(st_, h)
    assert jm.cells[:, 2].sum() == q
    jdev = il.jump_uniformity_deviation(jm)
    assert 0.0 <= jdev < 2.0


def _fraction_uniformity(ib: il.Iceberg) -> float:
    """Per-item ``Fraction`` formula of the uniformity deviation (the oracle)."""
    dev = sum(abs(Fraction(c, ib.q) - Fraction(1, ib.h)) for c in ib.counts.tolist())
    return float(dev + Fraction(ib.h - len(ib.counts), ib.h))


def _fraction_jump_uniformity(jm: il.JumpMatrix) -> float:
    """Per-item ``Fraction`` formula of the jump uniformity deviation (the oracle)."""
    cells, dev = jm.cells.tolist(), Fraction(0)
    for a in {a for a, _, _ in cells}:
        cs = [c for a2, _, c in cells if a2 == a]
        row = sum(cs)
        inner = sum(abs(Fraction(c, row) - Fraction(1, jm.h)) for c in cs)
        dev += Fraction(row, jm.q) * (inner + Fraction(jm.h - len(cs), jm.h))
    return float(dev)


@given(
    h=st.one_of(st.integers(1, 64), st.integers(1, 2**62)),
    q=st.integers(1, 120),
    spread=st.integers(1, 2**62),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_deviations_match_fraction_oracle(h, q, spread, seed):
    # Rotations drawn from [0, min(h, spread)) cover both sparse and crowded columns.
    rots = np.random.default_rng(seed).integers(0, min(h, spread), q)
    vals, cnts = np.unique(rots, return_counts=True)
    ib = il.Iceberg(h=h, q=q, cuts=vals, counts=cnts)
    jm = il.jump_matrix(il.Stage(q=q, rotations=tuple(int(a) for a in rots)), h)
    assert il.uniformity_deviation(ib) == _fraction_uniformity(ib)
    assert il.jump_uniformity_deviation(jm) == _fraction_jump_uniformity(jm)
