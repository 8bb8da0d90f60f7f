"""Dynamics module: projections, stepping, jumps, codings, streaming."""

from __future__ import annotations

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import icelab as il
from icelab import cli
from icelab.errors import ConfigurationError


@pytest.fixture(scope="module")
def cat_chain_1(cat_schedule) -> il.ProjectionChain:
    """Chain whose top level is the 18-symbol word."""
    return il.ProjectionChain.build(cat_schedule, 1)


@pytest.fixture(scope="module")
def cat_chain_2(cat_schedule) -> il.ProjectionChain:
    """Chain whose top level is the 54-symbol word."""
    return il.ProjectionChain.build(cat_schedule, 2)


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def test_project_example(cat_chain_1):
    # Position 3 of the 18-symbol word sits at offset 0 of copy 1 (alpha=1).
    assert il.project(cat_chain_1, 3, 0) == 1


def test_project_letter_consistency(cat_chain_2, cat_words):
    # Every position of the 54-symbol word carries the letter of its
    # projected base position.
    for p in range(54):
        x0 = il.project(cat_chain_2, p, 0)
        assert cat_words[2].text[p] == cat_words[0].text[x0]


@pytest.mark.parametrize("x, n, match", [
    (0, -1, "to_level"), (0, 2, "to_level"), (-1, 0, "outside"), (18, 0, "outside"),
    (2**64, 0, "outside"), (-2**63 - 1, 0, "outside"),
], ids=["n=-1", "n=depth+1", "x=-1", "x=h_N", "x=2^64", "x=-2^63-1"])
def test_project_refuses_out_of_range(cat_chain_1, x, n, match):
    with pytest.raises(ConfigurationError, match=match):
        il.project(cat_chain_1, x, n)


def test_project_all_matches_scalar(cat_chain_2):
    coords = il.project_all(cat_chain_2, 1)
    for p in range(54):
        assert coords[p] == il.project(cat_chain_2, p, 1)


def test_project_identity_at_top(cat_chain_2):
    assert np.array_equal(il.project_all(cat_chain_2, 2), np.arange(54))


@pytest.mark.parametrize("family", ["cat", "staircase", "ornstein"])
def test_project_positions_streaming(family, cat_schedule):
    # The arithmetic route agrees with the concatenated route at every level,
    # spacer marks included.
    sch = {
        "cat": cat_schedule,
        "staircase": il.rank_one_schedule("staircase", [3, 3, 2]),
        "ornstein": il.rank_one_schedule("ornstein", [4, 3, 2, 5], seed=7, ratio=1),
    }[family]
    pc = il.ProjectionChain.build(sch)
    pos = np.arange(pc.heights[pc.depth])
    for n in range(pc.depth + 1):
        got = il.project_positions(sch, pos, pc.depth, n)
        assert np.array_equal(got, il.project_all(pc, n))


# ---------------------------------------------------------------------------
# Stepping and jumps
# ---------------------------------------------------------------------------


def test_step_jump_at_2(cat_chain_1):
    res = il.step(cat_chain_1, 2)
    assert res.successor == 3
    assert res.jumps == (True,)
    assert res.regular_index == 1


def test_step_no_jump_at_8(cat_chain_1):
    # Copies 2 and 3 share rotation 2, so the boundary at 8 is seamless.
    res = il.step(cat_chain_1, 8)
    assert res.successor == 9
    assert res.jumps == (False,)
    assert res.regular_index == 0


def test_jump_positions_cat(cat_chain_1):
    got = sorted(int(x) for x in il.jump_positions(cat_chain_1, 0))
    assert got == [2, 5, 11, 14, 17]


def test_jump_positions_top_stage(cat_chain_2):
    # Stage-1 rotations (7,4,11) all differ, so every copy boundary jumps.
    got = sorted(int(x) for x in il.jump_positions(cat_chain_2, 1))
    assert got == [17, 35, 53]


def test_plain_step_mask_shared_by_step_jumps_and_cli(tmp_path):
    # step, jump_positions and the CLI jump trace agree on a schedule with
    # both rotations and spacer runs.
    w0 = il.word_from_text(il.BINARY_SPACER, "010")
    sch = il.Schedule(il.BINARY_SPACER, w0, (
        il.Stage(3, (0, 0, 2), (1, 0, 2)), il.Stage(2, (4, 1), (0, 3)),
    ))
    pc = il.ProjectionChain.build(sch)
    h_N = pc.heights[pc.depth]
    jumps = [set(int(p) for p in il.jump_positions(pc, n)) for n in range(pc.depth)]
    # Steps touching a spacer mark always jump, also a mark followed by 0.
    assert sorted(jumps[0]) == [2, 5, 6, 7, 10, 11, 13, 14, 17, 20, 21, 22, 23, 24, 25, 26]
    steps = [il.step(pc, x) for x in range(h_N)]
    for x, res in enumerate(steps):
        assert res.jumps == tuple(x in j for j in jumps)

    path = tmp_path / "spacer.json"
    il.save_schedule(sch, path)
    out = tmp_path / "o"
    assert cli.run(["build", "--schedule", str(path), "--out", str(out), "--jump-trace"]) == 0
    with open(out / "jumps.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    expected = [(x, res.regular_index) for x, res in enumerate(steps) if res.regular_index > 0]
    assert {r for _, r in expected} == {1, 2}
    assert [(int(r[1]), int(r[2])) for r in rows] == expected


def _regular_indices_by_level(pc: il.ProjectionChain) -> np.ndarray:
    """Oracle: the brute-force jump positions of each level."""
    reg = np.full(pc.heights[pc.depth], pc.depth, dtype=np.int64)
    for n in range(pc.depth - 1, -1, -1):
        plain = np.ones(reg.size, dtype=bool)
        plain[il.jump_positions(pc, n)] = False
        reg[plain] = n
    return reg


@st.composite
def _junction_schedules(draw) -> il.Schedule:
    # Spacer and pure stages, q = 1 stages, and rotations up to 3 h_n - 1.
    seed = draw(st.text(alphabet="01", min_size=1, max_size=4))
    stages, h = [], len(seed)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        q = draw(st.integers(min_value=1, max_value=4))
        rots = draw(st.lists(st.integers(0, 3 * h - 1), min_size=q, max_size=q))
        spacers = draw(st.just(()) | st.lists(st.integers(0, 2), min_size=q, max_size=q))
        stages.append(il.Stage(q, rots, spacers))
        h = q * h + stages[-1].total_spacers
    return il.Schedule(il.BINARY_SPACER, il.word_from_text(il.BINARY_SPACER, seed), tuple(stages))


@given(sch=_junction_schedules(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_regular_indices_match_the_per_level_route(sch, data):
    depth = data.draw(st.integers(min_value=0, max_value=sch.depth))
    pc = il.ProjectionChain.build(sch, depth)
    reg = il.regular_indices(pc)
    assert reg.dtype == np.int64
    assert np.array_equal(reg, _regular_indices_by_level(pc))


def test_regular_indices_of_a_depth_zero_chain_are_zero():
    sch = il.morse_schedule(2, 3, il.word_from_text(il.BINARY, "0110"))
    assert il.regular_indices(il.ProjectionChain.build(sch, 0)).tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_build_jump_trace_below_the_schedule_depth(depth, tmp_path):
    # Rotations of h_n and more, a q = 1 stage and spacer runs, truncated by --depth.
    w0 = il.word_from_text(il.BINARY_SPACER, "010")
    sch = il.Schedule(il.BINARY_SPACER, w0, (
        il.Stage(3, (5, 3, 7), (1, 0, 0)), il.Stage(1, (13,)), il.Stage(2, (4, 21), (0, 2)),
    ))
    path = tmp_path / "s.json"
    il.save_schedule(sch, path)
    out = tmp_path / "o"
    assert cli.run(["build", "--schedule", str(path), "--depth", str(depth), "--out", str(out),
                    "--jump-trace"]) == 0
    with open(out / "jumps.csv", newline="", encoding="utf-8") as fh:
        rows = [(int(r[1]), int(r[2])) for r in list(csv.reader(fh))[1:]]
    reg = _regular_indices_by_level(il.ProjectionChain.build(sch, depth))
    pos = np.flatnonzero(reg > 0)
    assert rows == list(zip(pos.tolist(), reg[pos].tolist()))
    assert bool(rows) == (depth > 0)


def test_step_cycles_whole_truncation(cat_chain_2):
    x = 0
    for _ in range(54):
        x = il.step(cat_chain_2, x).successor
    assert x == 0


def test_project_step_commutes_when_plain(cat_chain_2):
    h1 = 18
    coords = il.project_all(cat_chain_2, 1)
    for x in range(54):
        res = il.step(cat_chain_2, x)
        if not res.jumps[1]:
            assert coords[res.successor] == (coords[x] + 1) % h1


# ---------------------------------------------------------------------------
# Orbit codings
# ---------------------------------------------------------------------------


def _below(pc: il.ProjectionChain) -> il.Word:
    """``W_{N-1}`` of the chain (``W_0`` at depth 0), the word a coding reads ``W_N`` through."""
    return il.build_word(pc.schedule, max(pc.depth - 1, 0))[-1]


def test_orbit_coding_anchor(cat_chain_1):
    assert il.orbit_coding(cat_chain_1, _below(cat_chain_1), 5, 4, 0).text == "CTCA"


def test_orbit_coding_full_cycle_is_word(cat_chain_2, cat_words):
    assert il.orbit_coding(cat_chain_2, cat_words[1], 0, 54, 0).text == cat_words[2].text


def test_orbit_coding_refuses_a_word_other_than_the_one_below_the_top(cat_chain_2, cat_words):
    for word in (cat_words[0], cat_words[2]):
        with pytest.raises(ConfigurationError, match=r"below must be W_1 \(h = 18\)"):
            il.orbit_coding(cat_chain_2, word, 0, 4, 0)


def test_orbit_coding_regular_window_matches_rotation():
    # A window whose interior steps have no level-1 jump reads a rotation of
    # the level-1 word: the coordinate advances by one at every step, so the
    # coding is the word rotated by the starting coordinate.
    sch = il.random_schedule([4, 5], 17, il.word_from_text(il.BINARY, "0110"))
    pc = il.ProjectionChain.build(sch, 2)
    w1 = _below(pc)
    h1 = w1.h
    jumps = set(int(x) for x in il.jump_positions(pc, 1))
    coords = il.project_all(pc, 1)
    rotations = {il.rotate(w1, a).text for a in range(h1)}
    checked = 0
    for x in range(0, pc.heights[2], h1):
        if any((x + j) % pc.heights[2] in jumps for j in range(h1 - 1)):
            continue
        coding = il.orbit_coding(pc, w1, x, h1, 1).text
        assert coding == il.rotate(w1, int(coords[x])).text
        assert coding in rotations
        checked += 1
    assert checked > 0


def _family_schedule(family: str, qs: list[int], seed: int) -> il.Schedule:
    if family == "morse":
        return il.morse_schedule(2, len(qs), il.word_from_text(il.BINARY, "01"))
    if family == "random":
        return il.random_schedule(qs, seed, il.word_from_text(il.BINARY, "011"))
    if family == "staircase":
        return il.rank_one_schedule("staircase", qs)
    return il.rank_one_schedule("ornstein", qs, seed=seed, ratio=2)


@given(
    family=st.sampled_from(["morse", "random", "staircase", "ornstein"]),
    seed=st.integers(min_value=0, max_value=2**31),
    qs=st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_orbit_coding_independent_of_level(family, seed, qs, data):
    # W_m[x_m] = W_0[x_0] with marks read as the spacer symbol: the letters of
    # every W_m along an orbit are the coding, whatever the level m.
    sch = _family_schedule(family, qs, seed)
    pc = il.ProjectionChain.build(sch)
    h_N = pc.heights[pc.depth]
    start = data.draw(st.integers(min_value=0, max_value=h_N - 1))
    length = data.draw(st.integers(min_value=1, max_value=h_N))
    positions = (start + np.arange(length)) % h_N
    spacer = sch.alphabet.spacer_index
    words = il.build_word(sch)
    below = words[max(pc.depth - 1, 0)]
    coding = il.orbit_coding(pc, below, start, length, 0).symbols.tolist()
    for m in range(pc.depth + 1):
        assert il.orbit_coding(pc, below, start, length, m).symbols.tolist() == coding
        w_m = words[m].symbols
        coords = il.project_all(pc, m)[positions]
        direct = [spacer if c == il.SPACER_MARK else int(w_m[c]) for c in coords]
        assert direct == coding


@given(
    family=st.sampled_from(["morse", "random", "staircase", "ornstein"]),
    seed=st.integers(min_value=0, max_value=2**31),
    qs=st.lists(st.integers(min_value=2, max_value=4), min_size=0, max_size=3),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_orbit_coding_equals_the_letters_at_the_projected_positions(family, seed, qs, data):
    # The window of the cyclic W_N against the arithmetic route: the seed
    # letters at the level-0 coordinates of the positions mod h_N.  Spacer
    # families, depth 0 (no stage: qs = []) and starts that are negative or
    # far beyond int64 are taken mod h_N.
    sch = _family_schedule(family, qs, seed)
    pc = il.ProjectionChain.build(sch)
    h_N = pc.heights[pc.depth]
    start = data.draw(st.sampled_from([-1, -h_N - 3, 2**70, -(2**70) + 5])
                      | st.integers(min_value=-3 * h_N, max_value=3 * h_N))
    length = data.draw(st.integers(min_value=1, max_value=h_N))
    positions = (start % h_N + np.arange(length)) % h_N
    expect = il.dynamics._letters(sch, il.project_positions(sch, positions, pc.depth, 0))
    got = il.orbit_coding(pc, _below(pc), start, length, data.draw(st.integers(0, pc.depth)))
    assert got.symbols.tolist() == expect.tolist()


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coding_builds_no_length_h_N_coordinates():
    # h_N = 2 * 4^10 = 2^21.  A 4,096-letter coding through the caller's W_9
    # reads 0.01 B per h_N symbol (its window's letters).  Building W_0 ..
    # W_9 inside the coding read 1.34 B, and the whole-truncation route 10.0 B,
    # int64 coordinates of every position.
    sch = il.random_schedule([4] * 10, 3, il.word_from_text(il.BINARY, "01"))
    pc = il.ProjectionChain.build(sch)
    h_N = pc.heights[-1]
    assert h_N == 2**21
    below = _below(pc)
    assert _peak_bytes(lambda: il.orbit_coding(pc, below, 12345, 4096, 0)) < h_N // 16


# ---------------------------------------------------------------------------
# Streaming symbols
# ---------------------------------------------------------------------------


def test_symbols_range_matches_build(cat_schedule, cat_words):
    got = il.symbols_range(cat_schedule, 2, 10, 30)
    assert np.array_equal(got, cat_words[2].symbols[10:30])


def test_symbols_range_spacer_family():
    sch = il.rank_one_schedule("staircase", [3, 3])
    words = il.build_word(sch)
    got = il.symbols_range(sch, 2, 0, words[2].h)
    assert np.array_equal(got, words[2].symbols)


def test_symbols_range_beyond_materialisation_cap():
    # h_N = 2 * 256^4 is far past the cap; streaming still reads a window.
    sch = il.random_schedule([256] * 4, 9, il.word_from_text(il.BINARY, "01"))
    window = il.symbols_range(sch, 4, 2**31, 2**31 + 16)
    assert window.shape == (16,)
    assert set(np.unique(window)) <= {0, 1}


# ---------------------------------------------------------------------------
# Guardrails and errors
# ---------------------------------------------------------------------------


def test_chain_guardrail():
    sch = il.random_schedule([256] * 4, 9, il.word_from_text(il.BINARY, "01"))
    with pytest.raises(il.ResourceRefusal):
        il.ProjectionChain.build(sch, 4)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    qs=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_step_properties(seed, qs):
    sch = il.random_schedule(qs, seed, il.word_from_text(il.BINARY, "011"))
    pc = il.ProjectionChain.build(sch, len(qs))
    h_N = pc.heights[pc.depth]
    # Plain steps advance every lower level by one.
    all_coords = [il.project_all(pc, n) for n in range(pc.depth + 1)]
    for x in range(h_N):
        res = il.step(pc, x)
        for n in range(pc.depth):
            if not res.jumps[n]:
                assert all_coords[n][res.successor] == (all_coords[n][x] + 1) % pc.heights[n]


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    qs=st.lists(st.integers(min_value=2, max_value=4), min_size=2, max_size=2),
)
@settings(max_examples=20, deadline=None)
def test_projection_tower_consistency(seed, qs):
    # Projecting in one hop agrees with two hops through the middle level.
    sch = il.random_schedule(qs, seed, il.word_from_text(il.BINARY, "0110"))
    pos = np.arange(sch.heights()[2])
    one_hop = il.project_positions(sch, pos, 2, 0)
    mid = il.project_positions(sch, pos, 2, 1)
    two_hop = il.project_positions(sch, mid, 1, 0)
    assert np.array_equal(one_hop, two_hop)
