"""Words module: rotations, stage concatenation, schedule families, serialization."""

from __future__ import annotations

import hashlib
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import icelab as il
from icelab.errors import ConfigurationError, ResourceRefusal

from conftest import CAT_W1, CAT_W2


# ---------------------------------------------------------------------------
# Rotation and stage concatenation
# ---------------------------------------------------------------------------


def test_rotate_basic():
    w = il.word_from_text(il.DNA, "CATG")
    assert il.rotate(w, 1).text == "ATGC"
    assert il.rotate(w, 0).text == "CATG"
    assert il.rotate(w, 4).text == "CATG"


def test_rotate_full_height_is_identity():
    w = il.word_from_text(il.DNA, "CAT")
    assert il.rotate(w, 3).text == "CAT"


def test_rotate_rejects_out_of_range():
    w = il.word_from_text(il.DNA, "CAT")
    with pytest.raises(ConfigurationError):
        il.rotate(w, 4)
    with pytest.raises(ConfigurationError):
        il.rotate(w, -1)


_SYMBOLS = st.one_of(
    st.characters(),
    st.characters(min_codepoint=0x10000),  # outside the BMP
    st.characters(categories=["Cs"]),  # lone surrogates
    st.text(min_size=0, max_size=3),  # empty and multi-character symbols
)


@settings(max_examples=200, deadline=None)
@given(symbols=st.lists(_SYMBOLS, min_size=2, max_size=6, unique=True), data=st.data())
def test_word_text_equals_the_symbol_join(symbols, data):
    alphabet = il.Alphabet(tuple(symbols))
    idx = data.draw(st.lists(st.integers(0, len(symbols) - 1), min_size=1, max_size=300))
    w = il.Word(alphabet, idx)
    # The join Word.text used before the code-point gather.
    assert w.text == "".join(alphabet.symbols[i] for i in w.symbols)
    assert (alphabet._code_points is None) == any(len(s) != 1 for s in symbols)


@pytest.mark.parametrize("symbols", [("0", "1"), ("ab", "c"), ("", "x", "yz")],
                         ids=["single", "multi", "with-empty"])
@pytest.mark.parametrize("h", [1, 37, 40, 41, 200])
def test_word_repr_unchanged(symbols, h):
    rng = np.random.default_rng(h)
    w = il.Word(il.Alphabet(symbols), rng.integers(0, len(symbols), h))
    body = w.text if w.h <= 40 else w.text[:37] + "..."
    assert repr(w) == f"Word({body!r}, h={h})"


def test_cat_stage_one(cat_schedule, cat_words):
    assert cat_words[1].text == CAT_W1
    assert cat_words[1].h == 18


def test_cat_stage_two(cat_words):
    assert cat_words[2].text == CAT_W2
    assert cat_words[2].h == 54


def test_cat_heights(cat_schedule):
    assert cat_schedule.heights() == [3, 18, 54]


def test_rotation_of_w1_matches_first_block(cat_words):
    # Rotating the 18-symbol word by 7 gives the first 18-symbol block of the
    # 54-symbol word.
    assert il.rotate(cat_words[1], 7).text == CAT_W2[:18]


# ---------------------------------------------------------------------------
# Stage fields
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(q=2, rotations=(0.7, 1.2)),
    dict(q=2, rotations=np.array([0.0, 1.0])),
    dict(q=2, rotations=("0", "1")),
    dict(q=2, rotations=(0, 1), spacers=(0.5, 0)),
    dict(q=2, rotations=(0, 1), spacers="12"),
    dict(q=2.0, rotations=(0, 1)),
    dict(q=1, rotations=3),
    dict(q=2, rotations=np.zeros((2, 1), dtype=np.int64)),
    dict(q=2, rotations=np.array([True, False])),
    dict(q=2, rotations=np.array([0, 1], dtype=object)),
    dict(q=2, rotations=(0, 1), spacers=np.array([0.0, 1.0])),
], ids=["float-rotations", "float-array", "str-rotations", "float-spacers", "str-spacers",
        "float-q", "scalar-rotations", "2d-array", "bool-array", "object-array",
        "float-spacer-array"])
def test_stage_refuses_non_integers(kwargs):
    with pytest.raises(ConfigurationError, match="stage fields must be integers"):
        il.Stage(**kwargs)


@pytest.mark.parametrize("kwargs, match", [
    (dict(q=1, rotations=np.array([2**63], dtype=np.uint64)), r"below 2\*\*63"),
    (dict(q=2, rotations=(0, 2**70)), r"below 2\*\*63"),
    (dict(q=1, rotations=(0,), spacers=np.array([2**64 - 1], dtype=np.uint64)), r"below 2\*\*63"),
    (dict(q=2, rotations=(0, -1)), "non-negative"),
    (dict(q=2, rotations=(0,)), "exactly q rotations"),
    (dict(q=2, rotations=(0, 1), spacers=(1,)), "exactly q spacer counts"),
], ids=["uint64-2**63", "int-2**70", "uint64-spacer", "negative", "short", "short-spacers"])
def test_stage_refuses_values_outside_int64_and_wrong_lengths(kwargs, match):
    with pytest.raises(ConfigurationError, match=match):
        il.Stage(**kwargs)


def _fields(st_: il.Stage) -> tuple:
    return st_.q, st_.rotations.tolist(), st_.spacers.tolist()


def test_stage_accepts_numpy_integer_arrays():
    st_ = il.Stage(np.int64(2), np.array([0, 1]), np.array([1, 2], dtype=np.uint8))
    assert _fields(st_) == _fields(il.Stage(2, (0, 1), (1, 2))) == (2, [0, 1], [1, 2])
    assert type(st_.q) is int and st_.rotations.dtype == st_.spacers.dtype == np.int64
    assert st_.total_spacers == 3 and type(st_.total_spacers) is int and not st_.pure
    assert il.Stage(2, np.array([1, 0]), np.zeros(2, dtype=np.int32)).pure


def test_stage_fields_are_read_only_copies():
    rot, spc = np.array([5, 1, 2]), np.array([0, 3, 0])
    st_ = il.Stage(3, rot, spc)
    rot[0], spc[1] = 9, 9  # the caller's arrays, changed after construction
    assert _fields(st_) == (3, [5, 1, 2], [0, 3, 0])
    pure = il.Stage(3, [5, 1, 2])
    for arr in (st_.rotations, st_.spacers, pure.rotations, pure.spacers):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7
    assert pure.spacers.tolist() == [0, 0, 0] and pure.spacers.strides == (0,)


def test_schedule_document_refuses_a_fractional_rotation(cat_schedule):
    doc = json.loads(il.schedule_to_json(cat_schedule))
    doc["stages"][1]["rotations"][0] = 2.5
    with pytest.raises(ConfigurationError, match="stage fields must be integers"):
        il.schedule_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# Schedule families
# ---------------------------------------------------------------------------


def test_morse_r2_words():
    sch = il.morse_schedule(2, 2, il.word_from_text(il.BINARY, "01"))
    words = il.build_word(sch)
    assert [w.text for w in words] == ["01", "0110", "01101001"]


def test_morse_r3_word():
    sch = il.morse_schedule(3, 1, il.word_from_text(il.Alphabet(tuple("ABC")), "ABC"))
    assert il.build_word(sch)[1].text == "ABCBCACAB"


def test_morse_requires_divisibility():
    with pytest.raises(ConfigurationError):
        il.morse_schedule(2, 1, il.word_from_text(il.DNA, "CAT"))


def test_morse_rotations_divisible_by_block():
    # Morse cuts fall on block boundaries: every rotation is a multiple of
    # h_n / r, so no cut ever enters a lower-stage copy.
    sch = il.morse_schedule(4, 3, il.word_from_text(il.BINARY, "0101"))
    heights = sch.heights()
    for n, stage in enumerate(sch.stages):
        assert all(a % (heights[n] // 4) == 0 for a in stage.rotations)
        assert stage.rotations.tolist() == [y * heights[n] // 4 for y in range(4)]


def test_random_schedule_rotations_in_range():
    sch = il.random_schedule([6], 7, il.word_from_text(il.DNA, "CAT"))
    assert len(sch.stages[0].rotations) == 6
    assert all(0 <= a < 3 for a in sch.stages[0].rotations)


def test_random_schedule_histogram_concentrates():
    # With q = 4096 draws on h = 64 cells no cell strays far from q/h = 64.
    sch = il.random_schedule([4096], 123, il.word_from_text(il.BINARY, "0" * 63 + "1"))
    counts = np.bincount(np.array(sch.stages[0].rotations), minlength=64)
    assert counts.sum() == 4096
    assert np.all(np.abs(counts - 64) <= 3 * np.sqrt(64) + 8)


def test_random_schedule_deterministic():
    w0 = il.word_from_text(il.BINARY, "01")
    a = il.random_schedule([5, 7], 99, w0)
    b = il.random_schedule([5, 7], 99, w0)
    assert il.schedule_to_json(a) == il.schedule_to_json(b)


def test_random_schedule_heights_up_to_int64_range():
    # Over "01", q = 2 gives h_n = 2^(n+1): [2] * 61 draws stage 60 from 2^61
    # and tops out at 2^62.  Every height, the top one too, must lie below 2^63:
    # a drawn-from 2^63 overflowed reducing the rotations mod 2^63 (numpy's
    # int64 draw still takes it), and a top 2^63 wrapped the top stage's int64
    # copy starts.  So [2] * 62 is refused at stage 62, before any draw.
    w0 = il.word_from_text(il.BINARY, "01")
    sch = il.random_schedule([2] * 61, 3, w0)
    assert all(0 <= a < 2**61 for a in sch.stages[60].rotations)
    assert sch.rotations_mod(60).dtype == np.int64
    assert sch.stage_starts(60).tolist() == [0, 2**61, 2**62]
    with pytest.raises(ConfigurationError, match="stage 62"):
        il.random_schedule([2] * 62, 3, w0)


def test_schedule_refuses_a_stage_height_outside_int64():
    # Every stage reduces rotations mod its height h_n as int64, and the top
    # stage's copy starts run up to h_depth as int64: at a top height of 2^63,
    # morse depth 62's stage_starts(61) read [0, 2^62, -2^63].
    w0 = il.word_from_text(il.BINARY, "01")
    assert il.morse_schedule(2, 61, w0).heights()[-1] == 2**62
    with pytest.raises(ConfigurationError, match="stage 62"):
        il.morse_schedule(2, 62, w0)
    # Staircase heights are 2^(n+1) - 1: h_63 is the first at or above 2^63.
    assert il.rank_one_schedule("staircase", [2] * 62).heights()[-1] == 2**63 - 1
    with pytest.raises(ConfigurationError, match="stage 63"):
        il.rank_one_schedule("staircase", [2] * 63)


def test_staircase_schedule():
    sch = il.rank_one_schedule("staircase", [4])
    st = sch.stages[0]
    assert st.rotations.tolist() == [0, 0, 0, 0]
    assert st.spacers.tolist() == [0, 1, 2, 3]
    assert sch.heights() == [1, 4 + 6]


def test_staircase_height_recursion():
    sch = il.rank_one_schedule("staircase", [2, 3, 4])
    heights = sch.heights()
    for n, st in enumerate(sch.stages):
        assert heights[n + 1] == st.q * heights[n] + st.q * (st.q - 1) // 2


def test_ornstein_schedule_properties():
    sch = il.rank_one_schedule("ornstein", [5, 4], seed=11)
    heights = sch.heights()
    for n, st in enumerate(sch.stages):
        assert st.rotations.tolist() == [0] * st.q
        assert all(s >= 0 for s in st.spacers)
        assert all(s <= heights[n] // 4 + 1 for s in st.spacers)
        assert heights[n + 1] == st.q * heights[n] + sum(st.spacers)


def test_ornstein_requires_seed():
    with pytest.raises(ConfigurationError):
        il.rank_one_schedule("ornstein", [3])


def test_measure_cap_enforced():
    # Spacer mass must stay summable under the cap.
    with pytest.raises(ConfigurationError, match="> cap 1000"):
        il.rank_one_schedule("ornstein", [2] * 400, seed=1, ratio=1)


# ---------------------------------------------------------------------------
# Guardrails
# ---------------------------------------------------------------------------


def test_build_word_guardrail():
    sch = il.random_schedule([256, 256, 256, 256], 5, il.word_from_text(il.BINARY, "01"))
    with pytest.raises(ResourceRefusal):
        il.build_word(sch)
    # depth 2 is fine
    assert il.build_word(sch, 2)[2].h == 2 * 256 * 256


def test_tower_refuses_at_the_call_before_any_stage_is_concatenated(monkeypatch):
    # h_2 = 3 * 4 * 5 = 60 against a limit of 59: the call refuses, not the
    # first next(), and no concat_stage has run; forced, the words are built
    # only as they are drawn.
    sch = il.random_schedule([4, 5], 1, il.word_from_text(il.BINARY, "011"))
    concatenated, concat_stage = [], il.words.concat_stage

    def counted(arr, *args, **kwargs):
        concatenated.append(arr.size)
        return concat_stage(arr, *args, **kwargs)

    monkeypatch.setattr(il.words, "concat_stage", counted)
    monkeypatch.setattr(il.words, "MAX_SYMBOLS", 59)
    with pytest.raises(ResourceRefusal, match="h_2"):
        il.tower(sch)
    assert concatenated == []
    assert [w.h for w in il.tower(sch, 1)] == [3, 12]
    forced = il.tower(sch, force=True)
    assert concatenated == [3]
    assert [w.h for w in forced] == [3, 12, 60]
    assert concatenated == [3, 3, 12]


@pytest.mark.parametrize("depth", [-1, 3])
def test_tower_refuses_a_depth_outside_the_schedule_at_the_call(cat_schedule, depth):
    with pytest.raises(ConfigurationError, match=r"outside \[0, 2\]"):
        il.tower(cat_schedule, depth)


def test_tower_yields_the_words_of_build_word(cat_schedule):
    assert [w.text for w in il.tower(cat_schedule)] == ["CAT", CAT_W1, CAT_W2]
    sch = il.rank_one_schedule("ornstein", [3, 4, 5], seed=2, ratio=2)
    for depth in range(sch.depth + 1):
        assert ([w.symbols.tolist() for w in il.tower(sch, depth)]
                == [w.symbols.tolist() for w in il.build_word(sch, depth)])


def test_tower_frees_each_word_once_the_next_is_yielded():
    # The tower keeps only its last word, so a caller that keeps none holds
    # W_{n-1} and W_n at most, and nothing below W_n once W_n is yielded.
    # W_0 stays alive as the schedule's seed word.
    sch = il.random_schedule([3, 4, 5, 6], 1, il.word_from_text(il.BINARY, "011"))
    refs = []
    for n, word in enumerate(il.tower(sch)):
        refs.append(weakref.ref(word))
        assert [r() is not None for r in refs] == [True] + [False] * (n - 1) + [True] * (n > 0)
    assert len(refs) == 5


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_schedule_roundtrip(cat_schedule):
    text = il.schedule_to_json(cat_schedule)
    back = il.schedule_from_json(text)
    assert [_fields(st_) for st_ in back.stages] == [_fields(st_) for st_ in cat_schedule.stages]
    assert il.schedule_to_json(back) == text
    assert back.seed_word.text == "CAT"
    assert il.schedule_hash(back) == il.schedule_hash(cat_schedule)


def test_schedule_hash_stable(cat_schedule):
    # Frozen: any change here breaks every stamped payload downstream.
    h = il.schedule_hash(cat_schedule)
    assert len(h) == 64 and h == il.schedule_hash(cat_schedule)


@pytest.mark.parametrize("slice_size", [1, 3, 1 << 16])
def test_schedule_hash_is_the_hash_of_the_canonical_json(slice_size, monkeypatch):
    # The hash is fed in pieces; its digest is that of the one-string text.
    # Small slices split every stage's rotations and spacer counts.
    monkeypatch.setattr(il.words, "_HASH_SLICE", slice_size)
    binary = il.word_from_text(il.BINARY, "01")
    quoting = il.Alphabet(tuple('"stage:[]'), "]")  # "stages":[] inside the strings
    schedules = {
        "random": il.random_schedule([5, 7, 4], 3, binary),
        "morse": il.morse_schedule(2, 3, binary),
        "staircase": il.rank_one_schedule("staircase", [2, 3, 4]),
        "spacer": il.rank_one_schedule("ornstein", [5, 4], seed=11),
        "depth-0": il.Schedule(il.BINARY, binary, ()),
        "above-2^32": il.morse_schedule(2, 36, binary),
        "quoting": il.Schedule(quoting, il.word_from_text(quoting, '"stages":[]'),
                               (il.Stage(2, (2**40, 2**62 + 1), (1, 0)),)),
    }
    assert max(schedules["above-2^32"].stages[-1].rotations) > 2**32
    for name, sch in schedules.items():
        expected = hashlib.sha256(il.schedule_to_json(sch).encode("utf-8")).hexdigest()
        assert il.schedule_hash(sch) == expected, name


def test_schedule_hash_distinguishes():
    w0 = il.word_from_text(il.BINARY, "01")
    a = il.Schedule(il.BINARY, w0, (il.Stage(2, (0, 1)),))
    b = il.Schedule(il.BINARY, w0, (il.Stage(2, (1, 0)),))
    assert il.schedule_hash(a) != il.schedule_hash(b)


def test_schedule_file_roundtrip(tmp_path, cat_schedule):
    path = tmp_path / "cat.json"
    il.save_schedule(cat_schedule, path)
    assert il.schedule_hash(il.load_schedule(path)) == il.schedule_hash(cat_schedule)


def test_schedule_from_json_rejects_malformed():
    with pytest.raises(ConfigurationError):
        il.schedule_from_json("{not json")
    with pytest.raises(ConfigurationError):
        il.schedule_from_json("{}")


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(
    text=st.text(alphabet="ACGT", min_size=1, max_size=40),
    a=st.integers(min_value=0, max_value=40),
    b=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_rotation_composition(text, a, b):
    w = il.word_from_text(il.DNA, text)
    h = w.h
    a, b = a % h, b % h
    lhs = il.rotate(il.rotate(w, a), b)
    rhs = il.rotate(w, (a + b) % h)
    assert lhs.text == rhs.text


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    qs=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    text=st.text(alphabet="01", min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_symbol_counts_conserved(seed, qs, text):
    # Pure stages permute material: each symbol's count scales by prod(q).
    w0 = il.word_from_text(il.BINARY, text)
    sch = il.random_schedule(qs, seed, w0)
    words = il.build_word(sch)
    base = np.bincount(w0.symbols, minlength=2)
    scale = 1
    for st_, w in zip(sch.stages, words[1:]):
        scale *= st_.q
        assert np.array_equal(np.bincount(w.symbols, minlength=2), base * scale)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    qs=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_height_recursion_pure(seed, qs):
    sch = il.random_schedule(qs, seed, il.word_from_text(il.BINARY, "011"))
    heights = sch.heights()
    for n, st_ in enumerate(sch.stages):
        assert heights[n + 1] == st_.q * heights[n]


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    qs=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=2),
    text=st.text(alphabet="ACGT", min_size=2, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_letter_consistency(seed, qs, text):
    # W_{n+1}[y*h + t] = W_n[(t + alpha_y) mod h] throughout.
    w0 = il.word_from_text(il.DNA, text)
    sch = il.random_schedule(qs, seed, w0)
    words = il.build_word(sch)
    for n, st_ in enumerate(sch.stages):
        h = words[n].h
        for y, a in enumerate(st_.rotations):
            for t in range(h):
                assert words[n + 1].symbols[y * h + t] == words[n].symbols[(t + a) % h]


@given(
    data=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
    copies=st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=4)),
        min_size=1, max_size=6,
    ),
)
@settings(max_examples=80, deadline=None)
def test_concat_stage_equals_roll_and_concatenate(data, copies):
    # Reference: one np.roll per copy and np.full per fill run, concatenated.
    stage = il.Stage(len(copies), tuple(a for a, _ in copies), tuple(s for _, s in copies))
    for arr, fill in ((np.asarray(data, dtype=np.int32), 3),
                      (np.asarray(data, dtype=np.int64), il.SPACER_MARK)):
        parts = []
        for a, s in copies:
            parts.append(np.roll(arr, -(a % arr.size)))
            if s:
                parts.append(np.full(s, fill, dtype=arr.dtype))
        got = il.words.concat_stage(arr, stage, fill)
        assert got.dtype == arr.dtype
        assert np.array_equal(got, np.concatenate(parts))


@given(
    data=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
    copies=st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=4)),
        min_size=1, max_size=8,
    ),
    cuts=st.tuples(st.integers(min_value=0, max_value=10**4),
                   st.integers(min_value=0, max_value=10**4)),
)
@settings(max_examples=150, deadline=None)
def test_concat_stage_window_equals_the_slice_of_the_whole(data, copies, cuts):
    # Windows that are empty, start or end inside a copy or a fill run, or
    # span many copies, written into a caller's buffer, for each dtype the
    # library concatenates: symbols, coordinates, masks and complex tables.
    stage = il.Stage(len(copies), tuple(a for a, _ in copies), tuple(s for _, s in copies))
    base = np.asarray(data)
    for arr, fill in ((base.astype(np.int32), 3), (base.astype(np.int64), il.SPACER_MARK),
                      (base % 2 == 1, True), (base * (1 - 2j) + 0.5, 0.25 - 1j)):
        whole = il.words.concat_stage(arr, stage, fill)
        lo, hi = sorted(c % (whole.size + 1) for c in cuts)
        for a, b in ((lo, hi), (lo, lo), (hi, whole.size), (0, whole.size)):
            out = np.empty(b - a, dtype=arr.dtype)
            got = il.words.concat_stage(arr, stage, fill, a, b, out)
            assert got is out
            assert got.tobytes() == whole[a:b].tobytes(), (a, b)


@given(
    data=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
    copies=st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=4)),
        min_size=1, max_size=6,
    ),
    pure=st.booleans(),
    lo=st.integers(min_value=-10**4, max_value=10**4),
    length=st.integers(min_value=0, max_value=400),
)
@settings(max_examples=150, deadline=None)
def test_cyclic_window_equals_the_cycle_taken_mod_its_length(data, copies, pure, lo, length):
    # Windows of pure and spacer stages that start below 0 or past the end
    # and wrap the cycle several times (400 positions over cycles of as few
    # as one), against the whole concatenation indexed mod its length.
    spacers = () if pure else tuple(s for _, s in copies)
    stage = il.Stage(len(copies), tuple(a for a, _ in copies), spacers)
    base = np.asarray(data)
    for arr, fill in ((base.astype(np.int32), 3), (base.astype(np.int64), il.SPACER_MARK),
                      (base * (1 - 2j) + 0.5, 0.25 - 1j)):
        whole = il.words.concat_stage(arr, stage, fill)
        got = il.words.cyclic_window(arr, stage, fill, lo, lo + length)
        ref = np.take(whole, np.arange(lo, lo + length) % whole.size)
        assert got.dtype == arr.dtype
        assert got.tobytes() == ref.tobytes()


def test_spacer_stages_need_a_spacer_symbol():
    # concat_stage refuses a spacer run without a fill, so a spacer stage over
    # an alphabet with no spacer symbol is refused wherever a word is read.
    sch = il.Schedule(il.BINARY, il.word_from_text(il.BINARY, "01"),
                      (il.Stage(2, (0, 1), (1, 0)),))
    with pytest.raises(ConfigurationError, match="no spacer symbol"):
        il.build_word(sch)
    with pytest.raises(ConfigurationError, match="no spacer symbol"):
        il.orbit_coding(il.ProjectionChain.build(sch), sch.seed_word, 0, 3, 0)
