"""Correlation module: lifts, cyclic correlations, recursion, decay, simplicity."""

from __future__ import annotations

import itertools
import threading
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import icelab as il
from icelab import correlation as corr
from icelab.errors import ConfigurationError, ResourceRefusal

from conftest import OMEGA, _reference_chart, _reference_simplicity, intact_twin


# ---------------------------------------------------------------------------
# Lifts
# ---------------------------------------------------------------------------


def test_lift_indicator(cat_words):
    f = il.lift({"C": 1, "A": 0, "T": 0}, cat_words[0], 0)
    assert np.array_equal(f.values, np.array([1, 0, 0], dtype=complex))


def test_lift_cube_roots_zero_mean(cat_words, cat_labels):
    # Symbol counts are balanced in the 18-symbol word: mean is 0 exactly.
    f = il.lift(cat_labels, cat_words[1], 1)
    assert abs(f.values.sum()) < 1e-13


def test_lift_zero_mean_keeps_spacers_at_zero():
    # Staircase stages over "ab" write runs of the spacer "_" between copies.
    alpha = il.Alphabet(tuple("ab_"), spacer_symbol="_")
    sch = il.rank_one_schedule("staircase", [3, 2], seed_word=il.word_from_text(alpha, "ab"))
    word = il.build_word(sch)[2]
    labels = {"a": 1.0 + 2.0j, "b": -3.0}
    f = il.lift(labels, word, 2, zero_mean=True)
    spacer = np.array([c == "_" for c in word.text])
    assert spacer.any() and not spacer.all()
    assert np.all(f.values[spacer] == 0)
    plain = np.array([complex(labels[c]) for c in word.text if c != "_"])
    assert np.array_equal(f.values[~spacer], plain - plain.mean())
    assert abs(f.values.sum()) < 1e-12 * word.h


def test_lift_missing_label(cat_words):
    with pytest.raises(ConfigurationError):
        il.lift({"C": 1}, cat_words[0], 0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(0, -float("inf"))])
def test_lift_refuses_a_non_finite_label_naming_its_symbol(cat_words, value):
    with pytest.raises(ConfigurationError, match="label of symbol 'A' is .*not a finite number"):
        il.lift({"C": 1, "A": value, "T": 0}, cat_words[0], 0)


def test_lift_zero_mean_flag(cat_words):
    f = il.lift({"C": 1, "A": 0, "T": 0}, cat_words[1], 1, zero_mean=True)
    assert abs(f.values.sum()) < 1e-12
    assert f.zero_mean


def test_lift_spacer_forced_zero():
    sch = il.rank_one_schedule("staircase", [3])
    w1 = il.build_word(sch)[1]
    f = il.lift({"0": 1.0}, w1, 1)
    spacer = sch.alphabet.spacer_index
    assert np.all(f.values[w1.symbols == spacer] == 0)


# ---------------------------------------------------------------------------
# Cyclic correlations
# ---------------------------------------------------------------------------


def test_correlation_at_zero_is_mean_square(cat_words, cat_labels):
    f = il.lift(cat_labels, cat_words[1], 1)
    series = il.cyclic_correlation(f)
    assert series.values[0] == pytest.approx(np.mean(np.abs(f.values) ** 2))


def test_correlation_hermitian(cat_words, cat_labels):
    f = il.lift(cat_labels, cat_words[1], 1)
    c = il.cyclic_correlation(f).values
    h = c.size
    for t in range(h):
        assert c[(-t) % h] == pytest.approx(np.conj(c[t]))


def test_fft_matches_direct(cat_words, cat_labels):
    f = il.lift(cat_labels, cat_words[2], 2)
    via_fft = il.cyclic_correlation(f, method="fft").values
    direct = il.cyclic_correlation(f, method="direct").values
    assert np.max(np.abs(via_fft - direct)) < 1e-12


@pytest.mark.parametrize("h", [7, 64, 243, 1000])
def test_direct_route_bitwise_equals_defining_sum(h):
    # The direct route is ``correlation_at_lags`` at every lag; reference:
    # the defining sum as one array divided by h.
    rng = np.random.default_rng(h)
    f, g = (il.LevelFunction(n=0, values=rng.standard_normal(h) + 1j * rng.standard_normal(h))
            for _ in range(2))
    for other in (f, g):
        ref = np.array([np.vdot(np.roll(other.values, t), f.values) for t in range(h)]) / h
        got = il.cyclic_correlation(f, None if other is f else other, method="direct").values
        assert got.tobytes() == ref.tobytes()
        # Lags outside [0, h) roll by their residue.
        lags = [-1, -h, h, 2 * h + 3, 5 - 3 * h]
        ref = np.array([np.vdot(np.roll(other.values, t), f.values) for t in lags]) / h
        got = il.correlation_at_lags(f, None if other is f else other, lags)
        assert got.tobytes() == ref.tobytes()


def test_lags_across_vdot_blocks_bitwise_equal_a_rolled_operand():
    # Each block of the shifted operand joins two slices of g; the reference
    # rolls all of g and sums the same blocks.  h is not a block multiple, so
    # the last block is short, and the lags wrap inside, at and past a block edge.
    block, h = corr._VDOT_BLOCK, 3 * corr._VDOT_BLOCK + 1234
    rng = np.random.default_rng(8)
    f, g = (il.LevelFunction(n=0, values=rng.standard_normal(h) + 1j * rng.standard_normal(h))
            for _ in range(2))
    lags = [0, block - 1, block, block + 1, h - 1]
    for other in (f, g):
        ref = []
        for t in lags:
            rolled = np.roll(other.values, t)
            parts = [np.vdot(rolled[lo:lo + block], f.values[lo:lo + block])
                     for lo in range(0, h, block)]
            ref.append(np.add.accumulate(parts)[-1] / h)
        got = il.correlation_at_lags(f, None if other is f else other, lags)
        assert got.tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("h", [7, 1000, 2**10, 2**13, 2**14, 2**15, 2**16, 3 * 2**15, 2**18,
                               3**9, 10007])
def test_fft_route_bitwise_equals_two_transform_product(h):
    # Reference: the two-transform product.  An out-of-place ``F * conj(F)``
    # with one transform differs from it in the last bit from h = 16384 on.
    # From 3 * 2**15 on, the in-place product runs in more than one chunk.
    rng = np.random.default_rng(h)
    f, g = (il.LevelFunction(n=0, values=rng.standard_normal(h) + 1j * rng.standard_normal(h))
            for _ in range(2))
    before = f.values.tobytes()
    for other in (f, g):
        ref = np.fft.ifft(np.fft.fft(f.values) * np.conj(np.fft.fft(other.values))) / h
        got = il.cyclic_correlation(f, None if other is f else other).values
        assert got.tobytes() == ref.tobytes()
    # The autocorrelation transformed a copy: f is untouched.
    assert f.values.tobytes() == before
    # The in-place route decay_profile uses gives the same bits, in the
    # buffer it was handed.
    ref = np.fft.ifft(np.fft.fft(f.values) * np.conj(np.fft.fft(f.values))) / h
    buf = f.values.copy()
    assert corr._correlate_owned(buf) is buf
    assert buf.tobytes() == ref.tobytes()


# The first prime above 2**18: a prime length has no divisor to block by, and
# twice it only two rows.
_PRIME = 262147


@pytest.mark.parametrize("h", [2**19, 3 * 2**18, _PRIME, 2 * _PRIME])
def test_blocked_kernel_matches_the_two_transform_product(h):
    # Above 2**18 the kernel runs the four-step transform on an (n2, n1) view;
    # reference: pocketfft's two-transform product.  The error scale is
    # |f| |g| / h, the Cauchy-Schwarz bound on |C(t)|: C(0) itself for an
    # autocorrelation, and for the cross-correlation g = f + noise, within a
    # factor 1.5 of |C(0)| as well.
    rng = np.random.default_rng(h)
    f = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    g = f + 0.5 * (rng.standard_normal(h) + 1j * rng.standard_normal(h))
    assert corr._root_divisor(h) == {2**19: 512, 3 * 2**18: 768, _PRIME: 1, 2 * _PRIME: 2}[h]
    for other in (None, g):
        y = f if other is None else other
        ref = np.fft.ifft(np.fft.fft(f) * np.conj(np.fft.fft(y))) / h
        got = corr._correlate_owned(f.copy(), other)
        scale = np.linalg.norm(f) * np.linalg.norm(y) / h
        assert scale <= 1.5 * abs(ref[0])
        assert np.abs(got - ref).max() <= 1e-15 * scale


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an 80-bit long double")
@pytest.mark.parametrize("h", [4096, _PRIME, 10**6])
def test_twiddles_are_rounded_from_a_reduced_angle(h):
    # Reference: cos and sin in long double.  An angle taken over the whole
    # turn, exp(-2j * pi * m / h), is off by up to 1.2e-15; reduced to within
    # pi/4 of a quarter turn, by under 4e-16, and the quarter turns are exact.
    m = np.arange(h)
    angle = -2 * np.pi * np.longdouble(1) * m / h
    ref = np.cos(angle) + 1j * np.sin(angle)
    got = corr._unit_roots(m, h, inverse=False)
    assert np.abs(got - ref).max() < 4e-16
    assert np.array_equal(corr._unit_roots(m, h, inverse=True), got.conj())
    if h % 4 == 0:
        quarters = corr._unit_roots(np.arange(4) * (h // 4), h, inverse=False)
        assert quarters.tolist() == [1, -1j, -1, 1j]


class _SpyPool(corr.ThreadPoolExecutor):
    """The kernel's pool, recording its size and how many blocks it is handed."""

    sizes: list = []
    blocks: list = []

    def __init__(self, max_workers):
        super().__init__(max_workers=max_workers)
        self.sizes.append(max_workers)

    def submit(self, fn, /, *args, **kwargs):
        self.blocks.append(fn)
        return super().submit(fn, *args, **kwargs)


@pytest.mark.parametrize("h", [2**19, 3 * 2**18])
def test_blocked_kernel_bits_do_not_depend_on_the_threads(h, monkeypatch):
    # The same bytes on the main thread with 1 and 2 usable CPUs, and inline
    # in a worker thread, as in an ensemble task.  The pool never has more
    # workers than CPUs; with one CPU, or off the main thread, it is handed
    # no block.
    rng = np.random.default_rng(h)
    f = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    g = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    monkeypatch.setattr(corr, "ThreadPoolExecutor", _SpyPool)
    for other in (None, g):
        got = set()
        for cpus in (1, 2):
            monkeypatch.setattr(corr, "_usable_cpus", lambda: cpus)
            _SpyPool.sizes, _SpyPool.blocks = [], []
            got.add(corr._correlate_owned(f.copy(), other).tobytes())
            assert _SpyPool.sizes == [cpus]
            assert bool(_SpyPool.blocks) == (cpus > 1)
            _SpyPool.sizes, _SpyPool.blocks = [], []
            worker = []
            thread = threading.Thread(target=lambda: worker.append(
                corr._correlate_owned(f.copy(), other).tobytes()))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive() and len(worker) == 1
            got.update(worker)
            assert _SpyPool.sizes == [1] and _SpyPool.blocks == []
        assert len(got) == 1


def test_delta_correlation():
    w = il.word_from_text(il.DNA, "CAT")
    f = il.lift({"C": 1, "A": 0, "T": 0}, w, 0)
    c = il.cyclic_correlation(f).values
    assert np.allclose(c, [1 / 3, 0, 0])


def test_correlation_at_lags_matches_series(cat_words, cat_labels):
    f = il.lift(cat_labels, cat_words[2], 2)
    series = il.cyclic_correlation(f).values
    lags = [0, 9, 18, 53]
    got = il.correlation_at_lags(f, lags=lags)
    for lag, val in zip(lags, got):
        assert val == pytest.approx(series[lag], abs=1e-13)


def test_wiener_khinchin(cat_words, cat_labels):
    # fft of the correlation equals the normalized power spectrum.
    f = il.lift(cat_labels, cat_words[1], 1)
    c = il.cyclic_correlation(f).values
    lhs = np.fft.fft(c)
    rhs = np.abs(np.fft.fft(f.values)) ** 2 / f.values.size
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# Stage recursion
# ---------------------------------------------------------------------------


def test_recursion_cat_worked_example(cat_schedule, cat_words, cat_labels):
    # C at lag 9 on the 18-symbol word equals the stage-0 recursion value,
    # which is -1/2 for cube-root labels.
    f0 = il.lift(cat_labels, cat_words[0], 0)
    series = il.cyclic_correlation(f0)
    f1 = il.lift(cat_labels, cat_words[1], 1)
    direct = il.correlation_at_lags(f1, lags=[9])[0]
    rhs = il.recursion_rhs(series, cat_schedule.stages[0], 3)
    assert direct == pytest.approx(-0.5, abs=1e-12)
    assert rhs == pytest.approx(-0.5, abs=1e-12)
    assert abs(direct - rhs) < 1e-12


def test_recursion_all_shifts_cat(cat_schedule, cat_words, cat_labels):
    f0 = il.lift(cat_labels, cat_words[0], 0)
    series = il.cyclic_correlation(f0)
    f1 = il.lift(cat_labels, cat_words[1], 1)
    st_ = cat_schedule.stages[0]
    lhs = il.correlation_at_lags(f1, lags=[3 * s for s in range(1, 6)])
    for s, left in zip(range(1, 6), lhs):
        assert abs(left - il.recursion_rhs(series, st_, s)) < 1e-12


def test_recursion_constant_rotations():
    # All rotations equal: differences vanish, rhs = C(0) for every shift.
    w0 = il.word_from_text(il.BINARY, "0110")
    sch = il.Schedule(il.BINARY, w0, (il.Stage(5, (3, 3, 3, 3, 3)),))
    labels = {"0": 1.0, "1": -1.0}
    f0 = il.lift(labels, w0, 0)
    series = il.cyclic_correlation(f0)
    f1 = il.lift(labels, il.build_word(sch)[1], 1)
    for s in range(1, 5):
        direct = il.correlation_at_lags(f1, lags=[4 * s])[0]
        rhs = il.recursion_rhs(series, sch.stages[0], s)
        assert rhs == pytest.approx(series.values[0])
        assert abs(direct - rhs) < 1e-12


def test_recursion_rejects_spacer_stage():
    sch = il.rank_one_schedule("staircase", [3])
    f = il.lift({"0": 1.0}, sch.seed_word, 0)
    series = il.cyclic_correlation(f)
    with pytest.raises(ConfigurationError):
        il.recursion_rhs(series, sch.stages[0], 1)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    h0=st.integers(min_value=2, max_value=12),
    q=st.integers(min_value=2, max_value=12),
)
@settings(max_examples=30, deadline=None)
def test_recursion_identity_property(seed, h0, q):
    rng = np.random.default_rng(seed)
    text = "".join("01"[int(b)] for b in rng.integers(0, 2, h0))
    w0 = il.word_from_text(il.BINARY, text)
    sch = il.random_schedule([q], seed, w0)
    labels = {"0": 1.0, "1": -1.0}
    f0 = il.lift(labels, w0, 0)
    series = il.cyclic_correlation(f0)
    f1 = il.lift(labels, il.build_word(sch)[1], 1)
    lhs = il.correlation_at_lags(f1, lags=[h0 * s for s in range(1, q)])
    for s, left in zip(range(1, q), lhs):
        assert abs(left - il.recursion_rhs(series, sch.stages[0], s)) < 1e-12


# ---------------------------------------------------------------------------
# Decay profiles
# ---------------------------------------------------------------------------


def test_decay_profile_fields(trit_word, trit_labels):
    sch = il.random_schedule([27, 27], 3, trit_word)
    prof = il.decay_profile(sch, trit_labels, 0, 2)
    assert len(prof.stages) == 3
    assert prof.statistic == "median"
    assert len(prof.variance_ratios) == 2
    assert prof.predicted_ratios == (2 / 27, 2 / 27)
    for s in prof.stages:
        assert s.max >= s.median >= 0


def test_decay_large_h_matches_two_transform_reference():
    # h_3 = 2^17, above the h >= 16384 where product routes can differ in the
    # last bit.  The reference lifts through ``LevelFunction`` and forms the
    # two-transform product out of place; every reported float must agree to
    # the last digit of its repr.  Labels are not zero-mean, so the lift's
    # mean subtraction and the zero-mean check both run.
    sch = il.random_schedule([32, 32, 32], 11, il.word_from_text(il.DNA, "ACGT"))
    labels = {"A": 1.0, "C": 0.5j, "G": -0.25, "T": 2 - 1j}
    prof = il.decay_profile(sch, labels, 0, 3)
    assert prof.stages[-1].h == 2**17
    words = il.build_word(sch)
    stats = []
    for n, stage in enumerate(prof.stages):
        f = il.lift(labels, words[n], n, zero_mean=True)
        h = f.h
        series = np.fft.ifft(np.fft.fft(f.values) * np.conj(np.fft.fft(f.values))) / h
        sel = np.abs(series[h // 4: 3 * h // 4 + 1])
        ref = il.StageDecay(n=n, h=h, max=float(sel.max()), median=float(np.median(sel)),
                            rms=float(np.sqrt(np.mean(sel**2))), variance=float(np.mean(sel**2)))
        for field in ("n", "h", "max", "median", "rms", "variance"):
            assert repr(getattr(stage, field)) == repr(getattr(ref, field)), (n, field)
        stats.append(ref.median)
    slope = float(np.polyfit(np.log([s.h for s in prof.stages]), np.log(stats), 1)[0])
    assert repr(prof.slope) == repr(slope)


@pytest.mark.parametrize("n_lo", [0, 1, 2])
def test_decay_runs_the_top_stage_first_and_drops_each_word_once_lifted(
        monkeypatch, trit_word, trit_labels, n_lo):
    # The top transform, which sets the peak, runs first, and W_{N-1} is
    # released once its lift is gathered; the stages below then run in
    # ascending order, each beside no word above the one it was lifted from.
    sch = il.random_schedule([4, 5, 6, 7], 2, trit_word)
    heights = sch.heights()
    built, transformed = [], []
    build, transform = corr.tower, corr._correlate_owned

    def tracked(*args, **kwargs):
        for word in build(*args, **kwargs):
            built.append(weakref.ref(word))
            yield word

    def counted(buf, other=None):
        transformed.append((buf.size, [r() is not None for r in built]))
        return transform(buf, other)

    monkeypatch.setattr(corr, "tower", tracked)
    monkeypatch.setattr(corr, "_correlate_owned", counted)
    prof = il.decay_profile(sch, trit_labels, n_lo, 4)
    assert [s.h for s in prof.stages] == heights[n_lo:]
    order = [4, *range(n_lo, 4)]
    assert [size for size, _ in transformed] == [heights[n] for n in order]
    for n, (_, alive) in zip(order, transformed):
        # Stage n >= 1 drops W_{n-1} once lifted; W_0 stays alive as the
        # schedule's seed word.
        dropped = {3} if n == 4 else {3, *range(max(n_lo - 1, 1), n)}
        assert alive == [m not in dropped for m in range(4)], (n, alive)


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6, 7, 1000, 1001, 2**19, 2**19 + 3])
def test_decay_statistics_in_place_equal_numpy(h):
    # _central_decay overwrites the series with the magnitudes of its central
    # window and their squares; every statistic keeps the bits of np.abs,
    # np.mean and np.median of a separate copy, over several blocks of
    # _PRODUCT_CHUNK magnitudes at h = 2^19, and with a NaN, median's rule.
    rng = np.random.default_rng(h)
    scale = 10.0 ** rng.uniform(-5, 5, h)
    series = scale * (rng.standard_normal(h) + 1j * rng.standard_normal(h))
    cases = [series]
    if h > 4:
        cases.append(series.copy())
        cases[-1][h // 2] = complex(np.nan, 1.0)
    for values in cases:
        sel = np.abs(values[h // 4: 3 * h // 4 + 1])
        mean_square = np.mean(sel**2)
        ref = il.StageDecay(n=3, h=h, max=float(sel.max()), median=float(np.median(sel)),
                            rms=float(np.sqrt(mean_square)), variance=float(mean_square))
        assert repr(corr._central_decay(3, values.copy())) == repr(ref)


def test_decay_checks_zero_mean_of_its_lift(monkeypatch, trit_word, trit_labels):
    # decay_profile transforms a lift it owns rather than a LevelFunction;
    # the zero-mean check still runs on it (a negative tolerance fails it).
    monkeypatch.setattr(corr, "ZERO_MEAN_TOL", -1.0)
    sch = il.random_schedule([9, 9], 5, trit_word)
    with pytest.raises(ConfigurationError, match="zero_mean"):
        il.decay_profile(sch, trit_labels, 0, 2)


def test_decay_slope_does_not_depend_on_the_label_scale(trit_word):
    # Labels of size 1e5 centre with a residual sum far above 1e-12 * h, which
    # the zero-mean check refused while the bound did not scale with them.
    sch = il.random_schedule([9, 27, 16], 1, trit_word)
    labels = {"0": 1.0, "1": 0.3, "2": -0.77}
    slope = il.decay_profile(sch, labels, 0, 3).slope
    scaled = il.decay_profile(sch, {k: v * 1e5 for k, v in labels.items()}, 0, 3).slope
    assert abs(scaled - slope) <= 1e-9


def test_level_function_zero_mean_check_still_refuses_a_nonzero_sum():
    # The bound is relative to the largest part of the values (1e5 here):
    # a sum of 1 is far above 1e-12 * h * 1e5.
    with pytest.raises(ConfigurationError, match="zero_mean"):
        il.LevelFunction(n=0, values=np.array([1e5 + 1, -1e5]), zero_mean=True)
    with pytest.raises(ConfigurationError, match="zero_mean"):
        il.LevelFunction(n=0, values=np.array([1e5 + 1, -1e5]), zero_mean=True, scale=1e5)
    assert il.LevelFunction(n=0, values=np.array([1e5, -1e5]), zero_mean=True).zero_mean


def test_decay_requires_three_stages(trit_word, trit_labels):
    sch = il.random_schedule([27], 3, trit_word)
    with pytest.raises(ConfigurationError):
        il.decay_profile(sch, trit_labels, 0, 1)


def test_decay_morse_negative_control():
    # Deterministic doubling words do not decay in sup: the half-period
    # antisymmetry keeps |C(h/2)| = 1 at every scale, so the max-statistic
    # slope is exactly zero.
    sch = il.morse_schedule(2, 8, il.word_from_text(il.BINARY, "01"))
    labels = {"0": 1.0, "1": -1.0}
    prof = il.decay_profile(sch, labels, 2, 8, statistic="max")
    for s in prof.stages:
        assert s.max == pytest.approx(1.0, abs=1e-12)
    assert abs(prof.slope) < 1e-9


def test_decay_constant_function_harmless(trit_word):
    # All labels equal: zero-mean lift kills everything; stats are zero and
    # the slope degrades to 0 rather than crashing.
    sch = il.random_schedule([9, 9], 5, trit_word)
    labels = {"0": 1.0, "1": 1.0, "2": 1.0}
    prof = il.decay_profile(sch, labels, 0, 2)
    assert prof.slope == 0.0
    for s in prof.stages:
        assert s.max == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Signed levels and the far-half diagnostic
# ---------------------------------------------------------------------------


def test_signed_levels_partition(cat_schedule):
    # Every column of the signed chart holds exactly h consecutive levels.
    for n in (0, 1):
        h = cat_schedule.heights()[n]
        signed = il.signed_levels(cat_schedule, n)
        assert signed.shape == (cat_schedule.heights()[n + 1],)
        assert np.all(signed >= -h) and np.all(signed <= h - 1)
        # per-column count: each copy contributes h consecutive signed levels
        q = cat_schedule.stages[n].q
        for y in range(q):
            col = signed[y * h: (y + 1) * h]
            assert len(np.unique(col)) == h
            assert col.max() - col.min() == h - 1


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    qs=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=3),
    n=st.integers(min_value=0, max_value=1),
)
@settings(max_examples=40, deadline=None)
def test_signed_chart_equals_formula(trit_word, seed, qs, n):
    sch = il.random_schedule(qs, seed, trit_word)
    x = np.arange(sch.heights()[n + 1], dtype=np.int64)
    assert np.array_equal(il.signed_levels(sch, n), _reference_chart(sch, n, x))
    # Arbitrary coordinate subsets, as the window sums pass them.
    picks = np.random.default_rng(seed).integers(0, x.size, 50)
    got = il.correlation._signed_chart(sch, n, picks.copy())
    assert np.array_equal(got, _reference_chart(sch, n, picks))


def _assert_near_reference(rep, ref, exact):
    got = (rep.f2, rep.g2, rep.fg_diff2, rep.u2, rep.v2, rep.uv, rep.fv)
    if exact:
        assert [repr(x) for x in got] == [repr(x) for x in ref]
    else:
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-12 * ref[0]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n, qs", [(1, [9, 27, 5, 4, 3]), (2, [9, 27, 5, 4, 9, 3]),
                                   (1, [9, 81, 7, 9, 3]), (0, [9, 27, 5, 4]),
                                   (1, [9, 27, 1, 5, 3])])
@pytest.mark.parametrize("extra", [1, 2, 3, 4])
def test_simplicity_bitwise_equals_reference(trit_word, trit_labels, seed, n, qs, extra):
    # At depth n+1 the report is the sums over W_{n+1}'s 8,192-position
    # blocks, equal to the last bit (repr tells -0.0 from 0.0).  Deeper, the
    # sums are carried up by the stage step, so every field lies within
    # 1e-12 f2 of the sums over every position of W_depth: at most 8.5e-15 f2
    # was observed, over these cases, the complex labels below and 24 random
    # towers (q in {1, 3, 5, 7, 9, 27}, n from 0 to 4, depths n+1 .. n+4).
    # The cases include n = 0 and a q = 1 stage; [9, 27, 5, 4, 9, 3] at
    # depth 6 and [9, 81, 7, 9, 3] at depth 5 reach h_N >= 2**18.
    sch = il.random_schedule(qs, seed, trit_word)
    rep = il.simplicity_diagnostic(sch, trit_labels, n, n + extra)
    _assert_near_reference(rep, _reference_simplicity(sch, trit_labels, n, n + extra),
                           exact=extra == 1)


@pytest.mark.parametrize("extra", [1, 2, 3])
def test_simplicity_of_complex_labels_near_reference(trit_word, extra):
    # Labels that are neither unit nor balanced: f2, uv and fv carry real and
    # imaginary parts of different sizes.
    labels = {"0": 2.5 + 1j, "1": -0.3 + 0.7j, "2": 1.1 - 2j}
    sch = il.random_schedule([9, 27, 5, 7], 3, trit_word)
    rep = il.simplicity_diagnostic(sch, labels, 1, 1 + extra)
    _assert_near_reference(rep, _reference_simplicity(sch, labels, 1, 1 + extra),
                           exact=extra == 1)


@given(seed=st.integers(min_value=0, max_value=2**31),
       qs=st.lists(st.sampled_from([1, 3, 5, 7, 9, 27]), min_size=2, max_size=5),
       n=st.integers(min_value=0, max_value=2), extra=st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_simplicity_of_random_towers_near_reference(trit_word, trit_labels, seed, qs, n,
                                                    extra):
    assume(n < len(qs) and np.prod(qs) <= 2**13)
    depth = min(len(qs), n + extra)
    sch = il.random_schedule(qs, seed, trit_word)
    rep = il.simplicity_diagnostic(sch, trit_labels, n, depth)
    _assert_near_reference(rep, _reference_simplicity(sch, trit_labels, n, depth),
                           exact=depth == n + 1)


def _per_j_base_returns(bases, size, fn):
    """Reference scatter: one pass over all bases per j, j ascending."""
    h = fn.size
    w = (h - 1) // 2
    g = np.zeros(size, dtype=np.complex128)
    for j in range(-w, w + 1):
        g[(bases + j) % size] += fn[j % h]
    return g


def _dense_cycle(seed, w, size, density):
    """Returns of wide dynamic range and the bases of a random cycle: a run of
    bases at the given density over a random arc, which may wrap past position 0."""
    rng = np.random.default_rng(seed)
    h = 2 * w + 1
    scale = 10.0 ** rng.uniform(-8, 8, h)
    fn = scale * (rng.standard_normal(h) + 1j * rng.standard_normal(h))
    arc = (rng.integers(size) + np.arange(rng.integers(size + 1))) % size
    return fn, np.sort(arc[rng.random(arc.size) < density])


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    w=st.integers(min_value=0, max_value=6),
    size=st.integers(min_value=1, max_value=160),
    density=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_blocked_base_returns_bitwise_equal_the_per_j_loop(seed, w, size, density):
    # Dense arcs give positions three or more returns, and an arc that wraps
    # past position 0 puts them on both sides of the cycle's end.
    fn, bases = _dense_cycle(seed, w, size, density)
    got = corr._base_returns(bases, size, fn)
    ref = _per_j_base_returns(bases, size, fn)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def _seven_sums(f, far, g):
    """The seven far-half sums of f, the far mask and g, each product formed
    out of place in the report's order: (f, f), (g, g), (f - g, f - g),
    (v, f), (u, u), (v, v), (v, u)."""
    u = np.where(far, f, 0.0)
    v = g - f + u
    return np.array([np.vdot(x, y) for x, y in ((f, f), (g, g), (f - g, f - g), (v, f),
                                                (u, u), (v, v), (v, u))])


def _gather_and_scatter(schedule, n, depth, fn):
    """Oracle for the telescoped sums: f, the far mask and g by gathers from
    the signed chart at the level-(n+1) coordinates and one scatter of g over
    all of h_N, as the diagnostic computed them before the tables were
    carried up."""
    x = il.project_all(il.ProjectionChain.build(schedule, depth), n + 1)
    chart = il.signed_levels(schedule, n)
    w = (fn.size - 1) // 2
    bases = np.flatnonzero((chart == 0)[x])
    return fn[chart][x], (np.abs(chart) > w)[x], _per_j_base_returns(bases, x.size, fn)


def _rotated_schedule(rng, h0, qs, zeros):
    """Pure stages with uniform rotations, each one zero with probability ``zeros``."""
    alphabet = il.Alphabet(("0", "1"))
    stages, h = [], h0
    for q in qs:
        stages.append(il.Stage(q, rng.integers(0, h, q) * (rng.random(q) >= zeros)))
        h *= q
    return il.Schedule(alphabet, il.word_from_text(alphabet, "01" * (h0 // 2) + "0"), stages)


def _assert_far_half_sums_match(sch, n, depth, seed, width):
    # The sums over W_{n+1} carried up to W_depth, with the window rows taken
    # in batches of `width` positions (at least one row), against the sums of
    # the arrays built over all of h_N.
    rng = np.random.default_rng(seed)
    h = sch.height(n)
    fn = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corr, "_PRODUCT_CHUNK", width)
        got = corr._telescoped(sch, fn, n, depth, corr._cycle_sums(sch, n, fn))
    ref = _seven_sums(*_gather_and_scatter(sch, n, depth, fn))
    assert np.abs(got - ref).max() <= 1e-12 * ref[0].real


_HEIGHTS = st.sampled_from([1, 3, 5, 9, 27])
_COPIES = st.lists(st.sampled_from([1, 2, 3, 5, 9]), min_size=1, max_size=4)


@given(seed=st.integers(min_value=0, max_value=2**31), h0=_HEIGHTS, qs=_COPIES,
       zeros=st.sampled_from([0.0, 0.5, 1.0]), n=st.integers(min_value=0, max_value=3),
       extra=st.integers(min_value=1, max_value=3), width=st.sampled_from([1, 64, 8192]))
@settings(max_examples=150, deadline=None)
def test_far_half_arrays_equal_the_gather_and_scatter_route(seed, h0, qs, zeros, n, extra,
                                                           width):
    # q = 1 stages, zero rotations (every one at zeros = 1), depths n+1 .. n+3,
    # h_0 = 27 under q = 1 stages, whose window rows wrap the cycle and
    # overlap, and batches of one row, of a few rows and of many.  h_n = 1
    # (w = 0) is left out: its one letter is a constant lift, which the
    # diagnostic refuses.
    rng = np.random.default_rng(seed)
    n = n % len(qs)
    sch = _rotated_schedule(rng, h0, qs, zeros)
    if sch.height(n) % 2 and sch.height(n) > 1:
        _assert_far_half_sums_match(sch, n, min(len(qs), n + extra), seed, width)


@pytest.mark.parametrize("rotations", [(0, 1, 2), (5, 30, 61), (20, 7, 26), (1, 28, 53)])
def test_far_half_arrays_at_jumps_closer_than_the_window(rotations):
    # h_n = 27 (w = 13).  W_2 = rot(W_1, 11) is one copy, so the row of
    # 4w = 52 positions around its end wraps the 27-cycle.  In W_4 each
    # rotated copy of W_3 carries W_3's jumps of the level-1 coordinate next
    # to its own end, 1 to 3 steps apart.
    alphabet = il.Alphabet(("0", "1"))
    stages = [il.Stage(1, (5,)), il.Stage(1, (11,)), il.Stage(2, (0, 11)), il.Stage(3, rotations)]
    sch = il.Schedule(alphabet, il.word_from_text(alphabet, "01" * 13 + "0"), stages)
    assert np.diff(il.jump_positions(il.ProjectionChain.build(sch), 1)).min() <= 3
    for depth, width in itertools.product((1, 2, 3, 4), (1, 64, 8192)):
        _assert_far_half_sums_match(sch, 0, depth, 7, width)


@given(seed=st.integers(min_value=0, max_value=2**31), h0=_HEIGHTS, qs=_COPIES,
       zeros=st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=50, deadline=None)
def test_steps_that_are_not_plain_end_a_copy(seed, h0, qs, zeros):
    # What the far-half stage step rests on: in W_{m+1} the level-m
    # coordinate advances by +1 (mod h_m) at every step but the last of a copy.
    sch = _rotated_schedule(np.random.default_rng(seed), h0, qs, zeros)
    for m in range(sch.depth):
        h = sch.height(m)
        jumps = il.jump_positions(il.ProjectionChain.build(sch, m + 1), m)
        assert np.all(jumps % h == h - 1)


def test_simplicity_refusal_names_the_far_half_arrays(trit_labels, monkeypatch):
    # MAX_SYMBOLS prices the h_N positions the sums run over, although no
    # array of that length is built: admission is unchanged.  A stand-in
    # limit one below h_3 = 405.
    def no_lift(*args):
        raise AssertionError("lifted W_n before the guard")

    sch = il.random_schedule([3, 9, 5], 1, il.word_from_text(il.Alphabet(tuple("012")), "012"))
    monkeypatch.setattr(il.correlation, "MAX_SYMBOLS", 404)
    with monkeypatch.context() as m:
        m.setattr(il.correlation, "_far_half_base_function", no_lift)
        with pytest.raises(ResourceRefusal) as exc:
            il.simplicity_diagnostic(sch, trit_labels, 1, 3)
    assert str(exc.value) == ("h_3 (positions of the far-half sums) = 405 > 404; "
                              "pass --force to proceed")
    assert il.simplicity_diagnostic(sch, trit_labels, 1, 3, force=True).h_N == 405
    monkeypatch.setattr(il.correlation, "MAX_SYMBOLS", 405)
    assert il.simplicity_diagnostic(sch, trit_labels, 1, 3).h_N == 405


@pytest.mark.parametrize("word, labels", [("000", {"0": 1.0}), ("012", {"0": 2, "1": 2, "2": 2})])
def test_simplicity_refuses_a_constant_lift_before_projecting(word, labels, monkeypatch):
    # f2 = 0, which every ratio divides by: refused before any table on
    # W_{n+1} exists, so before anything is carried up to h_N.
    def no_projection(*args):
        raise AssertionError("projected a constant lift")

    monkeypatch.setattr(il.correlation, "signed_levels", no_projection)
    sch = il.random_schedule([3, 9, 5], 1, il.word_from_text(il.Alphabet(tuple("012")), word))
    for depth in (1, 3):
        with pytest.raises(ConfigurationError, match="f2 = 0"):
            il.simplicity_diagnostic(sch, labels, 1, depth)


@pytest.mark.parametrize("labels", [
    {"0": 0.1, "1": 0.1, "2": 0.1},  # centres to f2 = 1.9e-34, not to 0
    {"0": 1 / 3, "1": 1 / 3, "2": 1 / 3},
    {"0": 0.1, "1": 0.1, "2": 0.1, "3": 5.0},  # "3" labelled but absent from W_1
], ids=["0.1", "1/3", "absent-letter"])
def test_far_half_refuses_labels_equal_on_the_letters_present(labels):
    sch = il.random_schedule([3, 9, 5], 1, il.word_from_text(il.Alphabet(tuple("0123")), "012"))
    with pytest.raises(ConfigurationError, match="differ on the letters of W_1"):
        il.simplicity_diagnostic(sch, labels, 1, 3)
    with pytest.raises(ConfigurationError, match="differ on the letters of W_1"):
        il.severed_copy_imbalance(sch, labels, 1, 3)


def test_far_half_refuses_labels_whose_centred_squares_underflow():
    # The labels differ, but every |f|^2 is below the smallest double.
    sch = il.random_schedule([3, 9, 5], 1, il.word_from_text(il.Alphabet(tuple("012")), "012"))
    labels = {"0": 0.0, "1": 1e-170, "2": 0.0}
    for depth in (1, 3):
        with pytest.raises(ConfigurationError, match="underflow"):
            il.simplicity_diagnostic(sch, labels, 1, depth)


def test_far_half_ignores_the_spacer_label():
    # The spacer lifts to 0 whatever its label, so only the other letters count.
    alphabet = il.Alphabet(("0", "1", "2"), "2")
    sch = il.rank_one_schedule("staircase", [3, 3], seed_word=il.word_from_text(alphabet, "01"))
    assert il.build_word(sch, 1)[1].text == "010120122"
    with pytest.raises(ConfigurationError, match="differ on the letters"):
        il.simplicity_diagnostic(sch, {"0": 1.0, "1": 1.0, "2": 7.0}, 1, 1)
    assert il.simplicity_diagnostic(sch, {"0": 1.0, "1": -1.0, "2": 7.0}, 1, 1).f2 > 0


def test_simplicity_degenerate_depth(trit_word, trit_labels):
    sch = il.random_schedule([9], 2, trit_word)
    rep = il.simplicity_diagnostic(sch, trit_labels, 0, 0)
    assert rep.g2 == rep.f2
    assert rep.fg_diff2 == 0.0
    assert rep.u2 == rep.v2 == 0.0


def test_simplicity_exact_at_one_stage(trit_word, trit_labels):
    # With every stage-n copy intact, the far and reconstruction halves
    # balance exactly: |u|^2 = |v|^2 to machine precision.
    sch = il.random_schedule([9, 81], 7, trit_word)
    rep = il.simplicity_diagnostic(sch, trit_labels, 1, 2)
    assert rep.h_n == 27
    assert rep.uv_norm_gap < 1e-12


def test_simplicity_requires_odd_height(trit_word, trit_labels):
    sch = il.random_schedule([2], 1, il.word_from_text(il.BINARY, "01"))
    with pytest.raises(ConfigurationError):
        il.simplicity_diagnostic(sch, {"0": 1.0, "1": -1.0}, 1, 1)


def test_simplicity_identity_decomposition(trit_word, trit_labels):
    # g = f - u + v by construction; norms reported are consistent.
    sch = il.random_schedule([9, 27], 13, trit_word)
    rep = il.simplicity_diagnostic(sch, trit_labels, 1, 2)
    # |f - g|^2 = |u - v|^2 = u2 + v2 - 2 Re<u,v>
    assert rep.fg_diff2 == pytest.approx(
        rep.u2 + rep.v2 - 2 * rep.uv.real, abs=1e-12
    )


# ---------------------------------------------------------------------------
# Severed-copy accounting of the far-half imbalance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_severed_copy_imbalance_matches_three_blocks(trit_word, trit_labels, seed):
    # Three rotated blocks of W_2 over the [9, 27] base: each rotation that is
    # not a multiple of h_1 = 27 severs a copy, and the junction windows
    # account for the whole imbalance measured over every position of W_3.
    sch = il.random_schedule([9, 27, 3], seed, trit_word)
    assert any(a % 27 for a in sch.stages[2].rotations)
    *_, u2, v2, _, _ = _reference_simplicity(sch, trit_labels, 1, 3)
    measured = (u2 - v2) * sch.height(3)
    predicted = il.severed_copy_imbalance(sch, trit_labels, 1, 3)
    assert abs(measured) >= 1.0
    assert predicted == pytest.approx(measured, abs=1e-9)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n, qs, depth", [(1, [9, 27, 5, 4, 3], 4), (1, [9, 27, 5, 4, 3], 5),
                                          (2, [9, 27, 5, 4, 3], 5), (1, [9, 81, 7, 9], 4)])
def test_severed_copy_imbalance_telescopes(trit_word, trit_labels, seed, n, qs, depth):
    # Depths n+3 and n+4: stages above n+1 sever copies of W_{n+1} and
    # deeper words too, and the junction windows telescope level by level.
    sch = il.random_schedule(qs, seed, trit_word)
    *_, u2, v2, _, _ = _reference_simplicity(sch, trit_labels, n, depth)
    measured = (u2 - v2) * sch.height(depth)
    predicted = il.severed_copy_imbalance(sch, trit_labels, n, depth)
    assert abs(measured) >= 1.0
    assert abs(predicted - measured) <= 1e-9 * max(1.0, abs(measured))


def _core_sums(signed, g, fn):
    """The seven far-half sums over the cores of window rows whose signed
    levels are ``signed``, with ``g`` on the cores."""
    w = (fn.size - 1) // 2
    core = signed[:, w: 3 * w]
    return _seven_sums(fn[core].ravel(), (np.abs(core) > w).ravel(), g.ravel())


def _sliding_window_sums(schedule, fn, n, level, centres):
    """Reference window sums: g by 2w + 1 shifted slices of the base mask."""
    h = fn.size
    w = (h - 1) // 2
    pos = (centres[:, None] + np.arange(-2 * w, 2 * w)) % schedule.height(level)
    signed = il.signed_levels(schedule, n)[il.project_positions(schedule, pos, level, n + 1)]
    base = signed == 0
    g = np.zeros((centres.size, 2 * w), dtype=np.complex128)
    for j in range(-w, w + 1):
        g += base[:, w - j: 3 * w - j] * fn[j % h]
    return _core_sums(signed, g, fn)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n, qs, depth", [(1, [9, 27, 5, 4, 3], 5), (2, [9, 27, 5, 4, 3], 5),
                                          (1, [9, 81, 7, 9], 4), (1, [243, 3, 4, 3], 4)])
def test_window_sums_match_the_sliding_formula(trit_word, trit_labels, seed, n, qs, depth):
    # All seven sums.  The last case has h_n = 729: 4w = 1,456 positions per
    # window.  Beside each stage's cut points and junctions, 2 batches + 1 of
    # random centres run through three batches of window rows.
    sch = il.random_schedule(qs, seed, trit_word)
    fn = corr._far_half_base_function(sch, trit_labels, n)
    batch = corr._PRODUCT_CHUNK // (2 * fn.size - 2)  # rows of 4w = 2 h_n - 2 positions
    rng = np.random.default_rng(seed)
    for m in range(n + 1, depth):
        blocks = np.arange(sch.stages[m].q, dtype=np.int64) * sch.height(m)
        spread = rng.integers(0, sch.height(m + 1), 2 * batch + 1)
        for level, centres in ((m, sch.rotations_mod(m)), (m + 1, blocks), (m + 1, spread)):
            got = corr._window_sums(sch, fn, n, level, centres)
            ref = _sliding_window_sums(sch, fn, n, level, centres)
            assert np.abs(got - ref).max() <= 1e-12 * ref[0].real


def _clipped_window_sums(schedule, fn, n, level, centres):
    """Reference window sums: g scattered row by row from each window's
    bases, each return clipped to the row's core."""
    h = fn.size
    w = (h - 1) // 2
    pos = (centres[:, None] + np.arange(-2 * w, 2 * w)) % schedule.height(level)
    signed = corr._signed_chart(schedule, n, il.project_positions(schedule, pos, level, n + 1))
    rows, cols = np.nonzero(signed == 0)
    g = np.zeros((centres.size, 2 * w), dtype=np.complex128)
    for j in range(-w, w + 1):
        at = cols + (j - w)
        inside = (at >= 0) & (at < 2 * w)
        g[rows[inside], at[inside]] += fn[j % h]
    return _core_sums(signed, g, fn)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    qs=st.lists(st.sampled_from([1, 3, 5, 7, 9]), min_size=2, max_size=3),
    n=st.integers(min_value=0, max_value=1),
    k=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_window_sums_match_the_clipped_row_scatter(trit_word, seed, qs, n, k):
    sch = il.random_schedule(qs, seed, trit_word)
    level = n + 1 + k % (sch.depth - n)
    h, h_level = sch.height(n), sch.height(level)
    w = (h - 1) // 2
    rng = np.random.default_rng(seed)
    fn = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    every = np.arange(h_level, dtype=np.int64)
    bases = np.flatnonzero(
        corr._signed_chart(sch, n, il.project_positions(sch, every, level, n + 1)) == 0)
    # Centres that put a base in a window's first or last position, whose
    # returns leave the row, and centres drawn at random.
    centres = np.concatenate([bases + 2 * w, bases - 2 * w + 1,
                              rng.integers(0, h_level, 8)]) % h_level
    got = corr._window_sums(sch, fn, n, level, centres)
    ref = _clipped_window_sums(sch, fn, n, level, centres)
    assert np.abs(got - ref).max() <= 1e-12 * ref[0].real


def test_severed_copy_imbalance_zero_when_intact(trit_word, trit_labels):
    # Stage-2 rotations on multiples of h_1: no copy is severed, the law
    # predicts no gap and the halves balance at depth n + 2.
    sch = intact_twin(il.random_schedule([9, 27, 3], 3, trit_word), 1)
    assert all(a % 27 == 0 for a in sch.stages[2].rotations)
    assert il.severed_copy_imbalance(sch, trit_labels, 1, 3) == pytest.approx(0.0, abs=1e-9)
    *_, u2, v2, _, _ = _reference_simplicity(sch, trit_labels, 1, 3)
    assert abs(u2 - v2) < 1e-12 * max(u2, v2)


def test_severed_copy_imbalance_zero_one_stage_up(trit_word, trit_labels):
    sch = il.random_schedule([9, 27, 3], 3, trit_word)
    assert il.severed_copy_imbalance(sch, trit_labels, 1, 2) == 0.0


def test_severed_copy_imbalance_preconditions(trit_word, trit_labels):
    deep = il.random_schedule([9, 27, 3, 3], 3, trit_word)
    with pytest.raises(ConfigurationError, match="n <= depth <= 4"):
        il.severed_copy_imbalance(deep, trit_labels, 1, 5)
    spaced = il.Schedule(
        il.BINARY_SPACER,
        il.word_from_text(il.BINARY_SPACER, "001"),
        (il.Stage(3, (0, 1, 2)), il.Stage(3, (0, 4, 8), (0, 1, 0))),
    )
    with pytest.raises(ConfigurationError, match="pure stages"):
        il.severed_copy_imbalance(spaced, {"0": 1.0}, 0, 2)
    even = il.random_schedule([2, 3], 1, il.word_from_text(il.BINARY, "01"))
    with pytest.raises(ConfigurationError, match="odd h_n"):
        il.severed_copy_imbalance(even, {"0": 1.0, "1": -1.0}, 0, 2)
