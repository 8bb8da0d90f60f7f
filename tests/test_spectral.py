"""Spectral module: frequency sets, polynomial classes, Riesz products, flatness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import icelab as il
from icelab.errors import ConfigurationError


# ---------------------------------------------------------------------------
# Frequency sets
# ---------------------------------------------------------------------------


def test_staircase_frequencies():
    sch = il.rank_one_schedule("staircase", [4])
    fs = il.stage_frequencies(sch, 0)
    h = sch.heights()[0]
    # spacers (0,1,2,3): offsets 0, h, 2h+1, 3h+3
    assert fs.frequencies.tolist() == [0, h, 2 * h + 1, 3 * h + 3]


def test_ornstein_frequencies():
    sch = il.rank_one_schedule("ornstein", [5], seed=2)
    fs = il.stage_frequencies(sch, 0)
    h = sch.heights()[0]
    spc = sch.stages[0].spacers
    expect = [y * h + sum(spc[:y]) for y in range(5)]
    assert fs.frequencies.tolist() == expect


def test_pure_stage_frequencies_carry_rotations(cat_schedule):
    # The copy starts whatever the rotations (7, 4, 11); the Riesz
    # factorisation refuses such a stage through check_riesz_stages.
    fs = il.stage_frequencies(cat_schedule, 1)
    assert fs.frequencies.tolist() == [0, 18, 36]


def test_exp_frequency_set():
    fs = il.exp_frequency_set(100, 0.1)
    assert fs.q == 100
    assert fs.frequencies[0] == pytest.approx(100 / 0.01)
    gaps = np.diff(fs.frequencies) / fs.frequencies[:-1]
    assert np.allclose(gaps, np.exp(0.1 / 100) - 1)
    assert gaps.max() < 0.01


def test_frequency_set_requires_increasing():
    with pytest.raises(ConfigurationError):
        il.FrequencySet(np.array([3, 1, 2]), True)


# ---------------------------------------------------------------------------
# Polynomial evaluation
# ---------------------------------------------------------------------------


def test_single_term_is_flat():
    fs = il.FrequencySet(np.array([5]), True)
    pg = il.eval_polynomial(fs, il.CircleGrid(64), "M")
    assert np.allclose(np.abs(pg.values), 1.0)


def test_dirichlet_peak():
    # Consecutive frequencies 0..q-1: P(1) = q/sqrt(q) = sqrt(q).
    q = 16
    fs = il.FrequencySet(np.arange(q), True)
    pg = il.eval_polynomial(fs, il.CircleGrid(256), "M")
    assert abs(pg.values[0]) == pytest.approx(np.sqrt(q))


def test_parseval_exact():
    rng = np.random.default_rng(1)
    freqs = np.unique(rng.integers(0, 2**15, 200)).astype(np.int64)
    fs = il.FrequencySet(freqs, True)
    pg = il.eval_polynomial(fs, il.CircleGrid(2**17), "M")
    assert abs(np.mean(np.abs(pg.values) ** 2) - 1.0) < 1e-12


def test_class_k_rejects_non_unimodular():
    with pytest.raises(ConfigurationError):
        il.eval_polynomial([1.0, 0.5], il.CircleGrid(8), "K")


def test_class_l_rejects_non_sign():
    with pytest.raises(ConfigurationError):
        il.eval_polynomial([1.0, 1j], il.CircleGrid(8), "L")


def test_class_mr_rejects_circle():
    fs = il.exp_frequency_set(10, 0.1)
    with pytest.raises(ConfigurationError):
        il.eval_polynomial(fs, il.CircleGrid(8), "M_R")


def test_class_m_rejects_real_frequencies():
    fs = il.exp_frequency_set(10, 0.1)
    with pytest.raises(ConfigurationError):
        il.eval_polynomial(fs, il.LineGrid(1.0, 2.0, 32), "M")


def test_rudin_shapiro_sup():
    p, q = np.array([1.0]), np.array([1.0])
    for _ in range(6):
        p, q = np.concatenate([p, q]), np.concatenate([p, -q])
    pg = il.eval_polynomial(p, il.CircleGrid(2**12), "L")
    assert np.max(np.abs(pg.values)) <= np.sqrt(2) + 1e-9


def test_line_grid_validation():
    with pytest.raises(ConfigurationError):
        il.LineGrid(0.0, 2.0, 16)
    with pytest.raises(ConfigurationError):
        il.LineGrid(2.0, 1.0, 16)
    with pytest.raises(ConfigurationError):
        il.CircleGrid(100)  # not a power of two


# ---------------------------------------------------------------------------
# Riesz partial products
# ---------------------------------------------------------------------------


def test_riesz_depth_zero_is_weight():
    sch = il.rank_one_schedule("staircase", [3, 3])
    grid = il.CircleGrid(2**10)
    rp = il.riesz_partial_product(sch, {"0": 1.0}, 0, -1, grid)
    assert np.allclose(rp.values, rp.weight)
    assert rp.factor_count == 0


def test_riesz_matches_direct_staircase():
    sch = il.rank_one_schedule("staircase", [3, 3, 3])
    grid = il.CircleGrid(2**14)
    rp = il.riesz_partial_product(sch, {"0": 1.0}, 0, 2, grid)
    direct = il.direct_word_spectrum(sch, {"0": 1.0}, 3, grid, 0)
    l1 = np.mean(np.abs(rp.values / rp.values.mean() - direct / direct.mean()))
    assert l1 < 1e-12


def test_riesz_matches_direct_ornstein():
    sch = il.rank_one_schedule("ornstein", [4, 5, 3], seed=3)
    grid = il.CircleGrid(2**14)
    rp = il.riesz_partial_product(sch, {"0": 1.0}, 0, 2, grid)
    direct = il.direct_word_spectrum(sch, {"0": 1.0}, 3, grid, 0)
    l1 = np.mean(np.abs(rp.values / rp.values.mean() - direct / direct.mean()))
    assert l1 < 1e-12


def test_riesz_rejects_rotations(cat_schedule, cat_labels):
    grid = il.CircleGrid(256)
    with pytest.raises(ConfigurationError):
        il.riesz_partial_product(cat_schedule, cat_labels, 0, 1, grid)


def test_evaluators_are_chosen_in_one_place():
    from test_errors import _module_calls

    def evaluates(call) -> bool:
        return getattr(call.func, "id", None) in ("_eval_integer_circle", "_eval_line")

    assert _module_calls(evaluates) == [("spectral", "_evaluate")] * 2


def test_riesz_dirichlet_square_closed_form():
    # All-zero spacers make each factor a squared Dirichlet kernel.
    w0 = il.word_from_text(il.BINARY_SPACER, "0")
    sch = il.Schedule(
        il.BINARY_SPACER, w0, (il.Stage(4, (0,) * 4, (0,) * 4),), family_tag="custom"
    )
    grid = il.CircleGrid(2**10)
    rp = il.riesz_partial_product(sch, {"0": 1.0}, 0, 0, grid)
    theta = grid.angles()
    with np.errstate(divide="ignore", invalid="ignore"):
        dirichlet = np.where(
            np.isclose(np.sin(theta / 2), 0.0),
            4.0,
            np.abs(np.sin(4 * theta / 2) / np.sin(theta / 2)),
        )
    expect = rp.weight * dirichlet**2 / 4
    assert np.allclose(rp.values, expect, atol=1e-9)


# ---------------------------------------------------------------------------
# Flatness and merit factors
# ---------------------------------------------------------------------------


def test_flatness_metrics_flat_polynomial():
    fs = il.FrequencySet(np.array([3]), True)
    pg = il.eval_polynomial(fs, il.CircleGrid(64), "M")
    m = il.flatness_metrics(pg)
    assert m.sup_deviation == pytest.approx(0.0, abs=1e-12)
    assert m.mean_deviation == pytest.approx(0.0, abs=1e-12)


def test_flatness_dirichlet_not_flat():
    q = 16
    fs = il.FrequencySet(np.arange(q), True)
    pg = il.eval_polynomial(fs, il.CircleGrid(256), "M")
    assert il.flatness_metrics(pg).sup_deviation >= np.sqrt(q) - 1


def test_exp_flatness_monotone_small():
    sups = []
    for n in (125, 250, 500):
        fs = il.exp_frequency_set(n, 0.1)
        pg = il.eval_polynomial(fs, il.LineGrid(1.0, 2.0, 2001), "M_R")
        sups.append(il.flatness_metrics(pg).sup_deviation)
    assert sups[0] > sups[1] > sups[2]


def test_merit_factor_pair():
    assert il.merit_factor(np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_merit_factor_alternating_four():
    # signs + - + -: aperiodic autocorrelations (-3, 2, -1).
    assert il.merit_factor(np.array([1.0, -1.0, 1.0, -1.0])) == pytest.approx(16 / 28)


def test_merit_factor_rejects_non_signs():
    with pytest.raises(ConfigurationError):
        il.merit_factor(np.array([1.0, 0.5]))


def _direct_merit(s: np.ndarray) -> float:
    """O(N^2) merit factor through ``np.correlate``, kept here as the oracle."""
    n = s.size
    tail = np.correlate(s, s, mode="full")[n:]
    denom = 2.0 * float(np.sum(tail**2))
    return float("inf") if denom == 0.0 else n * n / denom


def test_merit_factor_fft_equals_direct():
    rng = np.random.default_rng(5)
    for n in [*range(2, 130), 1023, 1024, 1025, 4097]:
        for s in (rng.choice([-1.0, 1.0], n), np.ones(n), np.resize([1.0, -1.0], n)):
            assert il.merit_factor(s) == _direct_merit(s), n


def _rfft_merit(s: np.ndarray) -> float:
    """The zero-padded rfft/irfft merit factor, kept here as the reference."""
    n = s.size
    size = 1 << (2 * n - 2).bit_length()
    tail = np.rint(np.fft.irfft(np.abs(np.fft.rfft(s, size)) ** 2, size)[1:n])
    return n * n / (2.0 * float(np.sum(tail**2)))


@pytest.mark.parametrize("n", [2**17 + 1, 2**17 + 12345, 2**18])
def test_merit_factor_of_words_past_the_one_piece_transform(n):
    # Padded to 2^19 points, above _ONE_PIECE = 2^18, so the kernel's blocked
    # four-step route runs; its integers must be those of the rfft route.
    assert 1 << (2 * n - 2).bit_length() > il.correlation._ONE_PIECE
    s = np.random.default_rng(n).choice([-1.0, 1.0], n)
    assert il.merit_factor(s) == _rfft_merit(s)


def test_merit_factor_morse_words():
    sch = il.morse_schedule(2, 6, il.word_from_text(il.BINARY, "01"))
    words = il.build_word(sch)
    labels = {"0": 1.0, "1": -1.0}
    for w in words[2:]:
        f = il.lift(labels, w, 0)
        mf = il.merit_factor(f.values.real)
        assert np.isfinite(mf) and mf > 0


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    q=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=30, deadline=None)
def test_parseval_property(seed, q):
    rng = np.random.default_rng(seed)
    freqs = np.unique(rng.integers(0, 512, q)).astype(np.int64)
    fs = il.FrequencySet(freqs, True)
    pg = il.eval_polynomial(fs, il.CircleGrid(2**11), "M")
    assert abs(np.mean(np.abs(pg.values) ** 2) - 1.0) < 1e-10


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_circle_line_eval_agree(seed):
    # The fold-and-fft circle evaluation matches brute-force evaluation.
    rng = np.random.default_rng(seed)
    freqs = np.unique(rng.integers(0, 200, 12)).astype(np.int64)
    fs = il.FrequencySet(freqs, True)
    grid = il.CircleGrid(64)
    pg = il.eval_polynomial(fs, grid, "M")
    theta = grid.angles()
    brute = np.exp(1j * np.outer(theta, freqs)).sum(axis=1) / np.sqrt(freqs.size)
    assert np.max(np.abs(pg.values - brute)) < 1e-9
