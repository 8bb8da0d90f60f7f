"""Riesz-product polynomials and flatness classes.

Rank-one stages (all rotations zero) put their copies at start offsets
``w(y) = y*h_n + sum(spacers[:y])``; the normalized exponential sum
``P_n(z) = (1/sqrt(q)) sum_y z^{w(y)}`` is the stage polynomial, and the
spectral density of a lifted label function factorises exactly through the
partial products ``|f-hat at the base|^2 * prod |P_n|^2``.  The module also
evaluates the classical unimodular/sign-coefficient classes, real-frequency
exponential sums on compact intervals, flatness metrics, and merit factors
of sign words.

Grids: circle grids are power-of-two roots of unity (exact evaluation by
frequency folding + inverse FFT); line grids are uniform points of a compact
interval ``[a, b]`` in ``(0, oo)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .correlation import _correlate_owned, _refuse_overflow, lift
from .errors import MAX_DENSE_TERMS, ConfigurationError, refuse_above
from .words import Schedule, tower


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleGrid:
    """``size`` evenly spaced roots of unity; ``size`` must be a power of two."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1 or self.size & (self.size - 1):
            raise ConfigurationError(f"circle grid size must be a power of two, got {self.size}")

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.size) / self.size


@dataclass(frozen=True)
class LineGrid:
    """``size`` uniform points of a compact interval ``[a, b]`` in ``(0, oo)``."""

    a: float
    b: float
    size: int

    def __post_init__(self) -> None:
        if not 0.0 < self.a < self.b:
            raise ConfigurationError("line grid needs 0 < a < b")
        if self.size < 2:
            raise ConfigurationError("line grid needs at least 2 points")

    def points(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.size)


Grid = CircleGrid | LineGrid


# ---------------------------------------------------------------------------
# Frequency sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FrequencySet:
    """Strictly increasing frequencies, integer or real."""

    frequencies: np.ndarray
    is_integer: bool

    def __post_init__(self) -> None:
        freqs = np.asarray(
            self.frequencies, dtype=np.int64 if self.is_integer else np.float64
        )
        if freqs.ndim != 1 or freqs.size == 0:
            raise ConfigurationError("frequency set needs a non-empty 1-d vector")
        if np.any(np.diff(freqs) <= 0):
            raise ConfigurationError("frequencies must be strictly increasing")
        freqs.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)

    @property
    def q(self) -> int:
        return int(self.frequencies.size)


def stage_frequencies(schedule: Schedule, n: int) -> FrequencySet:
    """Copy start offsets ``w(y) = y*h_n + sum(spacers[:y])`` of stage ``n``.

    Strictly increasing with ``w(0) = 0``.  The offsets ignore the stage's
    rotations; ``check_riesz_stages`` refuses rotated stages.
    """
    return FrequencySet(frequencies=schedule.stage_starts(n)[:-1], is_integer=True)


def exp_frequency_set(n: int, eps: float) -> FrequencySet:
    """Exponentially spaced real frequencies ``w_y = (n/eps^2) e^{eps*y/n}``.

    ``y = 0 .. n-1``; the relative gap ``(w_{y+1}-w_y)/w_y = e^{eps/n} - 1``
    is constant and small for large ``n``, which is what makes the normalized
    sum flat on compact intervals.
    """
    if n < 1:
        raise ConfigurationError("exp frequency set needs n >= 1")
    if eps <= 0:
        raise ConfigurationError("exp frequency set needs eps > 0")
    y = np.arange(n, dtype=np.float64)
    return FrequencySet(frequencies=(n / eps**2) * np.exp(eps * y / n), is_integer=False)


# ---------------------------------------------------------------------------
# Polynomial evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolynomialGrid:
    """Samples of a normalized exponential sum on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


_CLASSES = ("M", "K", "L", "M_R")

#: Tolerance for the unimodularity check of class-K coefficients.
UNIMODULAR_TOL = 1e-9


def _eval_integer_circle(
    freqs: np.ndarray, coeffs: np.ndarray, grid: CircleGrid
) -> np.ndarray:
    """Exact circle evaluation by folding frequencies mod the grid size."""
    m = grid.size
    folded = np.zeros(m, dtype=np.complex128)
    np.add.at(folded, np.asarray(freqs, dtype=np.int64) % m, coeffs)
    # sum_w c_w z_k^w = M * ifft(folded)[k] at the M-th roots of unity
    return m * np.fft.ifft(folded)


def _eval_line(freqs: np.ndarray, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    out = np.empty(points.size, dtype=np.complex128)
    block = max(1, 2**22 // max(1, freqs.size))
    for i in range(0, points.size, block):
        chunk = points[i: i + block]
        out[i: i + block] = np.exp(1j * np.outer(chunk, freqs)) @ coeffs
    return out


def _evaluate(freqs: np.ndarray, coeffs: np.ndarray, grid: Grid, *, force: bool) -> np.ndarray:
    """``sum_w c_w z^w`` at every grid point: folded on circles, pointwise on lines.

    The one place that chooses between the two evaluators; integer frequencies
    are evaluated as floats on line grids.  The pointwise route costs
    frequencies x points terms and is refused above ``MAX_DENSE_TERMS``
    unless ``force``.
    """
    if isinstance(grid, CircleGrid):
        return _eval_integer_circle(freqs, coeffs, grid)
    refuse_above("dense evaluation terms (frequencies x points)", len(freqs) * grid.size,
                 MAX_DENSE_TERMS, force)
    return _eval_line(np.asarray(freqs, dtype=np.float64), coeffs, grid.points())


def eval_polynomial(
    source: "FrequencySet | Sequence[complex]",
    grid: Grid,
    class_tag: str = "M",
    *,
    force: bool = False,
) -> PolynomialGrid:
    """Evaluate a normalized exponential-sum polynomial on a grid.

    Classes: ``M`` integer frequency set with unit coefficients; ``K``
    unimodular coefficient vector on frequencies ``0..len-1``; ``L`` the same
    with coefficients exactly +-1; ``M_R`` real frequency set on a line grid.
    All are normalized by ``1/sqrt(q)`` so the circle-grid mean of ``|P|^2``
    is exactly 1 once the grid outlives the frequency span.  ``force`` lifts
    the dense-evaluation limit of line grids.
    """
    if class_tag not in _CLASSES:
        raise ConfigurationError(f"unknown polynomial class {class_tag!r}")

    if class_tag in ("M", "M_R"):
        if not isinstance(source, FrequencySet):
            raise ConfigurationError(f"class {class_tag} takes a FrequencySet")
        if class_tag == "M" and not source.is_integer:
            raise ConfigurationError("class M needs integer frequencies")
        if class_tag == "M_R" and source.is_integer:
            raise ConfigurationError("class M_R needs real frequencies")
        freqs = source.frequencies
        coeffs = np.ones(source.q, dtype=np.complex128)
    else:
        if isinstance(source, FrequencySet):
            raise ConfigurationError(f"class {class_tag} takes a coefficient vector")
        coeffs = np.asarray(list(source), dtype=np.complex128)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ConfigurationError("coefficient vector must be non-empty 1-d")
        if class_tag == "K":
            if np.any(np.abs(np.abs(coeffs) - 1.0) > UNIMODULAR_TOL):
                raise ConfigurationError("class K requires unimodular coefficients")
        else:  # L
            if np.any((coeffs != 1) & (coeffs != -1)):
                raise ConfigurationError("class L requires coefficients exactly +-1")
        freqs = np.arange(coeffs.size, dtype=np.int64)

    if class_tag == "M_R" and isinstance(grid, CircleGrid):
        raise ConfigurationError("class M_R is evaluated on line grids only")
    vals = _evaluate(freqs, coeffs, grid, force=force)
    return PolynomialGrid(grid=grid, values=vals / math.sqrt(coeffs.size))


# ---------------------------------------------------------------------------
# Riesz partial products
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RieszProduct:
    """Partial Riesz product ``|f-hat|^2 * prod_{n0..last} |P_n|^2`` on a grid.

    ``weight`` is the base factor ``|f-hat at stage n0|^2``; ``masses[k]`` is
    the grid mean after multiplying in the first ``k`` stage factors
    (``masses[0]`` is the weight's own mass).
    """

    n0: int
    last: int
    grid: Grid
    weight: np.ndarray
    values: np.ndarray
    masses: tuple[float, ...]

    @property
    def factor_count(self) -> int:
        return self.last - self.n0 + 1


def check_riesz_stages(schedule: Schedule, n0: int, last: int) -> None:
    """Preconditions of the Riesz factorisation with factors ``n0 .. last``.

    ``0 <= n0 <= depth``, ``n0 - 1 <= last <= depth - 1``, and every factor
    stage has all rotations zero: stages with genuine rotations are refused,
    as the factorisation is not claimed for them.  Costs nothing beyond the
    schedule, so callers run it before any word is built.
    """
    if not 0 <= n0 <= schedule.depth:
        raise ConfigurationError(f"base stage {n0} outside [0, {schedule.depth}]")
    if not n0 - 1 <= last <= schedule.depth - 1:
        raise ConfigurationError(f"last stage {last} outside [{n0 - 1}, {schedule.depth - 1}]")
    for n in range(n0, last + 1):
        if np.any(schedule.rotations_mod(n) != 0):
            raise ConfigurationError(
                f"stage {n} has nonzero rotations; the Riesz factorisation is "
                "unsupported for iceberg stages"
            )


def riesz_partial_product(
    schedule: Schedule,
    labels: Mapping[str, complex],
    n0: int,
    last: int,
    grid: Grid,
    *,
    zero_mean: bool = False,
    force: bool = False,
) -> RieszProduct:
    """Partial Riesz product of a rank-one schedule.

    Stage factors ``n0 .. last`` (inclusive; ``last = n0 - 1`` returns the
    weight alone) must pass ``check_riesz_stages``.  The weight is the direct
    word spectrum at level ``n0``, ``|f-hat|^2 / h_{n0}``.  The word-level
    identity: the product times the weight equals the normalized squared
    transform of the stage-``last+1`` lift, exactly.
    """
    check_riesz_stages(schedule, n0, last)
    weight = direct_word_spectrum(
        schedule, labels, n0, grid, n0, zero_mean=zero_mean, force=force
    )
    values = weight.copy()
    masses = [float(values.mean())]
    for n in range(n0, last + 1):
        fs = stage_frequencies(schedule, n)
        vals = _evaluate(fs.frequencies, np.ones(fs.q, np.complex128), grid, force=force)
        values = values * (np.abs(vals) ** 2 / fs.q)
        masses.append(float(values.mean()))
    # A mean is finite only if every value it averages is.
    _refuse_overflow("the Riesz product", np.array(masses))
    return RieszProduct(
        n0=n0, last=last, grid=grid, weight=weight, values=values, masses=tuple(masses)
    )


def direct_word_spectrum(
    schedule: Schedule,
    labels: Mapping[str, complex],
    level: int,
    grid: Grid,
    n0: int = 0,
    *,
    zero_mean: bool = False,
    force: bool = False,
) -> np.ndarray:
    """Normalized squared transform of the stage-``level`` lift (oracle route).

    Returns ``|sum_j f_(level)(j) z^j|^2 / (h_{n0} * prod q_n)`` with the
    product over stages ``n0 .. level-1`` — the direct counterpart of the
    partial Riesz product with factors ``n0 .. level-1``.
    """
    for word in tower(schedule, level, force=force):
        pass  # W_level, the last word, is the one kept
    coeffs = lift(labels, word, level, zero_mean=zero_mean).values
    amp = _evaluate(np.arange(word.h, dtype=np.int64), coeffs, grid, force=force)
    norm = schedule.height(n0)
    for n in range(n0, level):
        norm *= schedule.stages[n].q
    spectrum = np.abs(amp) ** 2 / norm
    _refuse_overflow(f"the word spectrum of W_{level}", spectrum)
    return spectrum


# ---------------------------------------------------------------------------
# Flatness and merit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatnessMetrics:
    """Deviation of ``|P|`` from 1: sup and L1 of ``||P|-1||``, L2 of ``|P|^2-1``."""

    sup_deviation: float
    mean_deviation: float
    rms_square_deviation: float


def flatness_metrics(pg: PolynomialGrid) -> FlatnessMetrics:
    """All three flatness metrics of a sampled polynomial (0 iff ``|P| = 1``)."""
    mod = np.abs(pg.values)
    if mod.size == 0:
        raise ConfigurationError("flatness metrics need a non-empty grid")
    dev = np.abs(mod - 1.0)
    sq = mod**2 - 1.0
    return FlatnessMetrics(
        sup_deviation=float(dev.max()),
        mean_deviation=float(dev.mean()),
        rms_square_deviation=float(np.sqrt(np.mean(sq**2))),
    )


def merit_factor(signs: Sequence[float]) -> float:
    """Merit factor ``N^2 / (2 sum_{k>=1} c_k^2)`` of a +-1 word.

    ``c_k`` are the aperiodic autocorrelations: the word is zero-padded to a
    power of two ``>= 2N - 1``, so nothing wraps, transformed in place by the
    correlation kernel (``correlation._correlate_owned``), and the series
    times the padded length is rounded.  The ``c_k`` are integers, and the
    transform's error is far below 1/2 for any word the symbol limit admits.
    """
    s = np.asarray(signs, dtype=np.float64)
    if s.ndim != 1 or s.size < 2:
        raise ConfigurationError("merit factor needs a 1-d +-1 word of length >= 2")
    if np.any((s != 1.0) & (s != -1.0)):
        raise ConfigurationError("merit factor needs entries exactly +-1")
    n = s.size
    size = 1 << (2 * n - 2).bit_length()
    buf = np.zeros(size, dtype=np.complex128)
    buf[:n] = s
    tail = size * _correlate_owned(buf)[1:n].real
    del buf  # the padded buffer (16 B per point) is not alive beside the rounding
    np.rint(tail, out=tail)  # c_1 .. c_{N-1}
    return n * n / (2.0 * float(np.sum(np.square(tail, out=tail))))
