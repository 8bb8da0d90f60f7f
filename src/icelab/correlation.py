"""Level functions, cyclic correlations, decay profiles, and the
far-half (simplicity) diagnostic.

A complex labelling of the alphabet lifts to a *level function* on each word;
the cyclic correlation ``C(t) = (1/h) sum_j f(j) conj(g(j-t))`` measures how
the shift mixes it.  For pure stages the next stage's correlations at lags
``s * h_n`` satisfy an exact averaging recursion over rotation differences,
which drives the square-root decay of correlations for fast-growing random
schedules.

The far-half diagnostic compares a lifted function ``f`` with its
reconstruction ``g`` from base-level returns: ``g = sum_{|j| <= (h-1)/2}
f_(n)(j) * T^j b_n`` where ``b_n`` is the indicator of the base level.  The
remainder splits as ``g = f - u + v`` with ``u`` the restriction of ``f`` to
the far half of the signed-level chart; the report carries all seven inner
products of the decomposition.  They are summed over the cyclic ``W_{n+1}``,
where the signed chart and ``g`` are tables, and carried up one stage at a
time: the copies of a word repeat its sums except within ``(h_n - 1)/2`` of
a junction between copies, so each stage multiplies the sums by its copy
count and trades the windows around its cut points for those around its
junctions.  ``|u|^2 = |v|^2`` while every stage-``n`` copy is intact;
``severed_copy_imbalance`` runs the same stage step from zero and so
accounts exactly, at any depth, for the gap that the copies severed by
deeper stages' rotations leave.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass
from typing import Mapping, Sequence

import numpy as np

from .dynamics import project_positions
from .errors import MAX_SYMBOLS, ConfigurationError, refuse_above
from .words import ONE_COPY, Schedule, Stage, Word, concat_stage, tower

#: Values per ``np.vdot`` in ``_block_sums``: at most OpenBLAS's threading
#: threshold (about 10,000), so no product is split across threads.
_VDOT_BLOCK = 8192

#: Zero-mean lift tolerance: |sum of values| <= ZERO_MEAN_TOL * h * max(m, 1), where
#: m is the largest |real| or |imag| part of a lifted label (of a value, for values given
#: directly), so the bound grows with the labels.
ZERO_MEAN_TOL = 1e-12

#: Values per cache block (1 MiB of complex128): per block of
#: ``_correlate_owned``'s passes, per in-place ``|F|^2`` product, per window of
#: ``_lifted_values`` and ``_central_decay``, and positions per batch of
#: ``_window_sums`` rows (about 2 MB of positions and returns).
_PRODUCT_CHUNK = 2**16

#: Transforms up to this length run in one piece, as pocketfft's 1-d route.
_ONE_PIECE = 2**18

#: ``exp(-2 pi i q / 4)`` for the quarter turns ``q`` of ``_unit_roots``.
_QUARTER_TURNS = np.array([1, -1j, -1, 1j])


# ---------------------------------------------------------------------------
# Level functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LevelFunction:
    """A complex function on ``Z_{h_n}`` lifted from alphabet labels.

    Spacer positions carry the value 0.  When ``zero_mean`` is set the values
    sum to (numerically) zero, relative to ``scale``: the largest part of the
    labels they were centred from (default: of the values themselves).
    """

    n: int
    values: np.ndarray
    zero_mean: bool = False
    scale: InitVar[float | None] = None

    def __post_init__(self, scale: float | None) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size == 0:
            raise ConfigurationError("level function needs a non-empty 1-d value vector")
        if self.zero_mean:
            _check_zero_mean(vals, scale)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def h(self) -> int:
        return int(self.values.size)


def _check_zero_mean(values: np.ndarray, scale: float | None = None) -> None:
    """Raise unless ``values`` sum to zero within ``ZERO_MEAN_TOL``.

    Centring leaves a rounding residual that grows with the values it was
    taken from, so the bound is relative to ``scale``, the largest real or
    imaginary part of the lifted labels.  Labels of 100000.1 and 100000
    centre to values near 0.1 with the residual of 1e5.  Without ``scale``
    it is the values' own largest part, read from a float view of them (a
    copy only for a strided array).  It stays absolute below 1.
    """
    if scale is None:
        parts = np.ravel(values).view(np.float64)
        scale = max(parts.max(), -parts.min())
    if abs(values.sum()) > ZERO_MEAN_TOL * values.size * max(1.0, scale):
        raise ConfigurationError("zero_mean flag set but values do not sum to zero")


def _refuse_overflow(what: str, values) -> None:
    """Raise unless every real and imaginary part of ``values`` is finite.

    Labels are refused unless finite (``_lifted_values``), so a NaN or an
    infinity in a value formed from them is an overflow.  Only the largest
    and smallest parts are read, from a float view (a copy only for a
    strided array), so no mask is allocated.
    """
    parts = np.ravel(values).view(np.float64)
    if not (np.isfinite(parts.max()) and np.isfinite(parts.min())):
        raise ConfigurationError(f"overflow in {what}: not finite for these finite labels; "
                                 "scale the labels down")


def lift(
    labels: Mapping[str, complex], word: Word, n: int, *, zero_mean: bool = False
) -> LevelFunction:
    """Lift alphabet labels to a level function on a word.

    Every non-spacer symbol occurring in the word must be labelled; spacer
    positions are forced to 0.  With ``zero_mean`` the mean over non-spacer
    positions is subtracted there (spacers stay 0, the total sum becomes 0).
    """
    values, scale = _lifted_values(labels, word, zero_mean)
    return LevelFunction(n=n, values=values, zero_mean=zero_mean, scale=scale)


def _lifted_values(labels: Mapping[str, complex], word: Word, zero_mean: bool,
                   stage: Stage = ONE_COPY) -> tuple[np.ndarray, float]:
    """The values ``lift`` wraps, as a fresh writable array the caller owns,
    and the largest real or imaginary part of the labels lifted.

    The lift is that of ``concat_stage(word.symbols, stage, spacer)``: of
    ``word`` itself by default, or of the word a pure ``stage`` builds on it,
    which is never built.  Its symbols are read ``_PRODUCT_CHUNK`` at a time
    through ``concat_stage``'s window, and the mean is taken over the whole
    lift as ``np.mean`` takes it.  Where spacers occur, the mean is that of
    the values off the spacers, gathered in order, and spacers stay +0.0.
    NaN and infinite labels are refused.
    """
    alpha = word.alphabet
    spacer = alpha.spacer_index
    table = np.zeros(len(alpha.symbols), dtype=np.complex128)
    labelled = np.zeros(len(alpha.symbols), dtype=bool)
    for sym, val in labels.items():
        idx = alpha.index(sym)
        table[idx] = complex(val)
        if not np.isfinite(table[idx]):
            raise ConfigurationError(f"label of symbol {sym!r} is {val}, not a finite number")
        labelled[idx] = True
    if spacer is not None:
        table[spacer] = 0.0
        labelled[spacer] = True
    counts = np.bincount(word.symbols, minlength=len(alpha.symbols))
    present = np.flatnonzero(counts)
    missing = [alpha.symbols[i] for i in present if not labelled[i]]
    if missing:
        raise ConfigurationError(f"labels missing for symbols {missing!r}")
    h = stage.q * word.h + stage.total_spacers
    windows = _spans(h, _PRODUCT_CHUNK)
    symbols = np.empty(min(h, _PRODUCT_CHUNK), dtype=word.symbols.dtype)

    def read(r: slice) -> np.ndarray:
        hi = min(r.stop, h)
        return concat_stage(word.symbols, stage, spacer, r.start, hi, symbols[:hi - r.start])

    values = np.empty(h, dtype=np.complex128)
    for r in windows:
        np.take(table, read(r), out=values[r], mode="clip")  # unbuffered; no index clips
    parts = table[present].view(np.float64)
    scale = float(max(parts.max(), -parts.min()))
    if zero_mean:
        if spacer is None or not (counts[spacer] or stage.total_spacers):
            values -= values.mean()
        else:
            kept = np.concatenate([values[r][read(r) != spacer] for r in windows])
            if kept.size:
                mean = kept.mean()
                del kept
                for r in windows:
                    np.subtract(values[r], mean, out=values[r], where=read(r) != spacer)
    return values, scale


# ---------------------------------------------------------------------------
# Cyclic correlations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CorrelationSeries:
    """``C(t) = (1/h) sum_j f(j) conj(g(j-t))`` for all ``t`` in ``Z_h``."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def h(self) -> int:
        return int(self.values.size)


def cyclic_correlation(
    f: LevelFunction, g: LevelFunction | None = None, *, method: str = "fft"
) -> CorrelationSeries:
    """Full correlation series of two level functions at the same stage.

    The transform route computes ``ifft(fft(f) * conj(fft(g))) / h``, with
    one forward transform for an autocorrelation; the direct route is
    ``correlation_at_lags`` at every lag, the defining O(h^2) sum, and serves
    as the oracle (the two agree to 1e-10 relative).  The transform runs on
    a copy of ``f.values``, so ``f`` is never overwritten; ``decay_profile``
    and the ``correlate`` command hand the same kernel a lift they own and
    skip the copy.
    """
    if method == "direct":
        return CorrelationSeries(n=f.n, values=correlation_at_lags(f, g, range(f.h)))
    if method != "fft":
        raise ConfigurationError(f"unknown correlation method {method!r}")
    if g is not None and (f.n != g.n or f.h != g.h):
        raise ConfigurationError("correlation needs two functions at the same stage")
    other = None if g is None else g.values
    return CorrelationSeries(n=f.n, values=_correlate_owned(f.values.copy(), other))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _root_divisor(n: int) -> int:
    """The largest divisor of ``n`` not above its square root."""
    d = math.isqrt(n)
    while n % d:
        d -= 1
    return d


def _spans(n: int, width: int) -> list[slice]:
    """``range(n)`` cut into consecutive slices of ``width`` (at least 1) indices."""
    width = max(1, width)
    return [slice(lo, lo + width) for lo in range(0, n, width)]


def _unit_roots(m: np.ndarray, h: int, inverse: bool) -> np.ndarray:
    """``exp(-2 pi i m / h)`` for integers ``0 <= m < h``, conjugated with ``inverse``.

    The angle is taken from the nearest quarter turn ``q``, as the exact
    integer ``4m - qh`` over ``4h``, so it lies within pi/4 and is rounded
    once; the quarter turn is then applied exactly.
    """
    q = (4 * m + h // 2) // h
    roots = np.exp((4 * m - q * h) * ((0.5j if inverse else -0.5j) * np.pi / h))
    roots *= (_QUARTER_TURNS.conj() if inverse else _QUARTER_TURNS)[q % 4]
    return roots


def _turn(block: np.ndarray, c0: int, h: int, inverse: bool = False) -> np.ndarray:
    """Multiply the columns ``c0 ...`` of the ``(n2, n1)`` view, as the
    contiguous ``block``, by their twiddles ``exp(-2 pi i k c / h)`` (row ``k``,
    column ``c``; conjugated with ``inverse``) in place, and return ``block``.

    Row ``k = k_hi b + k_lo`` splits each twiddle into two small exact-angle
    tables, ``exp(-2 pi i k_hi b c / h)`` and ``exp(-2 pi i k_lo c / h)``, where
    ``b`` is ``_root_divisor(n2)``: about ``2 sqrt(n2)`` roots per column.
    """
    n2, width = block.shape
    b = _root_divisor(n2)
    c = np.arange(c0, c0 + width)
    cube = block.reshape(n2 // b, b, width)
    cube *= _unit_roots(np.arange(0, n2, b)[:, None, None] * c, h, inverse)
    cube *= _unit_roots(np.arange(b)[:, None] * c, h, inverse)
    return block


def _via_copy(view: np.ndarray, step, c0: int) -> None:
    """Write ``step(copy, c0)`` over ``view``, the columns ``c0 ...`` of the
    ``(n2, n1)`` view, where ``copy`` is a contiguous copy of them: a
    transform down the columns then reads a block in cache, not one value
    from each of ``n2`` rows of the tower."""
    view[...] = step(view.copy(), c0)


def _times_conj(spectrum: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """``spectrum *= conj(other)`` in place (``other`` is conjugated in place),
    and return ``spectrum``; ``other = None`` forms ``|spectrum|^2`` in place
    ``_PRODUCT_CHUNK`` values at a time."""
    if other is not None:
        spectrum *= np.conj(other, out=other)
        return spectrum
    flat = spectrum.reshape(-1)
    for lo in range(0, flat.size, _PRODUCT_CHUNK):
        part = flat[lo: lo + _PRODUCT_CHUNK]
        part *= np.conj(part)
    return spectrum


def _correlate_owned(buf: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """``ifft(fft(buf) * conj(fft(other))) / h`` computed in ``buf``, which is
    returned; ``other = None`` is the autocorrelation ``ifft(|fft(buf)|^2) / h``.

    ``buf`` must be a writable complex128 vector the caller owns.  It is
    viewed as an ``(n2, n1)`` array, ``n2`` the largest divisor of ``h`` not
    above its square root (1 up to ``_ONE_PIECE``), and transformed by the
    four-step method (D. H. Bailey, "FFTs in external or hierarchical memory",
    J. Supercomputing 4, 1990) in three passes over blocks of about
    ``_PRODUCT_CHUNK`` values:

    1. length-``n2`` transforms down each block of columns, each then
       multiplied by its twiddles (``_turn``);
    2. along each block of rows: the length-``n1`` transforms, the product
       with the conjugate (``_times_conj``), the inverse transforms and the
       division by ``h``;
    3. the conjugate twiddles and the inverse transforms down the columns.

    Row ``k``, column ``c`` then holds the spectrum at ``k + n2 c``.  The
    product needs no other order, so nothing is transposed and no length-h
    scratch is taken; a column block is transformed in a contiguous copy
    (``_via_copy``).  A cross-correlation transforms a copy of ``other``.

    With ``n2 = 1`` only pass 2 runs, in one block: pocketfft's 1-d route,
    bitwise the two-transform ``ifft(fft(buf) * conj(fft(other))) / h``.  An
    autocorrelation's product must stay in place there, as an out-of-place
    ``F * conj(F)`` differs in the last bit for h >= 16384.  Longer
    transforms agree with that route to about 1e-16 of ``C(0)``.

    The blocks of a pass run on ``min(usable CPUs, row blocks)`` threads when
    the kernel is called on the main thread, and inline on any other, such as
    an ``ensemble`` task's.  No block boundary depends on the thread count,
    so neither does any bit.
    """
    h = buf.size
    n2 = _root_divisor(h) if h > _ONE_PIECE else 1
    n1 = h // n2
    views = [x.reshape(n2, n1) for x in ([buf] if other is None else [buf, other.copy()])]
    a = views[0]
    cols, rows = _spans(n1, _PRODUCT_CHUNK // n2), _spans(n2, _PRODUCT_CHUNK // n1)
    down = lambda s, c0: _turn(np.fft.fft(s, axis=0, out=s), c0, h)
    across = lambda r: np.divide(np.fft.ifft(
        _times_conj(*[np.fft.fft(x[r], axis=1, out=x[r]) for x in views]),
        axis=1, out=a[r]), h, out=a[r])
    up = lambda s, c0: np.fft.ifft(_turn(s, c0, h, inverse=True), axis=0, out=s)
    passes = [(across, rows)]
    if n2 > 1:
        passes = [(lambda c: [_via_copy(x[:, c], down, c.start) for x in views], cols),
                  (across, rows),
                  (lambda c: _via_copy(a[:, c], up, c.start), cols)]
    main = threading.current_thread() is threading.main_thread()
    workers = min(_usable_cpus(), len(rows)) if main else 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for step, blocks in passes:
            # list() reads every result, so a block's exception is raised here.
            list(pool.map(step, blocks) if workers > 1 else map(step, blocks))
    return buf


def _lifted_series(labels: Mapping[str, complex], words: list, n: int, zero_mean: bool,
                   stage: Stage = ONE_COPY) -> np.ndarray:
    """The autocorrelation series of the lift of ``words[n]``, or of the word
    ``stage`` builds on it (``_lifted_values``), computed in the lift.

    The lift is a buffer this call owns: with ``zero_mean`` it is checked as
    ``LevelFunction`` would check it, then ``_correlate_owned`` transforms it
    in place, so no copy of it is alive beside the transform.  ``words[n]``
    is set to None once lifted, so the word is not alive then either unless
    the caller holds it elsewhere.
    """
    buf, scale = _lifted_values(labels, words[n], zero_mean, stage)
    words[n] = None
    if zero_mean:
        _check_zero_mean(buf, scale)
    return _correlate_owned(buf)


def _block_sums(size: int, products) -> complex | np.ndarray:
    """Sums over ``range(size)`` of ``np.vdot`` products, with bits that do not
    depend on the BLAS thread count.

    OpenBLAS splits a product of more than about 10,000 values across its
    threads, which changes the last bits of the sum.  So ``products(lo, hi)``
    gives an ``np.vdot`` value, or a tuple of them, over positions
    ``lo:hi``, one block of ``_VDOT_BLOCK`` positions at a time, and each is
    added in block order from the first block's value (a ``0j`` start would
    turn -0.0 into +0.0): a product of at most ``_VDOT_BLOCK`` values is
    ``np.vdot``'s, bit for bit.  A block's work runs while its slices are in
    cache.
    """
    parts = np.array([products(lo, lo + _VDOT_BLOCK) for lo in range(0, size, _VDOT_BLOCK)])
    return np.add.accumulate(parts)[-1]


def correlation_at_lags(
    f: LevelFunction, g: LevelFunction | None = None, lags: Sequence[int] = ()
) -> np.ndarray:
    """Exact per-lag correlations (direct inner products, no transform).

    Each ``_VDOT_BLOCK`` block of a lag's ``np.roll(g, t)`` is copied from
    the two slices of ``g`` it joins into one buffer of block size, so
    ``np.vdot`` sees the same operands as with a fresh roll per lag.
    """
    if g is None:
        g = f
    if f.n != g.n or f.h != g.h:
        raise ConfigurationError("correlation needs two functions at the same stage")
    h = f.h
    out = np.empty(len(lags), dtype=np.complex128)
    block = np.empty(min(h, _VDOT_BLOCK), dtype=np.complex128)

    def rolled(t: int, lo: int, hi: int) -> np.ndarray:
        """``np.roll(g.values, t)[lo:hi]``: positions below ``t`` wrap to the end of ``g``."""
        hi = min(hi, h)
        wrap = min(max(t - lo, 0), hi - lo)
        block[:wrap] = g.values[h - t + lo:h - t + lo + wrap]
        block[wrap:hi - lo] = g.values[lo + wrap - t:hi - t]
        return block[:hi - lo]

    for i, t in enumerate(lags):
        t = int(t) % h
        out[i] = _block_sums(h, lambda lo, hi: np.vdot(rolled(t, lo, hi), f.values[lo:hi])) / h
    return out


def recursion_rhs(series: CorrelationSeries, stage, s: int) -> complex:
    """Stage-recursion right-hand side ``(1/q) sum_y C(rot_y - rot_{y-s})``.

    For pure stages this equals the next stage's correlation at lag
    ``s * h_n`` exactly.  Spacer stages are unsupported (the identity fails;
    correlate directly instead).
    """
    if not stage.pure:
        raise ConfigurationError("recursion_rhs supports pure stages only")
    if not 1 <= s <= stage.q - 1:
        raise ConfigurationError(f"shift s={s} outside [1, {stage.q - 1}]")
    rots = stage.rotations  # in [0, 2**63), so their int64 differences cannot wrap
    return complex(series.values[(rots - np.roll(rots, s)) % series.h].mean())


# ---------------------------------------------------------------------------
# Decay profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageDecay:
    """Statistics of ``|C_n(t)|`` over the central window ``[h/4, 3h/4]``."""

    n: int
    h: int
    max: float
    median: float
    rms: float
    variance: float


@dataclass(frozen=True)
class DecayProfile:
    """Per-stage decay statistics plus the log-log slope of the median.

    ``variance_ratios[k]`` is the measured ``Var C_{n+1} / Var C_n`` between
    consecutive reported stages; ``predicted_ratios`` is the doubling
    prediction ``2 / q_n`` for pure stages.
    """

    stages: tuple[StageDecay, ...]
    slope: float
    statistic: str
    variance_ratios: tuple[float, ...]
    predicted_ratios: tuple[float, ...]


def _central_decay(n: int, series: np.ndarray) -> StageDecay:
    """Statistics of ``|series|`` over ``[h/4, 3h/4]``, taken in the memory of
    ``series``, which they overwrite.

    The values are those of ``np.abs`` of the window, ``np.mean`` of its
    squares, its ``max`` and its ``np.median``, bit for bit.  The ``L``
    magnitudes are written in forward blocks of ``_PRODUCT_CHUNK``, each
    through a fresh temporary, on floats ``0 .. L - 1`` of the series' float
    view: magnitude ``j`` lands in series value ``j // 2``, which is at most
    ``h/4 + j`` and so already read.  The squares follow on floats ``L ..
    2L - 1`` (``2L <= 2h``), and the median partitions the magnitudes in
    place (``np.median``'s ``overwrite_input``, NaN rule included).
    """
    h = series.size
    lo = h // 4
    size = 3 * h // 4 + 1 - lo
    floats = series.view(np.float64)
    mags, squares = floats[:size], floats[size: 2 * size]
    for j in range(0, size, _PRODUCT_CHUNK):
        k = min(j + _PRODUCT_CHUNK, size)
        mags[j:k] = np.abs(series[lo + j: lo + k])
    mean_square = np.mean(np.square(mags, out=squares))
    return StageDecay(
        n=n,
        h=h,
        max=float(mags.max()),
        median=float(np.median(mags, overwrite_input=True)),
        rms=float(np.sqrt(mean_square)),
        variance=float(mean_square),
    )


def decay_profile(
    schedule: Schedule,
    labels: Mapping[str, complex],
    n_lo: int,
    n_hi: int,
    *,
    statistic: str = "median",
    force: bool = False,
) -> DecayProfile:
    """Correlation decay across stages ``n_lo .. n_hi`` (inclusive).

    Labels are lifted with mean subtraction (a no-op when they are already
    zero-mean).  Requires a pure schedule and at least three stages for the
    least-squares fit of ``log statistic`` against ``log h_n``.

    Each stage's lift is a buffer that ``_lifted_series`` owns: it is checked
    to be zero-mean as ``LevelFunction`` would check it, then transformed in
    place into the correlation series.  Words are built up to ``W_{n_hi - 1}``
    only, and every stage ``n >= 1`` is gathered from ``W_{n-1}`` through
    stage ``n - 1``'s window (``_lifted_values``), stage 0 from ``W_0``
    itself; ``W_{n-1}`` is dropped once stage ``n`` is lifted.  The
    statistics are taken in the series' own memory (``_central_decay``), and
    each series is released before the next lift, so one length-``h_n``
    complex array is alive at a time.

    The top stage runs first, and the stages below it then run in ascending
    order.  So ``W_{n_hi - 1}`` is gone once the top lift is gathered, and
    nothing of another stage (no series, no lift, no word above ``W_{n_hi -
    2}``) is resident beside the top transform, which sets the peak: a lower
    stage's series freed just before it would raise glibc's mmap threshold,
    and the top transform's block temporaries would then stay in the heap.
    """
    if n_hi - n_lo + 1 < 3:
        raise ConfigurationError("decay fit needs at least 3 stages")
    if not 0 <= n_lo < n_hi <= schedule.depth:
        raise ConfigurationError(f"stage range [{n_lo}, {n_hi}] outside the schedule")
    for m in range(n_lo, n_hi):
        if not schedule.stages[m].pure:
            raise ConfigurationError("decay profiles require pure stages")
    if statistic not in ("max", "median", "rms"):
        raise ConfigurationError(f"unknown statistic {statistic!r}")

    refuse_above(f"h_{n_hi} (word symbols)", schedule.height(n_hi), MAX_SYMBOLS, force)
    # Stage n reads words[n] through stages[n]: W_0 itself at n = 0, and
    # W_{n-1} through stage n - 1's window above it.
    words = [schedule.seed_word, *tower(schedule, n_hi - 1, force=force)]
    stages = (ONE_COPY, *schedule.stages)
    top = _central_decay(n_hi, _lifted_series(labels, words, n_hi, True, stages[n_hi]))
    rows = [_central_decay(n, _lifted_series(labels, words, n, True, stages[n]))
            for n in range(n_lo, n_hi)] + [top]

    # A mean square is finite only if every magnitude and square it averages is.
    _refuse_overflow("the decay statistics", np.array([r.variance for r in rows]))
    stat = np.array([getattr(r, statistic) for r in rows])
    logh = np.log([r.h for r in rows])
    if np.any(stat <= 0):
        slope = 0.0  # degenerate (identically zero statistics): no decay to fit
    else:
        slope = float(np.polyfit(logh, np.log(stat), 1)[0])
    ratios = tuple(
        float(rows[k + 1].variance / rows[k].variance) if rows[k].variance > 0 else float("inf")
        for k in range(len(rows) - 1)
    )
    predicted = tuple(2.0 / schedule.stages[n].q for n in range(n_lo, n_hi))
    return DecayProfile(
        stages=tuple(rows),
        slope=slope,
        statistic=statistic,
        variance_ratios=ratios,
        predicted_ratios=predicted,
    )


# ---------------------------------------------------------------------------
# Far-half (simplicity) diagnostic
# ---------------------------------------------------------------------------


def signed_levels(schedule: Schedule, n: int) -> np.ndarray:
    """Signed chart levels of every position of ``W_{n+1}`` for a pure stage.

    A copy rotated by ``a`` has cut class ``k = a`` (or ``h`` when ``a = 0``)
    and spans signed levels ``[k - h, k - 1]``; the position at in-copy offset
    ``t`` sits at level ``t + a - h*[a >= 1]``.  Reducing mod ``h`` recovers
    the plain level ``(t + a) mod h``.
    """
    st = schedule.stages[n]
    if not st.pure:
        raise ConfigurationError("signed levels are defined for pure stages")
    return _signed_chart(schedule, n, np.arange(schedule.height(n + 1), dtype=np.int64))


def _signed_chart(schedule: Schedule, n: int, x_n1: np.ndarray) -> np.ndarray:
    """Signed chart levels ``t + a - h*[a >= 1]`` of the ``W_{n+1}`` coordinates
    ``x_n1`` (pure stage ``n``), written over ``x_n1``, which is returned.

    In-place integer steps keep one extra array of the input's length alive.
    """
    h = schedule.height(n)
    a = np.floor_divide(x_n1, h)
    # Every copy index is in range, so "clip" never clips; unlike the default
    # "raise" it writes into ``out`` without a buffered copy.
    schedule.rotations_mod(n).take(a, out=a, mode="clip")
    t = np.remainder(x_n1, h, out=x_n1)
    t += a
    return np.subtract(t, h, out=t, where=a >= 1)


@dataclass(frozen=True)
class SimplicityReport:
    """Inner products of the far-half decomposition ``g = f - u + v``.

    All quantities are exact averages over ``Z_{h_N}``: ``f`` is the lifted
    stage-``n`` function read through the projection, ``g`` its base-return
    reconstruction from the half-window of radius ``(h_n - 1)/2``, ``u`` the
    far-half restriction of ``f``, and ``v = g - f + u``.
    """

    n: int
    depth: int
    h_n: int
    h_N: int
    f2: float
    g2: float
    fg_diff2: float
    u2: float
    v2: float
    uv: complex
    fv: complex

    @property
    def fg_ratio(self) -> float:
        """``|f - g|^2 / |f|^2``."""
        return self.fg_diff2 / self.f2

    @property
    def g_ratio(self) -> float:
        """``|g|^2 / |f|^2``."""
        return self.g2 / self.f2

    @property
    def uv_ratio(self) -> float:
        """``|<u, v>| / |f|^2``."""
        return abs(self.uv) / self.f2

    @property
    def fv_ratio(self) -> float:
        """``|<f, v>| / |f|^2``."""
        return abs(self.fv) / self.f2

    @property
    def uv_norm_gap(self) -> float:
        """Relative gap ``| |u|^2 - |v|^2 | / max(|u|^2, |v|^2)`` (0 when both vanish)."""
        if self.u2 == 0.0 and self.v2 == 0.0:
            return 0.0
        return abs(self.u2 - self.v2) / max(self.u2, self.v2)


def _check_far_half(schedule: Schedule, n: int, depth: int) -> int:
    """Preconditions of the far-half diagnostic; returns the odd height ``h_n``."""
    if not 0 <= n <= depth <= schedule.depth:
        raise ConfigurationError(f"need 0 <= n <= depth <= {schedule.depth}")
    h = schedule.height(n)
    if h % 2 == 0:
        raise ConfigurationError(f"far-half diagnostic needs odd h_n, got {h}")
    for m in range(n, depth):
        if not schedule.stages[m].pure:
            raise ConfigurationError("far-half diagnostic requires pure stages")
    return h


def _far_half_base_function(
    schedule: Schedule, labels: Mapping[str, complex], n: int, force: bool = False
) -> np.ndarray:
    """Zero-mean lift of ``labels`` on ``W_n``: the values ``f_(n)`` of the diagnostic.

    Every ratio of the diagnostic divides by ``f2``, so two kinds of labels
    are refused.  Labels equal on every non-spacer letter of ``W_n`` centre
    to 0 up to a rounding residue (all ``0.1`` over three letters leaves
    ``f2 = 1.9e-34``), so the labels are compared, not the centred values.
    Labels that differ by so little that every centred square underflows
    (``0`` and ``1e-170``) leave ``f2 = 0``, and labels so large that the
    centring or the squares overflow (``1e308`` and ``-1e308``) leave it
    non-finite.
    """
    for word in tower(schedule, n, force=force):
        pass  # W_n, the last word, is the one kept
    fn = lift(labels, word, n, zero_mean=True).values
    alpha = word.alphabet
    present = np.flatnonzero(np.bincount(word.symbols, minlength=len(alpha.symbols)))
    if len({complex(labels[alpha.symbols[i]]) for i in present if i != alpha.spacer_index}) < 2:
        raise ConfigurationError(
            f"far-half diagnostic needs labels that differ on the letters of W_{n} "
            "(a constant lift centres to f2 = 0)"
        )
    f2 = np.mean(np.abs(fn) ** 2)
    _refuse_overflow(f"f2 of the centred lift on W_{n}", f2)
    if f2 == 0.0:
        raise ConfigurationError("far-half diagnostic needs labels whose centred squares "
                                 "do not all underflow (f2 = 0)")
    return fn


def simplicity_diagnostic(
    schedule: Schedule,
    labels: Mapping[str, complex],
    n: int,
    depth: int,
    *,
    force: bool = False,
) -> SimplicityReport:
    """Far-half diagnostic of stage ``n`` on the depth-``depth`` truncation.

    Preconditions: ``h_n`` odd, ``depth >= n``, pure stages throughout
    ``[n, depth)``, and labels whose centred lift has ``f2 > 0``, as every
    ratio divides by ``f2`` (``_far_half_base_function`` refuses the others
    before any table is built).  ``depth = n`` returns the degenerate exact
    report (``g = f``, ``u = v = 0``).

    The seven sums are taken over the cyclic ``W_{n+1}`` (``_cycle_sums``)
    and carried up to ``W_depth`` by the stage step of ``_telescoped``,
    which reads only the windows around each deeper stage's cut points and
    junctions.  So the work is ``O(h_{n+1} + sum_m q_m * h_n)`` positions
    and nothing grows with ``h_N``, although ``MAX_SYMBOLS`` still prices
    all ``h_N`` positions the averages run over.  At ``depth = n + 1`` the
    sums are those of ``W_{n+1}``'s ``_VDOT_BLOCK`` blocks added in order;
    deeper, each field lies within 1e-14 of ``f2`` of the sums taken over
    every position of ``W_depth`` (at most 8.5e-15 ``f2`` in the tests).
    """
    h = _check_far_half(schedule, n, depth)
    h_N = schedule.height(depth)
    refuse_above(f"h_{depth} (positions of the far-half sums)", h_N, MAX_SYMBOLS, force)
    fn = _far_half_base_function(schedule, labels, n, force)
    if depth == n:
        f2_level = float(np.mean(np.abs(fn) ** 2))
        return SimplicityReport(
            n=n, depth=depth, h_n=h, h_N=h,
            f2=f2_level, g2=f2_level, fg_diff2=0.0,
            u2=0.0, v2=0.0, uv=0j, fv=0j,
        )

    sums = _telescoped(schedule, fn, n, depth, _cycle_sums(schedule, n, fn))
    _refuse_overflow("the far-half sums", sums)
    f2, g2, fg_diff2, fv, u2, v2, uv = (complex(s / h_N) for s in sums)
    return SimplicityReport(
        n=n,
        depth=depth,
        h_n=h,
        h_N=h_N,
        f2=f2.real,
        g2=g2.real,
        fg_diff2=fg_diff2.real,
        u2=u2.real,
        v2=v2.real,
        uv=uv,
        fv=fv,
    )


def _far_half_products(fn: np.ndarray, chart: np.ndarray, g: np.ndarray) -> tuple:
    """The seven products of the far-half sums over one block of positions,
    as ``np.vdot`` values: ``(f, f), (g, g), (d, d), (v, f), (u, u), (v, v),
    (v, u)``.

    ``chart`` holds the block's signed levels and ``g`` its reconstruction;
    ``f = fn[chart]`` (negative levels wrap to their plain level), ``u`` is
    ``f`` where ``|chart| > w = (h_n - 1)/2`` and 0 elsewhere, ``d = g - f``
    and ``v = d + u``.
    """
    w = (fn.size - 1) // 2
    f = fn[chart]
    d = g - f  # the exact negation of f - g, so |d|^2 is |f - g|^2
    u = np.where(np.abs(chart) > w, f, 0)
    v = d + u  # g starts at +0.0 and only adds, so d holds no -0.0 and d + 0 is d
    return (np.vdot(f, f), np.vdot(g, g), np.vdot(d, d), np.vdot(v, f),
            np.vdot(u, u), np.vdot(v, v), np.vdot(v, u))


def _cycle_sums(schedule: Schedule, n: int, fn: np.ndarray) -> np.ndarray:
    """The seven far-half sums over the cyclic ``W_{n+1}``: its signed chart
    ``signed_levels(schedule, n)`` and ``g``, scattered by ``_base_returns``
    from its bases (``chart == 0``), are two tables (24 B per position),
    read in ``_block_sums``'s blocks."""
    chart = signed_levels(schedule, n)
    g = _base_returns(np.flatnonzero(chart == 0), chart.size, fn)
    return _block_sums(chart.size, lambda lo, hi: _far_half_products(fn, chart[lo:hi], g[lo:hi]))


def _telescoped(schedule: Schedule, fn: np.ndarray, n: int, depth: int,
                sums: np.ndarray) -> np.ndarray:
    """The seven far-half sums over the cyclic ``W_depth``, carried up from
    ``sums``, theirs over the cyclic ``W_{n+1}``, one stage at a time.

    With ``w = (h_n - 1)/2``, every product at a position ``p`` depends only
    on the level-``(n+1)`` coordinate of ``p`` and on which positions within
    ``w`` of ``p`` are bases.  ``W_{m+1}`` is ``q = q_m`` blocks, block ``B``
    being ``W_m`` rotated by ``b_B``.  A position of block ``B`` at least
    ``w`` away from both block ends sees the same coordinates and the same
    bases within ``w`` as its image in the cyclic ``W_m``, and ``g`` adds
    the same returns in the same order there.  The first and last ``w``
    positions of the blocks are exactly the windows ``p - b_B in [-w, w)``
    of the cyclic ``W_m``, and also the windows ``p - B*h_m in [-w, w)`` of
    ``W_{m+1}``; windows at one level never overlap, since ``h_m >= h_{n+1}
    > 2w``.  Hence, for ``m = n+1 .. depth-1``,

        S_{m+1} = q * S_m - sum_B E_m(b_B) + sum_B E_{m+1}(B*h_m),

    with ``E_k(c)`` the sums over the core ``[c - w, c + w)`` in the cyclic
    ``W_k`` (``_window_sums``).  The step is linear, so ``sums = 0`` gives
    the window terms alone.
    """
    for m in range(n + 1, depth):
        q = schedule.stages[m].q
        junctions = np.arange(q, dtype=np.int64) * schedule.height(m)
        sums = (q * sums - _window_sums(schedule, fn, n, m, schedule.rotations_mod(m))
                + _window_sums(schedule, fn, n, m + 1, junctions))
    return sums


def severed_copy_imbalance(
    schedule: Schedule, labels: Mapping[str, complex], n: int, depth: int
) -> float:
    """Predicted far-half imbalance ``(u2 - v2) * h_N`` of ``simplicity_diagnostic``.

    Same preconditions as the diagnostic.  The value is computed from windows
    around block junctions and cut points only, at any depth.

    ``D_m = sum_{p in W_m} (|u(p)|^2 - |v(p)|^2)`` for the cyclic ``W_m``
    (``h = h_n`` odd, ``w = (h - 1)/2``, ``s`` the signed chart level, bases
    the positions with ``s = 0``, ``v = g - f + u = g - f*[|s| <= w]``), so
    that the depth-``N`` imbalance is ``D_N``.

    * ``D_{n+1} = 0`` (and ``D_n = 0``): every copy of ``W_n`` is intact.
      The window of a copy's base overhangs the copy on exactly the copy's
      far levels, with the far values, and the overhangs of different copies
      never overlap, so ``|v|^2 = |u|^2``.
    * ``D_m -> D_{m+1}`` for ``m = n+1 .. N-1`` is the stage step of
      ``_telescoped``, applied to ``E_uu - E_vv``:

          D_{m+1} = q_m * D_m - sum_B (E_uu - E_vv)_m(b_B)
                              + sum_B (E_uu - E_vv)_{m+1}(B*h_m),

      each cut point ``b_B`` in the cyclic ``W_m`` against the junction of
      block ``B`` with block ``B - 1`` in ``W_{m+1}``, and induction on ``m``
      gives ``D_N``.  ``|u|^2`` depends only on the coordinates, which every
      block carries once, so its window terms cancel.  When every
      stage-``n+1`` cut is a multiple of ``h`` no copy is severed at ``m = n
      + 1`` and ``D_{n+2} = 0`` (the first case applies to ``W_{n+2}``).
      Otherwise block ``B`` splits one copy into a tail at its start and a
      head at its end; near positions of the piece without the base lose
      their pairing, which leaves a gap of order ``1/q_n`` of the far mass.

    So the stage loop runs from ``D_{n+1} = 0``.  Each window reads ``4w``
    positions through ``project_positions`` (at most ``depth - n - 1``
    stages each) and scatters ``g`` from its few bases, so the cost is
    ``O(sum_m q_m * h_n)`` positions times that depth; nothing of size
    ``h_N`` is built.
    """
    _check_far_half(schedule, n, depth)
    fn = _far_half_base_function(schedule, labels, n)
    *_, u2, v2, _ = _telescoped(schedule, fn, n, depth, np.zeros(7, dtype=np.complex128))
    return float((u2 - v2).real)


def _base_returns(bases: np.ndarray, size: int, fn: np.ndarray) -> np.ndarray:
    """Reconstruction ``g = sum_{|j| <= w} f_(n)(j) T^j b_n`` on a cycle of
    ``size`` positions, scattered from its bases, with ``h = fn.size = h_n``
    and ``w = (h - 1)/2``: one pass over all bases per ``j``, ``j`` ascending,
    so each position adds its returns in ascending ``j`` from +0.0.  Callers
    scatter ``W_{n+1}`` and junction rows (``_core_returns``), never ``W_N``.
    """
    h = fn.size
    w = (h - 1) // 2
    g = np.zeros(size, dtype=np.complex128)
    for j in range(-w, w + 1):
        g[(bases + j) % size] += fn[j % h]
    return g


def _window_sums(
    schedule: Schedule, fn: np.ndarray, n: int, level: int, centres: np.ndarray
) -> np.ndarray:
    """The seven far-half sums over the cores ``[c - w, c + w)`` of the
    ``centres`` in the cyclic ``W_level``, added up.

    Each core is read from its row of ``4w`` positions (``_window_rows``):
    the signed chart of their level-``(n+1)`` coordinates, from
    ``project_positions``, and ``g`` scattered from the row's bases
    (``_core_returns``).  The centres are taken ``_PRODUCT_CHUNK // 4w`` at
    a time (at least one), so a batch holds at most ``_PRODUCT_CHUNK``
    positions or one row, however many centres a stage has; each batch's
    cores are summed by ``_block_sums``, and the batch sums in order.
    """
    w = (fn.size - 1) // 2
    batch = max(1, _PRODUCT_CHUNK // (4 * w))
    total = np.zeros(7, dtype=np.complex128)
    for i in range(0, centres.size, batch):
        pos = _window_rows(centres[i: i + batch], w, schedule.height(level))
        signed = _signed_chart(schedule, n, project_positions(schedule, pos, level, n + 1))
        core = signed[:, w: 3 * w].ravel()
        g = _core_returns(signed == 0, fn).ravel()
        total += _block_sums(core.size, lambda lo, hi: _far_half_products(fn, core[lo:hi],
                                                                          g[lo:hi]))
    return total


def _window_rows(centres: np.ndarray, w: int, size: int) -> np.ndarray:
    """One row of positions ``c - 2w .. c + 2w - 1`` (mod ``size``) for each
    centre ``c``: the core ``[c - w, c + w)`` and, on either side, the ``w``
    positions whose bases reach into it."""
    return (centres[:, None] + np.arange(-2 * w, 2 * w, dtype=np.int64)) % size


def _core_returns(base: np.ndarray, fn: np.ndarray) -> np.ndarray:
    """``g`` on the cores of rows of ``4w`` positions (``_window_rows``) whose
    base flags are ``base``.

    The rows laid end to end form one cycle: a return that leaves its row
    lands in a neighbour's outer ``w`` positions, never in a core.
    """
    w = (fn.size - 1) // 2
    g = _base_returns(np.flatnonzero(base), base.size, fn).reshape(base.shape)
    return g[:, w: 3 * w]
