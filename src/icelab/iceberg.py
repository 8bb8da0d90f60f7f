"""Iceberg geometry of a stage.

A pure stage presents the next word as ``q`` rotated copies of the current
one; reading the rotations as cut positions on the cycle gives the *iceberg*
cross-section: columns indexed by cut class with weights ``count / q``.  This
module measures how evenly the cuts are spread (uniformity deviation), how
the first-return (Poincaré) map moves mass between columns (jump matrix), and
how much of a deeper word consists of intact copies of a base stage (body
reports: combinatorial lower bound and exact count).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MAX_SYMBOLS, ConfigurationError, refuse_above
from .words import Schedule, Stage, _read_only


# ---------------------------------------------------------------------------
# Iceberg cross-sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Iceberg:
    """Column histogram of one stage: read-only int64 arrays of the distinct
    rotation values (reduced into ``[0, h)``), increasing, and their copy
    counts; weights are the counts divided by ``q``, hence multiples of
    ``1/q`` summing to 1.  ``cyclic`` is False when the stage carries spacers
    (the cross-section is then only a histogram, not a cyclic tower).
    """

    h: int
    q: int
    cuts: np.ndarray
    counts: np.ndarray
    cyclic: bool = True

    def __post_init__(self) -> None:
        cuts, counts = _read_only(self.cuts), _read_only(self.counts)
        if cuts.ndim != 1 or cuts.shape != counts.shape:
            raise ConfigurationError("cuts and counts must be 1-d arrays of one length")
        if cuts.size and counts.min() < 1:
            raise ConfigurationError("column counts must be positive")
        if int(counts.sum()) != self.q:
            raise ConfigurationError("column counts must sum to q")
        if cuts.size and (cuts.min() < 0 or cuts.max() >= self.h):
            raise ConfigurationError("cut values must lie in [0, h)")
        if np.any(cuts[1:] <= cuts[:-1]):
            raise ConfigurationError("cut values must be distinct and increasing")
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "counts", counts)


def from_stage(schedule: Schedule, n: int, *, allow_spacers: bool = False) -> Iceberg:
    """Iceberg cross-section of stage ``n``.

    Spacer stages are refused unless ``allow_spacers`` is set, in which case
    the rotation histogram is returned flagged non-cyclic.
    """
    if not 0 <= n < schedule.depth:
        raise ConfigurationError(f"stage {n} outside [0, {schedule.depth})")
    st = schedule.stages[n]
    if not st.pure and not allow_spacers:
        raise ConfigurationError(
            f"stage {n} carries spacers; pass allow_spacers=True for the histogram"
        )
    cuts, counts = np.unique(schedule.rotations_mod(n), return_counts=True)
    return Iceberg(h=schedule.height(n), q=st.q, cuts=cuts, counts=counts, cyclic=st.pure)


def uniformity_deviation(ib: Iceberg) -> float:
    """L1 distance between the column weights and the uniform law on ``Z_h``.

    Exact: ranges over ``[0, 2)``, zero iff every cut class carries weight
    exactly ``1/h``.
    """
    return _l1_from_uniform(ib.counts, np.full(ib.counts.size, ib.q), ib.h, ib.q)


def _l1_from_uniform(c: np.ndarray, rows: np.ndarray, h: int, q: int) -> float:
    """``sum_a (r_a/q) * sum_{b in Z_h} |c_ab/r_a - 1/h|``, correctly rounded.

    ``c`` holds the nonzero cell counts and ``rows`` the sum ``r_a`` of each
    cell's row; the rows sum to ``q``.  Over the common denominator ``q*h``
    the terms ``c*h - r`` of a row (absent cells have ``c = 0``) sum to zero,
    so the L1 sum is twice their positive part.  ``c*h >= r`` is tested as
    ``c >= ceil(r/h)`` and the products are taken in Python integers, so the
    value stays exact when ``q*h`` exceeds int64.
    """
    ge = c >= -(-rows // h)
    return 2 * (h * int(c[ge].sum()) - int(rows[ge].sum())) / (q * h)


# ---------------------------------------------------------------------------
# Jump matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JumpMatrix:
    """Transition counts between cut values along the copy order.

    ``cells`` is a read-only ``(k, 3)`` int64 array of sorted rows ``(a, b,
    count)``: ``count`` indices ``y`` have ``rot[y] = a`` and ``rot[(y+1) mod
    q] = b`` (rotations reduced mod ``h``).  The counts sum to ``q``.
    """

    h: int
    q: int
    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = _read_only(self.cells)
        if int(cells[:, 2].sum()) != self.q:
            raise ConfigurationError("jump-matrix cells must sum to q")
        object.__setattr__(self, "cells", cells)


def jump_matrix(st: Stage, h: int) -> JumpMatrix:
    """Jump matrix of a stage acting at height ``h``.

    The cut values are replaced by their ranks among the at most ``q``
    distinct values, so the pairs are counted by one 1-d sort of keys below
    ``q**2``, whatever ``h`` is.
    """
    if h < 1:
        raise ConfigurationError("height must be positive")
    values, ranks = np.unique(st.rotations % h, return_inverse=True)
    keys, counts = np.unique(ranks * values.size + np.roll(ranks, -1), return_counts=True)
    a, b = np.divmod(keys, values.size)
    return JumpMatrix(h=h, q=st.q, cells=np.stack((values[a], values[b], counts), axis=1))


def jump_uniformity_deviation(jm: JumpMatrix) -> float:
    """Source-weighted L1 distance of the jump rows from uniform.

    ``sum_a (row_a / q) * sum_b |N[a][b]/row_a - 1/h|`` with empty rows
    skipped; exact, value in ``[0, 2)``.
    """
    a, _, c = jm.cells.T
    sources, row_of = np.unique(a, return_inverse=True)
    row_sums = np.zeros(sources.size, dtype=np.int64)
    np.add.at(row_sums, row_of, c)
    return _l1_from_uniform(c, row_sums[row_of], jm.h, jm.q)


# ---------------------------------------------------------------------------
# Body reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BodyReport:
    """Share of intact stage-``n`` copies inside ``W_{n+r}``.

    ``lower_bound`` is the recursive one-cut-per-block bound; ``exact_fraction``
    is the exact intact count over ``total_copies``.  Always
    ``0 <= lower_bound <= exact_fraction <= 1``.
    """

    n: int
    r: int
    total_copies: int
    intact_copies: int
    lower_bound: float
    exact_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower_bound <= self.exact_fraction <= 1.0:
            raise ConfigurationError("body report out of order: lower > exact or outside [0,1]")


def body_lower_bound_counts(schedule: Schedule, n: int, r: int) -> list[int]:
    """Recursive intact-copy lower bounds ``Q^b`` for depths ``1..r``.

    ``Q^b_{n,n+1} = q_n`` and ``Q^b_{n,n+k+1} = (Q^b_{n,n+k} - 1) * q_{n+k}``
    (each deeper block severs at most one previously intact copy), clamped
    at zero.
    """
    qb = schedule.stages[n].q
    out = [qb]
    for k in range(1, r):
        qb = max(qb - 1, 0) * schedule.stages[n + k].q
        out.append(qb)
    return out


def body_report(schedule: Schedule, n: int, r: int, force: bool = False) -> BodyReport:
    """Count the stage-``n`` copies that survive intact inside ``W_{n+r}``.

    Stages ``n .. n+r-1`` must be pure.  Block ``y`` of ``W_{m+1}`` reads
    ``W_m`` from its cut ``a_{m,y} mod h_m`` on, keeping every intact copy but
    the one that cut lands strictly inside.  Carrying each cut down to
    ``W_{n+1}`` and back holds sum of ``q_m * (m - n)`` positions, which q = 1
    stages leave unbounded by any word: refused above ``MAX_SYMBOLS``.
    """
    if n < 0:
        raise ConfigurationError(f"body base n={n} is negative")
    if r < 1:
        raise ConfigurationError("body depth r must be >= 1")
    if n + r > schedule.depth:
        raise ConfigurationError(f"body depth {n}+{r} exceeds schedule depth {schedule.depth}")
    for m in range(n, n + r):
        if not schedule.stages[m].pure:
            raise ConfigurationError("body reports require pure stages")
    carried = sum(schedule.stages[m].q * (m - n) for m in range(n + 1, n + r))
    refuse_above("positions of the body-report cut arrays", carried, MAX_SYMBOLS, force)

    heights = schedule.heights()
    qs = [st.q for st in schedule.stages]
    cuts = {m: schedule.rotations_mod(m) for m in range(n + 1, n + r)}
    # Carry every cut down to W_{n+1}, stage m's cuts joining in front at W_m:
    # block y of W_m shows u of W_{m-1} at (u - rot) mod h_{m-1}, rot its cut.
    a, steps = np.empty(0, dtype=np.int64), []
    for m in range(n + r - 1, n, -1):
        a = np.concatenate((cuts[m], a))
        if m > n + 1:
            h = heights[m - 1]
            y, t = np.divmod(a, h)
            a = t - (h - cuts[m - 1][y])  # (t + rot) mod h without leaving int64
            a[a < 0] += h
            steps.append(y)
    # p: start of the intact copy strictly containing each position, or -1; on
    # the way back up a copy stays intact unless its block's cut severed it.
    off = a % heights[n]
    p = np.where(off != 0, a - off, -1)
    total = intact = qs[n]
    for m in range(n + 1, n + r):
        severed, p = p[:qs[m]], p[qs[m]:]
        total *= qs[m]
        intact = qs[m] * intact - int(np.count_nonzero(severed >= 0))
        if steps:
            h, y = heights[m], steps.pop()
            p = np.where((p >= 0) & (p != severed[y]), y * h + (p - cuts[m][y]) % h, -1)

    counts = body_lower_bound_counts(schedule, n, r)
    return BodyReport(
        n=n,
        r=r,
        total_copies=total,
        intact_copies=intact,
        lower_bound=counts[-1] / total,
        exact_fraction=intact / total,
    )
