"""Local-rank geometry of cyclic icebergs.

Each rotated copy (thin column) of a stage has a *cut class* ``k`` in
``1..h`` (``k = rotation`` when nonzero, else ``h``); in the signed-level
chart the column with cut class ``k`` occupies levels ``[k-h, k-1]``.  A
rectangular subtower picks a window of cut classes ``[a, b]`` and a level
window ``[l0, l1]`` contained in every included column's range; its
normalized area (included weight times level count over ``h``) lower-bounds
the local rank contributed by the stage.  Uniformly spread cuts give area
``~ 1/4`` (the parallelogram), generalized-Morse stages give the exact
closed-form values, and ``floor(1/beta)`` bounds the spectral multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MAX_SWEEP_CUTS, ConfigurationError, refuse_above
from .iceberg import Iceberg


@dataclass(frozen=True)
class RectangleCertificate:
    """A rectangular subtower: cut-class window, level window, exact area.

    ``weight`` is the total column weight included; ``area = weight *
    (l1 - l0 + 1) / h``.  Every included column's level range ``[k-h, k-1]``
    contains ``[level_lo, level_hi]``.
    """

    h: int
    cut_lo: int
    cut_hi: int
    level_lo: int
    level_hi: int
    weight: Fraction
    area: Fraction

    def __post_init__(self) -> None:
        if not (1 <= self.cut_lo <= self.cut_hi <= self.h):
            raise ConfigurationError("cut window outside [1, h]")
        if not (self.cut_hi - self.h <= self.level_lo <= self.level_hi <= self.cut_lo - 1):
            raise ConfigurationError("level window not contained in every included column")
        if not 0 <= self.area <= 1:
            raise ConfigurationError("area outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "columns": [self.cut_lo, self.cut_hi],
            "levels": [self.level_lo, self.level_hi],
            "area": float(self.area),
            "weight": float(self.weight),
        }


def _cut_classes(ib: Iceberg) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct cut classes (rotation 0 -> class h, moved last) with copy counts."""
    last = np.argsort(ib.cuts == 0, kind="stable")
    return np.where(ib.cuts == 0, ib.h, ib.cuts)[last], ib.counts[last]


def _certificate(ib: Iceberg, k_lo: int, k_hi: int, weight_count: int) -> RectangleCertificate:
    h, q = ib.h, ib.q
    levels = h - (k_hi - k_lo)
    return RectangleCertificate(
        h=h,
        cut_lo=k_lo,
        cut_hi=k_hi,
        level_lo=k_hi - h,
        level_hi=k_lo - 1,
        weight=Fraction(weight_count, q),
        area=Fraction(weight_count * levels, q * h),
    )


def best_subtower_rectangle(ib: Iceberg) -> RectangleCertificate:
    """Exact best rectangle over contiguous sorted-cut windows.

    For a window of cut classes ``[k_i, k_j]`` the largest admissible level
    window is the full intersection ``[k_j - h, k_i - 1]`` of the column
    ranges, so the maximal area is ``weight * (h - (k_j - k_i)) / h``; the
    sweep maximizes this over all ``i <= j`` pairs exactly (integer
    arithmetic).  Ties resolve to the first pair in row-major order.

    The score matrix is left unmasked below the diagonal, as no pair
    ``i > j`` can win.  There ``wsum[i, j] = -(counts strictly between)
    <= 0`` and ``h - spread >= 1`` (cut classes lie in ``[1, h]``), so the
    score is ``<= 0``, while every diagonal score is ``c_i * h >= h > 0``
    (``Iceberg`` counts are positive).  So ``argmax`` returns the first
    maximum in row-major order among the ``i <= j`` pairs.
    """
    if not ib.cyclic:
        raise ConfigurationError("rectangle certificates need a cyclic iceberg")
    ks, cs = _cut_classes(ib)
    m = ks.size
    refuse_above("distinct cuts of the rectangle sweep", m, MAX_SWEEP_CUTS)
    prefix = np.concatenate(([0], np.cumsum(cs)))
    wsum = prefix[None, 1:] - prefix[:-1, None]  # [i, j] -> counts in window i..j
    spread = ks[None, :] - ks[:, None]
    score = wsum * (ib.h - spread)
    flat = int(np.argmax(score))
    i, j = divmod(flat, m)
    return _certificate(ib, int(ks[i]), int(ks[j]), int(wsum[i, j]))


def brute_force_rectangle(ib: Iceberg) -> RectangleCertificate:
    """Independent oracle: enumerate every (cut-window, level-window) pair.

    All contiguous cut windows are crossed with all level windows inside
    ``[1-h, h-1]``; a pair is admissible when every included column's range
    contains the level window.  Exact integer scoring; intended for small
    ``h`` (the search is O(h^4) pairs, vectorised).
    """
    if not ib.cyclic:
        raise ConfigurationError("rectangle certificates need a cyclic iceberg")
    h, q = ib.h, ib.q
    ks, cs = _cut_classes(ib)
    m = ks.size
    prefix = np.concatenate(([0], np.cumsum(cs)))

    iu, ju = np.triu_indices(m)
    lo_cut = ks[iu]  # min cut class per window
    hi_cut = ks[ju]  # max cut class per window
    wcount = (prefix[ju + 1] - prefix[iu]).astype(np.int32)

    lvals = np.arange(1 - h, h, dtype=np.int64)
    l0u, l1u = np.triu_indices(lvals.size)
    l0 = lvals[l0u]
    l1 = lvals[l1u]
    size = (l1 - l0 + 1).astype(np.int32)

    valid = (hi_cut[:, None] - h <= l0[None, :]) & (l1[None, :] <= lo_cut[:, None] - 1)
    score = np.where(valid, wcount[:, None] * size[None, :], np.int32(-1))
    flat = int(np.argmax(score))
    ci, li = divmod(flat, l0.size)
    best = RectangleCertificate(
        h=h,
        cut_lo=int(lo_cut[ci]),
        cut_hi=int(hi_cut[ci]),
        level_lo=int(l0[li]),
        level_hi=int(l1[li]),
        weight=Fraction(int(wcount[ci]), q),
        area=Fraction(int(wcount[ci]) * int(size[li]), q * h),
    )
    return best


def beta_morse(r: int) -> Fraction:
    """Exact best-rectangle area of the ``r``-cut generalized-Morse iceberg.

    ``((r+1)/(2r))^2`` for odd ``r``, ``r(r+2)/(4r^2)`` for even ``r``; both
    tend to 1/4.  Requires ``r >= 2``.
    """
    if r < 2:
        raise ConfigurationError("beta_morse needs r >= 2")
    if r % 2:
        return Fraction(r + 1, 2 * r) ** 2
    return Fraction(r * (r + 2), 4 * r * r)


def multiplicity_bound(beta: "Fraction | float") -> int:
    """Spectral-multiplicity bound ``floor(1/beta)`` for local rank ``beta``.

    Requires ``0 < beta <= 1``; exact for ``Fraction`` input.  Rank one
    (``beta = 1``) gives 1, the limiting iceberg value ``beta = 1/4`` gives 4.
    """
    if not 0 < beta <= 1:
        raise ConfigurationError("local rank must be in (0, 1]")
    return math.floor(1 / beta)
