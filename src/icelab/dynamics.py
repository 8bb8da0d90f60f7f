"""Finite-truncation dynamics: level coordinates of the truncation shift.

The depth-``N`` truncation of a hierarchy is the cyclic shift ``x -> x + 1``
on ``Z_{h_N}``.  Each position of ``W_{n+1}`` reads a position of ``W_n``,
``phi_n(y*h_n + t) = (t + a_{n,y}) mod h_n`` inside copy ``y``; spacer
positions read a reserved mark.  Composing these gives every lower
coordinate of a point and the per-level jump structure of the shift; orbit
codings are windows of the cyclic word.

Two routes compute coordinates.  The concatenated route (``project_all``)
builds the level-``n`` coordinates of a whole truncation the way words are
built: ``words.concat_stage`` applied to ``arange(h_n)`` through stages
``n .. N-1`` with ``SPACER_MARK`` as the spacer fill.  The arithmetic route
(``project_positions`` / ``symbols_range``) locates arbitrary position
subsets by ``searchsorted`` over the copy starts, so it streams through words
far beyond the materialisation guardrail; it is also the independent oracle
for the concatenated route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MAX_SYMBOLS, ConfigurationError, refuse_above
from .words import ONE_COPY, Schedule, Word, concat_stage, cyclic_window

#: Reserved projection value for spacer positions.
SPACER_MARK = -1


def project_positions(
    schedule: Schedule, positions: np.ndarray, from_level: int, to_level: int
) -> np.ndarray:
    """Level-``to_level`` coordinates of positions given at ``from_level``.

    Pure arithmetic (no coordinate arrays): works on arbitrary position
    subsets of arbitrarily tall truncations.  Spacer positions propagate the mark.
    """
    if not 0 <= to_level <= from_level <= schedule.depth:
        raise ConfigurationError(
            f"need 0 <= to_level <= from_level <= depth, got {to_level}, {from_level}"
        )
    heights = schedule.heights()
    try:  # every height is below 2**63, so a position int64 cannot hold is outside
        arr = np.asarray(positions, dtype=np.int64)
    except OverflowError:
        raise ConfigurationError("positions outside the truncation") from None
    if arr.size and (arr.min() < 0 or arr.max() >= heights[from_level]):
        raise ConfigurationError("positions outside the truncation")
    for n in range(from_level - 1, to_level - 1, -1):
        arr = _project_down(schedule, arr, n, heights[n])
    return arr


def _project_down(schedule: Schedule, arr: np.ndarray, n: int, h: int) -> np.ndarray:
    """Level-``n`` coordinates of level-``(n+1)`` coordinates, marks carried (``h = h_n``)."""
    starts = schedule.stage_starts(n)
    rots = schedule.rotations_mod(n)
    safe = np.maximum(arr, 0)
    y = np.searchsorted(starts, safe, side="right") - 1
    off = safe - starts[y]
    nxt = np.where(off < h, (off + rots[y]) % h, np.int64(SPACER_MARK))
    return np.where(arr >= 0, nxt, np.int64(SPACER_MARK))


@dataclass(eq=False)
class ProjectionChain:
    """The depth-``depth`` truncation of a schedule, within the symbol guardrail.

    Holds no coordinate arrays or words: ``project_all`` builds the arrays on
    each call by the concatenated route, ``project`` / ``step`` read single
    points by the arithmetic route, and ``orbit_coding`` is handed ``W_{depth-1}``.
    ``build`` refuses truncations whose height exceeds ``MAX_SYMBOLS`` unless forced.
    """

    schedule: Schedule
    depth: int
    heights: list[int]

    @classmethod
    def build(
        cls,
        schedule: Schedule,
        depth: int | None = None,
        *,
        force: bool = False,
    ) -> "ProjectionChain":
        if depth is None:
            depth = schedule.depth
        if not 0 <= depth <= schedule.depth:
            raise ConfigurationError(f"depth {depth} outside [0, {schedule.depth}]")
        heights = schedule.heights()[: depth + 1]
        refuse_above(f"h_{depth} (coordinates)", heights[-1], MAX_SYMBOLS, force)
        return cls(schedule=schedule, depth=depth, heights=heights)


@dataclass(frozen=True)
class StepResult:
    """Successor of a point with the per-level jump flags.

    ``jumps[n]`` is True when the level-``n`` coordinate did not advance by a
    plain ``+1`` (spacer marks always flag); ``regular_index`` is the smallest
    level without a jump (``= depth`` when every level jumps).
    """

    successor: int
    jumps: tuple[bool, ...]
    regular_index: int


def _plain_pair(cur: np.ndarray, nxt: np.ndarray, h: int) -> np.ndarray:
    """The plain-step predicate of level-``n`` coordinates (``h = h_n``).

    A step from ``cur`` to ``nxt`` is plain when neither is a spacer mark and
    ``nxt`` is ``cur + 1 mod h``.
    """
    return (cur != SPACER_MARK) & (nxt != SPACER_MARK) & (nxt == (cur + 1) % h)


def _letters(schedule: Schedule, coords: np.ndarray) -> np.ndarray:
    """Seed letters at level-0 coordinates (marks -> the spacer symbol).

    Any level reads the same letters this way: ``W_m[x_m] = W_0[x_0]``, with
    spacer positions read as the spacer symbol.
    """
    seed = schedule.seed_word.symbols
    if np.any(coords == SPACER_MARK):
        spacer = schedule.alphabet.spacer_index
        if spacer is None:
            raise ConfigurationError("spacer positions but alphabet has no spacer symbol")
        return np.where(coords == SPACER_MARK, np.int32(spacer), seed[np.maximum(coords, 0)])
    return seed[coords]


def project(pc: ProjectionChain, x: int, n: int) -> int:
    """Level-``n`` coordinate of ``x``, an index of ``Z_{h_depth}``.

    Returns ``SPACER_MARK`` for positions sitting inside a spacer run at or
    above level ``n``.  Letter consistency for pure schedules: the letter of
    ``W_N`` at ``x`` equals the letter of ``W_n`` at ``project(x, n)``.
    """
    return int(project_positions(pc.schedule, np.array([int(x)]), pc.depth, n)[0])


def project_all(pc: ProjectionChain, n: int) -> np.ndarray:
    """Vector of level-``n`` coordinates of every position of ``Z_{h_depth}``.

    Built by concatenation: ``arange(h_n)`` through stages ``n .. depth-1``
    with ``SPACER_MARK`` in the spacer runs.  Its reader is ``jump_positions``,
    the brute-force oracle of ``regular_indices``.
    """
    if not 0 <= n <= pc.depth:
        raise ConfigurationError(f"need 0 <= n <= depth = {pc.depth}, got n={n}")
    arr = np.arange(pc.heights[n], dtype=np.int64)
    for st in pc.schedule.stages[n:pc.depth]:
        arr = concat_stage(arr, st, SPACER_MARK)
    return arr


def step(pc: ProjectionChain, x: int) -> StepResult:
    """Advance the truncation shift by one and flag per-level jumps."""
    h_N = pc.heights[pc.depth]
    x = int(x) % h_N
    succ = (x + 1) % h_N
    pair = np.array([x, succ])
    coords = [project_positions(pc.schedule, pair, pc.depth, n) for n in range(pc.depth)]
    jumps = tuple(not _plain_pair(c[0], c[1], pc.heights[n]) for n, c in enumerate(coords))
    regular = next((n for n, j in enumerate(jumps) if not j), pc.depth)
    return StepResult(successor=succ, jumps=jumps, regular_index=regular)


def jump_positions(pc: ProjectionChain, n: int) -> np.ndarray:
    """All positions ``p`` whose step jumps at level ``n`` (brute force).

    The oracle of ``regular_indices``, which writes the jump trace of ``build
    --jump-trace``: one whole coordinate array of the level and its plain-step
    mask, each point against the next around the cycle.
    """
    if not 0 <= n < pc.depth:
        raise ConfigurationError(f"level {n} outside [0, {pc.depth})")
    cur = project_all(pc, n)
    return np.nonzero(~_plain_pair(cur, np.roll(cur, -1), pc.heights[n]))[0]


def regular_indices(pc: ProjectionChain) -> np.ndarray:
    """Regular index of every step ``p -> p + 1`` of the truncation shift.

    Entry ``p`` is the smallest level ``n < depth`` at which the step is plain,
    or ``depth`` when it is plain at none.  Built by concatenation, as the
    words are: every step of the cycle ``W_0`` is plain at level 0, and stage
    ``m`` carries the array of ``W_m`` up with ``concat_stage``, filling the
    spacer runs with ``m + 1`` (a spacer step is plain only above level
    ``m``).  A step inside a copy is a step of ``W_m`` and keeps its index, so
    only the last position of each copy is patched: ``m + 1`` before a spacer
    run, otherwise the lowest plain level of the step from ``(a_y - 1) mod h_m``
    to ``a_{y+1} mod h_m``.  When those two are a plain step of ``W_m`` its
    index is read off the carried array; otherwise both points are walked down
    one level at a time, as ``project_positions`` walks.  Cost O(h_depth),
    plus at most ``m`` levels of walk for each junction of stage ``m``.
    """
    sch, heights = pc.schedule, pc.heights
    reg = np.zeros(heights[0], dtype=np.int64)
    for m in range(pc.depth):
        stage, h = sch.stages[m], heights[m]
        rots = sch.rotations_mod(m)
        cur, nxt = (rots - 1) % h, np.roll(rots, -1)
        joined = stage.spacers == 0
        val = np.full(stage.q, m + 1, dtype=np.int64)
        plain = joined & _plain_pair(cur, nxt, h)
        val[plain] = reg[cur[plain]]
        walk = np.flatnonzero(joined & ~plain)
        cur, nxt = cur[walk], nxt[walk]
        for n in range(m - 1, -1, -1) if walk.size else ():
            cur, nxt = (_project_down(sch, c, n, heights[n]) for c in (cur, nxt))
            val[walk[_plain_pair(cur, nxt, heights[n])]] = n
        reg = concat_stage(reg, stage, m + 1)
        reg[sch.stage_starts(m)[:-1] + (h - 1)] = val
    return reg


def orbit_coding(pc: ProjectionChain, below: Word, start: int, length: int, m: int) -> Word:
    """Letters of ``W_m`` read along ``length`` forward steps from ``start``.

    Spacer positions contribute the alphabet's spacer symbol.  Since
    ``W_m[x_m] = W_0[x_0]``, the coding is the same for every ``m``: the
    ``cyclic_window`` of ``W_N`` from ``start`` (any integer, taken mod
    ``h_N``), read through the last stage from ``below = W_{N-1}`` (``W_0``
    at depth 0).  Starting at 0 with ``length = h_N`` returns ``W_N`` itself.
    """
    h_N, n = pc.heights[pc.depth], max(pc.depth - 1, 0)
    if not 0 <= m <= pc.depth:
        raise ConfigurationError(f"coding level {m} outside [0, {pc.depth}]")
    if not 1 <= length <= h_N:
        raise ConfigurationError(f"coding length {length} outside [1, {h_N}]")
    if below.h != pc.heights[n]:
        raise ConfigurationError(f"below must be W_{n} (h = {pc.heights[n]}), not h = {below.h}")
    top = pc.schedule.stages[pc.depth - 1] if pc.depth else ONE_COPY
    start = int(start) % h_N
    letters = cyclic_window(below.symbols, top, pc.schedule.alphabet.spacer_index,
                            start, start + length)
    return Word(pc.schedule.alphabet, letters)


def symbols_range(schedule: Schedule, depth: int, start: int, stop: int) -> np.ndarray:
    """Symbols of ``W_depth`` on ``[start, stop)`` without materialising it.

    Streams through the arithmetic projection, so it works beyond the
    materialisation guardrail.  Pure schedules satisfy
    ``W_N[p] = W_0[project(p, 0)]``; spacer positions yield the spacer symbol.
    """
    h_N = schedule.heights()[depth]
    if not 0 <= start <= stop <= h_N:
        raise ConfigurationError("range outside the truncation")
    positions = np.arange(start, stop, dtype=np.int64)
    return _letters(schedule, project_positions(schedule, positions, depth, 0))
