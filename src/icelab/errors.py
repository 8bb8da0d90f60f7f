"""Shared exception types, the size limits, and the one rule that applies them.

Two failure families are distinguished because the command line maps them to
different exit codes: configuration problems (bad parameters, inconsistent
modes, violated preconditions) and resource refusals (requests whose cost
would exceed a size limit).

Every size limit lives here, and every guard applies it through
``refuse_above`` where its cost is incurred: a size strictly above its limit
is refused, a size equal to it is admitted.  ``MAX_SYMBOLS`` and
``MAX_GRID_POINTS`` and ``MAX_DENSE_TERMS`` are lifted by ``force=True``
(``--force`` on the command line); ``MAX_SWEEP_CUTS`` is a hard cap.

The merit factor needs no limit of its own: the word it scores is built by
``words.tower``, which refuses it above ``MAX_SYMBOLS`` before any work, and
its zero-padded transform adds only a constant factor (a length below
``4N`` for a word of length ``N``), so a separate limit would guard nothing
new.
"""

from __future__ import annotations

#: Words and coordinate arrays: positions of the materialised truncation.  The
#: command line also refuses a stage of more copies (``--qs``, ``--q``,
#: ``--q-list``) before drawing it: q copies make a word of at least q symbols.
#: A body report's carried cut positions, sum of q_m * (m - n), count here too.
MAX_SYMBOLS = 10_000_000

#: Points of a spectral evaluation grid.
MAX_GRID_POINTS = 2**22

#: Terms (frequencies x points) of a dense line-grid evaluation, and of the
#: ``correlate --check-recursion`` lags (lags x h_{n+1}, 20 to 32 s at the
#: limit).  The dense evaluator took 4.7e-8 to 7.1e-8 s per term on a 2-core
#: Linux box (4,000 frequencies at 10,001 points, 200,000 at 2,000, 1,000 at
#: 100,000): 3.5 to 5 minutes at the limit; the two limits above alone admit
#: 4e13 terms, about 25 days.
MAX_DENSE_TERMS = 2**32

#: Distinct cuts m of the rectangle sweep (hard cap).  The sweep builds three
#: m x m int64 matrices, about 24 bytes per cell at its peak: 1.6 GB at this cap.
MAX_SWEEP_CUTS = 8192


class ConfigurationError(ValueError):
    """Invalid parameters, inconsistent modes, or violated preconditions."""


class ResourceRefusal(RuntimeError):
    """The request was refused because it exceeds a size limit.

    Raised by ``refuse_above`` instead of attempting the work; a limit that
    can be lifted is overridden deliberately with ``force=True`` (or
    ``--force`` on the command line).
    """


def refuse_above(what: str, size: int, limit: int, force: bool | None = None) -> None:
    """Raise ``ResourceRefusal`` when ``size > limit`` and ``force`` is not set.

    Guards of a limit that ``--force`` lifts pass their ``force`` flag (True
    or False); hard caps leave it ``None``, which nothing lifts.
    """
    if size > limit and not force:
        hint = "" if force is None else "; pass --force to proceed"
        raise ResourceRefusal(f"{what} = {size} > {limit}{hint}")
