"""Rotated-word hierarchies.

A *schedule* describes how a seed word is grown through stages: stage ``n``
concatenates ``q_n`` rotated copies of the current word ``W_n`` (rotation
``rotate(W, a)[t] = W[(t + a) mod h]``), optionally padding each copy with a
run of spacer symbols.  Heights obey ``h_{n+1} = q_n * h_n + sum(spacers)``.

Pure schedules (no spacers) model cyclic iceberg towers; spacer schedules
model rank-one constructions (Ornstein-style random spacers, staircases).
The module provides the word combinatorics only — geometry, dynamics and
spectra live in the sibling modules.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import accumulate
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import MAX_SYMBOLS, ConfigurationError, refuse_above

#: Bound for the running product of finite-measure ratios
#: ``h_{n+1} / (q_n * h_n)``; schedules exceeding it fail validation.
DEFAULT_MEASURE_CAP = 1000.0


# ---------------------------------------------------------------------------
# Core data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    """A finite ordered alphabet, optionally with a designated spacer symbol.

    Symbols are arbitrary distinct strings (single characters in practice);
    words store indices into ``symbols``.  The spacer symbol, when present,
    is the letter written into spacer runs by stage concatenation.
    """

    symbols: tuple[str, ...]
    spacer_symbol: str | None = None

    def __post_init__(self) -> None:
        if len(self.symbols) < 2:
            raise ConfigurationError("alphabet needs at least two symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigurationError("alphabet symbols must be distinct")
        if self.spacer_symbol is not None and self.spacer_symbol not in self.symbols:
            raise ConfigurationError("spacer symbol must be a member of the alphabet")

    @cached_property
    def _code_points(self) -> np.ndarray | None:
        """Each symbol's code point as little-endian uint32, or None unless
        every symbol is a single character."""
        if any(len(s) != 1 for s in self.symbols):
            return None
        return np.array([ord(s) for s in self.symbols], dtype="<u4")

    @property
    def spacer_index(self) -> int | None:
        if self.spacer_symbol is None:
            return None
        return self.symbols.index(self.spacer_symbol)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ConfigurationError(f"symbol {symbol!r} not in alphabet") from None


@dataclass(frozen=True, eq=False)
class Word:
    """A finite word: an int index array over an alphabet.

    ``symbols`` is read-only; ``h`` is the word length (the tower height when
    the word is a stage of a hierarchy).
    """

    alphabet: Alphabet
    symbols: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.symbols, dtype=np.int32)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigurationError("a word is a non-empty 1-d symbol sequence")
        if arr.min() < 0 or arr.max() >= len(self.alphabet.symbols):
            raise ConfigurationError("word contains indices outside the alphabet")
        arr.setflags(write=False)
        object.__setattr__(self, "symbols", arr)

    @property
    def h(self) -> int:
        return int(self.symbols.size)

    @property
    def text(self) -> str:
        """The symbols joined; a gather of code points decoded at once where
        every symbol is one character (lone surrogates included)."""
        points = self.alphabet._code_points
        if points is None:
            return "".join(map(self.alphabet.symbols.__getitem__, self.symbols.tolist()))
        return points[self.symbols].tobytes().decode("utf-32-le", "surrogatepass")

    def __len__(self) -> int:
        return self.h

    def __repr__(self) -> str:  # keep reprs short for long words
        if self.h <= 40:
            body = self.text
        else:  # text[:37] from the first 37 symbols, unless empty symbols leave it short
            head = "".join(self.alphabet.symbols[i] for i in self.symbols[:37])
            body = (head if len(head) >= 37 else self.text)[:37] + "..."
        return f"Word({body!r}, h={self.h})"


def word_from_text(alphabet: Alphabet, text: str) -> Word:
    """Build a word from a string of single-character symbols."""
    lookup = {s: i for i, s in enumerate(alphabet.symbols)}
    if alphabet._code_points is None:
        raise ConfigurationError("word_from_text requires single-character symbols")
    try:
        idx = np.fromiter((lookup[c] for c in text), dtype=np.int32, count=len(text))
    except KeyError as exc:
        raise ConfigurationError(f"character {exc.args[0]!r} not in alphabet") from None
    return Word(alphabet, idx)


def _stage_array(values, name: str) -> np.ndarray:
    """A stage field as a new read-only int64 array.  A list or tuple of Python
    or numpy integers passes through an object array, so ``2**70`` is refused,
    not wrapped; an array must be 1-d, of an integer dtype (bool is not one)."""
    if not isinstance(values, np.ndarray):
        values = np.array(list(map(operator.index, values)), dtype=object)
    elif values.dtype.kind not in "iu" or values.ndim != 1:
        raise TypeError(f"{name} is a {values.ndim}-d {values.dtype} array")
    if values.size and (values.min() < 0 or values.max() >= 2**63):
        raise ConfigurationError(f"{name} must be non-negative and below 2**63 (int64)")
    return _read_only(values.astype(np.int64))


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only int64 array; an int64 array is viewed, not copied."""
    arr = np.asarray(values, dtype=np.int64).view()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Stage:
    """One construction stage: ``q`` rotated copies with per-copy spacer runs.

    ``rotations[y]`` is the rotation applied to copy ``y`` (reduced mod the
    current height at application time); ``spacers[y]`` is the number of
    spacer symbols appended after copy ``y``.

    Both are read-only int64 arrays of length ``q``, copied from a list, a
    tuple or an integer array; anything but integers in ``[0, 2**63)`` is
    refused, never truncated (``_stage_array``).  Stages compare by identity.
    """

    q: int
    rotations: np.ndarray
    spacers: np.ndarray = ()

    def __post_init__(self) -> None:
        try:
            q = operator.index(self.q)
            rot = _stage_array(self.rotations, "rotations")
            spc = _stage_array(self.spacers, "spacer counts")
        except TypeError as exc:
            raise ConfigurationError(f"stage fields must be integers: {exc}") from None
        if q < 1:
            raise ConfigurationError("stage needs q >= 1")
        if rot.size != q:
            raise ConfigurationError("stage needs exactly q rotations")
        if spc.size not in (0, q):
            raise ConfigurationError("stage needs exactly q spacer counts")
        if not spc.any():  # no spacers: a zero broadcast, which takes no memory
            spc = np.broadcast_to(np.int64(0), (q,))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "rotations", rot)
        object.__setattr__(self, "spacers", spc)

    @property
    def pure(self) -> bool:
        """True when the stage inserts no spacers."""
        return self.total_spacers == 0

    @cached_property
    def total_spacers(self) -> int:
        """Sum of the spacer runs, exact (an int64 sum could wrap), computed once."""
        return sum(self.spacers.tolist()) if self.spacers.any() else 0


@dataclass(frozen=True, eq=False)
class Schedule:
    """A seed word plus a finite list of stages.

    ``family_tag`` records how the schedule was generated (``morse``,
    ``random``, ``ornstein``, ``staircase`` or ``custom``); ``rng_seed`` is
    kept for reproducibility when the stages were drawn at random.
    """

    alphabet: Alphabet
    seed_word: Word
    stages: tuple[Stage, ...]
    family_tag: str = "custom"
    rng_seed: int | None = None

    def __post_init__(self) -> None:
        if self.seed_word.alphabet != self.alphabet:
            raise ConfigurationError("seed word must use the schedule's alphabet")
        object.__setattr__(self, "stages", tuple(self.stages))
        for n, h in enumerate(self.heights()):  # the top one too: int64 holds its copy starts
            check_draw_height(f"stage {n}", h)

    @property
    def depth(self) -> int:
        return len(self.stages)

    def heights(self) -> list[int]:
        """Heights ``h_0 .. h_depth`` (exact integers)."""
        hs = [self.seed_word.h]
        for st in self.stages:
            hs.append(st.q * hs[-1] + st.total_spacers)
        return hs

    def height(self, n: int) -> int:
        return self.heights()[n]

    def rotations_mod(self, n: int) -> np.ndarray:
        """Stage-``n`` rotations reduced into ``[0, h_n)``."""
        return self.stages[n].rotations % self.height(n)

    def stage_starts(self, n: int) -> np.ndarray:
        """Start offsets of the ``q_n`` copies inside ``W_{n+1}``, plus ``h_{n+1}``.

        ``starts[y] = y*h_n + sum(spacers[:y])``; length ``q_n + 1`` with the
        sentinel ``starts[q_n] = h_{n+1}``.
        """
        return np.concatenate(([0], np.cumsum(self.stages[n].spacers + self.height(n))))


# ---------------------------------------------------------------------------
# Word operations
# ---------------------------------------------------------------------------


def rotate(word: Word, alpha: int) -> Word:
    """Left cyclic shift: ``rotate(W, a)[t] = W[(t + a) mod h]``.

    Requires ``0 <= alpha <= len(W)``; ``alpha == len(W)`` is the identity.
    """
    if not 0 <= alpha <= word.h:
        raise ConfigurationError(f"rotation {alpha} outside [0, {word.h}]")
    return Word(word.alphabet, np.roll(word.symbols, -alpha))


def concat_stage(arr: np.ndarray, stage: Stage, fill: int | None, lo: int = 0,
                 hi: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Apply one stage to an index array: concatenate rotated copies with fill runs.

    Result = ``rot(A, a_0) f^{s_0} rot(A, a_1) f^{s_1} ... rot(A, a_{q-1}) f^{s_{q-1}}``
    where ``f`` is ``fill``, read only when the stage has spacers and then
    needed (None is refused).  Rotations are reduced mod ``len(arr)`` here,
    at application time, and read as Python ints.  Words are this loop on
    symbol arrays with the spacer symbol as fill; level-``n`` coordinates are
    this loop on ``arange(h_n)`` with the dynamics' spacer mark as fill.

    Only positions ``lo:hi`` of the result are written (default: all of
    them), into ``out`` when it is given (``hi - lo`` values), which is
    returned: a window of a concatenation that is never built.  The loop
    visits the copies whose span meets the window and writes each copy's two
    pieces, ``A[a:]`` then ``A[:a]``, and its run; only the first and the last
    copy are cut to the window (``_put_copy``).
    """
    h = arr.size
    size = stage.q * h + stage.total_spacers
    hi = size if hi is None else hi
    out = np.empty(hi - lo, dtype=arr.dtype) if out is None else out
    if stage.pure:
        first, stop = lo // h, -(-hi // h)
        start = first * h
    else:
        if fill is None:
            raise ConfigurationError("stage requests spacers but alphabet has no spacer symbol")
        first, stop, start = 0, stage.q, 0
        if lo or hi < size:  # the copies whose span (copy and run) meets the window
            ends = np.cumsum(stage.spacers + h)
            first, last = np.searchsorted(ends, (lo, hi - 1), "right").tolist()
            start, stop = (int(ends[first - 1]) if first else 0), min(last + 1, stage.q)
    rotations = (stage.rotations[first:stop] % h).tolist()
    spacers = stage.spacers[first:stop].tolist()
    if not rotations:
        return out
    # The window can cut only its first and last copy: those between are whole.
    pos = _put_copy(out, arr, start - lo, rotations[0], spacers[0], fill)
    for a, s in zip(rotations[1:-1], spacers[1:-1]):
        out[pos: pos + h - a] = arr[a:]
        out[pos + h - a: pos + h] = arr[:a]
        pos += h
        if s:
            out[pos: pos + s] = fill
            pos += s
    if len(rotations) > 1:
        _put_copy(out, arr, pos, rotations[-1], spacers[-1], fill)
    return out


def _put_copy(out: np.ndarray, arr: np.ndarray, pos: int, a: int, s: int, fill) -> int:
    """Write ``rot(arr, a)`` and a run of ``s`` fills from offset ``pos`` of
    ``out``, cut to ``out``, and return the offset after them.  The run must
    end after offset 0, as the span of any copy a window visits does."""
    h, n = arr.size, out.size
    t1 = min(h, n - pos)  # the copy's offsets t0 <= t < t1 lie in out; arr[a:] holds those below h - a
    t0 = min(max(-pos, 0), t1)
    m = min(max(h - a, t0), t1)
    out[pos + t0: pos + m] = arr[a + t0: a + m]
    out[pos + m: pos + t1] = arr[m - h + a: t1 - h + a]
    if s:
        out[max(pos + h, 0): min(pos + h + s, n)] = fill
    return pos + h + s


#: One unrotated copy: ``concat_stage`` through it is the identity.
ONE_COPY = Stage(1, (0,))


def cyclic_window(arr: np.ndarray, stage: Stage, fill: int | None, lo: int, hi: int) -> np.ndarray:
    """Positions ``lo .. hi - 1``, taken mod its length, of ``concat_stage(arr,
    stage, fill)``, which is never built: ``lo`` may be negative and the
    window may wrap the cycle any number of times."""
    size = stage.q * arr.size + stage.total_spacers
    out = np.empty(hi - lo, dtype=arr.dtype)
    for p in range(lo - lo % size, hi, size):  # each pass of the cycle that meets the window
        a, b = max(lo, p), min(hi, p + size)
        concat_stage(arr, stage, fill, a - p, b - p, out[a - lo: b - lo])
    return out


def build_word(
    schedule: Schedule,
    depth: int | None = None,
    *,
    force: bool = False,
) -> list[Word]:
    """The words of ``tower`` as one list, for a caller that holds several at once."""
    return list(tower(schedule, depth, force=force))


def tower(schedule: Schedule, depth: int | None = None, *, force: bool = False) -> Iterator[Word]:
    """An iterator over ``W_0 .. W_depth``, each built from the one before by ``concat_stage``
    when it is drawn; only the last is kept.  The depth, and the final height against
    ``MAX_SYMBOLS`` unless ``force`` is set, are checked at the call, before any word is built."""
    if depth is None:
        depth = schedule.depth
    if not 0 <= depth <= schedule.depth:
        raise ConfigurationError(f"depth {depth} outside [0, {schedule.depth}]")
    refuse_above(f"h_{depth} (word symbols)", schedule.heights()[depth], MAX_SYMBOLS, force)
    spacer = schedule.alphabet.spacer_index
    return accumulate(schedule.stages[:depth], initial=schedule.seed_word,
                      func=lambda w, st: Word(w.alphabet, concat_stage(w.symbols, st, spacer)))


# ---------------------------------------------------------------------------
# Schedule families
# ---------------------------------------------------------------------------

#: Convenient default alphabets.
BINARY = Alphabet(("0", "1"))
BINARY_SPACER = Alphabet(("0", "1"), spacer_symbol="1")
DNA = Alphabet(("A", "C", "G", "T"))


def morse_schedule(r: int, depth: int, seed_word: Word) -> Schedule:
    """Generalised Morse schedule: ``q_n = r`` and rotations ``y * h_n / r``.

    Requires ``r >= 2`` and ``r | len(seed_word)`` (then ``r | h_n`` at every
    stage).  With seed ``01`` and ``r = 2`` this produces the Prouhet-Thue-
    Morse words.
    """
    if r < 2:
        raise ConfigurationError("morse family needs r >= 2")
    if seed_word.h % r != 0:
        raise ConfigurationError(f"r = {r} must divide the seed length {seed_word.h}")
    stages = []
    h = seed_word.h
    for n in range(depth):
        check_draw_height(f"morse stage {n}", h)  # refused as a height, not as a rotation
        stages.append(Stage(q=r, rotations=tuple((y * h) // r for y in range(r))))
        h *= r
    return Schedule(seed_word.alphabet, seed_word, tuple(stages), family_tag="morse")


def check_draw_height(what: str, h: int) -> None:
    """Refuse a height ``h`` outside ``[1, 2**63)``, the one int64 rule for every height.

    numpy draws on ``[0, h)`` only for ``1 <= h <= 2**63``; at ``2**63`` the int64
    ``Schedule.rotations_mod`` and the copy starts below it (``stage_starts``) overflow.
    """
    if not 1 <= h < 2**63:
        raise ConfigurationError(f"{what}: height {h} is outside [1, 2**63), the int64 range")


def random_schedule(qs: Sequence[int], seed: int, seed_word: Word) -> Schedule:
    """Pure schedule with i.i.d. uniform rotations on ``[0, h_n)``.

    Deterministic for a given seed: stage ``n`` draws from
    ``numpy.random.default_rng([seed, n])`` so stages are independent and the
    split is reproducible.  Every height ``h_n``, the top one too, passes
    ``check_draw_height`` before any draw.
    """
    qs = [int(q) for q in qs]
    if min(qs, default=1) < 1:
        raise ConfigurationError("random stage needs q >= 1")
    heights = list(accumulate(qs, operator.mul, initial=seed_word.h))
    for n, h in enumerate(heights):
        check_draw_height(f"random stage {n}", h)
    stages = []
    for n, (q, h) in enumerate(zip(qs, heights)):
        stages.append(Stage(q, np.random.default_rng([int(seed), n]).integers(0, h, size=q)))
    return Schedule(
        seed_word.alphabet, seed_word, tuple(stages), family_tag="random", rng_seed=int(seed)
    )


def rank_one_schedule(
    kind: str,
    qs: Sequence[int],
    *,
    seed_word: Word | None = None,
    seed: int | None = None,
    ratio: int = 4,
) -> Schedule:
    """Rank-one spacer families: all rotations zero, structure in the spacers.

    ``kind = "staircase"``: stage ``n`` uses spacers ``(0, 1, ..., q_n - 1)``.
    ``kind = "ornstein"``: stage ``n`` draws ``q_n + 1`` i.i.d. uniform integers
    on ``[0, h_n // ratio]``, sorts them, and uses the successive differences
    as spacers (hence ``s >= 0`` always, and ``s = 0`` when all draws tie).

    The seed defaults to the single-letter word ``0`` over the binary alphabet
    with spacer symbol ``1``.  The finite-measure partial products are
    validated against ``DEFAULT_MEASURE_CAP``.
    """
    if seed_word is None:
        seed_word = word_from_text(BINARY_SPACER, "0")
    if seed_word.alphabet.spacer_symbol is None:
        raise ConfigurationError("rank-one schedules need an alphabet with a spacer symbol")
    stages = []
    h = seed_word.h
    running = 1.0
    for n, q in enumerate(qs):
        q = int(q)
        if q < 1:
            raise ConfigurationError("rank-one stage needs q >= 1")
        if kind == "staircase":
            spc = np.arange(q)
        elif kind == "ornstein":
            if seed is None:
                raise ConfigurationError("ornstein family needs an rng seed")
            if ratio < 1:
                raise ConfigurationError("ornstein family needs ratio >= 1")
            check_draw_height(f"ornstein stage {n}", h)  # h_n depends on earlier draws
            alpha_max = h // ratio
            rng = np.random.default_rng([int(seed), n])
            spc = np.diff(np.sort(rng.integers(0, alpha_max + 1, size=q + 1)))
        else:
            raise ConfigurationError(f"unknown rank-one family {kind!r}")
        stages.append(Stage(q=q, rotations=np.zeros(q, dtype=np.int64), spacers=spc))
        h_next = q * h + stages[-1].total_spacers
        running *= h_next / (q * h)
        if running > DEFAULT_MEASURE_CAP:
            raise ConfigurationError(
                f"spacer mass after stage {n} inflates the measure by {running:.3g}"
                f" > cap {DEFAULT_MEASURE_CAP}; thin the spacers"
            )
        h = h_next
    return Schedule(
        seed_word.alphabet,
        seed_word,
        tuple(stages),
        family_tag=kind,
        rng_seed=None if seed is None else int(seed),
    )


# ---------------------------------------------------------------------------
# Serialisation and hashing
# ---------------------------------------------------------------------------


def schedule_to_dict(schedule: Schedule) -> dict:
    """Canonical JSON-ready dict (fixed field order, integers only)."""
    return {
        "alphabet": {
            "symbols": list(schedule.alphabet.symbols),
            "spacer_symbol": schedule.alphabet.spacer_symbol,
        },
        "seed_word": schedule.seed_word.text,
        "stages": [
            {
                "q": st.q,
                "rotations": st.rotations.tolist(),
                "spacers": st.spacers.tolist(),
            }
            for st in schedule.stages
        ],
        "family_tag": schedule.family_tag,
        "rng_seed": schedule.rng_seed,
    }


def schedule_to_json(schedule: Schedule) -> str:
    """Canonical compact JSON text (stable bytes for hashing)."""
    return json.dumps(schedule_to_dict(schedule), separators=(",", ":"))


def schedule_from_dict(data: Mapping) -> Schedule:
    try:
        alpha = Alphabet(
            tuple(data["alphabet"]["symbols"]), data["alphabet"].get("spacer_symbol")
        )
        seed = word_from_text(alpha, data["seed_word"])
        stages = tuple(
            Stage(q=st["q"], rotations=st["rotations"], spacers=st.get("spacers", ()))
            for st in data["stages"]
        )
        tag = data.get("family_tag", "custom")
        rng_seed = data.get("rng_seed")
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed schedule document: {exc}") from exc
    return Schedule(alpha, seed, stages, family_tag=tag,
                    rng_seed=None if rng_seed is None else int(rng_seed))


def schedule_from_json(text: str) -> Schedule:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"schedule is not valid JSON: {exc}") from exc
    return schedule_from_dict(data)


#: Rotations, or spacer counts, that ``schedule_hash`` encodes per ``json.dumps`` call.
_HASH_SLICE = 1 << 16


def schedule_hash(schedule: Schedule) -> str:
    """SHA-256 of the canonical JSON (``schedule_to_json``); stable across runs and platforms.

    The text is hashed a piece at a time, so neither it nor a list of every
    rotation exists at once.  ``json.dumps`` (its C encoder) writes the
    fields around the stages, as ``schedule_to_dict`` gives them for no
    stage, and each stage's rotations and spacer counts ``_HASH_SLICE`` at a
    time.
    """
    dump = partial(json.dumps, separators=(",", ":"))
    # Every quote inside a JSON string is escaped, so only the key matches.
    head, _, tail = dump(schedule_to_dict(replace(schedule, stages=()))).partition('"stages":[]')
    digest = hashlib.sha256(f'{head}"stages":['.encode("utf-8"))
    for n, st in enumerate(schedule.stages):
        digest.update(f'{"," * (n > 0)}{{"q":{dump(st.q)}'.encode("ascii"))
        for key, values in (("rotations", st.rotations), ("spacers", st.spacers)):
            digest.update(f',"{key}":['.encode("ascii"))
            for lo in range(0, values.size, _HASH_SLICE):
                cells = dump(values[lo:lo + _HASH_SLICE].tolist())[1:-1]
                digest.update(f'{"," * (lo > 0)}{cells}'.encode("ascii"))
            digest.update(b"]")
        digest.update(b"}")
    digest.update(f"]{tail}".encode("utf-8"))
    return digest.hexdigest()


def save_schedule(schedule: Schedule, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(schedule_to_json(schedule))
        fh.write("\n")


def load_schedule(path) -> Schedule:
    """The schedule in a JSON file; a file that cannot be read is a configuration error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read schedule file {str(path)!r}: {exc.strerror}") from exc
    return schedule_from_json(text)
