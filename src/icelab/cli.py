"""Batch command-line front end.

Subcommands: ``build`` (words, codings, jump traces), ``geometry`` (iceberg
histograms, uniformity, jump matrices, body reports), ``correlate``
(correlation series and the stage-recursion check), ``decay`` (multi-stage
decay profiles), ``simplicity`` (far-half diagnostic), ``spectrum`` (Riesz
products, flatness, merit factors), ``rank`` (rectangle certificates), and
``ensemble`` (seed fan-out for decay/jumps/simplicity).

Every run writes a ``manifest.json`` (inputs, schedule hash, versions,
timestamp, peak RSS) next to its payloads; payload CSVs are deterministic for
a fixed (config, seed) pair — byte-identical across runs — and every
schedule-derived row carries the schedule hash.  A command writes its payloads into a staging
directory inside ``--out``; they are moved into place, and its summary line
printed, only when the command succeeds, so a failed run leaves no outputs.
Exit codes: 0 success, 2 validation error, 3 resource refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import sys
import tempfile
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from datetime import datetime, timezone
from itertools import groupby, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from . import correlation as corr
from . import dynamics as dyn
from . import iceberg as ice
from . import numtext
from . import rank as rank_mod
from . import spectral as spx
from . import words as words_mod
from .correlation import _usable_cpus
from .errors import (
    MAX_DENSE_TERMS, MAX_GRID_POINTS, MAX_SYMBOLS, ConfigurationError, ResourceRefusal,
    refuse_above,
)

#: Environment variable naming the default output directory.
OUTPUT_DIR_ENV = "ICELAB_OUTDIR"

#: Version of the payload bytes, recorded in ``manifest.json``.  At 2 the values
#: computed from transforms longer than 2^18 (``decay``, ``ensemble --task decay``,
#: ``correlate``) come from the blocked transform and differ from 1 in their last bits.
#: At 3 ``correlate`` writes the ``im`` cells of real labels as 0.0, the exact value,
#: not the transform's round-off.
PAYLOAD_VERSION = 3


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


#: Rows formatted per ``_csv_lines`` call.  A chunk's cells exist as bytes
#: and strings only while it is formatted, and ``numtext`` holds a few hundred
#: bytes of temporaries per array cell.  On ``correlate``'s 262,144 rows the
#: peak RSS read 52.9 MB with 4,096-row chunks, 52.5 MB with 512-row ones and
#: 92.9 MB with 65,536-row ones.
_CSV_CHUNK = 4096


def _is_constant(col) -> bool:
    """Whether a ``_Columns`` column is one cell repeated on every row: not a list or an array."""
    return not isinstance(col, (list, np.ndarray))


class _Columns:
    """A csv table held by column; ``len`` is its number of rows.

    Each column is a 1-d numpy ``int64`` or ``float64`` array, a list of
    ``int``, ``float`` or ``str``, or one ``str``, ``int`` or ``float``: a
    constant column, whose cell every row repeats.  The arrays and lists all
    have the table's length, and a table of constant columns only is given
    its length as ``rows``.  No Python object exists per row of an array or
    constant column: ``_csv_lines`` formats a chunk's slice of an array as an
    array, and ``_write_csv`` a constant once per table.
    """

    def __init__(self, *columns, rows: int | None = None) -> None:
        lengths = {len(col) for col in columns if not _is_constant(col)}
        lengths |= set() if rows is None else {rows}
        if len(lengths) > 1:
            raise ValueError("table columns differ in length")
        if columns and not lengths:
            raise ValueError("a table of constant columns needs its number of rows")
        self.columns = columns
        self.rows = next(iter(lengths), 0)

    def __len__(self) -> int:
        return self.rows


def _is_text(path: Path, name: str, col) -> bool:
    """Whether ``col`` holds text; ``TypeError`` unless the writer formats its kind exactly.

    ``numtext`` formats ``int64`` and ``float64`` arrays only.  A list cell
    or a constant is written with ``str``, which is ``repr`` (shortest round
    trip) for a float, but a numpy scalar such as ``np.float64`` (a
    ``float`` subclass) would appear as ``np.float64(...)``, and a bool as
    ``True``.  So a list or a constant must hold exactly ``int``, ``float``
    or ``str``; a list is homogeneous, so its first cell suffices.
    """
    if isinstance(col, np.ndarray):
        if col.ndim == 1 and col.dtype in (np.int64, np.float64):
            return False
        kind = f"a {col.ndim}-d {col.dtype} array"
    elif type(col) is list:
        if not col or type(col[0]) in (int, float, str):
            return bool(col) and type(col[0]) is str
        kind = f"a list of {type(col[0]).__name__}"
    elif type(col) in (int, float, str):
        return type(col) is str
    else:
        kind = type(col).__name__
    raise TypeError(f"{path.name}: column {name!r} must be an int64 or float64 array, "
                    f"a list of int, float or str, or one int, float or str, got {kind}")


def _quote_text(col: list[str], alone: bool):
    """The cells of one text column, quoted as ``csv.writer`` quotes them.

    A cell is quoted only if it holds ``,``, ``"`` or ``\\n`` (not ``\\r``),
    with inner quotes doubled; an empty cell that is a row's only cell is
    written ``""``.  Each distinct value is quoted once.
    """
    quoted = {}
    for v in set(col):
        if "," in v or '"' in v or "\n" in v or (alone and not v):
            quoted[v] = '"' + v.replace('"', '""') + '"'
        else:
            quoted[v] = v
    return map(quoted.__getitem__, col)


def _constant_cells(value, is_text: bool, alone: bool, rows: int) -> np.ndarray:
    """A constant column's cells, formatted once: ``rows`` rows of its UTF-8 bytes.

    The matrix is one row that ``np.broadcast_to`` repeats, so it takes no
    memory per row, and a chunk's slice of it is a ``numtext`` cell matrix.
    """
    cell = next(_quote_text([value], alone)) if is_text else str(value)
    row = np.frombuffer(cell.encode("utf-8"), dtype=np.uint8)
    return np.broadcast_to(row, (rows, row.size))


def _cell_matrix(run: list[np.ndarray]) -> np.ndarray:
    """Adjacent array columns as one uint8 matrix, a csv line per row padded with 0xFF.

    ``numtext`` gives each int64 and float64 cell's bytes, padded with 0xFF,
    and a constant column is already its cells' matrix (``_constant_cells``).
    A comma follows each cell and a newline ends each row, so removing the
    padding leaves the lines.
    """
    cells = [col if col.ndim == 2 else numtext.float_cells(col) if col.dtype == np.float64
             else numtext.int_cells(col) for col in run]
    rows = np.empty((len(run[0]), sum(c.shape[1] + 1 for c in cells)), dtype=np.uint8)
    at = 0
    for c in cells:
        rows[:, at:at + c.shape[1]] = c
        rows[:, at + c.shape[1]] = ord(",")
        at += c.shape[1] + 1
    rows[:, -1] = ord("\n")
    return rows


def _csv_lines(columns: list, text: list[bool]) -> bytes:
    """Equal-length column slices as the UTF-8 bytes of csv lines.

    A chunk without a list column is one ``_cell_matrix``, whose bytes less
    the padding are the lines: no string exists per row.  Otherwise text is
    quoted by ``_quote_text`` and list numbers written with ``str``, each
    run of adjacent int64 and float64 arrays becomes one string per row
    through ``_cell_matrix``, a constant repeats its cell, and the rows are
    joined.
    """
    if columns and not any(type(col) is list for col in columns):
        return _cell_matrix(columns).tobytes().translate(None, b"\xff")
    alone = len(text) == 1
    cells = []
    numbers = lambda pair: isinstance(pair[0], np.ndarray) and pair[0].ndim == 1
    for arrays, group in groupby(zip(columns, text), numbers):
        if arrays:
            rows = _cell_matrix([col for col, _ in group]).tobytes().translate(None, b"\xff")
            cells.append(rows.decode("ascii").split("\n")[:-1])
        else:
            cells += [repeat(col[0].tobytes().decode("utf-8"), len(col))
                      if isinstance(col, np.ndarray)
                      else _quote_text(col, alone) if is_text else map(str, col)
                      for col, is_text in group]
    return ("\n".join(map(",".join, zip(*cells))) + "\n").encode("utf-8")


def _write_span(fh, columns: list, text: list[bool], lo: int, hi: int) -> None:
    """Rows ``lo:hi`` as UTF-8 csv lines, a chunk at a time; ``hi`` ends a chunk or the rows."""
    for start in range(lo, hi, _CSV_CHUNK):
        fh.write(_csv_lines([col[start:start + _CSV_CHUNK] for col in columns], text))


def _fork_span(part, columns: list, text: list[bool], lo: int, hi: int) -> int:
    """Fork a worker that writes rows ``lo:hi`` into ``part``; returns its pid.

    The worker only reads the columns' pages.  It leaves only through
    ``os._exit``, whatever it raises, so it never returns into the command,
    never publishes and never removes the staging directory.  Its status is 0
    once the whole span is in ``part``.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        _write_span(part, columns, text, lo, hi)
        part.flush()
        status = 0
    except BaseException:  # the worker's last frame: report, then leave by os._exit
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _write_csv(path: Path, header: Sequence[str], table: _Columns | list[tuple]) -> None:
    """Write ``header`` and ``table`` with the bytes ``csv.writer(fh, lineterminator="\\n")`` writes.

    ``table`` is a ``_Columns``, or a list of row tuples, which is turned into
    list columns once on entry; either way ``len(table)`` is the number of
    rows.  Every column's kind is checked (``_is_text``) before the file
    is opened, and each constant column is formatted once
    (``_constant_cells``).  Each chunk of ``_CSV_CHUNK`` rows is formatted by
    ``_csv_lines``: array columns by ``numtext``, list columns by ``str`` or,
    for text, ``_quote_text``.

    Formatting holds the GIL, so the chunks are split into one contiguous
    span per usable CPU: this process writes the first, a forked worker writes
    each other one into an anonymous temporary file, and the parts are
    appended in order.  Every chunk is formatted as it would be alone, so the
    bytes do not depend on the split.  One chunk, one CPU or no ``os.fork``
    means one span and no worker.  No pool thread is alive at a fork:
    ``_fan_out``'s pool and the transform kernel's have shut down before any
    command writes.
    """
    if not isinstance(table, _Columns):
        table = _Columns(*map(list, zip(*table)))
    if table.columns and len(table.columns) != len(header):
        raise ValueError(f"{path.name}: {len(table.columns)} columns for {len(header)} names")
    text = [_is_text(path, name, col) for name, col in zip(header, table.columns)]
    columns = [_constant_cells(col, is_text, len(text) == 1, len(table)) if _is_constant(col)
               else col for col, is_text in zip(table.columns, text)]
    chunks = -(-len(table) // _CSV_CHUNK)
    workers = max(1, min(_usable_cpus(), chunks)) if hasattr(os, "fork") else 1
    cuts = [min(chunks * i // workers * _CSV_CHUNK, len(table)) for i in range(workers + 1)]
    with open(path, "wb") as fh, ExitStack() as parts:
        fh.write(_csv_lines([[name] for name in header], [True] * len(header)))
        fh.flush()
        children = []
        try:
            for lo, hi in zip(cuts[1:-1], cuts[2:]):
                part = parts.enter_context(tempfile.TemporaryFile(dir=path.parent))
                children.append((_fork_span(part, columns, text, lo, hi), part))
            _write_span(fh, columns, text, cuts[0], cuts[1])
        finally:
            statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
        for (_, part), status in zip(children, statuses):
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"{path.name}: a csv writer worker exited with status {code}")
            part.seek(0)
            shutil.copyfileobj(part, fh)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _publish(staging: Path, out_dir: Path, overwrite: bool) -> None:
    """Move every staged output into ``out_dir``; none moves if one would replace a file."""
    names = sorted(p.name for p in staging.iterdir())
    clashes = [name for name in names if (out_dir / name).exists()]
    if clashes and not overwrite:
        raise ConfigurationError(f"{out_dir / clashes[0]} exists; pass --overwrite to replace it")
    for name in names:
        os.replace(staging / name, out_dir / name)


def _peak_rss_mb() -> float | None:
    """Peak resident set of this process in MB, or None where none is readable.

    On Linux this is ``VmHWM``, which starts afresh when the command's
    interpreter is exec'd (``ru_maxrss`` there starts from the peak of the
    process that spawned it).  Elsewhere it is ``ru_maxrss``: bytes on macOS,
    kB on the other Unixes; Windows has no ``resource`` module.
    """
    if sys.platform == "linux":
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024, 1)
        return None
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (2**20 if sys.platform == "darwin" else 1024), 1)


def _write_manifest(out_dir: Path, command: str, argv: Sequence[str],
                    schedule_hash: str | None) -> None:
    manifest = {
        "command": command,
        "argv": list(argv),
        "schedule_hash": schedule_hash,
        "payload_version": PAYLOAD_VERSION,
        "versions": {
            "icelab": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "peak_rss_mb": _peak_rss_mb(),
    }
    # The manifest is rewritten freely: determinism guarantees cover payloads.
    with open(out_dir / "manifest.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_labels(text: str) -> dict[str, complex]:
    labels: dict[str, complex] = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigurationError(f"label {item!r} is not of the form SYMBOL=VALUE")
        sym, _, val = item.partition("=")
        try:
            labels[sym.strip()] = complex(val.strip())
        except ValueError:
            raise ConfigurationError(f"label value {val!r} is not a complex literal") from None
    return labels


def _int_list(option: str, text: str) -> list[int]:
    """The integers of a comma list; a token that is not one is a configuration error."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigurationError(f"{option} {text!r} is not a comma list of integers") from None


def _counts(option: str, text: str, force: bool) -> list[int]:
    """Counts from a comma list, each checked by ``_count`` before any work.

    A stage of ``q`` copies draws ``q`` rotations and makes a word of at
    least ``q`` symbols; ``--exp-n n`` evaluates ``n`` frequencies per point.
    """
    return [_count(f"{option} entry", n, force) for n in _int_list(option, text)]


def _count(what: str, n: int, force: bool) -> int:
    """``n``, refused below 1 and above ``MAX_SYMBOLS`` before any work."""
    if n < 1:
        raise ConfigurationError(f"{what} {n} is below 1")
    refuse_above(what, n, MAX_SYMBOLS, force)
    return n


def _int_from(low: int):
    """An argparse type: an integer of at least ``low``, so a bad value exits 2
    before ``--out`` is created (``--threads`` from 1, seeds from 0)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return parse


def _parse_qs(args) -> list[int]:
    if args.qs is not None:
        return _counts("--qs", args.qs, args.force)
    refuse_above("--q (copies per stage)", args.q, MAX_SYMBOLS, args.force)
    refuse_above("--depth (stages of --q copies)", args.depth, MAX_SYMBOLS, args.force)
    if args.depth >= 2**63:  # forced: a list of that many stages cannot be indexed
        raise ConfigurationError(f"--depth {args.depth} is not below 2**63 (int64)")
    return [args.q] * args.depth


def _seed_word_from_args(args, default_text: str, spacer: str | None) -> words_mod.Word:
    text = args.seed_word if args.seed_word is not None else default_text
    if args.alphabet:
        symbols = tuple(args.alphabet)
    else:
        symbols = tuple(sorted(set(text) | (set(spacer) if spacer else set())))
    alphabet = words_mod.Alphabet(symbols, args.spacer_symbol or spacer)
    return words_mod.word_from_text(alphabet, text)


def _schedule_from_args(args) -> words_mod.Schedule:
    if args.schedule is not None:
        return words_mod.load_schedule(args.schedule)
    if args.family == "morse":
        seed_word = _seed_word_from_args(args, "01", None)
        return words_mod.morse_schedule(args.r, args.depth, seed_word)
    if args.family == "random":
        seed_word = _seed_word_from_args(args, "01", None)
        return words_mod.random_schedule(_parse_qs(args), args.seed, seed_word)
    seed_word = _seed_word_from_args(args, "0", "1")  # staircase ignores seed and ratio
    return words_mod.rank_one_schedule(
        args.family, _parse_qs(args), seed_word=seed_word, seed=args.seed, ratio=args.ratio
    )


# What each subcommand, --mode, --task and schedule source reads besides --out,
# --force and --overwrite.  A clause "--a|--b" is one of two options that argparse
# makes exclusive, "--a+--b" reads --b only with --a and then needs it, and a
# trailing "!" needs the option (or one of the two).  A run reads the row of its
# subcommand and every row named "OPTION VALUE" by an option given that these read.
# A subcommand's parser takes the options of every row it can reach (build_parser).
_COPIES = "--qs|--q+--depth! --seed-word --alphabet --spacer-symbol"
_SOURCE = "--schedule|--family!"
_READS = {
    "build": f"{_SOURCE} --depth --coding-start --coding-length --coding-level --jump-trace",
    "geometry": f"{_SOURCE} --body-base+--body-depth --body-depth+--body-base",
    "correlate": f"{_SOURCE} --labels! --zero-mean --stage --check-recursion",
    "decay": f"{_SOURCE} --labels! --from-stage! --to-stage! --statistic",
    "simplicity": f"{_SOURCE} --labels! --base! --diag-depth!",
    "spectrum": "--mode!",
    "--mode riesz": f"{_SOURCE} --labels! --zero-mean --base --last --grid-size|--line "
                    "--check-oracle",
    "--mode flat": "--exp-n! --eps --line",
    "--mode merit": f"{_SOURCE} --labels! --merit-stages",
    "rank": f"{_SOURCE} --stage",
    # Each seed draws its own random schedule, so ensemble takes no schedule source.
    "ensemble": "--task! --seeds! --base-seed --threads",
    "--task jumps": "--h! --q-list!",
    "--task decay": f"--labels! --from-stage! --to-stage! {_COPIES}",
    "--task simplicity": f"--labels! --base! --diag-depth! {_COPIES}",
    "--family morse": "--r! --depth! --seed-word --alphabet --spacer-symbol",
    "--family random": f"--seed! {_COPIES}",
    "--family staircase": _COPIES,
    "--family ornstein": f"--seed! --ratio {_COPIES}",
}

# Each option's add_argument keywords; one with "OPTION VALUE" rows takes their values.
_OPTIONS = {
    "--out": dict(help=f"output directory (default ${OUTPUT_DIR_ENV} or ./icelab-out)"),
    "--force": dict(action="store_true",
                    help="lift the symbol, grid-point and dense-evaluation size limits"),
    "--overwrite": dict(action="store_true", help="allow replacing existing outputs"),
    "--depth": dict(type=_int_from(0), help="number of stages (>= 0)"),
    "--q": dict(type=int, help="copies per stage (with --depth)"),
    "--qs": dict(help="comma list of per-stage copy counts"),
    "--seed-word": dict(help="seed word text"),
    "--alphabet": dict(help="alphabet symbols as a string of characters"),
    "--spacer-symbol": dict(help="spacer symbol character"),
    "--schedule": dict(help="schedule JSON file"),
    "--family": dict(help="generate the schedule from a named family"),
    "--r": dict(type=int, help="morse cut count r"),
    "--seed": dict(type=_int_from(0), help="random and ornstein families: rng seed (>= 0)"),
    "--ratio": dict(type=int, default=4, help="ornstein spacer bound h/ratio"),
    "--labels": dict(help="label map SYMBOL=VALUE[,SYMBOL=VALUE...]"),
    "--zero-mean": dict(action="store_true", help="subtract the mean when lifting labels"),
    "--coding-start": dict(type=int, help="orbit coding start position"),
    "--coding-length": dict(type=int, help="orbit coding length"),
    "--coding-level": dict(type=int, help="orbit coding word level"),
    "--jump-trace": dict(action="store_true", help="emit per-position jump trace CSV"),
    "--body-base": dict(type=int, help="base stage n for the body report"),
    "--body-depth": dict(type=int, help="depth r for the body report"),
    "--stage": dict(type=int,
                    help="stage to correlate (default: all feasible) or certify (default: 0)"),
    "--check-recursion": dict(action="store_true",
                              help="verify the stage recursion identity for all shifts"),
    "--from-stage": dict(type=int, help="first stage of the decay fit"),
    "--to-stage": dict(type=int, help="last stage of the decay fit"),
    "--statistic": dict(choices=["max", "median", "rms"], default="median"),
    "--base": dict(type=int, help="stage n of the diagnostic, or riesz base stage n0 (default: 0)"),
    "--diag-depth": dict(type=int, help="truncation depth N of the far-half diagnostic"),
    "--mode": dict(),
    "--last": dict(type=int, help="riesz: last stage factor (default: depth-1)"),
    "--grid-size": dict(type=int, default=2**14, help="circle grid size (power of two)"),
    "--line": dict(nargs=3, type=float, metavar=("A", "B", "POINTS"),
                   help="use a line grid on [A, B] with POINTS points"),
    "--check-oracle": dict(action="store_true",
                           help="riesz: compare against the direct word-spectrum oracle"),
    "--exp-n": dict(help="flat: comma list of term counts n"),
    "--eps": dict(type=float, default=0.1, help="flat: exponential parameter"),
    "--merit-stages": dict(help="merit: comma list of stages"),
    "--threads": dict(type=_int_from(1), default=1, help="worker pool size (>= 1)"),
    "--task": dict(),
    "--seeds": dict(type=int, help="number of seeds"),
    "--base-seed": dict(type=_int_from(0), default=0, help="first seed (>= 0)"),
    "--h": dict(type=int, help="jumps: fixed height h"),
    "--q-list": dict(help="jumps: comma list of q values"),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``icelab`` parser.  A subcommand takes --out, --force, --overwrite and the
    options of its ``_READS`` row and of the "OPTION VALUE" rows of each option named,
    each "--a|--b" clause as one mutually exclusive group."""
    parser = argparse.ArgumentParser(
        prog="icelab",
        description="Rotated-word hierarchies: geometry, dynamics, correlations, spectra, rank.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    values = {}  # option -> the values of its "OPTION VALUE" rows
    for option, value in (key.split() for key in _READS if key.startswith("--")):
        values.setdefault(option, []).append(value)
    groups = {}  # option -> the options of its "--a|--b" clause
    for clause in " ".join(_READS.values()).split():
        leads = [alt.split("+")[0] for alt in clause.rstrip("!").split("|")]
        groups.update(dict.fromkeys(leads, leads) if len(leads) > 1 else {})
    # One action per option, shared by the subcommands that take it as parents= shares
    # them; made in an argument group, which skips the formatter check a parser runs.
    options, actions = argparse.ArgumentParser(add_help=False).add_argument_group(), {}
    for option, keywords in _OPTIONS.items():
        choices = {"choices": values[option]} if option in values else {}
        actions[option] = options.add_argument(option, **keywords, **choices)
    for name, (_, help_text) in _COMMANDS.items():
        # No abbreviations: "--h" is jumps' height, not a prefix of --help.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        rows = ["--out --force --overwrite", _READS[name]]
        for row in rows:
            for option in re.findall(r"--[a-z-]+", row):
                if option not in p._option_string_actions:  # else added, maybe with its group
                    group = p.add_mutually_exclusive_group() if option in groups else p
                    for each in groups.get(option, [option]):
                        group._add_action(actions[each])
                        rows += [_READS[f"{each} {value}"] for value in values.get(each, [])]
    return parser


def _parse_run(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """Parse ``argv``; exit 2 with a usage error unless the run has every option its
    ``_READS`` rows need and reads every option given, even at its default value."""
    args = parser.parse_args(argv)
    sub = next(a.choices for a in parser._actions if a.choices)[args.command]
    dests = {a.option_strings[-1]: a.dest for a in sub._actions if a.dest != argparse.SUPPRESS}
    unset = object()  # argparse sets no default over an attribute that exists
    seen = sub.parse_args(argv[1:], argparse.Namespace(**dict.fromkeys(dests.values(), unset)))
    given = {opt for opt, dest in dests.items() if getattr(seen, dest) is not unset}
    reads, keys = {"--out", "--force", "--overwrite"}, [args.command]
    for key in keys:
        for clause in _READS[key].split():
            alternatives = [alt.split("+") for alt in clause.rstrip("!").split("|")]
            chosen = [alt for alt in alternatives if alt[0] in given]
            if clause.endswith("!") and not chosen:
                sub.error(f"{key} needs {' or '.join(alt[0] for alt in alternatives)}")
            reads.update(alt[0] for alt in alternatives)
            for lead, *rest in chosen:
                reads.update(rest)
                for opt in set(rest) - given:
                    sub.error(f"{lead} needs {opt}")
                row = f"{lead} {getattr(args, dests[lead])}"
                keys += [row] if row in _READS else []
    if given - reads:
        sub.error(f"{' '.join(keys)} does not read {', '.join(sorted(given - reads))}")
    return args


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_build(out_dir: Path, args) -> tuple[str | None, str | None]:
    sch = _schedule_from_args(args)
    depth = args.depth if args.depth is not None else sch.depth
    sh = words_mod.schedule_hash(sch)
    rows = []
    for n, word in enumerate(words_mod.tower(sch, depth, force=args.force)):
        rows.append((sh, n, word.h, word.text))
        if n == max(depth - 1, 0):
            below = word  # the coding reads W_N through the last stage from W_{N-1}
    _write_csv(out_dir / "words.csv", ["schedule_hash", "stage", "h", "word"], rows)
    words_mod.save_schedule(sch, out_dir / "schedule.json")

    wants_coding = any(
        v is not None for v in (args.coding_start, args.coding_length, args.coding_level)
    )
    if wants_coding or args.jump_trace:
        pc = dyn.ProjectionChain.build(sch, depth, force=args.force)
        if wants_coding:
            start = args.coding_start or 0
            length = args.coding_length if args.coding_length is not None else pc.heights[depth]
            level = args.coding_level if args.coding_level is not None else 0
            coding = dyn.orbit_coding(pc, below, start, length, level)
            (out_dir / "coding.txt").write_text(coding.text + "\n", encoding="utf-8")
        del word, rows, below  # the jump trace reads no word
        if args.jump_trace:
            reg = dyn.regular_indices(pc)
            pos = np.flatnonzero(reg > 0)
            _write_csv(out_dir / "jumps.csv", ["schedule_hash", "position", "regular_index"],
                       _Columns(sh, pos, reg[pos]))
    return sh, f"built {depth + 1} stages, h_N = {sch.heights()[depth]}"


def _cmd_geometry(out_dir: Path, args) -> tuple[str | None, str | None]:
    sch = _schedule_from_args(args)
    sh = words_mod.schedule_hash(sch)
    report = None
    if args.body_base is not None and args.body_depth is not None:
        report = ice.body_report(sch, args.body_base, args.body_depth, force=args.force)
    icebergs, summary = [], {}
    for n in range(sch.depth):
        ib = ice.from_stage(sch, n, allow_spacers=True)
        icebergs.append(ib)
        jm = ice.jump_matrix(sch.stages[n], ib.h)
        summary[str(n)] = {
            "h": ib.h,
            "q": ib.q,
            "cyclic": ib.cyclic,
            "uniformity_deviation": ice.uniformity_deviation(ib),
            "jump_uniformity_deviation": ice.jump_uniformity_deviation(jm),
        }
    sizes = [ib.cuts.size for ib in icebergs]
    empty = [np.empty(0, dtype=np.int64)]  # a depth-0 schedule has no stage to join
    _write_csv(out_dir / "columns.csv",
               ["schedule_hash", "stage", "cut_value", "count", "weight"],
               _Columns(sh, np.repeat(np.arange(sch.depth), sizes),
                        np.concatenate(empty + [ib.cuts for ib in icebergs]),
                        np.concatenate(empty + [ib.counts for ib in icebergs]),
                        np.concatenate(empty + [ib.counts / ib.q for ib in icebergs])))
    payload: dict = {"schedule_hash": sh, "stages": summary}
    if report is not None:
        payload["body"] = {
            "n": report.n,
            "r": report.r,
            "total_copies": report.total_copies,
            "intact_copies": report.intact_copies,
            "lower_bound": report.lower_bound,
            "exact_fraction": report.exact_fraction,
        }
    _write_json(out_dir / "geometry.json", payload)
    return sh, None


def _cmd_correlate(out_dir: Path, args) -> tuple[str | None, str | None]:
    sch = _schedule_from_args(args)
    labels = _parse_labels(args.labels)
    sh = words_mod.schedule_hash(sch)
    heights = sch.heights()
    if args.stage is not None:
        stages = [args.stage]
    else:
        stages = [n for n in range(sch.depth + 1) if heights[n] <= MAX_SYMBOLS or args.force]
    top = max(stages)
    if args.check_recursion:
        checked = [n for n in range(min(top, sch.depth)) if sch.stages[n].pure]
        # Each lag s * h_n (s = 1 .. q_n - 1) is one dot product over W_{n+1}.
        refuse_above("terms of the recursion check",
                     sum((sch.stages[n].q - 1) * heights[n + 1] for n in checked),
                     MAX_DENSE_TERMS, args.force)
    reads = set(stages).union(*((n, n + 1) for n in checked)) if args.check_recursion else stages
    built = {n: w for n, w in enumerate(words_mod.tower(sch, top, force=args.force)) if n in reads}
    # A list of its own for each lift, so built keeps the word for the recursion check.
    transform = lambda n: corr._lifted_series(labels, [built[n]], 0, args.zero_mean)
    v = np.concatenate([transform(n) for n in stages])
    corr._refuse_overflow("the correlation series", v)
    sizes = [heights[n] for n in stages]
    # Real labels lift to a real function, whose autocorrelation is real: its
    # im is exactly +0.0, whatever round-off the transform leaves there.
    real = all(value.imag == 0 for value in labels.values())
    _write_csv(out_dir / "correlation.csv", ["schedule_hash", "stage", "t", "re", "im"],
               _Columns(sh, stages[0] if len(stages) == 1 else np.repeat(stages, sizes),
                        np.concatenate([np.arange(k) for k in sizes]), v.real,
                        0.0 if real else v.imag))

    summary = None
    if args.check_recursion:
        res_rows, worst = [], 0.0
        # A stage that was written is read back from v, not transformed again.
        written = dict(zip(stages, np.split(v, np.cumsum(sizes)[:-1])))
        for n in checked:
            st = sch.stages[n]
            series = corr.CorrelationSeries(
                n=n, values=written[n] if n in written else transform(n))
            f_hi = corr.lift(labels, built[n + 1], n + 1, zero_mean=args.zero_mean)
            shifts = list(range(1, st.q))
            lhs = corr.correlation_at_lags(f_hi, lags=[s * heights[n] for s in shifts])
            for s, left in zip(shifts, lhs):
                right = corr.recursion_rhs(series, st, s)
                residual = float(abs(left - right))
                worst = max(worst, residual)
                res_rows.append((sh, n, s, residual))
        _write_csv(out_dir / "recursion.csv",
                   ["schedule_hash", "stage", "s", "residual"], res_rows)
        summary = f"recursion residual <= {worst:.3e}"
    return sh, summary


def _cmd_decay(out_dir: Path, args) -> tuple[str | None, str | None]:
    sch = _schedule_from_args(args)
    labels = _parse_labels(args.labels)
    sh = words_mod.schedule_hash(sch)
    profile = corr.decay_profile(
        sch, labels, args.from_stage, args.to_stage, statistic=args.statistic, force=args.force
    )
    rows = [
        (sh, s.n, s.h, s.max, s.median, s.rms, s.variance) for s in profile.stages
    ]
    _write_csv(out_dir / "decay.csv",
               ["schedule_hash", "stage", "h", "max", "median", "rms", "variance"], rows)
    _write_json(out_dir / "decay.json", {
        "schedule_hash": sh,
        "slope": profile.slope,
        "statistic": profile.statistic,
        "variance_ratios": list(profile.variance_ratios),
        "predicted_ratios": list(profile.predicted_ratios),
    })
    return sh, f"decay slope {profile.slope:+.4f} ({profile.statistic})"


def _cmd_simplicity(out_dir: Path, args) -> tuple[str | None, str | None]:
    sch = _schedule_from_args(args)
    labels = _parse_labels(args.labels)
    sh = words_mod.schedule_hash(sch)
    rep = corr.simplicity_diagnostic(sch, labels, args.base, args.diag_depth, force=args.force)
    payload = {
        "schedule_hash": sh,
        "n": rep.n,
        "depth": rep.depth,
        "h_n": rep.h_n,
        "h_N": rep.h_N,
        "f2": rep.f2,
        "g2": rep.g2,
        "fg_diff2": rep.fg_diff2,
        "u2": rep.u2,
        "v2": rep.v2,
        "uv": [rep.uv.real, rep.uv.imag],
        "fv": [rep.fv.real, rep.fv.imag],
        "ratios": {
            "fg": rep.fg_ratio,
            "g": rep.g_ratio,
            "uv": rep.uv_ratio,
            "fv": rep.fv_ratio,
            "uv_norm_gap": rep.uv_norm_gap,
        },
    }
    _write_json(out_dir / "simplicity.json", payload)
    _write_csv(out_dir / "simplicity.csv",
               ["schedule_hash", "n", "depth", "f2", "g2", "fg_diff2", "u2", "v2",
                "abs_uv", "abs_fv"],
               [(sh, rep.n, rep.depth, rep.f2, rep.g2, rep.fg_diff2, rep.u2, rep.v2,
                 abs(rep.uv), abs(rep.fv))])
    return sh, (
        f"|f-g|^2/|f|^2 = {rep.fg_ratio:.4f}, |g|^2/|f|^2 = {rep.g_ratio:.4f}, "
        f"norm gap = {rep.uv_norm_gap:.3e}"
    )


def _grid_from_args(args, force: bool) -> spx.Grid:
    if args.line:
        a, b, m = args.line
        if not m.is_integer():
            raise ConfigurationError(f"--line POINTS {m!r} is not an integer")
        m = int(m)
        refuse_above("grid points", m, MAX_GRID_POINTS, force)
        return spx.LineGrid(a, b, m)
    refuse_above("grid points", args.grid_size, MAX_GRID_POINTS, force)
    return spx.CircleGrid(args.grid_size)


def _cmd_spectrum(out_dir: Path, args) -> tuple[str | None, str | None]:
    if args.mode == "flat":
        counts = _counts("--exp-n", args.exp_n, args.force)
        grid = _grid_from_args(args, args.force) if args.line else spx.LineGrid(1.0, 2.0, 10001)
        rows = []
        for n in counts:
            fs = spx.exp_frequency_set(n, args.eps)
            pg = spx.eval_polynomial(fs, grid, "M_R", force=args.force)
            metrics = spx.flatness_metrics(pg)
            rows.append(("", n, args.eps, metrics.sup_deviation, metrics.mean_deviation,
                         metrics.rms_square_deviation))
        _write_csv(out_dir / "flat.csv",
                   ["schedule_hash", "n", "eps", "sup_dev", "mean_dev", "rms_sq_dev"], rows)
        return None, f"flatness sup deviations: {[r[3] for r in rows]}"

    sch = _schedule_from_args(args)
    sh = words_mod.schedule_hash(sch)
    if args.mode == "merit":
        labels = _parse_labels(args.labels)
        stages = (
            _int_list("--merit-stages", args.merit_stages)
            if args.merit_stages
            else list(range(sch.depth + 1))
        )
        outside = [n for n in stages if not 0 <= n <= sch.depth]
        if outside:
            raise ConfigurationError(f"--merit-stages {outside} outside [0, {sch.depth}]")
        scores, words = {}, words_mod.tower(sch, max(stages), force=args.force)
        for n in range(max(stages) + 1):
            word = next(words)  # enumerate's reused result pair would keep W_n alive
            if n in stages:
                values = corr.lift(labels, word, n).values
                if n == max(stages):
                    del word, words  # the tower holds its last word too
                if np.any(np.abs(values.imag) > 0):
                    raise ConfigurationError("merit mode needs real +-1 labels")
                signs = values.real.copy()
                del values  # only the float64 signs are alive while merit_factor transforms
                scores[n] = (signs.size, spx.merit_factor(signs))
        _write_csv(out_dir / "merit.csv", ["schedule_hash", "stage", "h", "merit_factor"],
                   [(sh, n, *scores[n]) for n in stages])
        return sh, None

    # riesz mode
    labels = _parse_labels(args.labels)
    grid = _grid_from_args(args, args.force)
    base = args.base if args.base is not None else 0
    last = args.last if args.last is not None else sch.depth - 1
    spx.check_riesz_stages(sch, base, last)
    direct = None
    if args.check_oracle:
        # The oracle builds the deeper word: its size guard must refuse before any work.
        direct = spx.direct_word_spectrum(
            sch, labels, last + 1, grid, base, zero_mean=args.zero_mean, force=args.force
        )
    product = spx.riesz_partial_product(
        sch, labels, base, last, grid, zero_mean=args.zero_mean, force=args.force
    )
    axis = grid.angles() if isinstance(grid, spx.CircleGrid) else grid.points()
    _write_csv(out_dir / "spectrum.csv",
               ["schedule_hash", "index", "point", "abs_p", "product", "weight"],
               _Columns(sh, np.arange(axis.size), axis,
                        np.sqrt(product.values), product.values, product.weight))
    payload: dict = {
        "schedule_hash": sh,
        "n0": product.n0,
        "last": product.last,
        "masses": list(product.masses),
    }
    summary = None
    if direct is not None:
        mp = product.values / max(product.values.mean(), 1e-300)
        md = direct / max(direct.mean(), 1e-300)
        l1 = float(np.mean(np.abs(mp - md)))
        payload["oracle_l1"] = l1
        summary = f"riesz oracle L1 distance = {l1:.3e}"
    _write_json(out_dir / "spectrum.json", payload)
    return sh, summary


def _cmd_rank(out_dir: Path, args) -> tuple[str | None, str | None]:
    sch = _schedule_from_args(args)
    sh = words_mod.schedule_hash(sch)
    stage = args.stage if args.stage is not None else 0
    ib = ice.from_stage(sch, stage)
    cert = rank_mod.best_subtower_rectangle(ib)
    payload = cert.to_dict()
    payload["schedule_hash"] = sh
    payload["stage"] = stage
    payload["h"] = cert.h
    payload["multiplicity_bound"] = rank_mod.multiplicity_bound(cert.area)
    if sch.family_tag == "morse":
        r = sch.stages[stage].q
        beta = rank_mod.beta_morse(r)
        payload["beta_morse"] = float(beta)
        payload["beta_gap"] = abs(float(cert.area) - float(beta))
    _write_json(out_dir / "rank.json", payload)
    _write_csv(out_dir / "rank.csv",
               ["schedule_hash", "stage", "h", "cut_lo", "cut_hi", "level_lo", "level_hi",
                "weight", "area"],
               [(sh, stage, cert.h, cert.cut_lo, cert.cut_hi, cert.level_lo,
                 cert.level_hi, float(cert.weight), float(cert.area))])
    return sh, f"rectangle area {float(cert.area):.6f}"


def _pool_size(args) -> int:
    """Workers of the ensemble's pool, and so its concurrent tasks: at most
    ``--threads``, the seeds and the usable CPUs."""
    return min(args.threads, args.seeds, _usable_cpus())


def _price_fan_out(args, positions: int, what: str) -> None:
    """Refuse, before any draw, ``_pool_size`` tasks of ``positions`` each
    running at once above ``MAX_SYMBOLS``."""
    tasks = _pool_size(args)
    refuse_above(f"{what} x {tasks} concurrent tasks", tasks * positions, MAX_SYMBOLS, args.force)


def _fan_out(task, seeds: list[int], args) -> list:
    """``task(seed)`` for every seed on a pool of ``_pool_size`` workers, in seed order."""
    with ThreadPoolExecutor(max_workers=_pool_size(args)) as pool:
        return list(pool.map(task, seeds))


def _cmd_ensemble(out_dir: Path, args) -> tuple[str | None, str | None]:
    seeds = [args.base_seed + i for i in range(_count("--seeds", args.seeds, args.force))]

    if args.task == "jumps":
        words_mod.check_draw_height("jumps task --h", args.h)
        qs = _counts("--q-list", args.q_list, args.force)
        _price_fan_out(args, max(qs), "largest --q-list entry")

        def run_jump(seed: int) -> list[tuple]:
            out = []
            for idx, q in enumerate(qs):
                rng = np.random.default_rng([seed, idx])
                st = words_mod.Stage(q=q, rotations=rng.integers(0, args.h, q))
                dev = ice.jump_uniformity_deviation(ice.jump_matrix(st, args.h))
                out.append((seed, "", q, dev))
            return out

        rows = [row for chunk in _fan_out(run_jump, seeds, args) for row in chunk]
        _write_csv(out_dir / "ensemble.csv",
                   ["seed", "schedule_hash", "q", "jump_deviation"], rows)
        medians = {
            str(q): float(np.median([r[3] for r in rows if r[2] == q])) for q in qs
        }
        _write_json(out_dir / "ensemble.json",
                    {"task": "jumps", "h": args.h, "medians": medians})
        return None, f"jump deviation medians: {medians}"

    if args.task == "decay":
        labels = _parse_labels(args.labels)
        qs = _parse_qs(args)
        seed_word = _seed_word_from_args(args, "01", None)
        _price_fan_out(args, seed_word.h * math.prod(qs[:args.to_stage]),
                       f"h_{args.to_stage} (word symbols)")

        def run_decay(seed: int) -> tuple:
            sch = words_mod.random_schedule(qs, seed, seed_word)
            profile = corr.decay_profile(
                sch, labels, args.from_stage, args.to_stage, force=args.force
            )
            return (seed, words_mod.schedule_hash(sch), profile.slope)

        results = _fan_out(run_decay, seeds, args)
        _write_csv(out_dir / "ensemble.csv",
                   ["seed", "schedule_hash", "slope"], results)
        median_slope = float(np.median([r[2] for r in results]))
        _write_json(out_dir / "ensemble.json",
                    {"task": "decay", "median_slope": median_slope})
        return None, f"median decay slope {median_slope:+.4f}"

    # simplicity task
    labels = _parse_labels(args.labels)
    qs = _parse_qs(args)
    seed_word = _seed_word_from_args(args, "012", None)
    _price_fan_out(args, seed_word.h * math.prod(qs[:args.diag_depth]),
                   f"h_{args.diag_depth} (positions of the far-half sums)")

    def run_simplicity(seed: int) -> tuple:
        sch = words_mod.random_schedule(qs, seed, seed_word)
        rep = corr.simplicity_diagnostic(sch, labels, args.base, args.diag_depth, force=args.force)
        return (seed, words_mod.schedule_hash(sch), rep.fg_ratio, rep.g_ratio,
                rep.uv_ratio, rep.fv_ratio, rep.uv_norm_gap)

    results = _fan_out(run_simplicity, seeds, args)
    _write_csv(out_dir / "ensemble.csv",
               ["seed", "schedule_hash", "fg_ratio", "g_ratio", "uv_ratio", "fv_ratio",
                "uv_norm_gap"], results)
    _write_json(out_dir / "ensemble.json", {
        "task": "simplicity",
        "median_fg_ratio": float(np.median([r[2] for r in results])),
        "median_norm_gap": float(np.median([r[6] for r in results])),
    })
    return None, None


# Each command writes into the staging directory it is given, reads its options
# (--force, --threads, ...) from the parsed arguments, and returns its schedule
# hash (for the manifest) and its summary line; run() prints the line only once
# the outputs are published.  Beside each command is its subcommand's help.
_COMMANDS = {
    "build": (_cmd_build, "materialise words; optional codings and jump traces"),
    "geometry": (_cmd_geometry, "iceberg histograms, uniformity, jumps, body reports"),
    "correlate": (_cmd_correlate, "correlation series and the stage recursion check"),
    "decay": (_cmd_decay, "correlation decay profile across stages"),
    "simplicity": (_cmd_simplicity, "far-half diagnostic report"),
    "spectrum": (_cmd_spectrum, "Riesz products, flatness metrics, merit factors"),
    "rank": (_cmd_rank, "rectangle certificate of a stage iceberg"),
    "ensemble": (_cmd_ensemble, "seed fan-out for decay, jumps, or simplicity"),
}


def run(argv: Sequence[str]) -> int:
    """Parse and execute one command; returns the exit code (0/2/3)."""
    parser = build_parser()
    try:
        args = _parse_run(parser, list(argv))
    except SystemExit as exc:  # argparse reports usage problems with code 2
        return int(exc.code or 0)
    out_dir = Path(args.out or os.environ.get(OUTPUT_DIR_ENV) or "./icelab-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    try:
        schedule_hash, summary = _COMMANDS[args.command][0](staging, args)
        _publish(staging, out_dir, args.overwrite)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    _write_manifest(out_dir, args.command, argv, schedule_hash)
    if summary is not None:
        print(summary)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
