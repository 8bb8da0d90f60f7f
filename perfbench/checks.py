"""Output checks for the benchmark's commands.

Each check reads one command's output directory, recomputes what it can by a
route independent of the one the command took (direct correlation instead of
FFT, arithmetic projection instead of tables, integer sums instead of
``Fraction`` loops, a row-blocked sweep, an FFT autocorrelation) and returns
the list of problems found; an empty list means the outputs are correct.
The checks run after the timed passes, on the first pass's outputs; later
passes are compared with it by payload hash.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import icelab as il
from workloads import QUAD_SEED, QUARTER_LABELS


def _labels(text: str) -> dict[str, complex]:
    """Label map in the CLI's ``SYMBOL=VALUE,...`` syntax."""
    return {sym: complex(val) for sym, _, val in (item.partition("=") for item in text.split(","))}


QUARTER = _labels(QUARTER_LABELS)
SIGNS = _labels("0=1,1=-1")

RECURSION_TOL = 1e-12  # the bound the CLI tests use for --check-recursion
LAG_TOL = 1e-10        # FFT series against direct inner products
ORACLE_L1_TOL = 0.02   # Riesz product against the direct word spectrum
IDENTITY_RTOL = 1e-9   # |f-g|^2 = |u|^2 + |v|^2 - 2 Re<u,v>
DIRECT_RTOL = 1e-9     # decay statistics, FFT against the direct O(h^2) route


def _word(text: str, symbols: str, spacer: str | None = None) -> il.Word:
    return il.word_from_text(il.Alphabet(tuple(symbols), spacer), text)


def _lines(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    if not text.endswith("\n"):
        raise ValueError(f"{path.name} does not end with a newline")
    return text[:-1].split("\n")


def _rows(path: Path, header: str) -> list[list[str]]:
    lines = _lines(path)
    if lines[0] != header:
        raise ValueError(f"{path.name} header {lines[0]!r} != {header!r}")
    return [line.split(",") for line in lines[1:]]


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), atol)


def _text(schedule: il.Schedule, letters: np.ndarray) -> str:
    return "".join(schedule.alphabet.symbols[i] for i in letters.tolist())


def _csv_text(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# table-output
# ---------------------------------------------------------------------------


def correlate(out: Path, seed: int) -> list[str]:
    sch = il.random_schedule([16, 16, 16, 32], seed, _word("01", "01"))
    sh, top = il.schedule_hash(sch), 4
    heights = sch.heights()
    h = heights[top]
    problems = []

    rows = _rows(out / "correlation.csv", "schedule_hash,stage,t,re,im")
    if len(rows) != h:
        return [f"correlation.csv has {len(rows)} rows, expected {h}"]
    f = il.lift(SIGNS, il.build_word(sch, top)[top], top)
    lags = sorted({0, h - 1, *random.Random(seed).sample(range(h), 16)})
    direct = il.correlation_at_lags(f, lags=lags)
    for t, expected in zip(lags, direct):
        row_sh, n, lag, re, im = rows[t]
        if (row_sh, n, lag) != (sh, str(top), str(t)):
            problems.append(f"correlation.csv row {t} is labelled {(row_sh, n, lag)}")
        elif abs(complex(float(re), float(im)) - expected) > LAG_TOL:
            problems.append(f"C({t}) = {re}+{im}j differs from the direct lag {expected}")

    rows = _rows(out / "recursion.csv", "schedule_hash,stage,s,residual")
    expected_keys = [(sh, str(n), str(s)) for n in range(top) for s in range(1, sch.stages[n].q)]
    if [tuple(r[:3]) for r in rows] != expected_keys:
        problems.append("recursion.csv rows do not cover every (stage, shift) pair")
    worst = max((float(r[3]) for r in rows), default=0.0)
    if worst > RECURSION_TOL:
        problems.append(f"recursion residual {worst:.3e} > {RECURSION_TOL}")
    return problems


def riesz(out: Path, qs: tuple[int, ...], grid_size: int, seed: int) -> list[str]:
    sch = il.rank_one_schedule("staircase", qs, seed_word=_word("0", "01", "1"))
    sh = il.schedule_hash(sch)
    problems = []

    doc = _json(out / "spectrum.json")
    if doc["schedule_hash"] != sh or doc["n0"] != 0 or doc["last"] != sch.depth - 1:
        problems.append("spectrum.json does not describe the requested schedule")
    if len(doc["masses"]) != sch.depth + 1:
        problems.append(f"spectrum.json has {len(doc['masses'])} masses, expected {sch.depth + 1}")
    if not doc.get("oracle_l1", float("inf")) <= ORACLE_L1_TOL:
        problems.append(f"oracle_l1 {doc.get('oracle_l1')} > {ORACLE_L1_TOL}")

    rows = _rows(out / "spectrum.csv", "schedule_hash,index,point,abs_p,product,weight")
    if len(rows) != grid_size:
        return problems + [f"spectrum.csv has {len(rows)} rows, expected {grid_size}"]
    angles = 2.0 * np.pi * np.arange(grid_size) / grid_size
    for i in sorted({0, grid_size - 1, *random.Random(seed).sample(range(grid_size), 8)}):
        row_sh, index, point, abs_p, product, weight = rows[i]
        if (row_sh, index) != (sh, str(i)) or float(point) != float(angles[i]):
            problems.append(f"spectrum.csv row {i} is labelled {(row_sh, index, point)}")
        elif float(abs_p) != float(np.sqrt(float(product))) or float(weight) < 0:
            problems.append(f"spectrum.csv row {i}: abs_p is not sqrt(product)")
    product = np.array([float(r[4]) for r in rows])
    weight = np.array([float(r[5]) for r in rows])
    if not (_close(weight.mean(), doc["masses"][0], 1e-9)
            and _close(product.mean(), doc["masses"][-1], 1e-9)):
        problems.append("spectrum.csv grid means differ from the masses in spectrum.json")
    return problems


def build(out: Path, depth: int, start: int, length: int) -> list[str]:
    sch = il.morse_schedule(2, depth, _word("01", "01"))
    sh = il.schedule_hash(sch)
    heights = sch.heights()
    h_N = heights[depth]
    problems = []

    if (out / "schedule.json").read_text(encoding="utf-8") != il.schedule_to_json(sch) + "\n":
        problems.append("schedule.json differs from the canonical schedule JSON")
    words = [(sh, n, heights[n], _text(sch, il.symbols_range(sch, n, 0, heights[n])))
             for n in range(depth + 1)]
    if (out / "words.csv").read_text(encoding="utf-8") != _csv_text(
            "schedule_hash,stage,h,word", words):
        problems.append("words.csv differs from the words read through symbols_range")

    # Jump trace through the arithmetic projection instead of the chain tables.
    coords = np.arange(h_N, dtype=np.int64)
    regular = np.full(h_N, depth, dtype=np.int64)
    for n in range(depth - 1, -1, -1):
        coords = il.project_positions(sch, coords, n + 1, n)
        plain = np.roll(coords, -1) == (coords + 1) % heights[n]  # morse has no spacer marks
        regular[plain] = n
    jumps = np.nonzero(regular > 0)[0]
    expected = _csv_text("schedule_hash,position,regular_index",
                         zip([sh] * jumps.size, jumps.tolist(), regular[jumps].tolist()))
    if (out / "jumps.csv").read_text(encoding="utf-8") != expected:
        problems.append("jumps.csv differs from the jump trace recomputed by project_positions")

    stop = start + length
    letters = il.symbols_range(sch, depth, start, min(stop, h_N))
    if stop > h_N:
        letters = np.concatenate([letters, il.symbols_range(sch, depth, 0, stop - h_N)])
    if (out / "coding.txt").read_text(encoding="utf-8") != _text(sch, letters) + "\n":
        problems.append("coding.txt differs from symbols_range along the orbit")
    return problems


# ---------------------------------------------------------------------------
# deep-tower
# ---------------------------------------------------------------------------


def simplicity(out: Path, seed: int) -> list[str]:
    sch = il.random_schedule([9, 729, 16, 27], seed, _word("012", "012"))
    heights = sch.heights()
    doc = _json(out / "simplicity.json")
    problems = []
    expected = (il.schedule_hash(sch), 1, 4, heights[1], heights[4])
    if (doc["schedule_hash"], doc["n"], doc["depth"], doc["h_n"], doc["h_N"]) != expected:
        problems.append("simplicity.json does not describe the requested diagnostic")
    problems += _simplicity_identity(doc["fg_diff2"], doc["u2"], doc["v2"], doc["uv"][0])
    f2, uv, fv = doc["f2"], complex(*doc["uv"]), complex(*doc["fv"])
    gap = 0.0 if doc["u2"] == doc["v2"] == 0.0 else (
        abs(doc["u2"] - doc["v2"]) / max(doc["u2"], doc["v2"]))
    ratios = {"fg": doc["fg_diff2"] / f2, "g": doc["g2"] / f2, "uv": abs(uv) / f2,
              "fv": abs(fv) / f2, "uv_norm_gap": gap}
    if doc["ratios"] != ratios:
        problems.append(f"simplicity ratios {doc['ratios']} != {ratios}")
    rows = _rows(out / "simplicity.csv",
                 "schedule_hash,n,depth,f2,g2,fg_diff2,u2,v2,abs_uv,abs_fv")
    values = [doc[k] for k in ("f2", "g2", "fg_diff2", "u2", "v2")] + [abs(uv), abs(fv)]
    if rows != [[doc["schedule_hash"], "1", "4", *map(repr, values)]]:
        problems.append("simplicity.csv differs from simplicity.json")
    return problems


def _simplicity_identity(fg_diff2: float, u2: float, v2: float, uv_re: float) -> list[str]:
    rhs = u2 + v2 - 2.0 * uv_re
    if not _close(fg_diff2, rhs, IDENTITY_RTOL, 1e-300):
        return [f"|f-g|^2 = {fg_diff2} but |u|^2 + |v|^2 - 2Re<u,v> = {rhs}"]
    return []


def _window_stats(series: np.ndarray) -> tuple[float, float, float, float]:
    h = series.size
    sel = np.abs(series[int(h * 0.25): int(h * 0.75) + 1])
    return (float(sel.max()), float(np.median(sel)), float(np.sqrt(np.mean(sel**2))),
            float(np.mean(sel**2)))


def decay(out: Path, seed: int) -> list[str]:
    qs = [256, 256, 8]
    sch = il.random_schedule(qs, seed, _word(QUAD_SEED, "0123"))
    sh, heights = il.schedule_hash(sch), sch.heights()
    problems = []
    rows = _rows(out / "decay.csv", "schedule_hash,stage,h,max,median,rms,variance")
    if [tuple(r[:3]) for r in rows] != [(sh, str(n), str(heights[n])) for n in range(4)]:
        return ["decay.csv rows do not cover stages 0..3 of the requested schedule"]
    stats = [tuple(float(v) for v in r[3:]) for r in rows]

    f = il.lift(QUARTER, il.build_word(sch, 1)[1], 1, zero_mean=True)
    direct = _window_stats(il.cyclic_correlation(f, method="direct").values)
    if not all(_close(a, b, DIRECT_RTOL, 1e-12) for a, b in zip(stats[1], direct)):
        problems.append(f"stage-1 decay row {stats[1]} != direct correlation {direct}")

    doc = _json(out / "decay.json")
    medians = np.log([s[1] for s in stats])
    slope = float(np.polyfit(np.log(heights[:4]), medians, 1)[0])
    ratios = [stats[k + 1][3] / stats[k][3] for k in range(3)]
    if doc["schedule_hash"] != sh or doc["statistic"] != "median":
        problems.append("decay.json does not describe the requested profile")
    if not _close(doc["slope"], slope, 1e-9) or doc["variance_ratios"] != ratios:
        problems.append("decay.json slope or variance ratios differ from decay.csv")
    if doc["predicted_ratios"] != [2.0 / q for q in qs]:
        problems.append("decay.json predicted ratios are not 2/q")
    return problems


def ensemble_decay(out: Path, base_seed: int, seeds: int) -> list[str]:
    seed_word = _word(QUAD_SEED, "0123")
    rows = _rows(out / "ensemble.csv", "seed,schedule_hash,slope")
    if [r[0] for r in rows] != [str(base_seed + i) for i in range(seeds)]:
        return ["ensemble.csv rows are not the requested seeds in order"]
    problems = []
    for row in rows:
        sch = il.random_schedule([256, 256], int(row[0]), seed_word)
        if row[1] != il.schedule_hash(sch):
            problems.append(f"seed {row[0]}: schedule hash differs")
    row = rows[random.Random(base_seed).randrange(seeds)]
    sch = il.random_schedule([256, 256], int(row[0]), seed_word)
    slope = il.decay_profile(sch, QUARTER, 0, 2).slope
    if not _close(float(row[2]), slope, 1e-12):
        problems.append(f"seed {row[0]}: slope {row[2]} != in-process {slope!r}")
    median = float(np.median([float(r[2]) for r in rows]))
    if _json(out / "ensemble.json") != {"task": "decay", "median_slope": median}:
        problems.append("ensemble.json median differs from ensemble.csv")
    return problems


# ---------------------------------------------------------------------------
# exact-geometry
# ---------------------------------------------------------------------------


def jump_deviation_exact(rotations: np.ndarray, h: int) -> Fraction:
    """Jump uniformity deviation as one integer sum over the common denominator q*h."""
    q = rotations.size
    a = rotations % h
    cells, counts = np.unique(a * h + np.roll(a, -1), return_counts=True)
    source = cells // h
    row = np.bincount(source, weights=counts, minlength=h).astype(np.int64)
    width = np.bincount(source, minlength=h)
    used = row > 0
    num = int(np.abs(counts * h - row[source]).sum()) + int((row * (h - width))[used].sum())
    return Fraction(num, q * h)


def uniformity_exact(rotations: np.ndarray, h: int) -> Fraction:
    """Uniformity deviation as one integer sum over the common denominator q*h."""
    q = rotations.size
    _, counts = np.unique(rotations % h, return_counts=True)
    return Fraction(int(np.abs(counts * h - q).sum()) + (h - counts.size) * q, q * h)


def geometry(out: Path, seed: int) -> list[str]:
    sch = il.random_schedule([16, 200000], seed, _word(QUAD_SEED, "0123"))
    sh = il.schedule_hash(sch)
    problems, columns, stages = [], [], {}
    for n, st in enumerate(sch.stages):
        h = sch.height(n)
        rot = sch.rotations_mod(n)
        values, counts = np.unique(rot, return_counts=True)
        columns += [(sh, n, k, c, repr(c / st.q)) for k, c in zip(values.tolist(), counts.tolist())]
        stages[str(n)] = {
            "h": h, "q": st.q, "cyclic": True,
            "uniformity_deviation": float(uniformity_exact(rot, h)),
            "jump_uniformity_deviation": float(jump_deviation_exact(rot, h)),
        }
    if (out / "columns.csv").read_text(encoding="utf-8") != _csv_text(
            "schedule_hash,stage,cut_value,count,weight", columns):
        problems.append("columns.csv differs from the rotation histogram")
    if _json(out / "geometry.json") != {"schedule_hash": sh, "stages": stages}:
        problems.append("geometry.json deviations differ from the integer-sum route")
    return problems


def best_rectangle_blocked(ks: np.ndarray, cs: np.ndarray, h: int, block: int = 256):
    """Best (i, j) window by the exact integer score, row-blocked, first in row-major order."""
    m = ks.size
    prefix = np.concatenate(([0], np.cumsum(cs)))
    cols = np.arange(m)
    best, best_ij = -1, (0, 0)
    for i0 in range(0, m, block):
        rows = np.arange(i0, min(m, i0 + block))
        score = (prefix[None, 1:] - prefix[rows, None]) * (h - (ks[None, :] - ks[rows, None]))
        score[cols[None, :] < rows[:, None]] = -1
        flat = int(np.argmax(score))
        if score.flat[flat] > best:
            best, best_ij = int(score.flat[flat]), (i0 + flat // m, flat % m)
    i, j = best_ij
    return int(ks[i]), int(ks[j]), int(prefix[j + 1] - prefix[i])


def rank(out: Path, seed: int) -> list[str]:
    sch = il.random_schedule([8192], seed, _word("0123" * 2048, "0123"))
    sh, h, q = il.schedule_hash(sch), sch.height(0), sch.stages[0].q
    rot = sch.rotations_mod(0)
    ks, cs = np.unique(np.where(rot == 0, h, rot), return_counts=True)
    lo, hi, count = best_rectangle_blocked(ks, cs, h)
    weight, area = Fraction(count, q), Fraction(count * (h - (hi - lo)), q * h)
    doc = {
        "columns": [lo, hi], "levels": [hi - h, lo - 1], "area": float(area),
        "weight": float(weight), "schedule_hash": sh, "stage": 0, "h": h,
        "multiplicity_bound": int(1 / area),
    }
    problems = []
    if _json(out / "rank.json") != doc:
        problems.append(f"rank.json differs from the row-blocked sweep: expected {doc}")
    expected = _csv_text("schedule_hash,stage,h,cut_lo,cut_hi,level_lo,level_hi,weight,area",
                         [(sh, 0, h, lo, hi, hi - h, lo - 1, repr(float(weight)),
                           repr(float(area)))])
    if (out / "rank.csv").read_text(encoding="utf-8") != expected:
        problems.append("rank.csv differs from the row-blocked sweep")
    return problems


def merit(out: Path, depth: int) -> list[str]:
    sch = il.morse_schedule(2, depth, _word("01", "01"))
    n = sch.height(depth)
    signs = np.where(il.symbols_range(sch, depth, 0, n) == 0, 1.0, -1.0)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(signs, size)
    acf = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n]
    exact = np.rint(acf)
    if np.max(np.abs(acf - exact)) >= 0.25:
        return ["FFT autocorrelation is too far from integers to round safely"]
    tail = exact[1:].astype(np.int64)
    value = n * n / (2 * int(np.dot(tail, tail)))
    expected = _csv_text("schedule_hash,stage,h,merit_factor",
                         [(il.schedule_hash(sch), depth, n, repr(value))])
    if (out / "merit.csv").read_text(encoding="utf-8") != expected:
        return [f"merit.csv differs from the FFT autocorrelation value {value!r}"]
    return []
