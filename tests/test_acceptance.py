"""Numbered acceptance criteria, one test per criterion.

Each test drives the library end to end at a published tolerance.  The
terminal summary hook prints one PASS/FAIL line per criterion with its
accumulated runtime, so a plain ``pytest`` run doubles as the acceptance
report.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import icelab as il
from icelab import cli
from conftest import CAT_W1, CAT_W2, _reference_simplicity, intact_twin


def binary_word(rng, h: int) -> il.Word:
    text = "".join("01"[b] for b in rng.integers(0, 2, h))
    return il.word_from_text(il.BINARY, text)


PM1 = {"0": 1.0 + 0j, "1": -1.0 + 0j}


# ---------------------------------------------------------------------------
# 01 — worked-example words are reproduced byte for byte
# ---------------------------------------------------------------------------


def test_criterion_01(cat_words):
    assert [w.h for w in cat_words] == [3, 18, 54]
    assert cat_words[0].text == "CAT"
    assert cat_words[1].text == CAT_W1
    assert cat_words[2].text == CAT_W2


# ---------------------------------------------------------------------------
# 02 — binary doubling schedule reproduces the bit-count parity sequence
# ---------------------------------------------------------------------------


def test_criterion_02():
    sch = il.morse_schedule(2, 12, il.word_from_text(il.BINARY, "01"))
    top = il.build_word(sch)[-1]
    parity = "".join("01"[bin(i).count("1") & 1] for i in range(2**12))
    assert top.text[: 2**12] == parity


# ---------------------------------------------------------------------------
# 03 — stage correlation recursion, 50 random pure schedules, <= 1e-12
# ---------------------------------------------------------------------------


def test_criterion_03():
    rng = np.random.default_rng(20250819)
    worst = 0.0
    for _ in range(50):
        h0 = int(rng.integers(2, 65))
        while True:
            q0 = int(rng.integers(2, 257))
            q1 = int(rng.integers(2, 257))
            if q0 * q1 * h0 <= 120_000:
                break
        stages = []
        h = h0
        for q in (q0, q1):
            rots = tuple(int(a) for a in rng.integers(0, h, q))
            stages.append(il.Stage(q, rots))
            h *= q
        sch = il.Schedule(il.BINARY, binary_word(rng, h0), tuple(stages))
        built = il.build_word(sch)
        heights = sch.heights()
        for n, st in enumerate(sch.stages):
            f_lo = il.lift(PM1, built[n], n)
            series = il.cyclic_correlation(f_lo)
            f_hi = il.lift(PM1, built[n + 1], n + 1)
            shifts = list(range(1, st.q))
            lhs = il.correlation_at_lags(f_hi, lags=[s * heights[n] for s in shifts])
            for s, left in zip(shifts, lhs):
                worst = max(worst, abs(left - il.recursion_rhs(series, st, s)))
    assert worst <= 1e-12, f"worst recursion residual {worst:.3e}"


# ---------------------------------------------------------------------------
# 04 — correlation decay exponent about -1/2 across >= 20 seeds
# ---------------------------------------------------------------------------


def test_criterion_04():
    w0 = il.word_from_text(il.Alphabet(tuple("0123")), "0123" * 4)
    labels = {"0": 1 + 0j, "1": 1j, "2": -1 + 0j, "3": -1j}
    slopes = []
    for seed in range(20):
        sch = il.random_schedule([256, 256], seed, w0)
        profile = il.decay_profile(sch, labels, 0, 2, statistic="median")
        slopes.append(profile.slope)
    med = float(np.median(slopes))
    assert -0.65 <= med <= -0.35, f"median decay slope {med:+.4f}"


# ---------------------------------------------------------------------------
# 05 — far-half simplicity diagnostic at two heights
# ---------------------------------------------------------------------------


def test_criterion_05(trit_labels, trit_word):
    cases = [([9, 729, 16], seed) for seed in (0, 1, 2)]
    cases += [([27, 6561, 4], seed) for seed in (0, 1)]
    problems = []
    balance = []  # per case: measured, predicted and intact-twin norm gaps
    balanced = True
    for qs, seed in cases:
        sch = il.random_schedule(qs, seed, trit_word)
        rep = il.simplicity_diagnostic(sch, trit_labels, 1, 3)
        tag = f"h={rep.h_n} seed={seed}"
        if not 0.4 <= rep.fg_ratio <= 0.6:
            problems.append(f"{tag}: |f-g|^2/|f|^2 = {rep.fg_ratio:.4f} outside [0.4, 0.6]")
        if not 0.85 <= rep.g_ratio <= 1.15:
            problems.append(f"{tag}: |g|^2/|f|^2 = {rep.g_ratio:.4f} outside [0.85, 1.15]")
        if rep.uv_ratio > 0.05:
            problems.append(f"{tag}: |<u,v>|/|f|^2 = {rep.uv_ratio:.4f} > 0.05")
        if rep.fv_ratio > 0.05:
            problems.append(f"{tag}: |<f,v>|/|f|^2 = {rep.fv_ratio:.4f} > 0.05")
        # The far halves balance to 1e-6 up to the exact gap that the copies
        # severed by stage-2 rotations leave, and balance outright when no
        # copy is severed.  The diagnostic carries its sums up by the stage
        # step that the prediction runs, so the halves are measured over
        # every position of W_3 by the materialised reference.
        *_, u2, v2, _, _ = _reference_simplicity(sch, trit_labels, 1, 3)
        scale = max(u2, v2)
        predicted = il.severed_copy_imbalance(sch, trit_labels, 1, 3) / rep.h_N
        *_, twin_u2, twin_v2, _, _ = _reference_simplicity(intact_twin(sch, 1), trit_labels, 1, 3)
        twin_gap = abs(twin_u2 - twin_v2) / max(twin_u2, twin_v2)
        if abs(u2 - v2 - predicted) > 1e-6 * scale or twin_gap > 1e-6:
            balanced = False
        balance.append(
            f"{tag}: gap {abs(u2 - v2) / scale:.3e}, predicted {abs(predicted) / scale:.3e}, "
            f"intact twin {twin_gap:.3e}"
        )
    if not balanced:
        problems.append("halves off the severed-copy law by > 1e-6: " + "; ".join(balance))
    assert not problems, "; ".join(problems)


# ---------------------------------------------------------------------------
# 06 — body lower bound vs exact intact-copy marking
# ---------------------------------------------------------------------------


def test_criterion_06():
    rng = np.random.default_rng(6)
    for _ in range(100):
        h0 = int(rng.integers(2, 9))
        depth = int(rng.integers(1, 4))
        qs = [int(rng.integers(2, 7)) for _ in range(depth)]
        sch = il.random_schedule(qs, int(rng.integers(0, 2**31)), binary_word(rng, h0))
        rep = il.body_report(sch, 0, depth)
        bound = il.body_lower_bound_counts(sch, 0, depth)[-1]
        assert rep.intact_copies >= bound, (qs, rep.intact_copies, bound)
    w0 = il.word_from_text(il.BINARY, "0110")
    for seed in (7, 11, 13):
        sch = il.random_schedule([64, 64, 64], seed, w0)
        rep = il.body_report(sch, 0, 3)
        assert rep.exact_fraction >= 0.9, f"seed {seed}: body fraction {rep.exact_fraction:.4f}"


# ---------------------------------------------------------------------------
# 07 — rectangle certificates: closed-form betas, uniform floor, brute force
# ---------------------------------------------------------------------------


def test_criterion_07():
    for r in (2, 3, 4, 5):
        h = 210 * r
        seed = il.word_from_text(il.BINARY, ("01" * h)[:h])
        cert = il.best_subtower_rectangle(il.from_stage(il.morse_schedule(r, 1, seed), 0))
        gap = abs(float(cert.area) - float(il.beta_morse(r)))
        assert gap <= 1 / h, f"r={r}: |area - beta| = {gap:.3e} > 1/{h}"

    uniform = il.Iceberg(h=101, q=101, cuts=np.arange(101), counts=[1] * 101, cyclic=True)
    assert float(il.best_subtower_rectangle(uniform).area) >= 0.245

    rng = np.random.default_rng(7)
    for _ in range(10):
        h = int(rng.integers(2, 65))
        q = int(rng.integers(1, 65))
        vals, cnts = np.unique(rng.integers(0, h, q), return_counts=True)
        ib = il.Iceberg(h=h, q=q, cuts=vals, counts=cnts, cyclic=True)
        assert il.best_subtower_rectangle(ib).area == il.brute_force_rectangle(ib).area


# ---------------------------------------------------------------------------
# 08 — Parseval normalization of 100 random polynomials on the circle
# ---------------------------------------------------------------------------


def test_criterion_08():
    rng = np.random.default_rng(8)
    grid = il.CircleGrid(2**17)
    for k in range(100):
        cls = ("M", "K", "L")[k % 3]
        if cls == "M":
            m = int(rng.integers(1, 257))
            freqs = np.unique(rng.integers(0, 2**15, m)).astype(np.int64)
            pg = il.eval_polynomial(il.FrequencySet(freqs, True), grid, "M")
        else:
            m = int(rng.integers(1, 513))
            if cls == "K":
                coeffs = np.exp(2j * np.pi * rng.random(m))
            else:
                coeffs = rng.choice([-1.0, 1.0], m).astype(complex)
            pg = il.eval_polynomial(coeffs, grid, cls)
        err = abs(float(np.mean(np.abs(pg.values) ** 2)) - 1.0)
        assert err <= 1e-9, f"poly {k} class {cls}: mean square off by {err:.3e}"


# ---------------------------------------------------------------------------
# 09 — Riesz partial products against the direct spectrum oracle
# ---------------------------------------------------------------------------


def test_criterion_09():
    grid = il.CircleGrid(2**14)
    labels = {"0": 1.0 + 0j}
    schedules = [il.rank_one_schedule("staircase", [3, 3, 3])]
    schedules += [
        il.rank_one_schedule("ornstein", [4, 3, 2], seed=seed) for seed in (1, 2, 3)
    ]
    for sch in schedules:
        rp = il.riesz_partial_product(sch, labels, 0, sch.depth - 1, grid)
        direct = il.direct_word_spectrum(sch, labels, sch.depth, grid, 0)
        l1 = float(np.mean(np.abs(rp.values / rp.values.mean() - direct / direct.mean())))
        assert l1 <= 0.02, f"{sch.family_tag}: L1 distance {l1:.3e}"


# ---------------------------------------------------------------------------
# 10 — exponential-frequency flatness improves with the term count
# ---------------------------------------------------------------------------


def test_criterion_10():
    grid = il.LineGrid(1.0, 2.0, 10001)
    sups = []
    for n in (250, 500, 1000, 2000):
        pg = il.eval_polynomial(il.exp_frequency_set(n, 0.1), grid, "M_R")
        sups.append(il.flatness_metrics(pg).sup_deviation)
    assert all(a > b for a, b in zip(sups, sups[1:])), f"sup deviations {sups}"


# ---------------------------------------------------------------------------
# 11 — jump uniformity deviation shrinks as q grows at fixed height
# ---------------------------------------------------------------------------


def test_criterion_11():
    h, q_list = 32, (1024, 4096, 16384)
    devs = {q: [] for q in q_list}
    for seed in range(20):
        for k, q in enumerate(q_list):
            rng = np.random.default_rng([seed, k])
            st = il.Stage(q, tuple(int(a) for a in rng.integers(0, h, q)))
            devs[q].append(il.jump_uniformity_deviation(il.jump_matrix(st, h)))
    medians = [float(np.median(devs[q])) for q in q_list]
    for lo, hi in zip(medians[1:], medians[:-1]):
        factor = hi / lo
        assert 1.3 <= factor <= 3.0, f"medians {medians}, step factor {factor:.3f}"


# ---------------------------------------------------------------------------
# 12 — identical seeds give byte-identical CSV payloads through the CLI
# ---------------------------------------------------------------------------


def test_criterion_12(tmp_path):
    commands = [
        ["decay", "--family", "random", "--qs", "64,64", "--seed", "7",
         "--seed-word", "0101", "--alphabet", "01", "--labels", "0=1,1=-1",
         "--from-stage", "0", "--to-stage", "2"],
        ["rank", "--family", "morse", "--r", "2", "--depth", "1",
         "--seed-word", "01" * 32, "--alphabet", "01"],
        ["ensemble", "--task", "jumps", "--seeds", "3", "--h", "16",
         "--q-list", "16,32", "--threads", "2"],
    ]
    for i, argv in enumerate(commands):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{i}{tag}"
            assert cli.run(argv + ["--out", str(out)]) == 0
            runs.append({
                p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))
            })
        assert runs[0].keys() == runs[1].keys()
        assert runs[0] == runs[1], f"command {argv[0]}: CSV payloads differ between runs"


# ---------------------------------------------------------------------------
# 12, golden bytes — one small run per CSV-writing command, every payload but
# the timestamped manifest pinned by SHA-256, so a change of cell formatting,
# quoting, row order or numerics fails here
# ---------------------------------------------------------------------------


CUBE_LABELS = "0=1,1=-0.5+0.8660254037844386j,2=-0.5-0.8660254037844386j"
QUARTER_LABELS = "0=1,1=1j,2=-1,3=-1j"
GOLDEN_RUNS = {
    "build": ["build", "--family", "morse", "--r", "2", "--depth", "5", "--seed-word", ',"',
              "--alphabet", ',"', "--jump-trace", "--coding-start", "3", "--coding-length", "40",
              "--coding-level", "1"],
    "geometry": ["geometry", "--family", "random", "--qs", "6,16", "--seed", "5", "--seed-word",
                 "0123", "--alphabet", "0123", "--body-base", "0", "--body-depth", "2"],
    # Stage 3 cuts a tower of h = 2**34 into 3000 copies, so its 3000 jump
    # cells hold cut values above 2**32.
    "geometry-deep": ["geometry", "--family", "random", "--qs", "2048,2048,1024,3000",
                      "--seed", "11", "--seed-word", "0123", "--alphabet", "0123"],
    "correlate": ["correlate", "--family", "random", "--qs", "4,4,8", "--seed", "3", "--seed-word",
                  "01", "--alphabet", "01", "--labels", "0=1,1=-1", "--check-recursion"],
    # 8,748 rows: three chunks of the csv writer, two spans on two CPUs, and
    # cells in exponent form, negative cells and 0.0.
    "correlate-chunks": ["correlate", "--family", "random", "--qs", "27,27,4", "--seed", "5",
                         "--seed-word", "012", "--alphabet", "012", "--labels", CUBE_LABELS,
                         "--stage", "3"],
    "decay": ["decay", "--family", "random", "--qs", "16,16,8", "--seed", "7", "--seed-word",
              "0123", "--alphabet", "0123", "--labels", QUARTER_LABELS, "--from-stage", "0",
              "--to-stage", "3"],
    "simplicity": ["simplicity", "--family", "random", "--qs", "9,27,4", "--seed", "2",
                   "--seed-word", "012", "--alphabet", "012", "--labels", CUBE_LABELS,
                   "--base", "1", "--diag-depth", "3"],
    "spectrum-riesz": ["spectrum", "--mode", "riesz", "--family", "staircase", "--qs", "3,3,3",
                       "--seed-word", "0", "--alphabet", "01", "--spacer-symbol", "1",
                       "--labels", "0=1", "--grid-size", "256", "--check-oracle"],
    "spectrum-riesz-line": ["spectrum", "--mode", "riesz", "--family", "staircase",
                            "--qs", "3,4,3", "--seed-word", "0110", "--alphabet", "012",
                            "--spacer-symbol", "2", "--labels", "0=1,1=-1", "--base", "1",
                            "--line", "0.5", "3", "257", "--check-oracle"],
    "spectrum-flat": ["spectrum", "--mode", "flat", "--exp-n", "2,5", "--line", "1", "2", "101"],
    "spectrum-merit": ["spectrum", "--mode", "merit", "--family", "morse", "--r", "2",
                       "--depth", "6", "--seed-word", "01", "--alphabet", "01",
                       "--labels", "0=1,1=-1"],
    "rank": ["rank", "--family", "morse", "--r", "3", "--depth", "1", "--seed-word", "012" * 9,
             "--alphabet", "012"],
    "ensemble-jumps": ["ensemble", "--task", "jumps", "--seeds", "3", "--h", "16",
                       "--q-list", "16,32", "--threads", "2"],
    "ensemble-decay": ["ensemble", "--task", "decay", "--seeds", "3", "--qs", "16,16",
                       "--seed-word", "0123", "--alphabet", "0123", "--labels", QUARTER_LABELS,
                       "--from-stage", "0", "--to-stage", "2", "--threads", "2"],
    "ensemble-simplicity": ["ensemble", "--task", "simplicity", "--seeds", "3", "--qs", "9,27,4",
                            "--labels", CUBE_LABELS, "--base", "1", "--diag-depth", "3",
                            "--threads", "2"],
}
GOLDEN_SHA256 = {
    "build": {
        "coding.txt": "7e8b5ae7e09453fc3dbebed12f3f6eb42a1c27b74bd004638a6ee5cd6bbc465c",
        "jumps.csv": "9affe2f6b83e89e953d9e58cdb2df3ae45c944165d6979e8530ed34770ac6191",
        "schedule.json": "73c2f5b3c5bd16ced5b841a6ebf8caae46e9a4d3eea7091a90bc44720bb79eaa",
        "words.csv": "4c05ff315ce4850d28f3ba26c00fbdd454bae588c7719a4a6eda63d5e52f1b9f",
    },
    "geometry": {
        "columns.csv": "f972bde13d722cc852a3c191658e7941f0caa8ac8f040efc91f1bcc5c3cf51b2",
        "geometry.json": "027c49e3e8372b10046d11ad3ffa63016cbdeaf54eef4bc0f9368ba48f1c2fd5",
    },
    "geometry-deep": {
        "columns.csv": "4718788e875311f891ebeca8ff09bace0fbb17768cfaafc0c6e48a944dc51772",
        "geometry.json": "42b98919c7ab11d741b6d00f217b2e66530af3d1b430df44220cfebd431f2f36",
    },
    "correlate": {
        "correlation.csv": "ed9ae9b00aa3a4da5748df1b25a03edf90893ed15703dab1a5c91721d8f7e827",
        "recursion.csv": "7499230269d5dc9c3d9bbbe47d493b165a7129bcc120282f9b406f8f38882faf",
    },
    "correlate-chunks": {
        "correlation.csv": "90fb31ab332ed8e0eaeeb014739937adf1237e7339f845e401721fbe6c54a6ac",
    },
    "decay": {
        "decay.csv": "67e5e702f958f2c13551a172306213f4dae753718e363f7196fd43fe572bc085",
        "decay.json": "e79da4fcac375f1f3be07a6e7719186bb94670e0a69ce87c2779a2608dcd065e",
    },
    "simplicity": {
        "simplicity.csv": "bd8702131ee443eb217847c3a86baa3c1e807f6dd41a31c1e5203a226217930c",
        "simplicity.json": "a83e6d7195097644a959b41abdf5298050af1be88c47dd228e861dcb52bbee14",
    },
    "spectrum-riesz": {
        "spectrum.csv": "3d9c9cfcb3806034b76c901ad0b828f1e108366426ca7caa4f74aa7260d92b51",
        "spectrum.json": "3cc5302d2ca08693189b728452690551a8f5f9b9ef4fd7ae1786d79104494772",
    },
    "spectrum-riesz-line": {
        "spectrum.csv": "37667c8cd7e256e4f224b077004ade24f5c47458dd40f66e9e6dc49d962734ac",
        "spectrum.json": "83e86ecf99d1754fb25dff9903caa326ed36b853a524f2a4869d55dd221097e1",
    },
    "spectrum-flat": {
        "flat.csv": "2997e95ffcf30f448b4626863332374e5e75e9741a75dc5973bd1bdbaa6c8d9d",
    },
    "spectrum-merit": {
        "merit.csv": "a402cc13a1b6c4440fce4885401ca52a5c603a4c0c20e919d33eb4e9d0d1a3e7",
    },
    "rank": {
        "rank.csv": "e3727a05aee219383c4084b2624ad344df7a3c5b3b8227c82237fccab0485579",
        "rank.json": "c649fcedd75f0ccb2b266fe416c86308a3c8091278c7bcc89ecef9c0e44596fb",
    },
    "ensemble-jumps": {
        "ensemble.csv": "53d022c6e7e9d0cac254b16080451b8114764f8449037665ae175abbff1d6613",
        "ensemble.json": "b66594d59cef7ed08cb48440df6c86239bd3e5f78845d19f7eeb45e19a55b7a9",
    },
    "ensemble-decay": {
        "ensemble.csv": "5b8c357011977ea58a02d9a36a4558034076747806c7f3870942e019eb2f9b73",
        "ensemble.json": "62f30aae1f45125ac06e3d4b057de35c9a2b1ab6ba879fe2ff9f3ce8a09be552",
    },
    "ensemble-simplicity": {
        "ensemble.csv": "ac0b6f8d72b834d0dbcdb4df47f976e748d3f8075f9cdec91d83ec462651d2cb",
        "ensemble.json": "f6728e6bf875627dc62e35ecd482ef130ffb2070040ae5e256ce759e22dbf971",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_payload_bytes(name, tmp_path):
    assert cli.run(GOLDEN_RUNS[name] + ["--out", str(tmp_path)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir()) if p.name != "manifest.json"
    }
    assert got == GOLDEN_SHA256[name]


# The benchmark's tracer counts ``len`` of ``_write_csv``'s third argument as
# the rows written, so that length must be the file's data lines.  The extra
# correlate run checks only stage 0, so its recursion.csv is only a header.
_ROW_COUNT_RUNS = {**GOLDEN_RUNS, "empty-recursion": [
    "correlate", "--family", "random", "--qs", "4,4", "--seed", "3", "--seed-word", "01",
    "--alphabet", "01", "--labels", "0=1,1=-1", "--stage", "0", "--check-recursion"]}


@pytest.mark.parametrize("name", sorted(_ROW_COUNT_RUNS))
def test_write_csv_table_length_is_the_data_line_count(name, tmp_path, monkeypatch):
    seen, write_csv = {}, cli._write_csv

    def spy(*args):
        seen[args[0].name] = len(args[2])
        return write_csv(*args)

    monkeypatch.setattr(cli, "_write_csv", spy)
    assert cli.run(_ROW_COUNT_RUNS[name] + ["--out", str(tmp_path)]) == 0
    lines = {p.name: p.read_bytes().count(b"\n") - 1 for p in tmp_path.glob("*.csv")}
    assert seen == lines and seen
    if name == "empty-recursion":
        assert seen["recursion.csv"] == 0
