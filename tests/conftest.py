"""Shared fixtures and the acceptance-summary terminal hook."""

from __future__ import annotations

import numpy as np
import pytest

import icelab as il

# Frozen reference strings for the three-letter worked example.
CAT_W1 = "CATATCTCATCACATATC"
CAT_W2 = "CATCACATATCCATATCT" "TCTCATCACATATCCATA" "ACATATCCATATCTCATC"

OMEGA = np.exp(2j * np.pi / 3)


def intact_twin(schedule: il.Schedule, n: int) -> il.Schedule:
    """``schedule`` with each stage-``n+1`` rotation rounded down to a multiple
    of ``h_n``, so that no stage-``n`` copy is severed at depth ``n + 2``."""
    h, h1 = schedule.heights()[n: n + 2]
    st = schedule.stages[n + 1]
    rots = tuple((a % h1) // h * h for a in st.rotations)
    stages = schedule.stages[: n + 1] + (il.Stage(st.q, rots),) + schedule.stages[n + 2:]
    return il.Schedule(schedule.alphabet, schedule.seed_word, stages)


def _reference_chart(schedule, n, x_n1):
    """Signed chart levels of the ``W_{n+1}`` coordinates ``x_n1`` by the
    chart's defining formula, out of place."""
    h = schedule.heights()[n]
    t = x_n1 % h
    a = schedule.rotations_mod(n)[x_n1 // h]
    return t + a - h * (a >= 1)


def _roll_concat(arr, stages):
    # Pure stages applied by np.roll and np.concatenate.
    for stage in stages:
        arr = np.concatenate([np.roll(arr, -(a % arr.size)) for a in stage.rotations])
    return arr


def _reference_simplicity(schedule, labels, n, depth):
    """The far-half diagnostic as first written, every intermediate array out
    of place and of length h_N, over words and coordinates built by
    ``_roll_concat``: ``(f2, g2, fg_diff2, u2, v2, uv, fv)``.

    It sums every position of ``W_depth``, so it is the measured side of the
    severed-copy law, which ``severed_copy_imbalance`` predicts by the stage
    step that the diagnostic itself runs.
    """
    h = schedule.heights()[n]
    h_N = schedule.heights()[depth]
    table = np.array([complex(labels[c]) for c in schedule.alphabet.symbols])
    fn = table[_roll_concat(schedule.seed_word.symbols, schedule.stages[:n])]
    fn = fn - fn.mean()

    x_n = _roll_concat(np.arange(h, dtype=np.int64), schedule.stages[n:depth])
    f = fn[x_n]
    w = (h - 1) // 2
    bases = np.nonzero(x_n == 0)[0]
    g = np.zeros(h_N, dtype=np.complex128)
    for j in range(-w, w + 1):
        g[(bases + j) % h_N] += fn[j % h]
    x_n1 = _roll_concat(np.arange(schedule.heights()[n + 1], dtype=np.int64),
                        schedule.stages[n + 1:depth])
    far = np.abs(_reference_chart(schedule, n, x_n1)) > w
    u = np.where(far, f, 0.0)
    v = g - f + u

    def avg(x, y):
        # np.vdot of consecutive 8,192-value blocks, added in order from the first.
        total = np.vdot(y[:8192], x[:8192])
        for lo in range(8192, h_N, 8192):
            total += np.vdot(y[lo: lo + 8192], x[lo: lo + 8192])
        return complex(total / h_N)

    return (avg(f, f).real, avg(g, g).real, avg(f - g, f - g).real,
            avg(u, u).real, avg(v, v).real, avg(u, v), avg(f, v))


@pytest.fixture(scope="session")
def cat_schedule() -> il.Schedule:
    w0 = il.word_from_text(il.DNA, "CAT")
    return il.Schedule(
        il.DNA, w0, (il.Stage(6, (0, 1, 2, 2, 0, 1)), il.Stage(3, (7, 4, 11)))
    )


@pytest.fixture(scope="session")
def cat_words(cat_schedule) -> list[il.Word]:
    return il.build_word(cat_schedule)


@pytest.fixture(scope="session")
def cat_labels() -> dict[str, complex]:
    """Cube-root labels on the three-letter alphabet (zero mean on balanced words)."""
    return {"C": 1.0 + 0j, "A": complex(OMEGA), "T": complex(OMEGA**2)}


@pytest.fixture(scope="session")
def trit_labels() -> dict[str, complex]:
    """Cube-root labels on the digit alphabet '012'."""
    return {"0": 1.0 + 0j, "1": complex(OMEGA), "2": complex(OMEGA**2)}


@pytest.fixture(scope="session")
def trit_word() -> il.Word:
    return il.word_from_text(il.Alphabet(tuple("012")), "012")


# ---------------------------------------------------------------------------
# Acceptance summary: one PASS/FAIL line per numbered criterion.
# ---------------------------------------------------------------------------

ACCEPTANCE_TITLES = {
    "test_criterion_01": "exact three-letter worked-example strings",
    "test_criterion_02": "Thue-Morse parity oracle, first 2^12 symbols",
    "test_criterion_03": "correlation recursion identity, 50 random schedules",
    "test_criterion_04": "decay exponent in [-0.65, -0.35] over >= 20 seeds",
    "test_criterion_05": "far-half simplicity diagnostic tolerances",
    "test_criterion_06": "body lower bound vs exact marking",
    "test_criterion_07": "rectangle certificates: morse betas, uniform, brute force",
    "test_criterion_08": "Parseval normalization of random polynomials",
    "test_criterion_09": "Riesz partial product vs direct spectrum oracle",
    "test_criterion_10": "exponential-frequency flatness decreases with n",
    "test_criterion_11": "jump uniformity deviation halves as q quadruples",
    "test_criterion_12": "byte-identical CSV payloads for a fixed seed",
}

_results: dict[str, tuple[str, float]] = {}


def pytest_runtest_logreport(report):
    base = report.nodeid.split("::")[-1].split("[")[0]
    if base not in ACCEPTANCE_TITLES:
        return
    if report.when == "call":
        prev = _results.get(base)
        duration = report.duration + (prev[1] if prev else 0.0)
        outcome = report.outcome
        if prev and prev[0] == "failed":
            outcome = "failed"
        _results[base] = (outcome, duration)
    elif report.when == "setup" and report.outcome != "passed":
        _results[base] = (report.outcome, report.duration)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(ACCEPTANCE_TITLES):
        title = ACCEPTANCE_TITLES[name]
        num = name.rsplit("_", 1)[-1]
        if name in _results:
            outcome, duration = _results[name]
            word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
                outcome, outcome.upper()
            )
            terminalreporter.write_line(
                f"[criterion {num}] {word} ({duration:.1f}s) — {title}"
            )
        else:
            terminalreporter.write_line(f"[criterion {num}] NOT RUN — {title}")
