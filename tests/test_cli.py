"""End-to-end CLI coverage: outputs, determinism, exit codes, guardrails."""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icelab import (BINARY, Schedule, Stage, cli, morse_schedule, random_schedule,
                    save_schedule, word_from_text)
from icelab.errors import MAX_SWEEP_CUTS, MAX_SYMBOLS
from icelab.words import schedule_to_dict
from icelab import correlation as corr
from icelab import dynamics as dyn
from icelab import iceberg as ice
from icelab import rank as rank_mod
from icelab import words as words_mod
from icelab import spectral as spx


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture()
def cat_file(cat_schedule, tmp_path):
    path = tmp_path / "cat.json"
    save_schedule(cat_schedule, path)
    return path


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_morse_words(tmp_path):
    out = tmp_path / "o"
    code = cli.run([
        "build", "--family", "morse", "--r", "2", "--depth", "4",
        "--seed-word", "01", "--alphabet", "01", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out / "words.csv")
    assert rows[0] == ["schedule_hash", "stage", "h", "word"]
    words = {int(r[1]): r[3] for r in rows[1:]}
    assert words[3] == "0110100110010110"
    assert (out / "schedule.json").exists()
    assert (out / "manifest.json").exists()


def test_build_coding_and_jumps(cat_file, tmp_path):
    out = tmp_path / "o"
    code = cli.run([
        "build", "--schedule", str(cat_file), "--depth", "1", "--out", str(out),
        "--coding-start", "5", "--coding-length", "4", "--coding-level", "0",
        "--jump-trace",
    ])
    assert code == 0
    assert (out / "coding.txt").read_text(encoding="utf-8") == "CTCA\n"
    jumps = read_csv(out / "jumps.csv")[1:]
    assert sorted(int(r[1]) for r in jumps) == [2, 5, 11, 14, 17]
    assert all(int(r[2]) == 1 for r in jumps)


def test_build_with_coding_and_jump_trace_builds_each_word_once(cat_file, tmp_path,
                                                                monkeypatch):
    # words.csv and the coding share one pass of the tower: the coding reads
    # W_2 through the last stage from the W_1 that pass kept, so W_1 (from
    # the 3 symbols of W_0) and W_2 (from the 18 of W_1) are each built once.
    # The coding's windows write into buffers of their own and are not
    # counted; the jump trace concatenates no word.
    real, sizes = words_mod.concat_stage, []

    def counted(arr, stage, fill, lo=0, hi=None, out=None):
        if out is None:
            sizes.append(arr.size)
        return real(arr, stage, fill, lo, hi, out)

    monkeypatch.setattr(words_mod, "concat_stage", counted)
    out = tmp_path / "o"
    assert cli.run(["build", "--schedule", str(cat_file), "--coding-start", "5",
                    "--coding-length", "4", "--jump-trace", "--out", str(out)]) == 0
    assert sizes == [3, 18]
    top = read_csv(out / "words.csv")[-1][3]
    assert (out / "coding.txt").read_text(encoding="utf-8") == top[5:9] + "\n"


# ---------------------------------------------------------------------------
# geometry / correlate / rank
# ---------------------------------------------------------------------------


def test_geometry_body(cat_file, tmp_path):
    out = tmp_path / "o"
    code = cli.run([
        "geometry", "--schedule", str(cat_file), "--out", str(out),
        "--body-base", "0", "--body-depth", "2",
    ])
    assert code == 0
    payload = json.loads((out / "geometry.json").read_text())
    assert payload["body"]["intact_copies"] == 15
    assert payload["body"]["total_copies"] == 18
    assert payload["stages"]["0"]["uniformity_deviation"] == 0.0
    cols = read_csv(out / "columns.csv")[1:]
    stage0 = {(int(r[2]), int(r[3])) for r in cols if int(r[1]) == 0}
    assert stage0 == {(0, 2), (1, 2), (2, 2)}


def test_geometry_body_over_the_symbol_limit_exits_3_before_any_work(tmp_path, monkeypatch):
    # A thousand q = 1 stages leave h_1000 = 2, yet carry the 20,000 cuts of
    # the top stage down a thousand stages: 2e7 positions > MAX_SYMBOLS.
    def no_columns(*args, **kwargs):
        raise AssertionError("a stage histogram was built before the body guard refused")

    monkeypatch.setattr(cli.ice, "from_stage", no_columns)
    out = tmp_path / "o"
    argv = ["geometry", "--family", "random", "--qs", ",".join(["1"] * 1000 + ["20000"]),
            "--seed", "0", "--seed-word", "01", "--alphabet", "01",
            "--body-base", "0", "--body-depth", "1001", "--out", str(out)]
    assert cli.run(argv) == 3
    assert list(out.iterdir()) == []


def test_correlate_recursion(cat_file, tmp_path):
    out = tmp_path / "o"
    code = cli.run([
        "correlate", "--schedule", str(cat_file), "--labels", "C=1,A=-1,T=1",
        "--check-recursion", "--out", str(out),
    ])
    assert code == 0
    res = read_csv(out / "recursion.csv")[1:]
    assert res  # both pure stages contribute rows
    assert all(float(r[3]) <= 1e-12 for r in res)
    corr_rows = read_csv(out / "correlation.csv")[1:]
    assert {int(r[1]) for r in corr_rows} == {0, 1, 2}


@pytest.mark.parametrize("flags, transformed", [([], [3, 18, 54]),
                                                (["--stage", "2"], [54, 3, 18])])
def test_correlate_transforms_each_stage_once(cat_file, tmp_path, monkeypatch,
                                              flags, transformed):
    # Without --stage, stages 0 and 1 are both written and checked: the
    # recursion reads their written series back, so each of h = 3, 18, 54 is
    # transformed once.  With --stage 2 the checked stages are not written
    # and are transformed for the check alone.
    real, sizes = corr._correlate_owned, []

    def counted(buf, other=None):
        sizes.append(buf.size)
        return real(buf, other)

    monkeypatch.setattr(corr, "_correlate_owned", counted)
    out = tmp_path / "o"
    assert cli.run(["correlate", "--schedule", str(cat_file), "--labels", "C=1,A=-1,T=1",
                    "--check-recursion", *flags, "--out", str(out)]) == 0
    assert sizes == transformed
    assert all(float(r[3]) <= 1e-12 for r in read_csv(out / "recursion.csv")[1:])


def test_correlate_keeps_no_lower_word_through_a_stage_transform(tmp_path, monkeypatch):
    # Without --check-recursion a --stage k run reads W_k alone: every word
    # the tower built between the seed word (held by the schedule) and W_k is
    # freed before the one transform.
    real_tower, real_series, refs, alive = words_mod.tower, corr._lifted_series, [], []

    def tracked(*args, **kwargs):
        for word in real_tower(*args, **kwargs):
            refs.append(weakref.ref(word))
            yield word

    def spied(*args, **kwargs):
        alive.append([r() is not None for r in refs])
        return real_series(*args, **kwargs)

    monkeypatch.setattr(words_mod, "tower", tracked)
    monkeypatch.setattr(corr, "_lifted_series", spied)
    assert cli.run(["correlate", "--family", "morse", "--r", "2", "--depth", "4",
                    "--seed-word", "01", "--alphabet", "01", "--labels", "0=1,1=-1",
                    "--stage", "4", "--out", str(tmp_path / "o")]) == 0
    assert alive == [[True, False, False, False, True]]


@pytest.mark.parametrize("flags, expected", [([], 0), (["--zero-mean"], 2)])
def test_correlate_checks_zero_mean_of_its_lifts(cat_file, tmp_path, monkeypatch,
                                                  flags, expected):
    # correlate transforms lifts it owns, not LevelFunctions; with --zero-mean
    # the zero-mean check still runs on them (a negative tolerance fails it).
    monkeypatch.setattr(corr, "ZERO_MEAN_TOL", -1.0)
    code = cli.run([
        "correlate", "--schedule", str(cat_file), "--labels", "C=1,A=-1,T=1",
        *flags, "--out", str(tmp_path / "o"),
    ])
    assert code == expected


@pytest.mark.parametrize("source, labels, flags", [
    (["--family", "random", "--qs", "4,8,5", "--seed", "2", "--seed-word", "01",
      "--alphabet", "01"], "0=1,1=-1", []),
    (["--family", "staircase", "--qs", "3,4,3", "--seed-word", "0110", "--alphabet", "012",
      "--spacer-symbol", "2"], "0=1,1=-1", []),
    (["--family", "random", "--qs", "9,4", "--seed", "4", "--seed-word", "012",
      "--alphabet", "012"], "0=1,1=0.25,2=-3", ["--zero-mean"]),
], ids=["signs", "spacer", "zero-mean"])
def test_correlate_writes_an_exact_zero_im_for_real_labels(source, labels, flags, tmp_path):
    # A real lift's autocorrelation is real, so every im cell is +0.0, not
    # the transform's round-off; re keeps the transform's bits.
    out = tmp_path / "o"
    assert cli.run(["correlate", *source, "--labels", labels, *flags, "--out", str(out)]) == 0
    rows = read_csv(out / "correlation.csv")[1:]
    sch = cli._schedule_from_args(cli._parse_run(cli.build_parser(), ["correlate", *source,
                                                                       "--labels", labels]))
    expected = []
    for n, word in enumerate(words_mod.tower(sch)):
        f = corr.lift(cli._parse_labels(labels), word, n, zero_mean=bool(flags))
        expected += [(str(n), str(t), repr(float(x)))
                     for t, x in enumerate(corr.cyclic_correlation(f).values.real)]
    assert [tuple(r[1:4]) for r in rows] == expected
    assert {r[4] for r in rows} == {"0.0"}


_LARGE_LABELS = ["--family", "random", "--qs", "9,27,16", "--seed", "1", "--seed-word", "012",
                 "--alphabet", "012", "--labels", "0=100000,1=30000,2=-77000"]


@pytest.mark.parametrize("command, flags", [
    ("decay", ["--from-stage", "0", "--to-stage", "3"]),
    ("simplicity", ["--base", "1", "--diag-depth", "3"]),
    ("correlate", ["--zero-mean"]),
])
def test_zero_mean_check_scales_with_the_labels(command, flags, tmp_path, capsys):
    # Centring labels of size 1e5 leaves a residual sum far above 1e-12 * h;
    # the same labels divided by 1e5 always passed.
    assert cli.run([command, *_LARGE_LABELS, *flags, "--out", str(tmp_path / "o")]) == 0
    assert "zero_mean" not in capsys.readouterr().err


def _decay_stats(tmp_path, labels: str) -> np.ndarray:
    out = tmp_path / labels
    assert cli.run(["decay", "--family", "random", "--qs", "9,27,16", "--seed", "1",
                    "--seed-word", "012", "--alphabet", "012", "--labels", labels,
                    "--from-stage", "0", "--to-stage", "3", "--out", str(out)]) == 0
    return np.array([[float(x) for x in row[3:]] for row in read_csv(out / "decay.csv")[1:]])


@pytest.mark.parametrize("offset", ["100000", "1000000"])
def test_zero_mean_scale_is_the_labels_not_the_centred_values(offset, tmp_path):
    # 0=100000.1,1=100000,2=100000 centres to the values of 0=0.1,1=0,2=0,
    # near 0.1, with the rounding residual of labels near 1e5; the bound
    # scales with the labels lifted, so the run is not refused.
    stats = _decay_stats(tmp_path, f"0={offset}.1,1={offset},2={offset}")
    reference = _decay_stats(tmp_path, "0=0.1,1=0,2=0")
    assert np.all(np.abs(stats - reference) <= 1e-8 * np.abs(reference))


def test_rank_morse(tmp_path):
    out = tmp_path / "o"
    code = cli.run([
        "rank", "--family", "morse", "--r", "3", "--depth", "1",
        "--seed-word", "ABC" * 210, "--alphabet", "ABC", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "rank.json").read_text())
    assert payload["area"] == pytest.approx(4 / 9, abs=1 / 630)
    assert payload["beta_gap"] <= 1 / 630
    assert payload["multiplicity_bound"] == 2


# ---------------------------------------------------------------------------
# decay determinism
# ---------------------------------------------------------------------------


def test_decay_deterministic(tmp_path):
    argv = [
        "decay", "--family", "random", "--qs", "64,64", "--seed", "7",
        "--seed-word", "0101", "--alphabet", "01", "--labels", "0=1,1=-1",
        "--from-stage", "0", "--to-stage", "2",
    ]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.run(argv + ["--out", str(out)]) == 0
        outs.append((out / "decay.csv").read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_riesz_oracle(tmp_path):
    out = tmp_path / "o"
    code = cli.run([
        "spectrum", "--mode", "riesz", "--family", "staircase", "--qs", "3,3",
        "--seed-word", "012", "--alphabet", "012_", "--spacer-symbol", "_",
        "--labels", "0=1,1=-1,2=1", "--grid-size", "4096", "--check-oracle",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["oracle_l1"] <= 0.02
    assert len(read_csv(out / "spectrum.csv")) == 4097


def test_spectrum_flat(tmp_path):
    out = tmp_path / "o"
    code = cli.run([
        "spectrum", "--mode", "flat", "--exp-n", "50,100", "--eps", "0.3",
        "--line", "1", "2", "501", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out / "flat.csv")[1:]
    assert [int(r[1]) for r in rows] == [50, 100]
    assert all(float(r[3]) > 0 for r in rows)


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


def test_ensemble_jumps_sorted(tmp_path):
    out = tmp_path / "o"
    code = cli.run([
        "ensemble", "--task", "jumps", "--seeds", "4", "--h", "16",
        "--q-list", "32,64", "--threads", "3", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out / "ensemble.csv")[1:]
    assert len(rows) == 8
    assert [int(r[0]) for r in rows] == sorted(int(r[0]) for r in rows)
    medians = json.loads((out / "ensemble.json").read_text())["medians"]
    assert set(medians) == {"32", "64"}
    assert medians["64"] < medians["32"]


# ---------------------------------------------------------------------------
# options: each subcommand accepts only the options it reads
# ---------------------------------------------------------------------------

_MORSE = ["--family", "morse", "--r", "2", "--depth", "3", "--seed-word", "01",
          "--alphabet", "01"]
_VALID = {
    "build": ["build", *_MORSE],
    "geometry": ["geometry", *_MORSE],
    "correlate": ["correlate", *_MORSE, "--labels", "0=1,1=-1"],
    "decay": ["decay", "--family", "random", "--qs", "16,16", "--seed", "3",
              "--seed-word", "0101", "--alphabet", "01", "--labels", "0=1,1=-1",
              "--from-stage", "0", "--to-stage", "2"],
    "simplicity": ["simplicity", "--family", "random", "--qs", "9,27,3", "--seed", "3",
                   "--seed-word", "012", "--alphabet", "012", "--labels", "0=1,1=-1,2=0",
                   "--base", "1", "--diag-depth", "2"],
    "spectrum": ["spectrum", "--mode", "merit", *_MORSE, "--labels", "0=1,1=-1"],
    "rank": ["rank", *_MORSE],
    "ensemble": ["ensemble", "--task", "jumps", "--seeds", "2", "--h", "16", "--q-list", "4,8"],
}
_REMOVED = (
    [(cmd, ["--threads", "2"]) for cmd in
     ("build", "geometry", "correlate", "decay", "simplicity", "spectrum", "rank")]
    + [(cmd, ["--zero-mean"]) for cmd in
       ("build", "geometry", "decay", "simplicity", "rank", "ensemble")]
    + [(cmd, ["--labels", "0=1,1=-1"]) for cmd in ("build", "geometry", "rank")]
    + [("ensemble", opt) for opt in (["--schedule", "sched.json"], ["--family", "random"],
                                     ["--r", "2"], ["--ratio", "4"], ["--seed", "1"])]
)


@pytest.mark.parametrize("command, option", _REMOVED,
                         ids=[f"{cmd}{opt[0]}" for cmd, opt in _REMOVED])
def test_option_a_subcommand_does_not_read_exits_2(command, option, tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.run(_VALID[command] + option + ["--out", str(out)]) == 2
    assert not out.exists() or list(out.iterdir()) == []
    assert "usage:" in capsys.readouterr().err
    assert cli.run(_VALID[command] + ["--out", str(out)]) == 0


_SCHEDULE = ["--alphabet", "--depth", "--family", "--q", "--qs", "--r", "--ratio", "--schedule",
             "--seed", "--seed-word", "--spacer-symbol"]
_ACCEPTED = {
    "build": ["--coding-length", "--coding-level", "--coding-start", "--jump-trace",
              *_SCHEDULE],
    "geometry": ["--body-base", "--body-depth", *_SCHEDULE],
    "correlate": ["--check-recursion", "--labels", "--stage", "--zero-mean", *_SCHEDULE],
    "decay": ["--from-stage", "--labels", "--statistic", "--to-stage", *_SCHEDULE],
    "simplicity": ["--base", "--diag-depth", "--labels", *_SCHEDULE],
    "spectrum": ["--base", "--check-oracle", "--eps", "--exp-n", "--grid-size", "--labels",
                 "--last", "--line", "--merit-stages", "--mode", "--zero-mean", *_SCHEDULE],
    "rank": ["--stage", *_SCHEDULE],
    "ensemble": ["--alphabet", "--base", "--base-seed", "--depth", "--diag-depth",
                 "--from-stage", "--h", "--labels", "--q", "--q-list", "--qs", "--seed-word",
                 "--seeds", "--spacer-symbol", "--task", "--threads", "--to-stage"],
}


def test_each_subcommand_accepts_the_pinned_options():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    accepted = {
        name: sorted(opt for action in p._actions for opt in action.option_strings)
        for name, p in subparsers.choices.items()
    }
    common = ["--force", "--help", "--out", "--overwrite", "-h"]
    assert accepted == {name: sorted(opts + common) for name, opts in _ACCEPTED.items()}


# ---------------------------------------------------------------------------
# options: each run reads every option it is given (cli._READS)
# ---------------------------------------------------------------------------

_COMMON = {"--force", "--help", "--out", "--overwrite", "-h"}
_PARSERS = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _named(*keys: str, given: set[str] | None = None) -> set[str]:
    """The options that the ``cli._READS`` rows ``keys`` name.

    With ``given``, the options of a run given those: "--a+--b" names --b only
    when --a is given.
    """
    named = set()
    for clause in " ".join(cli._READS[key] for key in keys).split():
        for lead, *rest in (alt.split("+") for alt in re.findall(r"[-a-z+]+", clause)):
            named |= {lead} if given is not None and lead not in given else {lead, *rest}
    return named


def _reachable(command: str) -> list[str]:
    """The rows a subcommand can read: its own and every "OPTION VALUE" row of an option named."""
    keys = [command]
    for key in keys:
        keys += [k for k in cli._READS if k.split()[0] in _named(key) and k not in keys]
    return keys


@pytest.mark.parametrize("command", sorted(_PARSERS))
def test_declaration_names_exactly_the_options_a_parser_accepts(command):
    accepted = {opt for a in _PARSERS[command]._actions for opt in a.option_strings}
    assert _named(*_reachable(command)) == accepted - _COMMON


def test_every_row_of_the_declaration_is_reachable():
    assert {key for command in _PARSERS for key in _reachable(command)} == set(cli._READS)


def test_choices_are_the_values_of_the_option_rows():
    # --mode, --task and --family take exactly the values of their "OPTION VALUE" rows.
    choices = {opt: a.choices for p in _PARSERS.values() for a in p._actions
               for opt in a.option_strings if opt in ("--mode", "--task", "--family")}
    rows = {opt: [key.split()[1] for key in cli._READS if key.split()[0] == opt]
            for opt in choices}
    assert choices == rows and len(choices) == 3


def test_readme_cli_table_has_a_row_for_every_declaration_row():
    # Rows read "| `decay` | ..." or, for a mode or task, "| `spectrum --mode riesz` | ...";
    # `--schedule FILE` reads nothing more and so has no row in cli._READS.  A row
    # naming a key that cli._READS no longer has is as stale as a missing one.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    cells = re.findall(r"^\| `([^`]+)` \|", section, re.M)
    keys = [cell.partition(" ")[2] if cell.split()[0] in _PARSERS and " " in cell else cell
            for cell in cells]
    assert sorted(keys) == sorted([*cli._READS, "--schedule FILE"])


def _benchmark_workloads() -> dict:
    """``WORKLOADS`` of ``perfbench/workloads.py``, loaded by path (it imports only the stdlib)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


_WORKLOADS = _benchmark_workloads()


@pytest.mark.parametrize("seed", [0, 2**31 - 1])
@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_benchmark_command_lines_pass_the_read_check(workload, seed):
    # Parsed and checked only: a CLI change that would make the benchmark exit 2 fails here.
    for command in _WORKLOADS[workload](seed):
        argv = [*command.args, "--out", "unused"]
        assert cli._parse_run(cli.build_parser(), argv).command == command.args[0]


# One line per schedule source; the file holds two unrotated stages.
_SOURCES = {
    "--schedule": ["--schedule", "{schedule}"],
    "--family morse": ["--family", "morse", "--r", "3", "--depth", "2", "--seed-word", "001",
                       "--alphabet", "01"],
    "--family random": ["--family", "random", "--qs", "3,3", "--seed", "1", "--seed-word", "001",
                        "--alphabet", "01"],
    "--family staircase": ["--family", "staircase", "--qs", "3,3"],
    "--family ornstein": ["--family", "ornstein", "--qs", "3,3", "--seed", "1", "--seed-word",
                          "001", "--alphabet", "012", "--spacer-symbol", "2"],
}
_LABELS = ["--labels", "0=1,1=-1"]
_RUNS = {
    "build": [],
    "geometry": [],
    "correlate": _LABELS,
    "decay": [*_LABELS, "--from-stage", "0", "--to-stage", "2"],
    "simplicity": [*_LABELS, "--base", "1", "--diag-depth", "2"],
    "--mode riesz": ["--mode", "riesz", *_LABELS, "--grid-size", "64"],
    "--mode flat": ["--mode", "flat", "--exp-n", "2"],
    "--mode merit": ["--mode", "merit", *_LABELS],
    "rank": [],
    "--task jumps": ["--task", "jumps", "--seeds", "1", "--h", "4", "--q-list", "2"],
    "--task decay": ["--task", "decay", "--seeds", "1", *_LABELS, "--from-stage", "0",
                     "--to-stage", "2", "--qs", "3,3", "--seed-word", "001", "--alphabet", "01"],
    "--task simplicity": ["--task", "simplicity", "--seeds", "1", *_LABELS, "--base", "1",
                          "--diag-depth", "2", "--qs", "3,3", "--seed-word", "001",
                          "--alphabet", "01"],
}
# These runs pass the option check and then exit 2 on the schedule itself: decay
# and the diagnostic need pure stages (and the diagnostic an odd h_n), merit
# factors a word without spacers, the certificate a stage without spacers, and
# the Riesz product unrotated stages.
_SCHEDULE_REFUSED = {
    ("decay", "--family staircase"), ("decay", "--family ornstein"),
    ("simplicity", "--family staircase"), ("simplicity", "--family ornstein"),
    ("--mode merit", "--family staircase"), ("--mode merit", "--family ornstein"),
    ("rank", "--family staircase"), ("--mode riesz", "--family morse"),
    ("--mode riesz", "--family random"),
}


def _combinations() -> list[tuple[str, str, str | None]]:
    """(subcommand, mode/task row or subcommand, source row or None) for every run kind."""
    combos = []
    for run in _RUNS:
        command = run if run in _PARSERS else ("spectrum" if "--mode" in run else "ensemble")
        sources = _SOURCES if "--family" in _named(command, run) else [None]
        combos += [(command, run, source) for source in sources]
    return combos


def _value(action: argparse.Action) -> list[str]:
    """A value to give ``action``'s option: its default where it has one."""
    if action.nargs == 0:
        return []
    if action.nargs == 3:
        return ["1", "2", "5"]
    if action.default is not None:
        return [str(action.default)]
    return [action.choices[0] if action.choices else "1"]


@pytest.mark.parametrize("command, run, source", _combinations(),
                         ids=[" ".join(dict.fromkeys(filter(None, c))) for c in _combinations()])
def test_every_option_a_run_does_not_read_exits_2(command, run, source, tmp_path, capsys):
    schedule = tmp_path / "sched.json"
    stages = (Stage(3, (0, 0, 0)), Stage(3, (0, 0, 0)))
    save_schedule(Schedule(BINARY, word_from_text(BINARY, "001"), stages), schedule)
    base = [command, *_RUNS[run],
            *[arg.format(schedule=schedule) for arg in _SOURCES.get(source, [])]]
    keys = [command, run] + ([source] if source in cli._READS else [])
    out = tmp_path / "o"
    named = _named(*keys, given={arg for arg in base if arg.startswith("--")})
    unread = {a.option_strings[0]: a for a in _PARSERS[command]._actions
              if a.option_strings[0] not in _COMMON | named}
    assert unread
    for option, action in sorted(unread.items()):
        assert cli.run([*base, option, *_value(action), "--out", str(out)]) == 2, option
        assert "usage:" in capsys.readouterr().err, option
        assert not out.exists(), option
    refused = (run, source) in _SCHEDULE_REFUSED
    assert cli.run([*base, "--out", str(out)]) == (2 if refused else 0)
    assert "usage:" not in capsys.readouterr().err


_MISREAD = {
    "jumps --base": ["ensemble", "--task", "jumps", "--seeds", "1", "--h", "16", "--q-list", "4",
                     "--base", "3"],
    "flat --grid-size": ["spectrum", "--mode", "flat", "--exp-n", "2,5", "--grid-size", "8"],
    "morse --seed": [*_VALID["geometry"], "--seed", "99"],
    "--qs with --q": ["geometry", "--family", "random", "--qs", "4,4", "--q", "9", "--seed", "1"],
    "--qs with --q and --depth": ["geometry", "--family", "random", "--qs", "4,4", "--q", "9",
                                  "--depth", "2", "--seed", "1"],
    "--line with --grid-size": ["spectrum", "--mode", "riesz", "--family", "staircase", "--qs",
                                "3,3", "--labels", "0=1", "--line", "1", "2", "5",
                                "--grid-size", "16384"],
    "riesz --eps at its default": ["spectrum", "--mode", "riesz", "--family", "staircase",
                                   "--qs", "3,3", "--labels", "0=1", "--eps", "0.1"],
    "--depth with --qs": ["geometry", "--family", "random", "--qs", "4,4", "--depth", "2",
                          "--seed", "1"],
    "--q without --depth": ["geometry", "--family", "random", "--q", "4", "--seed", "1"],
    "--body-base alone": [*_VALID["geometry"], "--body-base", "1"],
    "--body-depth alone": [*_VALID["geometry"], "--body-depth", "1"],
    "--schedule with --family": [*_VALID["geometry"], "--schedule", "sched.json"],
    "no source": ["rank", "--stage", "0"],
    "no labels": ["spectrum", "--mode", "merit", *_MORSE],
    "no mode": ["spectrum", *_MORSE, "--labels", "0=1,1=-1"],
    "no task": ["ensemble", "--seeds", "2", "--h", "16", "--q-list", "4"],
    "no --exp-n": ["spectrum", "--mode", "flat"],
    # Abbreviations: --h printed the help of decay and exited 0 with no output,
    # and --seed-w was taken for --seed-word.
    "--h, a prefix of --help": [*_VALID["decay"], "--h", "4"],
    "--seed-w, a prefix of --seed-word": ["geometry", "--family", "morse", "--r", "2",
                                          "--depth", "3", "--seed-w", "01"],
}


@pytest.mark.parametrize("argv", _MISREAD.values(), ids=_MISREAD)
def test_an_unread_or_missing_option_exits_2_before_out_is_created(argv, tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.run(argv + ["--out", str(out)]) == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# a fuzz drawn from cli._READS and cli._OPTIONS
# ---------------------------------------------------------------------------

# Values the fuzz gives an option, by the kind its _OPTIONS keywords declare:
# small and edge integers, malformed numbers, text and comma lists.  --threads
# and --seeds get 1, 2 or an invalid value only: an ensemble opens
# min(--threads, --seeds) threads, and the fuzz never starts many.  --force is
# never drawn, as it would lift the stand-in limits that keep each run small.
_INTS = ["0", "1", "2", "3", "4", "-1", str(2**63), str(2**70), "x", "1.5"]
_FLOATS = ["0", "0.5", "1", "2", "3", "-1", "nan", "inf", "x"]
_TEXTS = ["0", "1", "3", "01", "001", "012", "0123", "2,3", "3,3", "3,3,3", "1,2", "3,-2",
          "0,-1", "3,x", "", "0=1,1=-1", "0=1,1=-1,2=0", "0=1,1=1j,2=-1,3=-1j", "0=1e200",
          "0=x", "x"]
_FEW = ["1", "2", "0", "-1", "x"]
_FILES = ["pure.json", "rotated.json", "spacer.json", "missing.json", "malformed.json",
          "list.json"]
_STAND_INS = [(mod, "MAX_SYMBOLS", 4096) for mod in (cli, words_mod, corr, dyn, ice)] + [
    (cli, "MAX_GRID_POINTS", 4096), (cli, "MAX_DENSE_TERMS", 2**16),
    (spx, "MAX_DENSE_TERMS", 2**16), (rank_mod, "MAX_SWEEP_CUTS", 64)]


def _good_values() -> dict[str, list[str]]:
    """The values each option takes in the runs above that exit 0."""
    good: dict[str, list[str]] = {}
    for line in [*_VALID.values(), *_RUNS.values(), *_SOURCES.values()]:
        for option, value in zip(line, line[1:]):
            if option.startswith("--") and not value.startswith("-") and "{" not in value:
                good.setdefault(option, []).append(value)
    return good


# Drawn three times in four where an option has them, so that more runs get
# past the checks into the work.
_GOOD = _good_values()


def _values(option: str):
    """A strategy for one value of ``option``: its "OPTION VALUE" rows or choices
    and one that is neither, or the pool of the type its ``cli._OPTIONS``
    keywords declare, mixed with its values in ``_GOOD``."""
    keywords = cli._OPTIONS[option]
    rows = [key.split()[1] for key in cli._READS if key.split()[0] == option]
    if option in ("--threads", "--seeds"):
        return st.sampled_from(_FEW)
    if rows or "choices" in keywords:
        pool = [*(rows or keywords["choices"]), "x"]
    elif option == "--schedule":
        pool = _FILES
    elif "type" in keywords:
        pool = _FLOATS if keywords["type"] is float else _INTS
    else:
        pool = _TEXTS
    good = _GOOD.get(option)
    if not good:
        return st.sampled_from(pool)
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(good if k else pool))


@st.composite
def _command_lines(draw) -> list[str]:
    """A command line of a subcommand and the rows of ``cli._READS`` its options
    reach.  A needed clause is left out now and then, an optional one is given
    now and then, a "--a+--b" clause may lose --b, and one option of
    ``cli._OPTIONS`` the run may not read may be added."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv, keys = [command], [command]

    def give(option: str) -> None:
        if cli._OPTIONS[option].get("action") == "store_true":
            argv.append(option)
            return
        count = cli._OPTIONS[option].get("nargs", 1)
        value = draw(st.lists(_values(option), min_size=count, max_size=count))
        argv.extend([option, *value])
        keys.extend([f"{option} {value[0]}"] if f"{option} {value[0]}" in cli._READS else [])

    for key in keys:
        for clause in cli._READS[key].split():
            if draw(st.integers(0, 9)) < (9 if clause.endswith("!") else 4):
                lead, *rest = draw(st.sampled_from(clause.rstrip("!").split("|"))).split("+")
                give(lead)
                for option in rest:
                    if draw(st.integers(0, 9)):
                        give(option)
    if not draw(st.integers(0, 9)):
        give(draw(st.sampled_from(sorted(set(cli._OPTIONS) - {"--out", "--force"}))))
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The --schedule files the fuzz draws, by name: pure, rotated and spacer
    schedules, a missing file, malformed JSON and JSON of the wrong shape."""
    base = tmp_path_factory.mktemp("fuzz")
    pure = Schedule(BINARY, word_from_text(BINARY, "001"), (Stage(3, (0, 0, 0)),) * 2)
    save_schedule(pure, base / "pure.json")
    save_schedule(random_schedule([3, 2], 1, word_from_text(BINARY, "011")), base / "rotated.json")
    save_schedule(words_mod.rank_one_schedule("staircase", [3, 3]), base / "spacer.json")
    (base / "malformed.json").write_text("{", encoding="utf-8")
    (base / "list.json").write_text("[]", encoding="utf-8")
    return base


def _payloads(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


@given(argv=_command_lines())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_fuzzed_command_lines_exit_0_2_or_3(argv, fuzz_files):
    # Stand-in limits keep every admitted run to a few thousand symbols.  A
    # failed run leaves --out without a payload, and a run that exits 0 writes
    # the same payload bytes again into a fresh --out.  An exit 1 is an
    # exception raised here.
    argv = [str(fuzz_files / a) if a in _FILES else a for a in argv]
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory(dir=fuzz_files) as tmp:
        for module, name, value in _STAND_INS:
            mp.setattr(module, name, value)
        out = Path(tmp) / "o"
        code = cli.run([*argv, "--out", str(out)])
        assert code in (0, 2, 3), argv
        if code:
            assert not out.exists() or not any(out.iterdir()), argv
        else:
            assert (out / "manifest.json").exists(), argv
            again = Path(tmp) / "again"
            assert cli.run([*argv, "--out", str(again)]) == 0, argv
            assert _payloads(again) == _payloads(out), argv


# ---------------------------------------------------------------------------
# exit codes and guardrails
# ---------------------------------------------------------------------------


def test_unknown_command_exits_2(capsys):
    assert cli.run(["definitely-not-a-command"]) == 2
    capsys.readouterr()


def test_missing_schedule_exits_2(tmp_path):
    assert cli.run(["geometry", "--out", str(tmp_path / "o")]) == 2


def _icelab(argv: list[str]) -> subprocess.CompletedProcess:
    """``icelab argv`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", "from icelab.cli import main; main()", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


_CONSTANT_LIFT = ["--labels", "0=1", "--base", "1", "--diag-depth", "2"]


@pytest.mark.parametrize("argv", [
    ["simplicity", "--family", "ornstein", "--qs", "3,3", "--seed", "1", *_CONSTANT_LIFT],
    ["simplicity", "--family", "random", "--qs", "3,3", "--seed", "1", "--seed-word", "0",
     "--alphabet", "01", *_CONSTANT_LIFT],
    ["ensemble", "--task", "simplicity", "--seeds", "2", "--qs", "3,3", "--seed-word", "0",
     "--alphabet", "01", *_CONSTANT_LIFT],
], ids=["ornstein", "random", "ensemble"])
def test_simplicity_of_a_constant_lift_exits_2(argv, tmp_path):
    out = tmp_path / "o"
    res = _icelab(argv + ["--out", str(out)])
    assert res.returncode == 2, res.stderr
    assert "f2 = 0" in res.stderr and "Traceback" not in res.stderr
    assert list(out.iterdir()) == []


def test_simplicity_payload_does_not_depend_on_the_blas_thread_count(tmp_path):
    # h_N = 32,805.  OpenBLAS splits an np.vdot of more than about 10,000 values
    # across its threads; whole-array products wrote a different simplicity.json
    # under 1 and 2 threads.
    argv = ["simplicity", "--family", "random", "--qs", "9,27,5,9", "--seed", "1",
            "--seed-word", "012", "--alphabet", "012",
            "--labels", "0=1,1=-0.5+0.8660254037844386j,2=-0.5-0.8660254037844386j",
            "--base", "1", "--diag-depth", "4"]
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", "from icelab.cli import main; main()", *argv,
                        "--out", str(out)], env=env, check=True, capture_output=True, timeout=120)
        digests.add(tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                          for name in ("simplicity.json", "simplicity.csv")))
    assert len(digests) == 1


_EQUAL_LABELS = ["--qs", "3,9,5", "--seed-word", "012", "--alphabet", "012",
                 "--labels", "0=0.1,1=0.1,2=0.1", "--base", "1", "--diag-depth", "3"]


@pytest.mark.parametrize("argv", [
    ["simplicity", "--family", "random", "--seed", "1", *_EQUAL_LABELS],
    ["ensemble", "--task", "simplicity", "--seeds", "2", *_EQUAL_LABELS],
], ids=["simplicity", "ensemble"])
def test_simplicity_of_labels_equal_on_every_letter_exits_2(argv, tmp_path):
    # All 0.1 centres to a rounding residue (f2 = 1.9e-34), not to 0.
    out = tmp_path / "o"
    res = _icelab(argv + ["--out", str(out)])
    assert res.returncode == 2, res.stderr
    assert "differ on the letters of W_1" in res.stderr and "Traceback" not in res.stderr
    assert list(out.iterdir()) == []


# Runs the command with _eval_line replaced by a function that raises, so a
# dense evaluation that ran would exit 1 with a traceback.
_NO_DENSE_EVALUATION = """import sys
from icelab import spectral
def ran(*args):
    raise AssertionError("a dense evaluation ran")
spectral._eval_line = ran
from icelab.cli import run
sys.exit(run(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    # 429,454 frequencies at the default 10,001 points: 2^32 + 2,158 terms.
    ["spectrum", "--mode", "flat", "--exp-n", "429454"],
    # The oracle evaluates the 1,821 symbols of W_6 at 2^22 points.
    ["spectrum", "--mode", "riesz", "--family", "staircase", "--qs", "3,3,3,3,3,3",
     "--seed-word", "0", "--alphabet", "01", "--spacer-symbol", "1", "--labels", "0=1",
     "--line", "1", "2", str(2**22), "--check-oracle"],
], ids=["flat", "riesz-oracle"])
def test_dense_evaluation_above_the_limit_exits_3(argv, tmp_path):
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", _NO_DENSE_EVALUATION, *argv, "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 3, res.stderr
    assert "dense evaluation terms" in res.stderr and "Traceback" not in res.stderr
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["geometry"], ["rank"],
    ["simplicity", "--labels", "0=1,1=-1,2=0", "--base", "1", "--diag-depth", "2"],
], ids=["geometry", "rank", "simplicity"])
def test_schedule_with_a_rotation_int64_cannot_hold_exits_2(argv, tmp_path):
    # A rotation of 2**70 used to reach np.asarray(..., dtype=np.int64) and
    # exit 1 with an OverflowError traceback.
    stages = [{"q": 3, "rotations": [0, 2**70, 1], "spacers": []},
              {"q": 3, "rotations": [0, 1, 2], "spacers": []}]
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({"alphabet": {"symbols": ["0", "1", "2"], "spacer_symbol": None},
                                "seed_word": "012", "stages": stages}), encoding="utf-8")
    out = tmp_path / "o"
    res = _icelab([*argv, "--schedule", str(path), "--out", str(out)])
    assert res.returncode == 2, res.stderr
    assert "below 2**63" in res.stderr and "Traceback" not in res.stderr
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_ensemble_threads_below_one_exits_2_before_out_is_created(threads, tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["ensemble", "--task", "jumps", "--seeds", "2", "--h", "16", "--q-list", "4",
            "--threads", threads, "--out", str(out)]
    assert cli.run(argv) == 2
    assert "--threads: " + threads + " is below 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["ensemble", "--task", "jumps", "--seeds", "1", "--h", "4", "--q-list", "3,-2"],
    ["spectrum", "--mode", "flat", "--exp-n", "3", "--line", "x", "1", "2"],
    ["spectrum", "--mode", "riesz", "--family", "morse", "--r", "2", "--depth", "3",
     "--labels", "0=1,1=-1", "--line", "0", "x", "5"],
    ["spectrum", "--mode", "flat", "--exp-n", "3", "--line", "1", "2", "2.5"],
    ["geometry", "--family", "random", "--seed", "-1", "--q", "2", "--depth", "2"],
    ["ensemble", "--task", "jumps", "--seeds", "1", "--h", "4", "--q-list", "3",
     "--base-seed", "-1"],
    ["rank", "--family", "random", "--seed", "1", "--q", "2", "--depth", "1", "--stage", "1"],
    ["rank", "--family", "random", "--seed", "1", "--q", "2", "--depth", "2", "--stage", "-1"],
    ["rank", "--family", "morse", "--r", "2", "--depth", "0"],
    ["geometry", "--family", "random", "--seed", "1", "--q", "2", "--depth", "2",
     "--body-base", "-1", "--body-depth", "1"],
    ["geometry", "--family", "random", "--seed", "1", "--q", "2", "--depth", "-3"],
], ids=["q-list-below-1", "line-not-a-number", "riesz-line-not-a-number", "line-points",
        "negative-seed", "negative-base-seed", "rank-stage-past-depth", "rank-stage-negative",
        "rank-depth-0", "body-base-negative", "negative-depth"])
def test_bad_value_exits_2_with_out_empty(argv, tmp_path):
    # Each of these exited 1 with a traceback (numpy's "negative dimensions"
    # or "expected non-negative integer", float('x'), an IndexError) or
    # exited 0 on a wrapped index (the last stage for -1, a depth-0 geometry
    # for --depth -3).
    out = tmp_path / "o"
    assert cli.run([*argv, "--out", str(out)]) == 2
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("family", ["random", "staircase"])
def test_depth_is_priced_before_the_stage_list_exists(family, tmp_path):
    # --depth 2^70 exited 1 with an OverflowError from [q] * depth.  It asks
    # for 2^70 stages of --q copies, so it is refused like --q above the
    # limit (exit 3), before the list is made.
    out = tmp_path / "o"
    argv = ["geometry", "--family", family, "--q", "1", "--depth", str(2**70)]
    argv += ["--seed", "1"] if family == "random" else []
    assert cli.run([*argv, "--out", str(out)]) == 3
    assert list(out.iterdir()) == []


class _FannedOut(Exception):
    """Raised by a stand-in ``_fan_out``: the ensemble was admitted."""


def _no_fan_out(task, seeds, threads):
    raise _FannedOut


# Options of each task and the positions one task holds: q for jumps, h_N
# of the truncation it builds for decay and simplicity.
_FAN_OUT = {
    "jumps": (["--h", "16", "--q-list", "4,8"], 8),
    "decay": (["--qs", "4,4,2", "--seed-word", "01", "--labels", "0=1,1=-1",
               "--from-stage", "0", "--to-stage", "2"], 2 * 4 * 4),
    "simplicity": (["--qs", "9,27,4", "--labels", "0=1,1=-1,2=0", "--base", "1",
                    "--diag-depth", "3"], 3 * 9 * 27 * 4),
}


@pytest.mark.parametrize("task", sorted(_FAN_OUT))
def test_ensemble_prices_its_concurrent_tasks_before_any_draw(task, monkeypatch, tmp_path,
                                                              capsys):
    options, positions = _FAN_OUT[task]
    monkeypatch.setattr(cli, "MAX_SYMBOLS", 2 * positions - 1)  # stand-in limit
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)  # the pool is bounded by them too
    monkeypatch.setattr(cli, "_fan_out", _no_fan_out)
    argv = ["ensemble", "--task", task, "--seeds", "3", *options, "--out", str(tmp_path / "o")]
    assert cli.run([*argv, "--threads", "2"]) == 3
    err = capsys.readouterr().err
    assert f"x 2 concurrent tasks = {2 * positions} > {2 * positions - 1}" in err
    assert list((tmp_path / "o").iterdir()) == []
    # One thread, or one seed on two threads, holds one task at a time;
    # --force lifts the refusal.
    for extra in (["--threads", "1"], ["--threads", "2", "--seeds", "1"],
                  ["--threads", "2", "--force"]):
        with pytest.raises(_FannedOut):
            cli.run([*argv, *extra])


class _SerialPool:
    """Stand-in for ``cli.ThreadPoolExecutor``: records ``max_workers`` and
    runs the tasks one after another in the calling thread, starting none."""

    opened: list = []  # each test sets a fresh list

    def __init__(self, max_workers):
        _SerialPool.opened.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("threads, seeds, cpus, workers", [
    (10**6, 3, 2, 2), (10**6, 3, 64, 3), (1, 3, 64, 1), (4, 8, 2, 2), (2, 8, 64, 2),
])
def test_ensemble_pool_is_bounded_by_the_seeds_and_the_cpus(threads, seeds, cpus, workers,
                                                            monkeypatch, tmp_path, capsys):
    # --threads 10^6 asks for a million OS threads.  No thread is started
    # here: the spy pool records the count it is opened with and runs the
    # tasks serially.  The pool opens min(--threads, --seeds, usable CPUs)
    # workers, and the price counts the same number of concurrent tasks.
    monkeypatch.setattr(cli, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "opened", [])
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    argv = ["ensemble", "--task", "jumps", "--seeds", str(seeds), "--threads", str(threads),
            "--h", "16", "--q-list", "4,8"]
    monkeypatch.setattr(cli, "MAX_SYMBOLS", 8 * workers)  # stand-in limit: admitted
    assert cli.run([*argv, "--out", str(tmp_path / "a")]) == 0
    assert _SerialPool.opened == [workers]
    if workers > 1:  # one worker: the --q-list entry of 8 is refused first
        monkeypatch.setattr(cli, "MAX_SYMBOLS", 8 * workers - 1)
        assert cli.run([*argv, "--out", str(tmp_path / "r")]) == 3
        assert f"x {workers} concurrent tasks = {8 * workers} >" in capsys.readouterr().err
        assert _SerialPool.opened == [workers]


def test_benchmark_ensemble_is_admitted(monkeypatch, tmp_path):
    # Two threads of h_N = 16 * 256 * 256 positions each, at the real limit.
    monkeypatch.setattr(cli, "_fan_out", _no_fan_out)
    (command,) = [c for c in _WORKLOADS["deep-tower"](4711) if c.args[0] == "ensemble"]
    with pytest.raises(_FannedOut):
        cli.run([*command.args, "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("which", ["missing", "directory", "empty"])
def test_unreadable_schedule_file_exits_2(which, tmp_path):
    path = {"missing": str(tmp_path / "missing.json"), "directory": str(tmp_path),
            "empty": ""}[which]
    out = tmp_path / "o"
    res = _icelab(["geometry", "--schedule", path, "--out", str(out)])
    assert res.returncode == 2, res.stderr
    assert "cannot read schedule file" in res.stderr and "Traceback" not in res.stderr
    assert list(out.iterdir()) == []


def test_height_guardrail_exits_3(tmp_path):
    code = cli.run([
        "build", "--family", "random", "--qs", "512,512,512,512", "--seed", "1",
        "--seed-word", "0101", "--alphabet", "01", "--out", str(tmp_path / "o"),
    ])
    assert code == 3


def test_riesz_oracle_over_the_symbol_limit_exits_3(tmp_path, monkeypatch):
    # h_14 = 11,957,421: the product alone builds only W_0, the oracle builds W_14.
    argv = [
        "spectrum", "--mode", "riesz", "--family", "staircase", "--qs", ",".join(["3"] * 14),
        "--seed-word", "0", "--alphabet", "01", "--spacer-symbol", "1", "--labels", "0=1",
        "--grid-size", "1024",
    ]
    calls = []
    product = spx.riesz_partial_product

    def spy(*args, **kwargs):
        calls.append(args)
        return product(*args, **kwargs)

    monkeypatch.setattr(spx, "riesz_partial_product", spy)
    assert cli.run(argv + ["--check-oracle", "--out", str(tmp_path / "oracle")]) == 3
    assert list((tmp_path / "oracle").iterdir()) == []
    assert calls == [], "the product ran before the oracle's size guard refused"
    assert cli.run(argv + ["--out", str(tmp_path / "product")]) == 0
    assert len(calls) == 1


def test_riesz_rotated_schedule_exits_2_before_the_oracle(tmp_path, monkeypatch):
    # Every stage of a random schedule is rotated, so the factorisation is refused.
    calls = []
    monkeypatch.setattr(spx, "direct_word_spectrum", lambda *a, **k: calls.append(a))
    code = cli.run([
        "spectrum", "--mode", "riesz", "--family", "random", "--qs", "16,16,16,32",
        "--seed", "3", "--labels", "0=1,1=-1", "--grid-size", "1024", "--check-oracle",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert calls == [], "the oracle ran before the rotation check refused"
    assert list((tmp_path / "o").iterdir()) == []


def test_thread_pool_is_opened_in_one_place():
    from test_errors import _module_calls

    def opens_pool(call) -> bool:
        return getattr(call.func, "id", None) == "ThreadPoolExecutor"

    # The ensemble's seed pool, which perfbench's tracer replaces as
    # cli.ThreadPoolExecutor, and the transform kernel's block pool.
    assert _module_calls(opens_pool) == [("cli", "_fan_out"), ("correlation", "_correlate_owned")]


def test_fork_is_called_in_one_place():
    # The csv writer's workers are the only child processes the library forks.
    from test_errors import _module_calls

    def forks(call) -> bool:
        return (getattr(call.func, "attr", None) == "fork"
                and getattr(call.func.value, "id", None) == "os")

    assert _module_calls(forks) == [("cli", "_fork_span")]


def test_rank_over_the_sweep_cap_exits_3(tmp_path):
    # 140,000 rotations drawn from [0, 131072) leave about 86,000 distinct cuts.
    code = cli.run([
        "rank", "--family", "random", "--qs", "140000", "--seed", "0",
        "--seed-word", "01" * 65536, "--alphabet", "01", "--out", str(tmp_path / "o"),
    ])
    assert code == 3


def test_rank_above_the_lowered_sweep_cap_exits_3(tmp_path):
    # 16,384 rotations drawn from [0, 16384) leave 10,277 distinct cuts: above
    # the 8,192-cut cap.  The dense sweep (about 24 B per m^2 cell) would need
    # about 2.5 GB here, so the cap is checked before the command runs.
    sch = random_schedule([16384], 0, word_from_text(BINARY, "01" * 8192))
    assert np.unique(sch.rotations_mod(0)).size == 10277 > MAX_SWEEP_CUTS
    code = cli.run([
        "rank", "--family", "random", "--qs", "16384", "--seed", "0",
        "--seed-word", "01" * 8192, "--alphabet", "01", "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    assert list((tmp_path / "o").iterdir()) == []


def test_random_family_requires_seed(tmp_path):
    code = cli.run([
        "build", "--family", "random", "--qs", "4,4",
        "--seed-word", "0101", "--alphabet", "01", "--out", str(tmp_path / "o"),
    ])
    assert code == 2


def test_overwrite_refusal(cat_file, tmp_path):
    out = tmp_path / "o"
    argv = ["geometry", "--schedule", str(cat_file), "--out", str(out)]
    assert cli.run(argv) == 0
    before = (out / "columns.csv").read_bytes()
    assert cli.run(argv) == 2
    assert (out / "columns.csv").read_bytes() == before
    assert cli.run(argv + ["--overwrite"]) == 0


@pytest.mark.parametrize("argv, existing", [
    (["build", "--family", "morse", "--r", "2", "--depth", "3", "--seed-word", "01",
      "--alphabet", "01"], "schedule.json"),
    (["decay", "--family", "random", "--qs", "16,16", "--seed", "3", "--seed-word", "0101",
      "--alphabet", "01", "--labels", "0=1,1=-1", "--from-stage", "0", "--to-stage", "2"],
     "decay.json"),
])
def test_failed_run_leaves_no_outputs(argv, existing, tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / existing).write_text("keep\n", encoding="utf-8")
    assert cli.run(argv + ["--out", str(out)]) == 2
    assert [p.name for p in out.iterdir()] == [existing]
    assert (out / existing).read_text(encoding="utf-8") == "keep\n"
    assert capsys.readouterr().out == "", "a failed run printed its summary line"


def test_schedule_file_with_a_fractional_rotation_exits_2(cat_file, tmp_path):
    doc = json.loads(cat_file.read_text(encoding="utf-8"))
    doc["stages"][0]["rotations"][1] = 2.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o"
    assert cli.run(["geometry", "--schedule", str(bad), "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["geometry", "--family", "random", "--qs", "16,10000001", "--seed", "1"],
    ["build", "--family", "random", "--q", "10000001", "--depth", "1", "--seed", "1"],
    ["ensemble", "--task", "jumps", "--seeds", "2", "--h", "16", "--q-list", "10000001"],
], ids=["qs", "q", "q-list"])
def test_oversized_copy_count_exits_3_before_any_draw(argv, tmp_path, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a stage was drawn before the copy-count guard refused")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    out = tmp_path / "o"
    assert cli.run(argv + ["--out", str(out)]) == 3
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["spectrum", "--mode", "merit", "--family", "morse", "--r", "2", "--depth", "3",
     "--seed-word", "01", "--alphabet", "01", "--labels", "0=1,1=-1", "--merit-stages", "x"],
    ["spectrum", "--mode", "flat", "--exp-n", "x"],
], ids=["merit-stages", "exp-n"])
def test_non_integer_stage_list_exits_2(argv, tmp_path):
    out = tmp_path / "o"
    assert cli.run(argv + ["--out", str(out)]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("stages", ["-1,3", "0,-3", "-4", "1,4"])
def test_merit_stages_outside_the_schedule_exit_2(stages, tmp_path, capsys):
    # A negative entry would index the list of words from its end and score
    # W_3 as stage -1.
    out = tmp_path / "o"
    argv = ["spectrum", "--mode", "merit", *_MORSE, "--labels", "0=1,1=-1",
            f"--merit-stages={stages}", "--out", str(out)]
    assert cli.run(argv) == 2
    assert "outside [0, 3]" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_merit_rows_follow_the_stage_list_with_repeats(tmp_path):
    # Each word is dropped after its last entry in the list, not before.
    out = tmp_path / "o"
    argv = ["spectrum", "--mode", "merit", *_MORSE, "--labels", "0=1,1=-1",
            "--merit-stages", "3,0,3,1", "--out", str(out)]
    assert cli.run(argv) == 0
    words = words_mod.build_word(cli._schedule_from_args(cli.build_parser().parse_args(argv)))
    expected = [[str(n), str(words[n].h),
                 str(spx.merit_factor(1.0 - 2.0 * words[n].symbols))] for n in (3, 0, 3, 1)]
    lines = (out / "merit.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[1:] for line in lines[1:]] == expected


def test_exp_n_above_the_symbol_limit_exits_3_before_any_evaluation(tmp_path, monkeypatch):
    # Each --exp-n entry n asks for n frequencies at every grid point, so the
    # spy evaluates two terms in its place: only the guard's decision is tested.
    calls = []
    exp_frequency_set = spx.exp_frequency_set

    def spy(n, eps):
        calls.append(n)
        return exp_frequency_set(2, eps)

    monkeypatch.setattr(spx, "exp_frequency_set", spy)
    argv = ["spectrum", "--mode", "flat", "--line", "1", "2", "5"]
    out = tmp_path / "over"
    assert cli.run(argv + ["--exp-n", f"2,{MAX_SYMBOLS + 1}", "--out", str(out)]) == 3
    assert list(out.iterdir()) == []
    assert calls == [], "exp_frequency_set ran before the --exp-n guard refused"
    assert cli.run(argv + ["--exp-n", f"2,{MAX_SYMBOLS}", "--out", str(tmp_path / "at")]) == 0
    assert calls == [2, MAX_SYMBOLS]
    forced = ["--exp-n", str(MAX_SYMBOLS + 1), "--force", "--out", str(tmp_path / "forced")]
    assert cli.run(argv + forced) == 0
    assert calls[-1] == MAX_SYMBOLS + 1


def test_recursion_check_is_priced_before_any_word_is_built(tmp_path, monkeypatch):
    # Stage 2 of --qs 2,2,1000000 checks 999,999 lags over the 8,000,000
    # symbols of W_3: about 8e12 terms, some 10 hours at the 38 ms per lag
    # measured, refused through MAX_DENSE_TERMS.
    def no_build(*args, **kwargs):
        raise AssertionError("a word was built before the recursion check was priced")

    monkeypatch.setattr(words_mod, "build_word", no_build)
    out = tmp_path / "o"
    argv = ["correlate", "--family", "random", "--qs", "2,2,1000000", "--seed", "0",
            "--seed-word", "01", "--alphabet", "01", "--labels", "0=1,1=-1",
            "--check-recursion", "--out", str(out)]
    assert cli.run(argv) == 3
    assert list(out.iterdir()) == []


def test_random_stage_above_int64_exits_2_before_any_draw(tmp_path, monkeypatch):
    # Stage 63 of --q 2 over a 2-letter seed has height 2^64.
    def no_draw(*args, **kwargs):
        raise AssertionError("a stage was drawn before the height check refused")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    out = tmp_path / "o"
    argv = ["geometry", "--family", "random", "--q", "2", "--depth", "70", "--seed", "1"]
    assert cli.run(argv + ["--out", str(out)]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["geometry", "--family", "ornstein", "--q", "2", "--depth", "70", "--seed", "1"],
    ["ensemble", "--task", "jumps", "--seeds", "1", "--h", str(10**20), "--q-list", "2"],
    ["geometry", "--family", "random", "--q", "2", "--depth", "63", "--seed", "1"],
    ["ensemble", "--task", "jumps", "--seeds", "1", "--h", str(2**63), "--q-list", "2"],
    ["ensemble", "--task", "jumps", "--seeds", "1", "--h", "0", "--q-list", "2"],
    ["geometry", "--family", "morse", "--r", "2", "--depth", "70", "--seed-word", "01",
     "--alphabet", "01"],
    ["geometry", "--family", "staircase", "--q", "2", "--depth", "70"],
], ids=["ornstein-depth-70", "jumps-h-1e20", "random-h-2^63", "jumps-h-2^63", "jumps-h-0",
        "morse-depth-70", "staircase-depth-70"])
def test_draw_height_outside_int64_exits_2(argv, tmp_path, capsys):
    # Heights an int64 draw on [0, h), or a reduction mod h, cannot take.
    out = tmp_path / "o"
    assert cli.run(argv + ["--out", str(out)]) == 2
    assert list(out.iterdir()) == []
    assert "outside [1, 2**63)" in capsys.readouterr().err


def test_schedule_file_with_a_stage_height_outside_int64_exits_2(tmp_path, capsys):
    # Eight more Morse stages on top of depth 61 make h_62 = 2^63 a stage height.
    doc = schedule_to_dict(morse_schedule(2, 61, word_from_text(BINARY, "01")))
    doc["stages"] += doc["stages"][-1:] * 8
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o"
    assert cli.run(["geometry", "--schedule", str(deep), "--out", str(out)]) == 2
    assert list(out.iterdir()) == []
    assert "outside [1, 2**63)" in capsys.readouterr().err


def test_morse_at_the_largest_admitted_depth_exits_0(tmp_path):
    # The top height h_61 = 2^62 is admitted; depth 62 would make it 2^63, whose
    # int64 copy starts wrapped: stage_starts(61) read [0, 2^62, -2^63].
    out = tmp_path / "o"
    argv = ["geometry", "--family", "morse", "--r", "2", "--depth", "61", "--seed-word", "01",
            "--alphabet", "01", "--out", str(out)]
    assert cli.run(argv) == 0
    assert (out / "geometry.json").exists()


def test_jumps_at_the_largest_int64_height_exits_0(tmp_path):
    out = tmp_path / "o"
    argv = ["ensemble", "--task", "jumps", "--seeds", "1", "--h", str(2**63 - 1), "--q-list", "2"]
    assert cli.run(argv + ["--out", str(out)]) == 0
    assert json.loads((out / "ensemble.json").read_text())["h"] == 2**63 - 1


def test_outdir_env_default(cat_file, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
    assert cli.run(["geometry", "--schedule", str(cat_file)]) == 0
    assert (target / "geometry.json").exists()


def test_build_coding_length_zero_exits_2(tmp_path):
    out = tmp_path / "o"
    code = cli.run([
        "build", "--family", "morse", "--r", "2", "--depth", "4", "--seed-word", "01",
        "--alphabet", "01", "--coding-length", "0", "--out", str(out),
    ])
    assert code == 2
    assert list(out.iterdir()) == []


def test_build_coding_start_beyond_int64_is_taken_mod_h_N(tmp_path):
    # --coding-start 2^70 exited 1 with an OverflowError.  Any start is taken
    # mod h_N; the oracle reads the seed letters at the level-0 coordinates
    # of the positions (the arithmetic route) on a spacer family.
    start, length = 2**70, 40
    out = tmp_path / "o"
    assert cli.run(["build", "--family", "staircase", "--qs", "3,4,5", "--coding-start",
                    str(start), "--coding-length", str(length), "--out", str(out)]) == 0
    sch = words_mod.load_schedule(out / "schedule.json")
    h_N = sch.heights()[-1]
    positions = (start % h_N + np.arange(length)) % h_N
    letters = dyn._letters(sch, dyn.project_positions(sch, positions, sch.depth, 0))
    expect = "".join(sch.alphabet.symbols[i] for i in letters.tolist())
    assert (out / "coding.txt").read_text(encoding="utf-8") == expect + "\n"


_TRITS = ["--seed-word", "012", "--alphabet", "012"]


@pytest.mark.parametrize("argv", [
    ["decay", "--family", "random", "--qs", "3,3,3", "--seed", "1", *_TRITS,
     "--labels", "0=nan,1=1,2=0", "--from-stage", "0", "--to-stage", "2"],
    ["ensemble", "--task", "decay", "--seeds", "2", "--qs", "3,3,3", *_TRITS,
     "--labels", "0=1,1=inf,2=0", "--from-stage", "0", "--to-stage", "2"],
    ["simplicity", "--family", "random", "--qs", "3,9", "--seed", "1", *_TRITS,
     "--labels", "0=1,1=-inf,2=0", "--base", "1", "--diag-depth", "2"],
    ["ensemble", "--task", "simplicity", "--seeds", "2", "--qs", "3,9", *_TRITS,
     "--labels", "0=1,1=-1,2=nanj", "--base", "1", "--diag-depth", "2"],
    ["correlate", "--family", "random", "--qs", "3,3", "--seed", "1", *_TRITS,
     "--labels", "0=1,1=-1,2=nan"],
    ["spectrum", "--mode", "riesz", "--family", "staircase", "--qs", "3,3",
     "--labels", "0=inf", "--grid-size", "64"],
], ids=["decay", "ensemble-decay", "simplicity", "ensemble-simplicity", "correlate", "riesz"])
def test_non_finite_labels_exit_2_with_out_empty(argv, tmp_path, capsys):
    # decay wrote "slope": NaN and Infinity into decay.json, which is not
    # JSON, and exited 0; the others exited 0 on NaN statistics too.
    out = tmp_path / "o"
    assert cli.run([*argv, "--out", str(out)]) == 2
    assert "not a finite number" in capsys.readouterr().err
    assert list(out.iterdir()) == []


_HUGE = "0=1e308,1=-1e308,2=0"


@pytest.mark.parametrize("argv", [
    ["decay", "--family", "random", "--qs", "3,3,3", "--seed", "1", *_TRITS,
     "--labels", _HUGE, "--from-stage", "0", "--to-stage", "2"],
    ["decay", "--family", "random", "--qs", "3,3,3", "--seed", "1", *_TRITS,
     "--labels", "0=1e150,1=-1e150,2=0", "--from-stage", "0", "--to-stage", "2"],
    ["ensemble", "--task", "decay", "--seeds", "2", "--qs", "3,3,3", *_TRITS,
     "--labels", "0=1e150,1=-1e150,2=0", "--from-stage", "0", "--to-stage", "2"],
    ["simplicity", "--family", "random", "--qs", "3,9,5", "--seed", "1", *_TRITS,
     "--labels", _HUGE, "--base", "1", "--diag-depth", "3"],
    ["simplicity", "--family", "random", "--qs", "3,9,5", "--seed", "1", *_TRITS,
     "--labels", "0=1e153,1=-1e153,2=0", "--base", "1", "--diag-depth", "3"],
    ["ensemble", "--task", "simplicity", "--seeds", "2", "--qs", "3,9,5", *_TRITS,
     "--labels", _HUGE, "--base", "1", "--diag-depth", "3"],
    ["correlate", "--family", "random", "--qs", "3,3", "--seed", "1", *_TRITS,
     "--labels", "0=1e200,1=-1e200,2=0"],
    ["spectrum", "--mode", "riesz", "--family", "staircase", "--qs", "3,3",
     "--labels", "0=1e200", "--grid-size", "64"],
    ["spectrum", "--mode", "riesz", "--family", "staircase", "--qs", "3,3",
     "--labels", "0=5e153", "--grid-size", "64"],
], ids=["decay-nan", "decay-squares", "ensemble-decay", "simplicity-f2", "simplicity-sums",
        "ensemble-simplicity", "correlate", "riesz-weight", "riesz-product"])
def test_overflowing_finite_labels_exit_2_with_out_empty(argv, tmp_path, capsys):
    # Each exited 0 and wrote NaN or infinite values (decay "slope": NaN and
    # rms inf, simplicity inf and nan, a nan correlation series, inf Riesz
    # masses); simplicity-sums has a finite f2 but sums over h_N that are not,
    # and riesz-product a finite weight whose product with the stage factors is not.
    out = tmp_path / "o"
    assert cli.run([*argv, "--out", str(out)]) == 2
    assert "overflow in " in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_a_zero_variance_stage_still_reports_an_infinite_ratio(tmp_path):
    # Constant labels centre to a zero series: its variance ratio is the
    # documented Infinity, not an overflow.
    out = tmp_path / "o"
    assert cli.run(["decay", "--family", "random", "--qs", "3,3,3", "--seed", "1", *_TRITS,
                    "--labels", "0=1,1=1,2=1", "--from-stage", "0", "--to-stage", "2",
                    "--out", str(out)]) == 0
    payload = json.loads((out / "decay.json").read_text(encoding="utf-8"))
    assert payload["variance_ratios"] == [float("inf")] * 2


def test_forced_depth_beyond_int64_exits_2(tmp_path, capsys):
    # With --force the depth passes its price, and [q] * 2^70 exited 1 with
    # an OverflowError.
    out = tmp_path / "o"
    argv = ["geometry", "--family", "random", "--seed", "1", "--q", "1", "--depth", str(2**70),
            "--force", "--out", str(out)]
    assert cli.run(argv) == 2
    assert "not below 2**63" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_ensemble_seeds_are_priced_before_the_seed_list(monkeypatch, tmp_path, capsys):
    # --seeds is refused below 1 and, at a stand-in limit of 4, above it
    # unless forced, before any list of seeds exists (10^9 seeds would make a
    # billion-entry list).  Only 5 seeds run, on a serial pool.
    monkeypatch.setattr(cli, "MAX_SYMBOLS", 4)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "opened", [])
    argv = ["ensemble", "--task", "jumps", "--h", "16", "--q-list", "2", "--threads", "1"]
    for seeds, code, message in (("0", 2, "--seeds 0 is below 1"),
                                 ("5", 3, "--seeds = 5 > 4; pass --force")):
        out = tmp_path / seeds
        assert cli.run([*argv, "--seeds", seeds, "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []
    assert _SerialPool.opened == []
    assert cli.run([*argv, "--seeds", "5", "--force", "--out", str(tmp_path / "f")]) == 0
    assert _SerialPool.opened == [1]


def test_summary_line_printed_after_success(tmp_path, capsys):
    code = cli.run([
        "build", "--family", "morse", "--r", "2", "--depth", "3", "--seed-word", "01",
        "--alphabet", "01", "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert capsys.readouterr().out == "built 4 stages, h_N = 16\n"


# ---------------------------------------------------------------------------
# serialisation and start-up
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """The writer's former per-cell formatting, kept here as the oracle."""
    if isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def test_write_csv_matches_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(12)
    floats = (rng.standard_normal(500) * 10.0 ** rng.integers(-320, 300, 500)).tolist()
    rows = [
        ("sh", 0, -0.0, float("inf"), float("-inf"), float("nan")),
        ('a,"b"', -3, 5e-324, 1e16, 0.1, 2.0**53 + 2),
        ("", 2**70, -1e-300, 1.7976931348623157e308, 1 / 3, 123456789.0),
    ] + [("x", i, v, -v, v * 1e-10, v * 1e10) for i, v in enumerate(floats)]
    header = ["schedule_hash", "n", "a", "b", "c", "d"]
    cli._write_csv(tmp_path / "t.csv", header, rows)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == expected.getvalue()


@pytest.mark.parametrize("cell", [np.float64(0.5), np.int64(3), True],
                         ids=["float64", "int64", "bool"])
def test_write_csv_refuses_non_native_cells(cell, tmp_path):
    with pytest.raises(TypeError):
        cli._write_csv(tmp_path / "t.csv", ["a", "b"], [("sh", cell)])


_TEXT_CELLS = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\t", "\u00e9", "a"]),
                      max_size=5)
_COLUMN_CELLS = {
    "int": st.one_of(st.integers(), st.just(2**70)),
    "float": st.one_of(st.floats(), st.sampled_from([
        -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1e16, 2.0**53 + 2,
        -1e-300, 1.7976931348623157e308, 1 / 3, 123456789.0,
    ])),
    "text": _TEXT_CELLS,
}
_CHUNK = cli._CSV_CHUNK


def _csv_module_bytes(header, rows) -> bytes:
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return expected.getvalue().encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       kinds=st.lists(st.sampled_from(sorted(_COLUMN_CELLS)), min_size=1, max_size=4),
       n_rows=st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1,
                               3 * _CHUNK + 7]),
       cpus=st.sampled_from([1, 2, 3]))
def test_write_csv_matches_csv_module(data, kinds, n_rows, cpus, tmp_path_factory):
    header = data.draw(st.lists(_TEXT_CELLS, min_size=len(kinds), max_size=len(kinds)))
    pool = data.draw(st.lists(st.tuples(*(_COLUMN_CELLS[k] for k in kinds)),
                              min_size=1, max_size=30))
    # Cycling a pool of distinct rows makes a dropped or repeated row at a
    # chunk or span boundary change the bytes.  3 * _CHUNK + 7 rows split
    # into spans of unequal length (2 + 2 or 1 + 1 + 2 chunks).
    rows = [pool[i % len(pool)] for i in range(n_rows)]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_usable_cpus", lambda: cpus)
        cli._write_csv(path, header, rows)
    assert path.read_bytes() == _csv_module_bytes(header, rows)


_ARRAY_CELLS = {
    "int64": st.integers(-2**63, 2**63 - 1),
    "float64": _COLUMN_CELLS["float"],
}
# A constant column is one int, float or str that every row repeats.
_CONSTANT_CELLS = {
    "one int": st.one_of(st.integers(), st.sampled_from([2**53 + 1, -2**63, 2**70])),
    "one float": _COLUMN_CELLS["float"],
    "one text": _TEXT_CELLS,
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       kinds=st.lists(st.sampled_from(sorted(_ARRAY_CELLS) + sorted(_COLUMN_CELLS)
                                      + sorted(_CONSTANT_CELLS)), min_size=1, max_size=5),
       n_rows=st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1,
                               3 * _CHUNK + 1, 3 * _CHUNK + 7]),
       cpus=st.sampled_from([1, 2, 3]))
def test_write_csv_of_columns_matches_csv_module(data, kinds, n_rows, cpus, tmp_path_factory):
    # Array columns are int64 or float64 arrays, list columns lists of Python
    # cells; both are cycled from a pool of distinct rows, as above.  Each
    # constant is drawn once and repeats in every reference row; a table of
    # constants only is given its row count.
    header = data.draw(st.lists(_TEXT_CELLS, min_size=len(kinds), max_size=len(kinds)))
    constant = {i: data.draw(_CONSTANT_CELLS[k]) for i, k in enumerate(kinds)
                if k in _CONSTANT_CELLS}
    cells = {**_COLUMN_CELLS, **_ARRAY_CELLS}
    pool = data.draw(st.lists(st.tuples(*(st.just(constant[i]) if i in constant else cells[k]
                                          for i, k in enumerate(kinds))),
                              min_size=1, max_size=30))
    rows = [pool[i % len(pool)] for i in range(n_rows)]
    columns = [list(col) for col in zip(*rows)] if rows else [[] for _ in kinds]
    table = cli._Columns(*(constant[i] if i in constant
                           else np.array(col, dtype=kind) if kind in _ARRAY_CELLS else col
                           for i, (col, kind) in enumerate(zip(columns, kinds))),
                         rows=n_rows if len(constant) == len(kinds) else None)
    # csv.writer writes a data line per row, so the file has len(table) of
    # them, also when the first column is a constant, which has no length.
    assert len(table) == n_rows
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_usable_cpus", lambda: cpus)
        cli._write_csv(path, header, table)
    assert path.read_bytes() == _csv_module_bytes(header, rows)


@pytest.mark.parametrize("value, text", [("", '""'), ("a,b", '"a,b"'), ('"', '""""'),
                                         (-0.0, "-0.0"), (float("nan"), "nan"),
                                         (float("-inf"), "-inf"), (2**70, str(2**70))])
@pytest.mark.parametrize("n_rows", [0, 1, _CHUNK + 1])
def test_write_csv_of_a_lone_constant_column(value, text, n_rows, tmp_path):
    # A row whose only cell is empty is written "", as csv.writer writes it.
    cli._write_csv(tmp_path / "t.csv", ["c"], cli._Columns(value, rows=n_rows))
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "c\n" + (text + "\n") * n_rows


def test_columns_of_constants_only_need_a_row_count():
    with pytest.raises(ValueError, match="number of rows"):
        cli._Columns("sh", 0.0)
    with pytest.raises(ValueError, match="differ in length"):
        cli._Columns("sh", np.arange(3), rows=4)
    assert len(cli._Columns("sh", np.arange(3))) == len(cli._Columns("sh", rows=3)) == 3


@pytest.mark.parametrize("column", [
    np.array([True, False]), np.array([0.5, 1.5], dtype=np.float32),
    np.array([1j, 2j]), np.array(["a", "b"], dtype=object), np.array([1, 2], dtype=np.int32),
    np.array([1, 2], dtype=">i8"), np.zeros((2, 1), dtype=np.int64),
    [np.float64(0.5), np.float64(1.5)], [np.int64(1), np.int64(2)], [True, False],
    ("a", "b"), range(2),
], ids=["bool", "float32", "complex", "object", "int32", "big-endian", "2-d", "list-float64",
        "list-int64", "list-bool", "tuple", "range"])
def test_write_csv_refuses_a_column_kind_before_opening_the_file(column, tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(TypeError, match="column 'b'"):
        cli._write_csv(path, ["a", "b"], cli._Columns(np.arange(2), column))
    assert not path.exists()


def test_write_csv_refuses_a_misshapen_table_before_opening_the_file(tmp_path):
    # Each column is type-checked against its name, so every column needs one.
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="differ in length"):
        cli._write_csv(path, ["a", "b"], cli._Columns(np.arange(2), [1.5]))
    with pytest.raises(ValueError, match="2 columns for 1 names"):
        cli._write_csv(path, ["a"], cli._Columns(np.arange(2), [np.float64(1.5)] * 2))
    assert not path.exists()


@pytest.mark.parametrize("table", [[], cli._Columns(np.arange(0), [], np.zeros(0))],
                         ids=["no-rows", "empty-columns"])
def test_write_csv_of_an_empty_table_writes_the_header(table, tmp_path):
    cli._write_csv(tmp_path / "t.csv", ["a", "b", "c"], table)
    assert (tmp_path / "t.csv").read_bytes() == b"a,b,c\n"


@pytest.mark.parametrize("cpus, n_rows", [(2, _CHUNK), (3, 1), (1, 3 * _CHUNK + 7)],
                         ids=["one-chunk", "one-row", "one-cpu"])
def test_write_csv_without_a_split_never_forks(cpus, n_rows, tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked a writer worker with nothing to split")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    rows = [("sh", i, i / 7) for i in range(n_rows)]
    cli._write_csv(tmp_path / "t.csv", ["h", "i", "x"], rows)
    assert (tmp_path / "t.csv").read_bytes() == _csv_module_bytes(["h", "i", "x"], rows)


@pytest.mark.parametrize("where", ["worker", "parent"])
def test_failing_csv_span_fails_the_run(where, tmp_path, monkeypatch):
    parent, csv_lines = os.getpid(), cli._csv_lines

    def fails_in_one_process(columns, text):
        # Full data chunks only: the header is formatted before any fork.
        if (os.getpid() == parent) == (where == "parent") and len(columns[0]) == _CHUNK:
            raise RuntimeError("span fault")
        return csv_lines(columns, text)

    monkeypatch.setattr(cli, "_csv_lines", fails_in_one_process)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    rows = [("sh", i, i / 7) for i in range(2 * _CHUNK)]
    fault = "worker exited with status 1" if where == "worker" else "span fault"
    with pytest.raises(RuntimeError, match=fault):
        cli._write_csv(tmp_path / "t.csv", ["h", "i", "x"], rows)
    # correlation.csv of stage 3 has 2 * 16^3 rows, two chunks.
    out = tmp_path / "o"
    with pytest.raises(RuntimeError, match=fault):
        cli.run(["correlate", "--family", "random", "--qs", "16,16,16", "--seed", "1",
                 "--seed-word", "01", "--alphabet", "01", "--labels", "0=1,1=-1",
                 "--stage", "3", "--out", str(out)])
    assert list(out.iterdir()) == [], "a failed write left payloads or temporary files"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


@pytest.mark.parametrize("header, rows", [
    (["word"], [("a",), ("",), ("b",)]),
    ([""], [("",)] * (_CHUNK + 1)),
    (["a", "b"], [("", ""), ("\r", "x\ry")]),
])
def test_write_csv_single_empty_cell_and_carriage_return(header, rows, tmp_path):
    cli._write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes() == _csv_module_bytes(header, rows)


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = ("import sys, icelab, icelab.cli; icelab.beta_morse(2); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Peak memory
# ---------------------------------------------------------------------------


# Both tests read kB-valued ru_maxrss from ``os.wait4`` and the manifest's
# Linux source, so they run on Linux only.  Linux starts a process's
# ru_maxrss from the peak of the process that spawned it, so the measured
# interpreter is spawned from a small launcher, which may first hold a
# touched ballast of ``sys.argv[2]`` MB.
_LAUNCHER = """import os, subprocess, sys
ballast = bytearray(b"\\1") * (int(sys.argv[2]) << 20)
proc = subprocess.Popen([sys.executable, "-c", sys.argv[1]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

linux_only = pytest.mark.skipif(sys.platform != "linux", reason="Linux peak-RSS units")


def _peak_rss_bytes(code: str, ballast_mb: int = 0) -> int:
    """ru_maxrss of a fresh interpreter running ``code``, read from ``os.wait4``."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", _LAUNCHER, code, str(ballast_mb)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    exit_code, maxrss = map(int, res.stdout.split())
    assert exit_code == 0
    return maxrss * 1024


def test_manifest_records_the_payload_version(tmp_path):
    # Version 2: values from transforms longer than 2^18 come from the blocked kernel.
    # Version 3: correlate writes the im cells of real labels as the exact 0.0.
    out = tmp_path / "o"
    assert cli.run(["rank", "--family", "morse", "--r", "2", "--depth", "1",
                    "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["payload_version"] == 3


@linux_only
def test_manifest_records_peak_rss(tmp_path):
    argv = ["build", "--family", "morse", "--r", "2", "--depth", "12",
            "--seed-word", "01", "--alphabet", "01"]
    code = "from icelab.cli import run; import sys; sys.exit(run({!r}))"
    out = tmp_path / "o"
    peak = _peak_rss_bytes(code.format(argv + ["--out", str(out)])) / 2**20
    recorded = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["peak_rss_mb"]
    # Written just before the process exits, so close to its final peak.
    assert 0.5 * peak < recorded <= peak + 1
    # Launched by a process holding 256 MB, the command still records its own
    # peak, not its launcher's.
    out = tmp_path / "b"
    _peak_rss_bytes(code.format(argv + ["--out", str(out)]), ballast_mb=256)
    ballasted = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["peak_rss_mb"]
    assert ballasted <= peak + 1


@linux_only
def test_csv_writer_workers_stay_within_the_recorded_peak(tmp_path):
    # correlation.csv has 262,144 rows, so on more than one CPU its formatting
    # is split across forked workers.  ru_maxrss from os.wait4 also covers the
    # reaped workers; each holds the command's pages plus one chunk, so the
    # manifest's own peak stays the run's peak.
    argv = ["correlate", "--family", "random", "--qs", "16,16,16,32", "--seed", "5",
            "--seed-word", "01", "--alphabet", "01", "--labels", "0=1,1=-1", "--stage", "4",
            "--out", str(tmp_path / "o")]
    run = _peak_rss_bytes(f"from icelab.cli import run; import sys; sys.exit(run({argv!r}))")
    recorded = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8"))
    assert abs(run / 2**20 - recorded["peak_rss_mb"]) <= 5


@linux_only
def test_simplicity_peak_rss_per_symbol(tmp_path):
    # h_N = 2,204,496.  No array of length h_N exists: the signed chart
    # (int64) and g (complex128) are two tables on W_3 (24 B per W_3
    # position, 24/7 = 3.4 B per h_N symbol), read in blocks of 8,192
    # positions through the last stage's window; f and the far mask are read
    # off each block of the chart.  Measured on a 2-core Linux box (Python
    # 3.11, numpy 2.4): the manifest read 4.8-5.0 B per symbol above the
    # 35.7 MB of `import icelab.cli`, and 6.1-6.2 B while f, g, the far mask
    # and the base mask were four tables on W_3 (34 B per W_3 position).
    # Building f and g (16 B per symbol each) and the
    # far mask over all of h_N read 35.6 B, gathering them through the int64
    # level-(n+1) coordinates 35.8 B, and a third complex array 51.7 B.
    argv = ["simplicity", "--family", "random", "--qs", "9,729,16,7", "--seed", "5",
            "--seed-word", "012", "--alphabet", "012",
            "--labels", "0=1,1=-0.5+0.8660254037844386j,2=-0.5-0.8660254037844386j",
            "--base", "1", "--diag-depth", "4", "--out", str(tmp_path / "o")]
    bare = _peak_rss_bytes("import icelab.cli")
    _peak_rss_bytes(f"from icelab.cli import run; import sys; sys.exit(run({argv!r}))")
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8"))
    per_symbol = (manifest["peak_rss_mb"] * 2**20 - bare) / (3 * 9 * 729 * 16 * 7)
    assert per_symbol < 10, f"{per_symbol:.1f} B per symbol"


@linux_only
def test_decay_peak_rss_per_symbol(tmp_path):
    # h_N = 2^21.  Each stage's lift (16 B per symbol) is transformed in
    # place in blocks of 2^16 values, so the transform adds no length-h_N
    # scratch; the lift of W_3 is gathered through the last stage's window
    # from W_2, so W_3's symbols are never built; and the statistics are
    # taken in the series' own memory.  Measured on a 2-core Linux box
    # (Python 3.11, numpy 2.4): 19.4-19.6 B per symbol above a bare import,
    # whether the top stage runs last or first: stage 2's series is only
    # 1 MB here, so freeing it before the top transform barely moves the heap
    # (the deep-tower shape below shows the order's saving).
    # The magnitudes of the central half and a temporary of their statistics
    # beside the series read 27.7-27.9, numpy's 1-d FFT, with about two
    # complex arrays of scratch, 51.2, and the lift, its transform and the
    # words all alive through the forward FFT 71.
    argv = ["decay", "--family", "random", "--qs", "64,64,32", "--seed", "5",
            "--seed-word", "0123" * 4, "--alphabet", "0123", "--labels", "0=1,1=1j,2=-1,3=-1j",
            "--from-stage", "0", "--to-stage", "3", "--out", str(tmp_path / "o")]
    bare = _peak_rss_bytes("import icelab.cli")
    run = _peak_rss_bytes(f"from icelab.cli import run; import sys; sys.exit(run({argv!r}))")
    per_symbol = (run - bare) / (16 * 64 * 64 * 32)
    assert per_symbol < 24, f"{per_symbol:.1f} B per symbol"


@linux_only
def test_decay_peak_rss_per_symbol_at_the_deep_tower_shape(tmp_path):
    # h_N = 2^23, the benchmark's deep-tower decay.  The top stage runs first
    # and W_2 (4 MB of int32) is released once its lift is gathered, so only
    # the 128 MB top buffer and its transform's blocks are alive at the peak.
    # Measured on a 2-core Linux box (Python 3.11, numpy 2.4): 16.8-16.9 B
    # per symbol above a bare import.  With the top stage last, beside W_2,
    # it read 18.2-18.3: the 16 MB series of stage 2 freed just before raised
    # glibc's mmap threshold, so the top transform's block temporaries stayed
    # in the heap.
    argv = ["decay", "--family", "random", "--qs", "256,256,8", "--seed", "4711",
            "--seed-word", "0123" * 4, "--alphabet", "0123", "--labels", "0=1,1=1j,2=-1,3=-1j",
            "--from-stage", "0", "--to-stage", "3", "--out", str(tmp_path / "o")]
    bare = _peak_rss_bytes("import icelab.cli")
    run = _peak_rss_bytes(f"from icelab.cli import run; import sys; sys.exit(run({argv!r}))")
    per_symbol = (run - bare) / 2**23
    assert per_symbol < 17.5, f"{per_symbol:.2f} B per symbol"


@linux_only
def test_ensemble_decay_peak_rss_per_task(tmp_path):
    # The benchmark's ensemble: 8 decay profiles with h_N = 2^20, run on
    # min(--threads, seeds, usable CPUs) threads, each task holding its own
    # top buffer (16 B per symbol) and transform blocks.  Measured on a
    # 2-core Linux box (Python 3.11, numpy 2.4), per concurrent task and
    # h_N symbol above a bare import: 20.7-21.1 B on two threads (20.3-20.5
    # with each task's top stage run last) and 23.5-23.7 on one, where one
    # task carries the command's fixed cost alone; the bound leaves 14 %
    # slack above the larger.
    argv = ["ensemble", "--threads", "2", "--base-seed", "4711", "--task", "decay",
            "--seeds", "8", "--qs", "256,256", "--seed-word", "0123" * 4, "--alphabet", "0123",
            "--labels", "0=1,1=1j,2=-1,3=-1j", "--from-stage", "0", "--to-stage", "2",
            "--out", str(tmp_path / "o")]
    tasks = min(2, 8, corr._usable_cpus())
    bare = _peak_rss_bytes("import icelab.cli")
    run = _peak_rss_bytes(f"from icelab.cli import run; import sys; sys.exit(run({argv!r}))")
    per_symbol = (run - bare) / (tasks * 2**20)
    assert per_symbol < 27, f"{per_symbol:.1f} B per symbol per task"


@linux_only
def test_merit_peak_rss_per_padded_point(tmp_path):
    # h = 2^21 symbols, zero-padded to 2^22 points.  The padded word is one
    # complex buffer (16 B per point) that the correlation kernel transforms
    # in place in blocks of 2^16 values; it is released before the rounded
    # correlations are squared in their own memory.  Beside it are only the
    # float64 signs of W_20 (4 B per point): the tower that built W_20 is
    # closed once W_20 is lifted, and the lift is dropped once its signs are
    # copied, so no word and no complex lift is resident.  Measured on a
    # 2-core Linux box (Python 3.11, numpy 2.4): the manifest read 24.9-25.1
    # B per padded point above a bare import, and the bound leaves 20 %
    # slack.  With the tower's W_20 (2 B) left alive it read 26.9, with the
    # complex lift (8 B) and the int32 words W_0 .. W_20 (4 B) alive
    # 33.4-33.5, and numpy's rfft/irfft pair, with its spectrum, power and
    # inverse arrays, 48.7.
    argv = ["spectrum", "--mode", "merit", "--family", "morse", "--r", "2", "--depth", "20",
            "--seed-word", "01", "--alphabet", "01", "--labels", "0=1,1=-1",
            "--merit-stages", "20", "--out", str(tmp_path / "o")]
    bare = _peak_rss_bytes("import icelab.cli")
    _peak_rss_bytes(f"from icelab.cli import run; import sys; sys.exit(run({argv!r}))")
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8"))
    per_point = (manifest["peak_rss_mb"] * 2**20 - bare) / 2**22
    assert per_point < 30, f"{per_point:.1f} B per padded point"


@linux_only
def test_build_jump_trace_peak_rss_per_symbol(tmp_path):
    # h_N = 2^22.  The regular indices are one int64 array carried up by
    # concatenation (8 B per symbol, plus the 4 B of the stage below while
    # the top stage is built), and the jumps.csv table comes on top; the
    # words.csv rows and the words of the tower's one pass are dropped
    # before either is built.  Measured on a 2-core Linux box (Python 3.11,
    # numpy 2.4): the manifest read 17.2 B per symbol above a bare import;
    # the bound leaves 34 % slack.  With the whole list W_0 .. W_N built for
    # words.csv it read 17.4 B, keeping the words alive 27.3 B, and a whole
    # int64 coordinate array and plain-step mask per level, scanned for
    # every level, 57.9 B.
    argv = ["build", "--family", "morse", "--r", "2", "--depth", "21", "--seed-word", "01",
            "--alphabet", "01", "--jump-trace", "--out", str(tmp_path / "o")]
    bare = _peak_rss_bytes("import icelab.cli")
    _peak_rss_bytes(f"from icelab.cli import run; import sys; sys.exit(run({argv!r}))")
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8"))
    per_symbol = (manifest["peak_rss_mb"] * 2**20 - bare) / 2**22
    assert per_symbol < 23, f"{per_symbol:.1f} B per symbol"


@linux_only
def test_rank_peak_rss_per_cell(tmp_path):
    # 4,096 rotations drawn from [0, 4096) leave m = 2,604 distinct cuts.  The
    # dense sweep holds three m x m int64 arrays (wsum, spread and the score,
    # 24 B per cell).  Measured on a 2-core Linux box (Python 3.11, numpy
    # 2.4): the manifest read about 24-25 B per cell above a bare import;
    # masking the i > j cells with two int64 triangle index arrays read 33-34 B.
    argv = ["rank", "--family", "random", "--qs", "4096", "--seed", "0",
            "--seed-word", "01" * 2048, "--alphabet", "01", "--out", str(tmp_path / "o")]
    m = np.unique(random_schedule([4096], 0, word_from_text(BINARY, "01" * 2048))
                  .rotations_mod(0)).size
    assert m == 2604
    bare = _peak_rss_bytes("import icelab.cli")
    _peak_rss_bytes(f"from icelab.cli import run; import sys; sys.exit(run({argv!r}))")
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8"))
    per_cell = (manifest["peak_rss_mb"] * 2**20 - bare) / m**2
    assert per_cell <= 28, f"{per_cell:.1f} B per cell"


@linux_only
def test_geometry_peak_rss_per_copy(tmp_path):
    # Stage 1 has 10^6 copies with 645,135 distinct cuts.  Stage data are
    # int64 arrays, and the peak is set inside jump_matrix (its np.unique
    # and rank-pair sort), not by the columns.csv table.  Measured on a
    # 2-core Linux box (Python 3.11, numpy 2.4): the manifest read about 110 B
    # per copy above a bare import; the bound leaves 27 % slack.  With a
    # Python tuple per rotation, cut and jump cell it read about 457 B.
    argv = ["geometry", "--family", "random", "--qs", "1024,1000000", "--seed", "0",
            "--seed-word", "0123" * 256, "--alphabet", "0123", "--out", str(tmp_path / "o")]
    bare = _peak_rss_bytes("import icelab.cli")
    _peak_rss_bytes(f"from icelab.cli import run; import sys; sys.exit(run({argv!r}))")
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8"))
    per_copy = (manifest["peak_rss_mb"] * 2**20 - bare) / 10**6
    assert per_copy <= 140, f"{per_copy:.1f} B per copy"


@linux_only
def test_correlate_peak_rss_per_row(tmp_path):
    # correlation.csv has 262,144 rows, held as columns: int64 t and the
    # float64 re view of the series (24 B per row with the series' im), with
    # the schedule hash, the stage and im (real labels) as constants.
    # Measured on a 2-core Linux box (Python 3.11, numpy 2.4): the manifest
    # read about 62 B per row above the 33 MB of `import icelab.cli` (71-73 B
    # with a schedule-hash list, an int64 stage column and a length-h buffer
    # for each lag of the recursion check, 82 B while each lift was copied
    # before its transform), set by the transform of the stage-4 lift, not
    # the writer.
    # A tuple per row (a tuple, two floats and an int) read 268 B, and the re
    # column handed over as a list of Python floats read 104 B.
    argv = ["correlate", "--family", "random", "--qs", "16,16,16,32", "--seed", "5",
            "--seed-word", "01", "--alphabet", "01", "--labels", "0=1,1=-1", "--stage", "4",
            "--check-recursion", "--out", str(tmp_path / "o")]
    bare = _peak_rss_bytes("import icelab.cli")
    _peak_rss_bytes(f"from icelab.cli import run; import sys; sys.exit(run({argv!r}))")
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8"))
    per_row = (manifest["peak_rss_mb"] * 2**20 - bare) / (2 * 16 * 16 * 16 * 32)
    assert per_row < 100, f"{per_row:.1f} B per row"
