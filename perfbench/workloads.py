"""The benchmark's workloads: icelab CLI commands generated from a seed.

Each workload runs three commands, one after another, each as a fresh
process (closed loop, one client).  Every command fills one of the slots
``cmd1_s``/``cmd2_s``/``cmd3_s``; ``name`` is the per-command metric name the
slot stands for on that workload.  ``S`` below is the benchmark seed reduced
to ``[0, 2**31)``: it drives the random-family schedules, the ensembles' base
seed and the orbit-coding start.  The morse and staircase inputs are fixed
families by construction.  No command passes ``--force`` or ``--overwrite``;
every command writes into a fresh ``--out`` directory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SLOTS = ("cmd1_s", "cmd2_s", "cmd3_s")

CUBE_LABELS = "0=1,1=-0.5+0.8660254037844386j,2=-0.5-0.8660254037844386j"
QUARTER_LABELS = "0=1,1=1j,2=-1,3=-1j"
QUAD_SEED = "0123" * 4

# build --jump-trace: morse r=2, depth 17 has h_N = 2**18.
BUILD_DEPTH = 17
BUILD_H = 2 ** (BUILD_DEPTH + 1)
CODING_LENGTH = 100_000


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of its outputs.

    ``check`` names a function of ``checks`` that is called as
    ``check(out_dir, **params)`` and returns the list of problems found.
    """

    name: str
    args: tuple[str, ...]
    check: str
    params: dict = field(default_factory=dict)


def table_output(s: int) -> list[Command]:
    start = random.Random(s).randrange(BUILD_H)
    return [
        Command("correlate_s", (
            "correlate", "--family", "random", "--qs", "16,16,16,32", "--seed", str(s),
            "--seed-word", "01", "--alphabet", "01", "--labels", "0=1,1=-1", "--stage", "4",
            "--check-recursion",
        ), "correlate", dict(seed=s)),
        Command("spectrum_riesz_s", (
            "spectrum", "--mode", "riesz", "--family", "staircase", "--qs", "3,3,3,3,3,3",
            "--seed-word", "0", "--alphabet", "01", "--spacer-symbol", "1", "--labels", "0=1",
            "--grid-size", "131072", "--check-oracle",
        ), "riesz", dict(qs=(3,) * 6, grid_size=131072, seed=s)),
        Command("build_s", (
            "build", "--family", "morse", "--r", "2", "--depth", str(BUILD_DEPTH),
            "--seed-word", "01", "--alphabet", "01", "--jump-trace",
            "--coding-start", str(start), "--coding-length", str(CODING_LENGTH),
            "--coding-level", "1",
        ), "build", dict(depth=BUILD_DEPTH, start=start, length=CODING_LENGTH)),
    ]


def deep_tower(s: int) -> list[Command]:
    return [
        Command("simplicity_s", (
            "simplicity", "--family", "random", "--qs", "9,729,16,27", "--seed", str(s),
            "--seed-word", "012", "--alphabet", "012", "--labels", CUBE_LABELS,
            "--base", "1", "--diag-depth", "4",
        ), "simplicity", dict(seed=s)),
        Command("decay_s", (
            "decay", "--family", "random", "--qs", "256,256,8", "--seed", str(s),
            "--seed-word", QUAD_SEED, "--alphabet", "0123", "--labels", QUARTER_LABELS,
            "--from-stage", "0", "--to-stage", "3",
        ), "decay", dict(seed=s)),
        Command("ensemble_decay_s", (
            "ensemble", "--threads", "2", "--base-seed", str(s), "--task", "decay",
            "--seeds", "8", "--qs", "256,256", "--seed-word", QUAD_SEED, "--alphabet", "0123",
            "--labels", QUARTER_LABELS, "--from-stage", "0", "--to-stage", "2",
        ), "ensemble_decay", dict(base_seed=s, seeds=8)),
    ]


def exact_geometry(s: int) -> list[Command]:
    return [
        Command("geometry_s", (
            "geometry", "--family", "random", "--qs", "16,200000", "--seed", str(s),
            "--seed-word", QUAD_SEED, "--alphabet", "0123",
        ), "geometry", dict(seed=s)),
        Command("rank_s", (
            "rank", "--family", "random", "--qs", "8192", "--seed", str(s),
            "--seed-word", "0123" * 2048, "--alphabet", "0123",
        ), "rank", dict(seed=s)),
        Command("spectrum_merit_s", (
            "spectrum", "--mode", "merit", "--family", "morse", "--r", "2", "--depth", "15",
            "--seed-word", "01", "--alphabet", "01", "--labels", "0=1,1=-1",
            "--merit-stages", "15",
        ), "merit", dict(depth=15)),
    ]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "table-output": table_output,
    "deep-tower": deep_tower,
    "exact-geometry": exact_geometry,
}
