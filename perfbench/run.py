"""icelab benchmark: fresh-process CLI commands in a closed loop, one client.

Usage, from the root of an icelab checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's three commands (see ``workloads.py``) run one after another,
each as a fresh ``icelab`` process importing ``src/`` of the checkout, in
passes, until about ``S`` seconds of passes are done.  Every output is
checked after the timed passes: the first pass's outputs by ``checks.py``,
every later pass (and the traced pass) by identical payload hashes.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
``SETUP_SAMPLES`` processes that only import ``icelab.cli``), ``pass_s``,
``cmd1_s``..``cmd3_s`` (median over passes of each command's spawn-to-exit
wall time) and ``peak_rss_mb`` (median over passes of the largest
``ru_maxrss`` of a pass's command processes).  ``--trace 1`` runs the same
untraced passes, then one pass under ``tracer.py`` and reports the per-layer
metrics; the spans of that pass stay in ``.perfbench-work/trace-NAME/``.

The last line of standard output is the JSON result; ``failed`` out of
``attempted`` is the error rate (a command fails on a nonzero exit, a failed
output check, a payload hash that differs from the first pass, or a trace
that does not partition its root span).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import SLOTS, WORKLOADS, Command

SETUP_SAMPLES = 5
SETUP_CODE = "import icelab.cli; print(icelab.cli.__file__)"
ENTRY_CODE = "from icelab.cli import main; main()"  # what the installed `icelab` script runs
COMMAND_TIMEOUT_S = 120
PASS_BUDGET_S = 110  # no pass starts that would end after this; keeps a run under 180 s
WORK_DIR = ".perfbench-work"
MB = 1024 * 1024

# Sanity limits from the ROADMAP baseline, checked on the traced pass.
DEEP_TOWER_MAX_BYTES = 10_000   # per command
SWEEP_BYTES_PER_CELL = 35.0     # measured peak RSS of the rank sweep, bytes per m^2
SWEEP_BYTES_SLACK = 0.3         # accepted relative distance from that figure


@dataclass
class Execution:
    """One command process: its timing, resources and what was wrong with it."""

    command: Command
    out: Path
    code: int
    wall: float
    rss_mb: float
    cpu: float
    hashes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def spawn(argv: list[str], env: dict, log: Path) -> tuple[int, float, float, float]:
    """Run one process to completion; returns (exit code, wall s, max RSS MB, cpu s)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime


def payload_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of every output file except the timestamped manifest."""
    if not out.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def run_pass(commands: list[Command], work: Path, env: dict, trace_dir: Path | None):
    """One closed-loop pass; returns (pass wall s, executions)."""
    work.mkdir(parents=True)
    done = []
    start = time.perf_counter()
    for slot, cmd in zip(SLOTS, commands):
        out = work / slot
        if trace_dir is None:
            prefix = [sys.executable, "-c", ENTRY_CODE]
        else:
            prefix = [sys.executable, str(Path(tracer.__file__)), str(trace_dir / f"{slot}.json")]
        argv = prefix + list(cmd.args) + ["--out", str(out)]
        code, wall, rss, cpu = spawn(argv, env, work / f"{slot}.log")
        done.append(Execution(cmd, out, code, wall, rss, cpu))
    return time.perf_counter() - start, done


def finish(executions: list[Execution]) -> None:
    """Record exit codes and payload hashes; runs after all timed passes."""
    for ex in executions:
        ex.hashes = payload_hashes(ex.out)
        if ex.code != 0:
            ex.problems.append(f"exit code {ex.code}")


def check_outputs(first: list[Execution], src: Path) -> None:
    """Run each command's output check on the first pass (outside the timed region)."""
    sys.path.insert(0, str(src))
    try:
        import checks
    except Exception as exc:  # a tree that cannot be imported fails every check
        for ex in first:
            ex.problems.append(f"checks could not import icelab: {exc!r}")
        return
    for ex in first:
        if ex.code != 0:
            continue
        try:
            ex.problems += getattr(checks, ex.command.check)(ex.out, **ex.command.params)
        except Exception as exc:  # malformed output counts as a failed check
            ex.problems.append(f"{ex.command.check} check raised {exc!r}")


def compare_with_first(first: list[Execution], later: list[Execution]) -> None:
    for ref, ex in zip(first, later):
        if ex.code != 0:
            continue
        if ex.hashes != ref.hashes:
            ex.problems.append("payload bytes differ from the first pass")
        elif ref.problems:
            ex.problems.append("same payload as the first pass, which failed its check")


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# Trace summary and sanity checks
# ---------------------------------------------------------------------------


def summarise_trace(traced: list[Execution], trace_dir: Path) -> dict[str, dict]:
    """Per-command trace summaries; problems are attached to the executions."""
    out = {}
    for slot, ex in zip(SLOTS, traced):
        path = trace_dir / f"{slot}.json"
        if not path.is_file():
            ex.problems.append("traced process wrote no trace")
            continue
        summary = tracer.summarise(json.loads(path.read_text(encoding="utf-8")))
        summary["bytes_written"] = sum(p.stat().st_size for p in ex.out.iterdir())
        summary["rss_bytes"] = ex.rss_mb * MB
        ex.problems += summary["problems"]
        out[slot] = summary
    return out


def sanity(workload: str, traced: list[Execution], summaries: dict[str, dict]) -> None:
    """Expectations from the ROADMAP baseline; a mismatch means the tracer is wrong."""
    by_name = {ex.command.name: (ex, summaries.get(slot)) for slot, ex in zip(SLOTS, traced)}
    if workload == "table-output":
        ex, s = by_name["correlate_s"]
        if s and "self_s" in s:
            shares = dict(s["self_s"], pool=s["pool_s"])
            if max(shares, key=shares.get) != "cli":
                ex.problems.append(f"cli.self_s is not the largest share of correlate: {shares}")
    elif workload == "deep-tower":
        for ex, s in by_name.values():
            if s and s["bytes_written"] >= DEEP_TOWER_MAX_BYTES:
                ex.problems.append(f"{s['bytes_written']} bytes written, not under 10 kB")
    elif workload == "exact-geometry":
        ex, s = by_name["rank_s"]
        if s and "counters" in s:
            cells = s["counters"].get("rank.sweep_cells", 0)
            per_cell = s["rss_bytes"] / cells if cells else float("inf")
            if abs(per_cell / SWEEP_BYTES_PER_CELL - 1.0) > SWEEP_BYTES_SLACK:
                ex.problems.append(f"rank peak RSS is {per_cell:.1f} B per sweep cell, "
                                   f"not about {SWEEP_BYTES_PER_CELL}")


def layer_metrics(summaries: dict[str, dict], untraced: list[Execution],
                  traced_wall: float, pass_wall: float) -> dict[str, tuple[float, str]]:
    good = [s for s in summaries.values() if "self_s" in s]

    def total(key: str) -> float:
        return sum(s["counters"].get(key, 0) for s in good)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {
        "cli.self_s": (sum(s["self_s"]["cli"] for s in good), "s"),
        "cli.bytes_written": (sum(s["bytes_written"] for s in good), "B"),
        "cli.rows_written": (total("cli.rows_written"), "count"),
        "cli.write_mb_per_s": (ratio(total("cli.write_bytes") / MB,
                                     sum(s["write_s"] for s in good)), "MB/s"),
        "cli.pool_wall_s": (sum(s["pool_s"] for s in good), "s"),
        "cli.pool_busy_ratio": (ratio(sum(s["task_s"] for s in good),
                                      sum(s["pool_slots_s"] for s in good)), "ratio"),
        "cli.cpu_per_wall": (ratio(sum(ex.cpu for ex in untraced),
                                   sum(ex.wall for ex in untraced)), "ratio"),
    }
    for layer in tracer.LAYERS[:-1]:
        m[f"{layer}.self_s"] = (sum(s["self_s"][layer] for s in good), "s")
        m[f"{layer}.calls"] = (sum(s["calls"][layer] for s in good), "count")
    m["words.symbols_built"] = (total("words.symbols_built"), "count")
    m["words.text_symbols"] = (total("words.text_symbols"), "count")
    m["words.rebuild_ratio"] = (ratio(total("words.symbols_built"),
                                      sum(s["distinct_level_symbols"] for s in good)), "ratio")
    for key in ("dynamics.coords_computed", "correlation.fft_points",
                "correlation.direct_points", "spectral.grid_points", "spectral.merit_ops",
                "iceberg.exact_terms", "rank.sweep_cells"):
        m[key] = (total(key), "count")
    m["dynamics.bytes_computed"] = (total("dynamics.bytes_computed"), "B")
    m["rank.bytes_computed"] = (total("rank.bytes_computed"), "B")
    m["trace.overhead_ratio"] = (ratio(traced_wall, pass_wall), "ratio")
    return m


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int, trace: bool, root: Path, work: Path):
    src = root / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    commands = WORKLOADS[workload](seed)
    report: list[str] = []

    setup, attempted, failed = [], 0, 0
    for i in range(SETUP_SAMPLES if not trace else 1):
        log = work / f"setup-{i}.log"
        code, wall, _, _ = spawn([sys.executable, "-c", SETUP_CODE], env, log)
        attempted += 1
        setup.append(wall)
        if code != 0:
            failed += 1
            continue
        location = Path(log.read_text(encoding="utf-8").strip()).resolve()
        if src.resolve() not in location.parents:
            raise SystemExit(f"icelab was imported from {location}, not from {src}")

    passes: list[tuple[float, list[Execution]]] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(commands, work / f"pass-{len(passes)}", env, None))
        elapsed = time.perf_counter() - start
        mean = elapsed / len(passes)
        if elapsed + mean / 2 >= seconds or elapsed + mean > PASS_BUDGET_S:
            break

    # Outputs are hashed, checked and deleted only now, so that no file work
    # runs between the timed commands.
    untraced = [ex for _, executions in passes for ex in executions]
    finish(untraced)
    first = passes[0][1]
    check_outputs(first, src)
    for _, executions in passes[1:]:
        compare_with_first(first, executions)
        for ex in executions:
            shutil.rmtree(ex.out, ignore_errors=True)
    pass_s = median([wall for wall, _ in passes])

    metrics: dict[str, tuple[float, str]] = {}
    executions = list(untraced)
    if trace:
        trace_dir = work / "trace"
        trace_dir.mkdir()
        traced_wall, traced = run_pass(commands, work / "traced", env, trace_dir)
        finish(traced)
        compare_with_first(first, traced)
        summaries = summarise_trace(traced, trace_dir)
        shutil.copytree(trace_dir, root / WORK_DIR / f"trace-{workload}", dirs_exist_ok=True)
        sanity(workload, traced, summaries)
        executions += traced
        metrics = layer_metrics(summaries, untraced, traced_wall, pass_s)
        for slot, ex in zip(SLOTS, traced):
            s = summaries.get(slot, {})
            if "self_s" in s:
                shares = ", ".join(f"{k} {v:.3f}" for k, v in s["self_s"].items() if v > 0)
                report.append(f"  traced {ex.command.name}: root {s['root_s']:.3f} s = "
                              f"{shares}, pool {s['pool_s']:.3f}")
    else:
        metrics["setup_s"] = (median(setup), "s")
        metrics["pass_s"] = (pass_s, "s")
        for k, slot in enumerate(SLOTS):
            metrics[slot] = (median([ex[k].wall for _, ex in passes]), "s")
        metrics["peak_rss_mb"] = (median([max(e.rss_mb for e in ex) for _, ex in passes]), "MB")

    attempted += len(executions)
    failed += sum(1 for ex in executions if ex.problems)
    report.insert(0, f"workload {workload}, seed {seed}: {len(passes)} passes, "
                     f"{len(setup)} set-up samples")
    for k, slot in enumerate(SLOTS):
        walls = [ex[k].wall for _, ex in passes]
        report.append(f"  {commands[k].name} [{slot}]: median {median(walls):.3f} s of "
                      f"{len(walls)} passes: " + " ".join(f"{w:.3f}" for w in walls))
    report.append(f"  error rate: {failed} failed of {attempted} attempted")
    for ex in executions:
        for problem in ex.problems:
            report.append(f"  FAILED {ex.command.name}: {problem}")
    return metrics, attempted, failed, report


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "icelab" / "cli.py").is_file():
        print("error: run from the root of an icelab checkout (src/icelab/cli.py not found)",
              file=sys.stderr)
        return 2
    seed = args.seed % 2**31
    work = root / WORK_DIR / f"{args.workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, attempted, failed, report = measure(
            args.workload, seed, args.seconds, bool(args.trace), root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
