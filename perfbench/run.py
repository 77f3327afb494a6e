"""qlease benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload {games,exact,wide} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.
One process runs the workload's operations back to back (a closed loop
with one caller), pass after pass with the same inputs, until the passes have taken ``S``
seconds.  Outputs are checked outside the timed window: the first pass
by each operation's own check, every later pass by comparing report
digests with the first.  Only the first pass keeps its outputs; later
passes keep their digests, so memory does not grow with the pass count.
An operation that raises, fails its check or changes its digest counts
as failed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters, started between the passes), ``wall_s`` (median
pass) and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics (means over the traced passes)
with the tracing overhead.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Record:
    """One operation of one pass."""

    op: object
    outcome: object  # workloads.Outcome; None when it raised or was dropped
    error: str | None
    seconds: float
    game_s: float = 0.0  # traced time inside the game harness
    digest: str | None = None
    trials: int = 0


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until the workload is set up."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_pass(ops, tracer=None, keep: bool = True) -> tuple[float, list[Record]]:
    """One pass over ``ops``.  After the pass, outside its wall time, each
    record gets its digest; unless ``keep``, its outcome is then dropped."""
    import workloads

    def game_time():
        if tracer is None:
            return 0.0
        return sum(
            tracer.stats[s].total_s
            for s in ("games.run_experiment_free", "games.run_experiment_ssl")
        )

    records = []
    clock = time.perf_counter
    pass_start = clock()
    for op in ops:
        g0 = game_time()
        start = clock()
        try:
            outcome, error = op.run(), None
        except Exception as exc:  # a failed operation, not a benchmark crash
            traceback.print_exc(file=sys.stderr)
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        seconds = clock() - start
        records.append(Record(op, outcome, error, seconds, game_time() - g0))
    wall = clock() - pass_start
    for rec in records:
        if rec.outcome is not None:
            rec.digest, rec.trials = workloads.digest(rec.outcome), rec.outcome.trials
            if not keep:
                rec.outcome = None
    return wall, records


def traced_pass(ops, tracer, keep: bool = True) -> tuple[float, list[Record], dict]:
    """One pass with the tracer installed; returns its snapshot too."""
    tracer.reset()
    tracer.install()
    try:
        wall, records = run_pass(ops, tracer, keep)
    finally:
        tracer.uninstall()
    return wall, records, tracer.snapshot()


def check_passes(all_passes: list[list[Record]]) -> tuple[int, int]:
    """Check every operation; the first pass, which alone keeps its
    outcomes, is the reference.  Returns (attempted, failed) and prints
    one line per operation of the first pass and per failure."""
    reference = all_passes[0]
    attempted = failed = 0
    for n, records in enumerate(all_passes):
        for rec, ref in zip(records, reference):
            attempted += 1
            if rec.error:
                reason = rec.error
            elif n == 0:
                reason = rec.op.check(rec.outcome)
            else:
                reason = None if rec.digest == ref.digest else f"digest differs from pass 0 ({ref.digest})"
            failed += reason is not None
            if n == 0 or reason:
                status = "ok" if reason is None else f"FAILED: {reason}"
                print(f"op pass={n} {rec.op.name:28s} {rec.seconds:9.4f} s  sha256={rec.digest}  {status}")
    return attempted, failed


def game_throughput(records: list[Record]) -> float | None:
    games_ = [r for r in records if r.op.adversary and r.error is None]
    seconds = sum(r.seconds for r in games_)
    return sum(r.trials for r in games_) / seconds if seconds else None


def timed(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    import workloads

    ops = workloads.setup(workload, seed)
    # set-up probes are spread between the passes, so that slow spells of
    # the machine fall on both; each pass starts from a collected heap
    setups, walls, passes = [], [], []
    while not walls or sum(walls) < seconds:
        while len(setups) < SETUP_PROBES * sum(walls) / seconds:
            setups.append(probe_setup(workload, seed))
        gc.collect()
        wall, records = run_pass(ops, keep=not passes)
        walls.append(wall)
        passes.append(records)
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(workload, seed))
    attempted, failed = check_passes(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"pass walls (s): {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"set-up probes (s): {' '.join(f'{t:.4f}' for t in setups)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name:12s} {value:.6g} {unit}")
    rates = [game_throughput(records) for records in passes]
    if rates[0] is not None:
        print(f"metric {'trials_per_s':12s} {statistics.median(rates):.6g} 1/s")
    print(f"metric {'error_rate':12s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, attempted, failed


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    import layers
    import workloads
    from tracer import Tracer

    tracer = Tracer(layers.TARGETS)
    tracer.install()
    try:
        ops = workloads.setup(workload, seed)
    finally:
        tracer.uninstall()
    enumerate_s = tracer.stats["designs.clifford_enumerate"].total_s

    # untraced and traced passes alternate, so that slow spells of the
    # machine fall on both sides of the tracing overhead
    plain_walls, plain, traced_walls, traced_passes = [], [], [], []
    while not traced_passes or sum(plain_walls) + sum(traced_walls) < seconds:
        gc.collect()
        wall, records = run_pass(ops, keep=not plain)
        plain_walls.append(wall)
        plain.append(records)
        gc.collect()
        wall, records, snapshot = traced_pass(ops, tracer, keep=False)
        traced_walls.append(wall)
        traced_passes.append((records, snapshot))
    attempted, failed = check_passes(plain + [records for records, _ in traced_passes])

    per_pass = []
    for records, snapshot in traced_passes:
        values = layers.pass_metrics(snapshot)
        for adv in layers.ADVERSARIES:
            recs = [r for r in records if r.op.adversary == adv and r.error is None]
            trials = sum(r.trials for r in recs)
            values[f"games.{adv}.trial_ms"] = 1e3 * sum(r.game_s for r in recs) / trials if trials else 0.0
        per_pass.append(values)
    units = layers.metric_units()
    values = {}
    for name in per_pass[0]:
        mean = statistics.fmean(p[name] for p in per_pass)
        values[name] = int(mean) if units[name] == "count" and mean.is_integer() else mean
    values["designs.clifford_enumerate.s"] = enumerate_s
    values["trace.wall_s"] = statistics.fmean(traced_walls)
    plain_wall = statistics.fmean(plain_walls)
    values["trace.overhead_ratio"] = values["trace.wall_s"] / plain_wall
    print(f"untraced passes {len(plain_walls)}, traced passes {len(traced_walls)}; per-layer values are means per traced pass")
    print(f"tracing overhead {values['trace.wall_s'] - plain_wall:.4f} s per pass (traced minus untraced mean wall)")
    print("no layer queues work, so no layer reports time waited")
    for name, unit in units.items():
        print(f"layer {name:48s} {values[name]:.6g} {unit}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("games", "exact", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = Path.cwd() / "src"
    if not (src / "qlease" / "__init__.py").is_file():
        print("error: run from the repository root; src/qlease not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    print("env " + json.dumps(environment(), sort_keys=True))
    run = traced if args.trace else timed
    metrics, attempted, failed = run(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
