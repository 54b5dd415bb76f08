"""qclock benchmark: one seeded workload per run, as a closed loop with one client.

Run from the root of a qclock checkout:

    python3 bench/run.py --workload dial-exact --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics in rounds of one set-up, a
share of the timed closed loop and one CLI cold-start launch, then takes
peak memory in a tracemalloc pass over one op; neither tracemalloc nor a
launch runs inside a timed op.  ``--trace 1`` alternates traced and untraced ops for the same
time and reports per-layer metrics from the spans (see tracing.py).  Every op
is checked for a correct answer.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
LAUNCH_TIMEOUT_S = 120


def unit_of(name: str) -> str:
    if name == "ops_per_s":
        return "1/s"
    if name == "peak_mem_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_bits"):
        return "bit"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


class Tally:
    """Attempted and failed ops; a raised exception or a failed check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)


def timed_op(wl, inp: dict, tally: Tally, label: str, call=None) -> float:
    """Run one op (``call`` defaults to ``wl.op``), check it, return its latency."""
    start = perf_counter()
    try:
        out = (call or wl.op)(inp)
    except Exception:
        latency = perf_counter() - start
        tally.record(label, [traceback.format_exc()])
        return latency
    latency = perf_counter() - start
    try:
        problems = wl.check(inp, out)
    except Exception:
        problems = [traceback.format_exc()]
    tally.record(label, problems)
    return latency


def launch(argv: list, tally: Tally, label: str, check=None) -> float:
    """Wall time of one `python <argv>` subprocess run from the checkout root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.record(label, [f"no exit within {LAUNCH_TIMEOUT_S} s"])
        return perf_counter() - start
    seconds = perf_counter() - start
    problems = [f"exit {proc.returncode}: {proc.stderr[-500:]}"] if proc.returncode else []
    if check and not problems:
        problems = check(proc.stdout)
    tally.record(label, problems)
    return seconds


def check_identity_output(stdout: str) -> list:
    try:
        residual = json.loads(stdout)["result"]["residual"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable check-identity output: {exc!r}"]
    return [] if residual < 1e-12 else [f"residual {residual!r}"]


def tail(latencies: list) -> tuple:
    """The highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], (100.0 * k / (n - 1) if n > 1 else 100.0)


def thread_settings(workers: str) -> str:
    env = {key: os.environ.get(key, "unset") for key in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return (f"threads: {len(os.sched_getaffinity(0))} cores available; "
            + ", ".join(f"{k}={v}" for k, v in env.items())
            + " (unset: OpenBLAS uses one thread per core); load generator: 1 client, "
            f"1 process, {threading.active_count()} Python thread; {workers}")


def run_end_to_end(wl, size, args, workdir: Path, tally: Tally) -> dict:
    """Rounds of set-up, a share of the timed loop and one cold-start launch.

    Spreading the set-ups and launches over the run, instead of taking them
    back to back, makes their medians see the same spells of machine load as
    the timed loop does.  No launch or set-up runs inside a timed op.
    """
    import workloads

    rational = workdir / "cold-start.spec"
    workloads.write_rational_file(str(rational))
    setups, latencies, cold, elapsed, loop_failed = [], [], [], 0.0, 0
    for r in range(size.rounds):
        start = perf_counter()
        wl.setup(args.seed, str(workdir))
        timed_op(wl, wl.inputs(args.seed, workloads.STREAM_WARMUP, r), tally, f"warm-up {r}")
        setups.append(perf_counter() - start)

        failed_before, start = tally.failed, perf_counter()
        while perf_counter() - start < args.seconds / size.rounds or len(latencies) < 2:
            inp = wl.inputs(args.seed, workloads.STREAM_TIMED, len(latencies))
            latencies.append(timed_op(wl, inp, tally, f"op {len(latencies)}"))
        elapsed += perf_counter() - start
        loop_failed += tally.failed - failed_before

        cold.append(launch(["-m", "qclock.cli", "check-identity", "--spectrum", str(rational)],
                           tally, f"cold start {r}", check_identity_output))

    tracemalloc.start()
    timed_op(wl, wl.inputs(args.seed, workloads.STREAM_MEMORY, 0), tally, "memory pass")
    peak_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "ops_per_s": (len(latencies) - loop_failed) / elapsed,
        "peak_mem_mb": peak_bytes / 1e6,
        "cold_start_s": statistics.median(cold),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, each with one warm-up op",
        "op_p50_s": f"median of {len(latencies)} ops",
        "op_tail_s": f"p{tail_pct:.1f}: {min(10, len(latencies) - 1)} of "
                     f"{len(latencies)} ops beyond it",
        "ops_per_s": f"{len(latencies)} ops in {elapsed:.3f} s",
        "peak_mem_mb": "tracemalloc peak over one op, untimed pass",
        "cold_start_s": f"median of {len(cold)} launches of "
                        "`python -m qclock.cli check-identity`",
    }
    print(thread_settings(f"{len(cold)} CLI subprocesses, one at a time, between "
                          "shares of the timed loop"))
    for name, value in metrics.items():
        print(f"  {name:<14} {value:<22.9g} {unit_of(name):<5} {notes[name]}")
    print(f"  {'error_rate':<14} {tally.failed / tally.attempted:<22.9g} ratio "
          f"{tally.failed} failed of {tally.attempted} attempted")
    return metrics


def run_traced(wl, size, args, workdir: Path, tally: Tally) -> dict:
    import qclock
    import tracing
    import workloads

    wl.setup(args.seed, str(workdir))
    timed_op(wl, wl.inputs(args.seed, workloads.STREAM_WARMUP, 0), tally, "warm-up")
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer, qclock)

    def traced(op_id):
        def call(inp):
            patches.install()
            try:
                return tracer.run_op(op_id, wl.op, inp)
            finally:
                patches.uninstall()
        return call

    traced_ids, traced_lat, plain_lat = [], [], []
    start = perf_counter()
    i = 0
    while (perf_counter() - start < args.seconds or len(traced_ids) < size.count_ops
           or not plain_lat):
        inp = wl.inputs(args.seed, workloads.STREAM_TIMED, i)
        if i % 2 == 0:
            traced_lat.append(timed_op(wl, inp, tally, f"traced op {i}", traced(i)))
            traced_ids.append(i)
        else:
            plain_lat.append(timed_op(wl, inp, tally, f"op {i}"))
        i += 1

    imports = [launch(["-c", "import qclock"], tally, f"import {k}")
               for k in range(size.rounds)]
    metrics = tracing.layer_metrics(tracer.spans, traced_ids, traced_ids[:size.count_ops])
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_frac"] = (statistics.median(traced_lat)
                                      / statistics.median(plain_lat) - 1.0)
    spans_path = RUNS / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(str(spans_path), start)

    print(thread_settings(f"{len(imports)} `import qclock` subprocesses after the loop"))
    print(f"  {len(traced_ids)} traced and {len(plain_lat)} untraced ops alternated; "
          f"counts are per op over the first {min(size.count_ops, len(traced_ids))} traced "
          f"ops, times per op over all; {len(tracer.spans)} spans in {spans_path}")
    accounted = sum(metrics[f"{layer}.self_s"] for layer in (*tracing.LAYERS, "harness"))
    print(f"  layer self times + harness self time = {accounted:.9g} s "
          f"of {metrics['trace.op_s']:.9g} s traced op time")
    for name in sorted(metrics):
        print(f"  {name:<48} {metrics[name]:<22.9g} {unit_of(name)}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dial-exact", "dense-equal", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small problem sizes, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qclock" / "__init__.py").is_file():
        print(f"bench: no qclock package under {SRC}; run from a qclock checkout",
              file=sys.stderr)
        return 2
    # the package under test is this checkout's source tree, never an installed copy
    sys.path.insert(0, str(SRC))
    os.environ.pop("QCLOCK_CONSTANTS", None)
    import workloads

    size = workloads.TINY if args.tiny else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](size)
    workdir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    print(f"qclock benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, {'tiny' if args.tiny else 'full'} size")
    try:
        run = run_traced if args.trace else run_end_to_end
        metrics = run(wl, size, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
