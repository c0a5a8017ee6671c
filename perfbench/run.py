#!/usr/bin/env python3
"""Host-performance benchmark of the hpcbd simulator.

Runs one workload over and over, each run in a fresh single-threaded
`hpcbd-perfbench` process, for a fixed number of seconds, and prints its
metrics (medians over the runs) as the last line of stdout:

    python3 perfbench/run.py --workload reduce_sweep --seed 1 --seconds 10 --trace 0

`--trace 0` reports the end-to-end metrics, measured with tracing off.
`--trace 1` reports the per-layer metrics from traced runs instead.
Either way every run's output is checked (a pinned digest, the
workload's invariants) and the exit status is 1 when a check fails.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

prints every metric of every workload, with units, as a table.

    python3 perfbench/run.py --workload NAME --spread 10

runs seeds 1..10 and prints each end-to-end metric's interquartile
range as a share of its median.

Run it from the repository root. It builds the `hpcbd-perfbench` crate
beside this file into `$CARGO_TARGET_DIR` (default `.bench_build`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["reduce_sweep", "pagerank_iter", "datacenter_day", "answers_scan"]

# (name, unit) of every metric the benchmark reports, as in BENCHMARK.json.
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]
PER_LAYER = [
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("os.user_s", "s"),
    ("os.sys_s", "s"),
    ("os.minflt", "count"),
    ("minimpi.host_s", "s"),
    ("minimpi.sys_s", "s"),
    ("minimpi.minflt", "count"),
    ("minimpi.calls", "count"),
    ("minspark.host_s", "s"),
    ("minspark.sys_s", "s"),
    ("minspark.minflt", "count"),
    ("minspark.calls", "count"),
    ("minomp.host_s", "s"),
    ("minmapreduce.host_s", "s"),
    ("simnet.run_s", "s"),
    ("simnet.runs", "count"),
    ("simnet.coro_resume", "count"),
    ("simnet.queue_push", "count"),
    ("simnet.park", "count"),
    ("simnet.ns_per_resume", "ns"),
    ("simnet.outside_s", "s"),
    ("sched.idle.host_s", "s"),
    ("sched.contended.host_s", "s"),
    ("sched.nopreempt.host_s", "s"),
    ("sched.jobs_completed", "count"),
    ("sched.contended.us_per_job", "us"),
    ("workloads.input_s", "s"),
    ("obs.capture_s", "s"),
    ("obs.report_s", "s"),
    ("obs.events", "count"),
]

# Start-up plus input set-up is a few milliseconds, so before every
# measured run it is sampled this many extra times, in processes that
# exit once their inputs are built; spreading the samples over the whole
# run keeps a passing disturbance on the host from skewing the median.
SETUP_SAMPLES = 4
# A run that overruns this is a hang, not a measurement.
CHILD_TIMEOUT_S = 150


def spread(values):
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def kib_to_mib(kib):
    return kib / 1024.0


def child_env(environ):
    """The environment minus every HPCBD_* knob, so each run uses the
    program's default execution with telemetry and self-profiling off."""
    return {k: v for k, v in environ.items() if not k.startswith("HPCBD_")}


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the benchmark binary; exit with status 2 if that fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"error: cannot run cargo: {e}")
    if done.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        sys.exit(2)
    return target_dir() / "release" / "hpcbd-perfbench"


def parse_child_output(text):
    """Split a run's stdout into (simulations planned, result object).
    Either is None when the run died before printing it."""
    lines = text.splitlines()
    planned = None
    if lines and lines[0].startswith("ready "):
        planned = int(lines[0].split()[1])
    result = None
    if len(lines) > 1:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return planned, result


def run_child(binary, workload, seed, flags=()):
    """Run the workload once in a fresh process. Returns the run's result
    object with `setup_s` (spawn to inputs built, seen from here) added,
    or a failed stand-in if the process died."""
    cmd = [str(binary), workload, "--seed", str(seed), *flags]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(os.environ))
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    planned, result = parse_child_output(first + rest)
    if "--setup-only" in flags:
        return {"setup_s": setup_s, "ok": planned is not None}
    if result is None:
        print(f"error: {workload} seed {seed} exited with {proc.returncode} "
              "without a result", file=sys.stderr)
        n = planned or 1
        return {"setup_s": setup_s, "attempted": n, "failed": n, "digest": None}
    result["setup_s"] = setup_s
    return result


def measure(binary, workload, seed, seconds, trace):
    """Run the workload until `seconds` have passed (at least once) and
    return (metrics, attempted, failed)."""
    start = time.perf_counter()
    # Traced, an untraced run first, to check that tracing leaves the
    # output alone.
    runs = [run_child(binary, workload, seed)] if trace else []
    flags = ["--trace"] if trace else []
    measured, setups = [], []
    while not measured or time.perf_counter() - start < seconds:
        if not trace:
            for _ in range(SETUP_SAMPLES):
                s = run_child(binary, workload, seed, ["--setup-only"])
                if not s["ok"]:
                    print(f"error: {workload} set-up failed", file=sys.stderr)
                    return {}, 1, 1
                setups.append(s["setup_s"])
        measured.append(run_child(binary, workload, seed, flags))
    runs += measured

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    digests = {r["digest"] for r in runs if r["digest"] is not None}
    if len(digests) > 1:
        print(f"error: {workload} seed {seed}: runs disagree on the output "
              f"digest {sorted(digests)}", file=sys.stderr)
        failed = attempted
    ok = [r for r in measured if r["digest"] is not None]
    if not ok:
        return {}, attempted, max(failed, 1)
    med = lambda key: statistics.median(r[key] for r in ok)
    if trace:
        metrics = {name: (med(name), unit) for name, unit in PER_LAYER}
    else:
        setups += [r["setup_s"] for r in ok]
        metrics = {
            "wall_s": (med("wall_s"), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (kib_to_mib(med("peak_rss_kib")), "MiB"),
        }
    return metrics, attempted, failed


def result_json(metrics, attempted, failed):
    return json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_all(binary, seed, seconds):
    bad = False
    for workload in WORKLOADS:
        for trace in (False, True):
            metrics, attempted, failed = measure(binary, workload, seed, seconds, trace)
            bad |= failed > 0 or not metrics
            if not trace:
                print(f"== {workload} (seed {seed}): {attempted} simulations, "
                      f"failed_frac {failed / max(attempted, 1):.4f}")
            for name, (value, unit) in metrics.items():
                print(f"   {name:<28} {value:>16.6f} {unit}")
    return 1 if bad else 0


def run_spread(binary, workload, seeds, seconds):
    per_metric = {name: [] for name, _ in END_TO_END}
    for seed in seeds:
        metrics, _, failed = measure(binary, workload, seed, seconds, False)
        if failed or not metrics:
            print(f"seed {seed}: failed", file=sys.stderr)
            return 1
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, (v, _) in metrics.items()))
        for name in per_metric:
            per_metric[name].append(metrics[name][0])
    for name, values in per_metric.items():
        print(f"{workload} {name}: median {statistics.median(values):.6g}, "
              f"spread {spread(values):.4f}")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--spread", type=int, metavar="N")
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("--workload or --all is required")
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    binary = build()
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    if args.spread:
        return run_spread(binary, args.workload, range(1, args.spread + 1), args.seconds)
    metrics, attempted, failed = measure(binary, args.workload, args.seed,
                                         args.seconds, bool(args.trace))
    print(result_json(metrics, attempted, failed))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
