"""Benchmark of `pseudosphere check`, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-n4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

A single client runs a closed loop: one `check` at a time through
`pseudosphere.cli.run`, the next only after the previous report came back
and was verified.  Workloads and their inputs are in inputs.py; the seed
only selects inputs.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced pass (see tracer.py), and the full trace is written under
perfbench/traces/.  Lines before it give every metric by name with its
unit.  --workload all runs each workload in turn.

Set-up time is measured from process start to the first timed check, so
each run starts PROBES extra processes that only set up, and reports the
median over them and the measuring process.

Times are reported at a fixed reference machine speed.  A shared host
runs this pure-Python program tens of percent slower or faster from one
minute to the next, which would drown the differences between two
versions of the program.  Each worker therefore times a fixed speed
kernel every 0.1 s of its timed loop (worker.SpeedSampler) and right
after set-up.  A check's times are multiplied by REFERENCE_KERNEL_S /
(the mean time of the kernel samples taken within LOCAL_S of it), and a
set-up time by REFERENCE_KERNEL_S / (the mean of those after set-up), so
a value reads as it would on a machine where the kernel takes
REFERENCE_KERNEL_S.  The lines before the JSON also give the wall-clock
values and the mean speed factor.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("pipeline-n4", "nonrigid-n2", "screen")
PROBES = 4
# Speed-kernel time that defines the reference speed: its mean on an
# otherwise idle 2-vCPU x86-64 VM with CPython 3.11.  The mean, not the
# median, because a shared host slows a process by interruptions and
# bursts, which the mean of evenly spread samples takes in as the checks
# do; over 5 s windows of screen checks it tracked their slowdown with a
# correlation of 0.98, the median with 0.73.
REFERENCE_KERNEL_S = 0.0036
# Seconds on either side of a check whose kernel samples give its speed.
# Per-check speeds, rather than one per run, took the run-to-run spread of
# latency_p50_s on nonrigid-n2 from 15% to 1% in runs at 0.6 to 1.0 of the
# reference speed; the width mattered little between 0.25 s and 1 s.
LOCAL_S = 1.0
# Every process is stopped after this long, so a run always ends in time.
DEADLINE_S = 170.0

UNITS = {
    "checks_per_s": "1/s",
    "latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def worker_command(args, workload, probe):
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if probe:
        command.append("--probe")
    return command


def start_worker(command, deadline):
    """Start a worker; return (process, seconds until it printed `ready`)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = process.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        stop(process)
        raise BenchError(f"worker did not set up: {line.strip() or 'no output'}")
    if time.perf_counter() > deadline:
        stop(process)
        raise BenchError("set-up ran past the deadline")
    return process, setup


def stop(process):
    if process.poll() is None:
        process.kill()
    process.communicate()


def finish(process, deadline):
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stop(process)
        raise BenchError("worker ran past the deadline") from None
    if process.returncode != 0:
        raise BenchError(f"worker exited with status {process.returncode}")
    return out


def tail_percentile(latencies):
    """The highest whole percentile with at least ten samples beyond it."""
    count = len(latencies)
    if count < 11:
        return None
    ordered = sorted(latencies)
    percentile = (100 * (count - 10)) // count
    rank = max(1, -(-percentile * count // 100))  # nearest-rank
    return percentile, ordered[rank - 1]


def local_speeds(windows, kernel):
    """Each check's speed relative to the reference, from nearby samples."""
    times = [t for t, _ in kernel]
    speeds = []
    for start, end in windows:
        lo = bisect.bisect_left(times, start - LOCAL_S)
        hi = bisect.bisect_right(times, end + LOCAL_S)
        durations = [d for _, d in kernel[lo:hi]] or [d for _, d in kernel]
        speeds.append(REFERENCE_KERNEL_S / statistics.mean(durations))
    return speeds


def run_workload(args, workload, deadline):
    setups, raw_setups = [], []
    for index in range(PROBES + 1):
        process, setup = start_worker(worker_command(args, workload, probe=index < PROBES), deadline)
        raw = json.loads(finish(process, deadline).strip().splitlines()[-1])
        setups.append(setup * REFERENCE_KERNEL_S / raw["setup_kernel_s"])
        raw_setups.append(setup)

    attempted, failed = raw["attempted"], raw["failed"]
    verified = attempted - failed
    lines = []
    if args.trace:
        metrics = raw["layers"]
        for name, value in metrics.items():
            lines.append(f"{workload}  {name} = {value} {layer_unit(name)}")
        failed += raw["traced_failed"]
    else:
        speeds = local_speeds(raw["windows"], raw["kernel"])
        latencies = [latency * speed for latency, speed in zip(raw["latencies_s"], speeds)]
        metrics = {
            "checks_per_s": verified / sum(b * speed for b, speed in zip(raw["busy_s"], speeds)),
            "latency_p50_s": statistics.median(latencies),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        wall = {
            "checks_per_s": verified / sum(raw["busy_s"]),
            "latency_p50_s": statistics.median(raw["latencies_s"]),
            "setup_s": statistics.median(raw_setups),
        }
        for name, value in metrics.items():
            line = f"{workload}  {name} = {value:.6g} {UNITS[name]}"
            if name in wall:
                line += f" (wall clock {wall[name]:.6g} {UNITS[name]})"
            lines.append(line)
        mean_kernel = statistics.mean(d for _, d in raw["kernel"])
        lines.append(f"{workload}  machine speed = {REFERENCE_KERNEL_S / mean_kernel:.4g} "
                     f"x reference ({len(raw['kernel'])} kernel samples)")
        tail = tail_percentile(latencies)
        if tail is None:
            lines.append(f"{workload}  latency_tail_s omitted: {len(latencies)} checks, fewer than 11")
        else:
            lines.append(f"{workload}  latency_tail_s = {tail[1]:.6g} s "
                         f"(p{tail[0]} of {len(latencies)} checks)")
        lines.append(f"{workload}  failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    return metrics, attempted, failed, lines


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ns_per_pair", "ns_per_op")):
        return "ns"
    if name.endswith("max_bits"):
        return "bits"
    if name == "trace.overhead":
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pseudosphere", "cli.py")):
        print(f"error: no pseudosphere sources under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    merged, attempted, failed = {}, 0, 0
    try:
        for workload in workloads:
            deadline = time.perf_counter() + DEADLINE_S
            metrics, tried, bad, lines = run_workload(args, workload, deadline)
            for line in lines:
                print(line, flush=True)
            attempted += tried
            failed += bad
            for name, value in metrics.items():
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                unit = layer_unit(name) if args.trace else UNITS[name]
                merged[key] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
