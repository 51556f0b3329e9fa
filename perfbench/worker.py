"""One benchmark process: set up, run the timed loop, verify, report.

Started by run.py with the checkout's `src` and `perfbench` directories on
PYTHONPATH.  It prints `ready` once set-up is done (import, input
generation, one untimed warm-up check), so the parent can time set-up
from process start.  With --probe it then only times the speed kernel
(see below) and stops.  Otherwise it runs checks one at a time through
`pseudosphere.cli.run` until --seconds of check time have passed and a
round of inputs is complete (inputs.ROUND), verifies every report, and
prints one JSON line with the raw results for run.py to summarize.

During the timed loop a SpeedSampler interrupts the process every
SAMPLE_INTERVAL_S, also in the middle of a check, to time a fixed
pure-Python kernel of exact rational arithmetic (`speed_kernel`); the
time it takes is taken out of the check times.  The kernel timings tell
run.py how fast the machine ran this process over the run, which on a
shared host drifts by tens of percent within minutes.

With --trace 1 it then runs the first TRACED_CHECKS[workload] inputs
twice more, untraced and then with the tracer installed, reports the
per-layer numbers and writes the trace to traces/<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import pseudosphere as ps
from pseudosphere import cli

import inputs

# Inputs generated during set-up; later ones are generated outside the clock.
PREGENERATED = 16

TRACE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traces")

# Checks in the traced pass: a fixed count, so counts repeat exactly.
TRACED_CHECKS = {"pipeline-n4": 4, "nonrigid-n2": 4, "screen": 24}

# Seconds between speed-kernel samples in the timed loop.  A sample takes
# about 3.6 ms, so sampling costs under 4% of the loop's time.
SAMPLE_INTERVAL_S = 0.1
# Speed-kernel samples taken right after set-up.
SETUP_SAMPLES = 10


def speed_kernel():
    """Seconds to square a fixed 36-term series over Q kept in a dict.

    It does the kind of work the program does (Fraction products and sums
    keyed by exponent tuples) but none of the program's code, so a change
    to the program does not change it.
    """
    start = time.perf_counter()
    terms = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    product = {}
    for (i1, j1), a in terms.items():
        for (i2, j2), b in terms.items():
            key = (i1 + i2, j1 + j2)
            product[key] = product.get(key, 0) + a * b
    return time.perf_counter() - start


class SpeedSampler:
    """Times `speed_kernel` from a SIGALRM handler every SAMPLE_INTERVAL_S.

    Samples, as (perf_counter time, kernel seconds), spread evenly over
    the run, long checks included.  `spent` is the total time the handler
    took, for callers to take out of their own timings.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, speed_kernel()))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup_kernel_s():
    """Mean speed-kernel time right after set-up."""
    speed_kernel()  # first call warms the interpreter's caches
    return statistics.mean(speed_kernel() for _ in range(SETUP_SAMPLES))


def job_for(case):
    return cli.JobSpec(
        n=case.n,
        order=case.order,
        kind=case.kind,
        theta_text=case.text if case.kind == "theta" else None,
        graph_text=case.text if case.kind == "graph" else None,
        checks=case.checks,
        witness=True,
    )


def verify_report(case, report):
    """Problems with one report against what its input guarantees."""
    problems = []
    certified = case.order - 4
    expected = {
        "errors": [],
        "reality": "pass",
        "levi_nondegenerate": True,
        "signature": list(case.signature),
        "order_certified": certified,
    }
    if "integrability" in case.checks:
        expected["integrability"] = "pass"
    if "cross-check" in case.checks:
        expected["cross_check"] = "pass"
    for key, value in expected.items():
        if report.get(key) != value:
            problems.append(f"{key} = {report.get(key)!r}, expected {value!r}")
    verdict = report.get("pseudospherical") or ""
    if case.flat and verdict != f"VanishesToOrder({certified})":
        problems.append(f"flat by construction, but verdict is {verdict!r}")
    if verdict.startswith("NonVanishing") and report.get("witness") is None:
        problems.append("nonvanishing verdict without a witness")
    elif not verdict.startswith(("NonVanishing", "VanishesToOrder")):
        problems.append(f"unexpected verdict {verdict!r}")
    return problems


def transported_problems(case, report):
    """Recompute the verdict by the transported route and compare exactly."""
    if case.kind == "graph":
        phi = ps.parse_series(case.text, ps.graph_context(case.n), case.order)
        model = ps.from_graph(phi, case.n, case.order)
    else:
        theta = ps.parse_series(case.text, ps.canonical_context(case.n), case.order)
        model = ps.make_model(case.n, theta, case.order)
    result = ps.cross_check(model)
    if not result.ok:
        return [f"routes disagree: {result.mismatches[0]}"]
    transported = ps.FlatnessTensor(case.n, result.certified_order, result.transported)
    witness = transported.first_nonzero_witness()
    if witness is None:
        expected = f"VanishesToOrder({result.certified_order})"
        if report["pseudospherical"] != expected:
            return [f"transported route vanishes, report says {report['pseudospherical']!r}"]
        return []
    got = report.get("witness") or {}
    want = {
        "component": list(witness.component),
        "monomial": witness.monomial,
        "coefficient": {"re": str(witness.coefficient.re), "im": str(witness.coefficient.im)},
    }
    if got != want:
        return [f"witness {got!r}, transported route gives {want!r}"]
    return []


def run_check(case, sampler=None):
    """(seconds in cli.run, report or None, problems).

    With a sampler, the time its samples took is not counted.
    """
    start = time.perf_counter()
    paused = sampler.spent if sampler else 0.0
    try:
        report = cli.run(job_for(case))
    except Exception as exc:  # any raise is a failed check; the run goes on
        report, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if sampler:
        elapsed -= sampler.spent - paused
    if report is None:
        return elapsed, None, [error]
    return elapsed, report, verify_report(case, report)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    stream = inputs.generate(args.workload, args.seed)
    cases = list(itertools.islice(stream, PREGENERATED))
    _, _, problems = run_check(inputs.WARMUP[args.workload])
    if problems:
        print(f"warm-up check failed: {problems}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    setup_kernel = setup_kernel_s()
    if args.probe:
        print(json.dumps({"setup_kernel_s": setup_kernel}), flush=True)
        return 0

    # per check: seconds in cli.run, seconds in the loop, loop start and end
    latencies, busy, windows = [], [], []
    reports, failures = [], []
    round_size = inputs.ROUND[args.workload]
    least = TRACED_CHECKS[args.workload] if args.trace else 1
    with SpeedSampler() as sampler:
        for index in itertools.count():
            if sum(busy) >= args.seconds and index % round_size == 0 and index >= least:
                break
            if index == len(cases):
                cases.append(next(stream))
            start = time.perf_counter()
            paused = sampler.spent
            elapsed, report, problems = run_check(cases[index], sampler)
            end = time.perf_counter()
            latencies.append(elapsed)
            busy.append(end - start - (sampler.spent - paused))
            windows.append((start, end))
            reports.append(report)
            failures.append(problems)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(latencies)

    # screen: recompute each verdict by the transported route, untimed
    if args.workload == "screen":
        for index, report in enumerate(reports):
            if report is not None and not failures[index]:
                try:
                    failures[index] = transported_problems(cases[index], report)
                except Exception as exc:
                    failures[index] = [f"cross_check raised {type(exc).__name__}: {exc}"]

    for index, problems in enumerate(failures):
        if problems:
            print(f"check {index} failed ({cases[index].kind} n={cases[index].n} "
                  f"order={cases[index].order}: {cases[index].text}): {problems[0]}",
                  file=sys.stderr)
    result = {
        "attempted": attempted,
        "failed": sum(1 for problems in failures if problems),
        "latencies_s": latencies,
        "busy_s": busy,
        "windows": windows,
        "kernel": sampler.samples,
        "setup_kernel_s": setup_kernel,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }

    if args.trace:
        result.update(traced_pass(args, cases))
    print(json.dumps(result), flush=True)
    return 0


def traced_pass(args, cases):
    """Re-run the first traced inputs untraced, then with the tracer installed.

    The untraced re-run right before the traced one gives the base of
    trace.overhead: same inputs, same warm process, close in time.
    """
    from tracer import Tracer

    count = TRACED_CHECKS[args.workload]
    untraced = sum(run_check(case)[0] for case in cases[:count])
    tracer = Tracer()
    tracer.install()
    traced = 0.0
    failed = 0
    try:
        for index in range(count):
            tracer.request = index
            elapsed, report, problems = run_check(cases[index])
            traced += elapsed
            failed += bool(problems)
            tracer.measure_bits()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.checks"] = count
    metrics["trace.overhead"] = traced / untraced
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write(os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json"))
    return {"layers": metrics, "traced_failed": failed}


if __name__ == "__main__":
    sys.exit(main())
