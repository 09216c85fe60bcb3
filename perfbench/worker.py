"""Run one workload in this process: set up, measure, check.

run.py starts one fresh process of this script per measurement, so every
run pays its own interpreter start and import.  The last line of standard
output is one JSON object of raw samples, which run.py summarises.

    python3 perfbench/worker.py --workload protocol --seed 1 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload numeric --seed 1 --setup-only

With --trace 1 every call into factorcube's public functions is recorded as
a span (see spans.py) and the spans are written to perfbench/traces/.  The
result then holds span summaries and computed work counts, for the timed
operations and for set-up apart.  With --setup-only the
process stops when set-up is done and reports only that moment.

Between operations the worker probes the host's speed (see probe.py); the
probes' time is left out of the elapsed time, and in a traced run each probe
is a `bench.probe` span.  Units run whole: the last one starts only if it
would end nearer to --seconds than stopping before it.
"""

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import factorcube  # noqa: E402

if Path(factorcube.__file__).resolve().parent != ROOT / "src" / "factorcube":
    sys.exit(f"factorcube was imported from {factorcube.__file__}, not {ROOT / 'src'}")

import spans  # noqa: E402
from counters import WorkCounter  # noqa: E402
from probe import HostClock  # noqa: E402
from workloads import WORKLOADS, compare_pinned  # noqa: E402

WORK = HERE / ".work"
TRACES = HERE / "traces"


def monotonic() -> float:
    """System-wide clock, comparable with the parent's spawn time."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run(workload_name: str, seed, seconds: float, trace: bool, setup_only: bool) -> dict:
    workload = WORKLOADS[workload_name]()
    if seed is None:
        seed = workload.default_seed
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    tracer = counter = restore = None
    try:
        if trace:
            tracer = spans.Tracer()
            counter = WorkCounter()
            restore = spans.install(tracer, counter.seen)
        with tracer.span("bench.setup") if tracer else nullcontext():
            workload.setup(seed, workdir)
        ready = monotonic()
        if setup_only:
            return {"ready": ready}
        if counter:
            counter.settle()
            setup_counts = dict(counter.counts)
            counter.counts.clear()

        clock = HostClock(tracer.span if tracer else None)
        latencies = []
        failed = units = 0
        start = time.perf_counter()
        clock.tick()
        # Whole units only: another starts while it would end closer to
        # `seconds` than stopping now does.
        while units == 0 or (time.perf_counter() - start) * (1 + 0.5 / units) < seconds:
            with tracer.span("bench.op") if tracer else nullcontext():
                got, lost = workload.unit(units, clock.tick)
            if counter:
                counter.settle()
            latencies.extend(got)
            failed += lost
            units += 1
        elapsed = time.perf_counter() - start - clock.spent
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if restore:
            restore()
            restore = None

        result = {
            "workload": workload_name,
            "seed": seed,
            "ready": ready,
            "latencies": latencies,
            "failed": failed,
            "elapsed": elapsed,
            "units": units,
            "probe_s": clock.samples,
            "peak_rss_kb": peak_rss_kb,
            "backend": factorcube.backend(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
        reference = workload.reference()
        reference["mismatches"] = compare_pinned(workload_name, reference["fingerprint"])
        result["check"] = reference
        if tracer:
            TRACES.mkdir(exist_ok=True)
            tracer.write(TRACES / f"{workload_name}-{seed}.json")
            result["trace"] = {
                "spans": tracer.summary("bench.op"),
                "counts": dict(counter.counts),
                "setup_spans": tracer.summary("bench.setup"),
                "setup_counts": setup_counts,
            }
        return result
    finally:
        if restore:
            restore()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
