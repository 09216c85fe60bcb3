#!/usr/bin/env python3
"""factorcube's benchmark: the protocol, large and numeric workloads.

Every workload runs in fresh processes (worker.py), one after another, from
this single thread.

    python3 perfbench/run.py
        Runs each workload at its default seed, untraced and then traced.
        Prints every end-to-end metric by name and unit, and writes
        perfbench/results/BENCH_<git sha>.json with the per-layer metrics,
        span breakdown, work counts and tracing overhead.

    python3 perfbench/run.py --workload numeric --seed 7 --seconds 30 --trace 0
        One measurement.  The last line of standard output is one JSON
        object: {"correct", "attempted", "failed", "metrics"}.  With
        --trace 0 the metrics are the end-to-end ones, with --trace 1 the
        per-layer ones.

End-to-end metrics come from untraced runs.  setup_s runs from the spawn of
the worker process to its first timed operation (interpreter start, import,
making and selecting inputs); it is the median of SETUP_SAMPLES processes.
op_tail_ms is taken over operations, an operation that repeats in every pass
(large, numeric) counting once, at its median.  Per-layer times are span self
times and per-layer counts are computed from the shapes the program returns;
both are totals over the timed operations of the traced run divided by their
number.  The BENCH file keeps set-up's spans and counts apart.

Every reported time is scaled to the reference host of probe.py by the
host-speed probe the worker runs between operations; the BENCH file and the
details keep the unscaled figures and the scale beside them.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("protocol", "large", "numeric")
DEFAULT_SECONDS = 30
SETUP_SAMPLES = 5
# Workers keep numpy's BLAS to one thread: the builders' small matrix products
# gain nothing from a second thread, and a spinning helper thread on a shared
# two-core machine made run-to-run times differ by a fifth.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MEASURE_TIMEOUT_S = 170  # one measurement, every worker included

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# (metric name, span name) for the per-layer self times.
LAYER_TIMES = (
    ("network.random_net_s", "network.random_net"),
    ("factoring.scopes_for_query_s", "factoring.scopes_for_query"),
    ("factoring.build_set-factoring_s", "factoring.build_set-factoring"),
    ("factoring.build_set-factoring-c_s", "factoring.build_set-factoring-c"),
    ("factoring.build_chain_s", "factoring.build_chain"),
    ("factoring.tree_stats_s", "factoring.tree_stats"),
    ("costmodel.query_costs_s", "costmodel.query_costs"),
    ("costmodel.longest_path_s", "costmodel.longest_path"),
    ("costmodel.memory_accounting_s", "costmodel.memory_accounting"),
    ("metrics.build_report_rows_s", "metrics.build_report_rows"),
    ("metrics.render_s", "metrics.render"),
    ("factors.query_factors_s", "factors.query_factors"),
    ("factoring.evaluate_tree_s", "factoring.evaluate_tree"),
    ("kernels.product_sum_s", "kernels.product_sum"),
    ("cli.run_experiment_s", "cli.run_experiment"),
)
LAYER_COUNTS = (
    "network.nets",
    "factoring.relevant_factors",
    "factoring.pairs_scored",
    "factoring.products_built",
    "costmodel.products_costed",
    "metrics.rows",
    "factoring.products_evaluated",
    "kernels.mults",
    "kernels.table_bytes",
)
PER_LAYER = {
    **{name: "s/op" for name, _ in LAYER_TIMES},
    **{name: "count/op" for name in LAYER_COUNTS},
    "factoring.tree_stats_calls": "count/op",
    "kernels.mults_per_s": "1/s",
}

# Span groups for the layer split recorded in the BENCH file.
SPLIT = {
    "generate": ("network.random_net",),
    "prune": ("factoring.scopes_for_query",),
    "build": ("factoring.build_set-factoring", "factoring.build_set-factoring-c",
              "factoring.build_chain"),
    "cost": ("factoring.tree_stats", "costmodel.query_costs", "costmodel.longest_path",
             "costmodel.memory_accounting", "metrics.build_report_rows"),
    "evaluate": ("factors.query_factors", "factoring.evaluate_tree",
                 "kernels.product_sum"),
    "render": ("metrics.render",),
}


class BenchError(RuntimeError):
    """A worker failed or printed no result."""


def tail(samples):
    """(value, percentile, beyond): the highest sample with at least ten
    samples above it, the percentile it sits at, and how many lie above.
    Below 21 samples that sample would sit under the median, which is no
    tail, so the maximum is returned instead."""
    ordered = sorted(samples)
    n = len(ordered)
    i = n - 11 if n > 20 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def per_key(latencies) -> list:
    """Median latency of each distinct operation key."""
    groups = {}
    for key, latency in latencies:
        groups.setdefault(json.dumps(key), []).append(latency)
    return [statistics.median(v) for v in groups.values()]


def _worker(args, timeout):
    """Run worker.py; returns (parsed last stdout line, spawn time)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    env = {**os.environ, **SINGLE_THREAD}
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1]), spawned


def measure(workload: str, seed, seconds: int, trace: bool) -> dict:
    """One measurement in fresh worker processes, summarised.  With no seed
    the workload's default seed is used."""
    base = ["--workload", workload] + ([] if seed is None else ["--seed", str(seed)])
    deadline = time.monotonic() + MEASURE_TIMEOUT_S
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            got, spawned = _worker(base + ["--setup-only"], deadline - time.monotonic())
            setups.append(got["ready"] - spawned)
    raw, spawned = _worker(
        base + ["--seconds", str(seconds), "--trace", str(int(trace))],
        deadline - time.monotonic(),
    )
    setups.append(raw["ready"] - spawned)
    return summarise(raw, setups, seconds, trace)


def summarise(raw: dict, setups: list, seconds: int, trace: bool) -> dict:
    """The contract's four keys, plus the details the BENCH file keeps."""
    workload = raw["workload"]
    seed = raw["seed"]
    check = raw["check"]
    host = scale(raw["probe_s"])
    timed = len(raw["latencies"]) + raw["failed"]
    attempted = timed + check["attempted"]
    failed = raw["failed"] + check["failed"]
    summary = {
        "correct": failed == 0 and not check["mismatches"],
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        values = per_layer(raw["trace"], timed, host)
        units = PER_LAYER
    else:
        values = end_to_end(raw, setups, host)
        units = END_TO_END
    summary["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}

    keyed = per_key(raw["latencies"])
    value, pct, beyond = tail(keyed) if keyed else (0.0, 0.0, 0)
    summary["details"] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "timed_ops": timed,
        "failed_frac": failed / attempted,
        "op_tail_percentile": pct,
        "op_tail_beyond": beyond,
        "samples": len(raw["latencies"]),
        "distinct_ops": len(keyed),
        "units": raw["units"],
        "elapsed_s": raw["elapsed"],
        "host_scale": host,
        "probe_samples": len(raw["probe_s"]),
        "probe_median_s": statistics.median(raw["probe_s"]),
        "unscaled": end_to_end(raw, setups, 1.0) if raw["latencies"] else {},
        "setup_samples_s": setups,
        "mismatches": check["mismatches"],
        "fingerprint": check["fingerprint"],
        "backend": raw["backend"],
        "numpy": raw["numpy"],
        "python": raw["python"],
    }
    if trace:
        summary["details"]["trace"] = raw["trace"]
    return summary


def end_to_end(raw: dict, setups: list, host: float) -> dict:
    """The end-to-end metrics, every time multiplied by `host`."""
    lat = [latency for _, latency in raw["latencies"]]
    if not lat:
        raise BenchError(f"{raw['workload']}: no operation succeeded")
    return {
        "ops_per_s": len(lat) / (host * raw["elapsed"]),
        "op_p50_ms": 1000.0 * host * statistics.median(lat),
        "op_tail_ms": 1000.0 * host * tail(per_key(raw["latencies"]))[0],
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "setup_s": host * statistics.median(setups),
    }


def per_layer(trace: dict, ops: int, host: float) -> dict:
    """The per-layer metrics, every time multiplied by `host`."""
    spans = trace["spans"]
    counts = trace["counts"]
    out = {
        name: host * spans.get(span, {}).get("self_s", 0.0) / ops
        for name, span in LAYER_TIMES
    }
    out.update({name: counts.get(name, 0) / ops for name in LAYER_COUNTS})
    out["factoring.tree_stats_calls"] = spans.get("factoring.tree_stats", {}).get("calls", 0) / ops
    kernel_s = host * spans.get("kernels.product_sum", {}).get("self_s", 0.0)
    out["kernels.mults_per_s"] = counts.get("kernels.mults", 0) / kernel_s if kernel_s else 0.0
    return out


def layer_split(trace: dict) -> dict:
    """Share of the timed operations' traced time in each span group; the
    host-speed probes run between operations are left out."""
    spans = trace["spans"]
    ops_s = spans["bench.op"]["total_s"] - spans.get("bench.probe", {}).get("total_s", 0.0)
    shares = {
        group: sum(spans.get(s, {}).get("self_s", 0.0) for s in members) / ops_s
        for group, members in SPLIT.items()
    }
    shares["other"] = 1.0 - sum(shares.values())
    return shares


def _git(*args):
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_all(seconds: int) -> int:
    record = {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "program_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workloads": {},
    }
    ok = True
    for name in WORKLOAD_NAMES:
        plain = measure(name, None, seconds, trace=False)
        traced = measure(name, None, seconds, trace=True)
        d0, d1 = plain["details"], traced["details"]
        per_op_plain = d0["elapsed_s"] / d0["timed_ops"]
        per_op_traced = d1["elapsed_s"] / d1["timed_ops"]
        for key in ("backend", "numpy", "python"):
            record[key] = d0[key]
        record["workloads"][name] = {
            "seed": d0["seed"],
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failed_frac": d0["failed_frac"],
            "end_to_end": plain["metrics"],
            "op_tail_percentile": d0["op_tail_percentile"],
            "op_tail_beyond": d0["op_tail_beyond"],
            "samples": d0["samples"],
            "host_scale": d0["host_scale"],
            "probe_median_s": d0["probe_median_s"],
            "unscaled_end_to_end": d0["unscaled"],
            "setup_samples_s": d0["setup_samples_s"],
            "per_layer": {
                k: {**v, "computed": True} if k in LAYER_COUNTS else v
                for k, v in traced["metrics"].items()
            },
            "layer_split": layer_split(d1["trace"]),
            "spans": d1["trace"]["spans"],
            "setup_spans": d1["trace"]["setup_spans"],
            "setup_counts": d1["trace"]["setup_counts"],
            "tracing_overhead": {
                "untraced_s_per_op": per_op_plain,
                "traced_s_per_op": per_op_traced,
                "traced_minus_untraced_s_per_op": per_op_traced - per_op_plain,
            },
            "fingerprint": d0["fingerprint"],
            "mismatches": d0["mismatches"] + d1["mismatches"],
        }
        ok = ok and plain["correct"] and traced["correct"]
        _print_summary(name, plain)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{record['git_sha'][:12]}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


def _print_summary(name: str, summary: dict) -> None:
    d = summary["details"]
    for metric, m in summary["metrics"].items():
        print(f"{name:9s} {metric:34s} {m['value']:14.6g} {m['unit']}")
    print(f"{name:9s} {'failed_frac':34s} {d['failed_frac']:14.6g} "
          f"({summary['failed']}/{summary['attempted']})")
    if "op_tail_ms" in summary["metrics"]:
        print(f"{name:9s} {'op_tail_ms percentile':34s} {d['op_tail_percentile']:14.4g} "
              f"({d['op_tail_beyond']} of {d['distinct_ops']} operations beyond)")
    print(f"{name:9s} {'host_scale':34s} {d['host_scale']:14.6g} "
          f"(unscaled times x this; median of {d['probe_samples']} probes "
          f"{1000 * d['probe_median_s']:.3f} ms)")
    for line in d["mismatches"]:
        print(f"{name:9s} MISMATCH {line}")
    print(f"{name:9s} {'correct':34s} {summary['correct']!s:>14s}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="factorcube benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.workload is None:
            return run_all(args.seconds)
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_summary(args.workload, summary)
    print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
