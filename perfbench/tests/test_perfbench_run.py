"""Failure accounting, the tail rule, and the file contract of the benchmark."""

import json
import shutil
import subprocess
import sys

import numpy as np

import probe
import run
import workloads
from factorcube import factoring, network
from test_perfbench_counters import chain_net

ROOT = run.ROOT


def raw_result(latencies, failed, check_attempted=1, check_failed=0, mismatches=(),
               probe_s=(probe.REFERENCE_S,)):
    if latencies and not isinstance(latencies[0], tuple):
        latencies = list(enumerate(latencies))
    return {
        "workload": "numeric", "seed": 1, "ready": 0.0, "units": 1,
        "probe_s": list(probe_s),
        "latencies": latencies, "failed": failed, "elapsed": 2.0, "peak_rss_kb": 2048,
        "backend": "numpy", "numpy": np.__version__, "python": "3",
        "check": {"attempted": check_attempted, "failed": check_failed,
                  "mismatches": list(mismatches), "fingerprint": {}},
    }


def test_tail_has_ten_samples_beyond():
    samples = list(range(100))
    value, pct, beyond = run.tail(samples)
    assert (value, beyond) == (89, 10)
    assert pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail(list(range(20)))[0] == 19
    assert run.tail(list(range(21))) == (10, 100.0 * 11 / 21, 10)


def test_summary_counts_failures():
    summary = run.summarise(raw_result([0.1, 0.2, 0.3], failed=1, check_attempted=4,
                                       check_failed=1), [0.5], 2, trace=False)
    assert summary["attempted"] == 3 + 1 + 4
    assert summary["failed"] == 2
    assert summary["correct"] is False
    assert summary["details"]["failed_frac"] == 2 / 8
    assert summary["metrics"]["ops_per_s"]["value"] == 3 / 2.0
    clean = run.summarise(raw_result([0.1], failed=0), [0.5], 2, trace=False)
    assert clean["correct"] is True and clean["details"]["failed_frac"] == 0
    pinned_off = run.summarise(raw_result([0.1], 0, mismatches=["x"]), [0.5], 2, False)
    assert pinned_off["correct"] is False


def test_times_scale_with_the_probe():
    """On a host that runs the probe twice as slow as the reference host
    every reported time shrinks by the same factor, memory does not, and the
    unscaled figures are kept."""
    slow = [2 * probe.REFERENCE_S, 1.9 * probe.REFERENCE_S, 9 * probe.REFERENCE_S]
    host = 0.5 ** probe.SENSITIVITY
    assert probe.scale(slow) == host
    summary = run.summarise(raw_result([0.1, 0.3], 0, probe_s=slow), [0.8], 2, False)
    got = {k: m["value"] for k, m in summary["metrics"].items()}
    assert got["ops_per_s"] == 2 / (host * 2.0)
    assert got["op_p50_ms"] == 1000.0 * host * 0.2
    assert got["op_tail_ms"] == 1000.0 * host * 0.3
    assert got["setup_s"] == host * 0.8
    assert got["peak_rss_mb"] == 2.0
    assert summary["details"]["host_scale"] == host
    assert summary["details"]["unscaled"]["op_p50_ms"] == 1000.0 * 0.2


def test_repeated_operations_count_once_in_the_tail():
    # 30 distinct operations, each run twice: the tail is taken over the 30
    # per-operation medians, so the 11th highest median is reported.
    latencies = [(k, k + d) for k in range(30) for d in (-0.5, 0.5)]
    summary = run.summarise(raw_result(latencies, 0), [0.5], 2, False)
    assert summary["details"]["distinct_ops"] == 30
    assert summary["details"]["op_tail_beyond"] == 10
    assert summary["metrics"]["op_tail_ms"]["value"] == 1000.0 * 19


def numeric_on_chain_net():
    workload = workloads.Numeric()
    net, query = chain_net()
    workload.seed = 1
    workload.pairs = [(1, net, query, h) for h in factoring.HEURISTICS]
    workload.answers = {}
    return workload


def test_injected_exception_is_a_failed_operation(monkeypatch):
    workload = numeric_on_chain_net()
    real = factoring.posterior

    def posterior(net, query, heuristic="set-factoring", *args, **kwargs):
        if heuristic == "chain":
            raise FloatingPointError("injected")
        return real(net, query, heuristic, *args, **kwargs)

    monkeypatch.setattr(factoring, "posterior", posterior)
    latencies, failed = workload.unit(0)
    assert (len(latencies), failed) == (2, 1)


def test_injected_wrong_answer_is_a_failed_operation(monkeypatch):
    workload = numeric_on_chain_net()
    real = factoring.posterior

    def posterior(net, query, heuristic="set-factoring", *args, **kwargs):
        got = real(net, query, heuristic, *args, **kwargs)
        if heuristic == "set-factoring-c":
            return type(got)(got.vars, got.cards, got.table[::-1])
        return got

    monkeypatch.setattr(factoring, "posterior", posterior)
    # whichever answer comes first becomes the reference for the rest
    latencies, failed = workload.unit(0)
    assert failed in (1, 2) and len(latencies) + failed == 3
    summary = run.summarise(raw_result(latencies, failed, check_attempted=0), [0.5], 2, False)
    assert summary["details"]["failed_frac"] == failed / 3
    assert summary["correct"] is False


def test_injected_net_failure_counts_in_protocol(monkeypatch, tmp_path):
    workload = workloads.Protocol()
    workload.count = 4
    workload.setup(1, tmp_path)
    real = network.random_net
    calls = []

    def random_net(params):
        calls.append(params)
        if len(calls) == 2:
            raise network.GenerationError("injected")
        return real(params)

    monkeypatch.setattr(network, "random_net", random_net)
    latencies, failed = workload.unit(0)
    assert (len(latencies), failed) == (3, 1)
    assert network.random_net is random_net
    assert (tmp_path / "protocol" / "errors.csv").exists()
    summary = run.summarise(raw_result(latencies, failed, check_attempted=0), [0.5], 2, False)
    assert summary["details"]["failed_frac"] == 1 / 4


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/: exit non-zero and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "traces",
                                                  "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocol", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_large_order_follows_the_seed(monkeypatch, tmp_path):
    """The corpus is fixed; the seed draws the order of each pass."""
    large = workloads.Large()
    large.nets = 2
    large.out = tmp_path
    masters = large.select()
    assert masters == large.select() and len(masters) == 2
    seen = []

    def run_experiment(config, out):
        seen.append(config.master_seed)
        return {"failures": 0}

    monkeypatch.setattr(workloads.cli, "run_experiment", run_experiment)
    orders = []
    for seed in (7, 7, 8):
        large.seed = seed
        large.masters = [1, 2, 3, 4, 5, 6]
        seen.clear()
        latencies, failed = large.unit(0)
        assert failed == 0 and [k for k, _ in latencies] == seen
        orders.append(list(seen))
    assert orders[0] == orders[1] and sorted(orders[0]) == [1, 2, 3, 4, 5, 6]
    assert orders[0] != orders[2]
