"""Spans nest, and their self times add up to the traced wall time."""

import itertools
import math

import spans
from factorcube import cli, factoring, network


def traced_wall(tracer):
    """Summed duration of the root spans."""
    return sum(end - start for _, start, end, parent in tracer.spans if parent is None)


def test_self_times_with_a_stepping_clock():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("op"):          # 0 .. 7
        with tracer.span("a"):       # 1 .. 4
            with tracer.span("b"):   # 2 .. 3
                pass
        with tracer.span("c"):       # 5 .. 6
            pass
    with tracer.span("op"):          # 8 .. 9
        pass
    assert [(n, p) for n, _, _, p in tracer.spans] == [
        ("op", None), ("a", 0), ("b", 1), ("c", 0), ("op", None),
    ]
    assert tracer.self_times() == [7 - 3 - 1, 3 - 1, 1, 1, 1]
    assert sum(tracer.self_times()) == traced_wall(tracer) == 8
    summary = tracer.summary()
    assert summary["op"] == {"calls": 2, "total_s": 8.0, "self_s": 4.0}

    with tracer.span("setup"):       # 10 .. 13
        with tracer.span("a"):       # 11 .. 12
            pass
    assert tracer.summary("op")["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert tracer.summary("setup") == {
        "setup": {"calls": 1, "total_s": 3.0, "self_s": 2.0},
        "a": {"calls": 1, "total_s": 1.0, "self_s": 1.0},
    }
    assert tracer.summary()["a"]["calls"] == 2


def test_traced_experiment_spans_nest(tmp_path):
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        with tracer.span("bench.op"):
            cli.run_experiment(cli.ExperimentConfig(count=3, master_seed=11), tmp_path)
        with tracer.span("bench.op"):
            net, query = network.random_net(
                network.NetGenParams((10, 20), (1.0, 2.0), (1, 5), seed=3)
            )
            factoring.posterior(net, query)
    finally:
        restore()

    for name, start, end, parent in tracer.spans:
        assert start <= end
        if parent is None:
            assert name == "bench.op"
        else:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end
    names = {name for name, *_ in tracer.spans}
    # every layer the two calls pass through shows up
    assert {
        "cli.run_experiment", "network.random_net", "factoring.scopes_for_query",
        "factoring.build_set-factoring", "factoring.build_set-factoring-c",
        "factoring.build_chain", "factoring.tree_stats", "costmodel.query_costs",
        "costmodel.longest_path", "costmodel.memory_accounting",
        "metrics.build_report_rows", "metrics.render", "factoring.posterior",
        "factors.query_factors", "factoring.evaluate_tree", "kernels.product_sum",
    } <= names
    own = tracer.self_times()
    assert min(own) >= -1e-9
    assert math.isclose(sum(own), traced_wall(tracer), rel_tol=1e-9)
