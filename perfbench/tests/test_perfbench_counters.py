"""Computed work counters against counts made by hand on a three-node chain."""

import numpy as np
import pytest

import spans
from counters import WorkCounter, evaluation_work, pairs_scored
from factorcube import factoring, network


def chain_net():
    """a -> b -> c, all binary, no evidence, query c.  Its factor scopes are
    (a), (a, b), (b, c)."""
    variables = tuple(network.Variable(i, name, 2) for i, name in enumerate("abc"))
    cpts = (
        np.array([0.3, 0.7]),
        np.array([0.9, 0.1, 0.2, 0.8]),
        np.array([0.6, 0.4, 0.5, 0.5]),
    )
    net = network.BeliefNet(variables, ((), (0,), (1,)), cpts)
    return net, network.QuerySpec(2, {})


def test_pairs_scored_by_hand():
    # 3 factors: 3 pairs, then 2 factors: 1 pair
    assert pairs_scored(3) == 3 + 1
    # 5 factors: 10 + 6 + 3 + 1
    assert pairs_scored(5) == 20
    assert pairs_scored(1) == 0


def test_evaluation_work_by_hand():
    net, query = chain_net()
    scopes, cards, _ = factoring.scopes_for_query(net, query)
    tree = factoring.build_chain_baseline(scopes, cards, query.query_var)
    # (a) x (a,b) over {a,b}: 4 multiplies, tables of 2 + 4 + 2 values;
    # then (b) x (b,c) over {b,c}: the same again.
    assert evaluation_work(tree) == (2, 8, 8 * 16)


def test_traced_posteriors_counted(monkeypatch):
    net, query = chain_net()
    tracer = spans.Tracer()
    counter = WorkCounter()
    restore = spans.install(tracer, counter.seen)
    try:
        for heuristic in factoring.HEURISTICS:
            factoring.posterior(net, query, heuristic)
    finally:
        restore()
    counter.settle()
    # Every heuristic multiplies (a) by (a,b) first: it is the cheapest pair.
    assert dict(counter.counts) == {
        "factoring.relevant_factors": 3 * 3,
        "factoring.pairs_scored": 2 * 4,
        "factoring.products_built": 3 * 2,
        "factoring.products_evaluated": 3 * 2,
        "kernels.mults": 3 * 8,
        "kernels.table_bytes": 3 * 128,
    }
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert calls["factoring.posterior"] == 3
    assert calls["factoring.build_chain"] == 1
    assert calls["kernels.product_sum"] == 6
    # the originals are back
    assert factoring.posterior.__name__ == "posterior"
    assert not hasattr(factoring.posterior, "__wrapped__")


@pytest.mark.parametrize("heuristic", factoring.HEURISTICS)
def test_counts_repeat_exactly(heuristic):
    net, query = network.random_net(network.NetGenParams((10, 20), (1.0, 2.0), (1, 5), seed=5))
    runs = []
    for _ in range(2):
        counter = WorkCounter()
        restore = spans.install(spans.Tracer(), counter.seen)
        try:
            factoring.posterior(net, query, heuristic)
        finally:
            restore()
        counter.settle()
        runs.append(dict(counter.counts))
    assert runs[0] == runs[1]
    assert runs[0]["kernels.mults"] > 0
