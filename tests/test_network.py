import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import SMALL_PARAMS, enumerate_posterior, small_net
from factorcube import factors as fa
from factorcube import network
from factorcube.network import (
    BeliefNet,
    GenerationError,
    NetFormatError,
    NetGenParams,
    NetValidationError,
    QuerySpec,
    Variable,
)


def net_of(parents, cpts, cards=None):
    n = len(parents)
    cards = cards or [2] * n
    variables = tuple(Variable(i, f"n{i}", cards[i]) for i in range(n))
    return BeliefNet(variables, tuple(tuple(p) for p in parents),
                     tuple(np.asarray(t, dtype=float) for t in cpts))


# -- validation --------------------------------------------------------------

def test_validate_accepts_single_node():
    assert network.validate(net_of([()], [[0.3, 0.7]])) == []


def test_validate_flags_bad_row_sum():
    report = network.validate(net_of([()], [[0.3, 0.6]]))
    assert [v.kind for v in report] == ["row-sum"]
    assert report[0].var_id == 0


def test_validate_flags_cycle():
    report = network.validate(
        net_of([(1,), (0,)], [[0.5, 0.5, 0.5, 0.5]] * 2)
    )
    assert "cycle" in {v.kind for v in report}


def test_validate_flags_self_loop_as_cycle():
    report = network.validate(net_of([(0,)], [[0.5] * 4]))
    assert [v.kind for v in report] == ["cycle"]


def test_validate_repeated_parent_is_not_a_cycle():
    report = network.validate(net_of([(), (0, 0)], [[0.5] * 2, [0.5] * 8]))
    assert [v.kind for v in report] == ["parent-duplicate"]


def test_validate_flags_cpt_size_and_unknown_parent():
    report = network.validate(net_of([(5,)], [[0.5, 0.5]]))
    assert "parent-unknown" in {v.kind for v in report}
    report = network.validate(net_of([()], [[0.2, 0.3, 0.5]]))
    assert "cpt-size" in {v.kind for v in report}


def test_validate_flags_low_cardinality():
    net = BeliefNet((Variable(0, "x", 1),), ((),), (np.array([1.0]),))
    assert "cardinality" in {v.kind for v in network.validate(net)}


def test_validate_query():
    net = net_of([()], [[0.3, 0.7]])
    assert network.validate_query(net, QuerySpec(0)) == []
    kinds = {v.kind for v in network.validate_query(net, QuerySpec(0, {0: 1}))}
    assert "query-observed" in kinds
    kinds = {v.kind for v in network.validate_query(net, QuerySpec(5, {0: 9}))}
    assert {"query-unknown", "evidence-range"} <= kinds


# -- random generation -------------------------------------------------------

def test_random_net_degenerate_ranges():
    net, q = network.random_net(NetGenParams((10, 10), (1.0, 1.0), (1, 1), 42))
    assert net.node_count == 10
    assert net.arc_count == 10
    assert len(q.evidence) == 1
    assert q.query_var not in q.evidence
    assert network.validate(net) == []
    assert network.validate_query(net, q) == []


def test_random_net_is_deterministic():
    params = NetGenParams(seed=123)
    a_net, a_q = network.random_net(params)
    b_net, b_q = network.random_net(params)
    assert a_net.parents == b_net.parents
    assert a_q == b_q
    for x, y in zip(a_net.cpts, b_net.cpts):
        assert np.array_equal(x, y)


def test_random_net_realized_stats_in_range():
    for seed in range(25):
        params = NetGenParams((10, 40), (1.5, 3.0), (1, 5), seed)
        net, q = network.random_net(params)
        assert 10 <= net.node_count <= 40
        assert 1.5 <= net.avg_in_arcs() <= 3.0
        assert 1 <= len(q.evidence) <= 5
        assert all(len(p) <= network.MAX_IN_DEGREE for p in net.parents)
        assert network.validate(net) == []


def test_random_net_mean_node_count():
    # uniform draws over [10, 100] average 55
    total = 0
    for seed in range(1000):
        net, _ = network.random_net(NetGenParams(seed=seed))
        total += net.node_count
    assert 50 <= total / 1000 <= 60


def test_random_net_infeasible_ranges():
    with pytest.raises(GenerationError):
        network.random_net(NetGenParams((5, 4), (1, 1), (1, 1), 0))
    for arcs in ((1.0, math.inf), (math.nan, 2.0)):
        with pytest.raises(GenerationError, match=rf"arcs range \({arcs[0]}, "):
            network.random_net(NetGenParams((4, 4), arcs, (1, 1), 0))
    # ranges no node count can meet are refused before any draw
    for ranges in (((0, 3), (1, 1), (0, 0)), ((3, 3), (-1, 1), (0, 0)),
                   ((3, 3), (1, 1), (-1, 0)), ((3, 3), (2, 1), (0, 0)),
                   # infeasible at every node count in range, the largest too
                   ((1, 1), (1, 5), (1, 20)), ((2, 2), (1, 5), (2, 3)),
                   ((2, 2), (0, 1), (2, 3)), ((3, 6), (10, 12), (1, 20)),
                   ((4, 4), (3.0, 3.0), (1, 1)),  # avg 3 needs capacity 12 > 6
                   ((3, 3), (1.0, 1.0), (3, 3))):  # cannot observe every node
        with pytest.raises(GenerationError):
            NetGenParams(*ranges)
    # feasible at the largest node count only: refused per draw, not up front
    NetGenParams((2, 7), (3.0, 3.0), (1, 1), 0)
    NetGenParams((4, 30), (2.6, 2.6), (1, 1), 0)
    # three observations need four nodes: seed 1 draws three, seed 0 four
    with pytest.raises(GenerationError,
                       match="observation count 3 infeasible for 3 nodes"):
        network.random_net(NetGenParams((2, 4), (0.0, 1.0), (3, 3), seed=1))
    net, query = network.random_net(NetGenParams((2, 4), (0.0, 1.0), (3, 3), seed=0))
    assert net.node_count == 4 and len(query.evidence) == 3


def draw_arc_slots_by_lists(rng, n, target_avg, t_lo, t_hi):
    """Reference arc adjustment: list every arc, or every free slot, for
    each arc it removes or adds, and index the list."""
    caps = [min(i, network.MAX_IN_DEGREE) for i in range(n)]
    chosen = [set() for _ in range(n)]
    for i in range(1, n):
        p = min(1.0, target_avg / caps[i])
        k = int(rng.binomial(caps[i], p))
        chosen[i].update(int(j) for j in rng.choice(i, size=k, replace=False))
    total = sum(len(c) for c in chosen)
    while total > t_hi:
        arcs = [(j, i) for i in range(n) for j in sorted(chosen[i])]
        j, i = arcs[int(rng.integers(0, len(arcs)))]
        chosen[i].discard(j)
        total -= 1
    while total < t_lo:
        free = [(j, i) for i in range(n) if len(chosen[i]) < caps[i]
                for j in range(i) if j not in chosen[i]]
        j, i = free[int(rng.integers(0, len(free)))]
        chosen[i].add(j)
        total += 1
    return [sorted(c) for c in chosen]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 40),
    target_avg=st.floats(0.0, 20.0),
    seed=st.integers(0, 2**32 - 1),
    shifts=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
)
def test_arc_slots_match_list_reference(n, target_avg, seed, shifts):
    # the bounds sit on either side of the total the binomial phase draws,
    # up to the whole capacity away, so that added arcs fill nodes to cap
    capacity = network._arc_capacity(n)
    drawn = sum(map(len, draw_arc_slots_by_lists(
        np.random.default_rng(seed), n, target_avg, 0, capacity)))
    t_lo, t_hi = sorted(
        min(max(drawn + round(s * capacity), 0), capacity) for s in shifts
    )
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = network._draw_arc_slots(ours, n, target_avg, t_lo, t_hi)
    assert got == draw_arc_slots_by_lists(ref, n, target_avg, t_lo, t_hi)
    assert t_lo <= sum(map(len, got)) <= t_hi
    assert ours.bit_generator.state == ref.bit_generator.state


# -- relevance pruning -------------------------------------------------------

def chain_net():
    return net_of(
        [(), (0,), (1,)],
        [[0.4, 0.6], [0.9, 0.1, 0.2, 0.8], [0.7, 0.3, 0.5, 0.5]],
    )


def test_relevant_factors_chain():
    net = chain_net()
    assert network.relevant_factors(net, QuerySpec(2)) == {0, 1, 2}
    assert network.relevant_factors(net, QuerySpec(0)) == {0}


def test_relevant_factors_fork_with_evidence():
    net = net_of(
        [(), (0,), (0,)],
        [[0.4, 0.6], [0.9, 0.1, 0.2, 0.8], [0.7, 0.3, 0.5, 0.5]],
    )
    q = QuerySpec(1, {2: 0})
    assert network.relevant_factors(net, q) == {0, 1, 2}
    # dropping any returned factor changes the posterior
    cards = {v.id: v.cardinality for v in net.variables}
    full = enumerate_posterior(fa.query_factors(net, q), 1, cards)
    all_f = dict(zip((0, 1, 2), fa.query_factors(net, q, [0, 1, 2])))
    for dropped in (0, 2):
        rest = [all_f[v] for v in all_f if v != dropped]
        partial = enumerate_posterior(rest, 1, cards)
        assert abs(partial[0] - full[0]) > 1e-6


def _ancestors_by_bfs(net, seeds):
    # independent traversal: explicit frontier over a transposed edge list
    parent_of = {v: set(net.parents[v]) for v in range(net.node_count)}
    seen = set()
    frontier = list(seeds)
    while frontier:
        nxt = []
        for v in frontier:
            if v in seen:
                continue
            seen.add(v)
            nxt.extend(parent_of[v])
        frontier = nxt
    return seen


def test_relevance_equals_independent_closure():
    for i in range(1, 40):
        net, q = small_net(i)
        want = _ancestors_by_bfs(net, [q.query_var, *q.evidence])
        assert network.relevant_factors(net, q) == want


def requisite_by_d_separation(net, query):
    """Ids, ascending, of the CPTs that a new root t, made a parent of
    their variable v, would d-connect to the query variable given the
    evidence: the requisite CPTs (Shachter, UAI 1998).  By the
    moralization criterion (Lauritzen et al., Networks 1990): take the
    ancestral graph of the query, the evidence and t, join each node's
    parents, drop the arcs' directions, delete the evidence, and see
    whether t reaches the query.  t is a root, so that graph is the one of
    the query and the evidence, plus t only when v is in it, and t's
    edges go to v and v's parents."""
    evidence = query.evidence
    ancestral = _ancestors_by_bfs(net, [query.query_var, *evidence])
    moral = {w: set() for w in ancestral}
    for w in ancestral:
        for p in net.parents[w]:
            moral[w].add(p)
            moral[p].add(w)
        for a, b in itertools.combinations(net.parents[w], 2):
            moral[a].add(b)
            moral[b].add(a)
    out = []
    for v in sorted(ancestral):
        frontier = [w for w in (v, *net.parents[v]) if w not in evidence]
        seen = set(frontier)
        while frontier:
            for x in moral[frontier.pop()] - seen:
                if x not in evidence:
                    seen.add(x)
                    frontier.append(x)
        if query.query_var in seen:
            out.append(v)
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**63 - 1), st.sampled_from([SMALL_PARAMS, {}]))
def test_requisite_factors_equal_d_separation(seed, params):
    # {} is the protocol's generator; a CPT entry that is not strictly
    # positive sends the pass to its fallback, the whole closure
    net, query = network.random_net(NetGenParams(seed=seed, **params))
    assume(all(cpt.min() > 0.0 for cpt in net.cpts))
    assert network.requisite_factors(net, query) == requisite_by_d_separation(net, query)


def test_posterior_from_relevant_equals_full_joint():
    for i in range(1, 30):
        net, q = small_net(i)
        cards = {v.id: v.cardinality for v in net.variables}
        pruned = enumerate_posterior(
            fa.query_factors(net, q), q.query_var, cards
        )
        full = fa.brute_force_posterior(net, q)
        np.testing.assert_allclose(pruned, full.table, atol=1e-9)


# -- serialization -----------------------------------------------------------

def test_round_trip_identity(tmp_path):
    net, q = network.random_net(NetGenParams((10, 20), (1.0, 2.0), (1, 3), 5))
    path = tmp_path / "net.json"
    network.save_net(net, q, path)
    net2, q2 = network.load_net(path)
    assert q2 == q
    assert net2.parents == net.parents
    assert [v for v in net2.variables] == [v for v in net.variables]
    for a, b in zip(net.cpts, net2.cpts):
        assert np.array_equal(a, b)  # bit-exact
    path2 = tmp_path / "again.json"
    network.save_net(net2, q2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_unknown_parent(tmp_path):
    net, q = network.random_net(NetGenParams((5, 5), (1.0, 1.0), (0, 0), 1))
    obj = network._net_to_obj(net, q)
    obj["parents"][0] = [99]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(NetValidationError) as err:
        network.load_net(path)
    assert any(v.kind == "parent-unknown" for v in err.value.violations)


def test_load_rejects_cpt_length_mismatch(tmp_path):
    net, q = network.random_net(NetGenParams((5, 5), (1.0, 1.0), (0, 0), 1))
    obj = network._net_to_obj(net, q)
    obj["cpts"][3] = obj["cpts"][3] + [0.5]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(NetValidationError) as err:
        network.load_net(path)
    bad = [v for v in err.value.violations if v.kind == "cpt-size"]
    assert bad and bad[0].var_id == 3


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(NetFormatError):
        network.load_net(path)
    path.write_text(json.dumps({"format": "x"}))
    with pytest.raises(NetFormatError):
        network.load_net(path)
