import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_instance, small_net
from factorcube import costmodel, factoring, network
from factorcube import factors as fa
from factorcube.factoring import (
    CpShape,
    build_chain_baseline,
    build_set_factoring,
    build_set_factoring_c,
    evaluate_tree,
    tree_stats,
)
from factorcube.factors import DimensionCapError

B2 = {v: 2 for v in range(10)}


def first_product(tree):
    return next(n for n in tree.nodes if not n.is_leaf)


# -- set-factoring -----------------------------------------------------------

def test_greedy_prefers_small_union():
    scopes = [(0, 1), (1, 2), (2, 3)]  # A,B / B,C / C,D with query A
    tree = build_set_factoring(scopes, B2, 0)
    node = first_product(tree)
    u = set(tree.nodes[node.left].scope) | set(tree.nodes[node.right].scope)
    assert len(u) == 3  # never the size-4 pair {A,B} x {C,D}
    # of the two size-3 unions, (B,C)x(C,D) sums out both its locals
    assert (node.left, node.right) == (1, 2)
    factoring.check_tree(tree)


def test_single_factor_tree_is_a_leaf():
    tree = build_set_factoring([(0,)], B2, 0)
    assert tree.cp_count == 0
    assert tree.nodes[tree.root].scope == (0,)


def test_build_requires_query_coverage():
    with pytest.raises(ValueError):
        build_set_factoring([(1,)], B2, 0)
    with pytest.raises(ValueError):
        build_set_factoring([], B2, 0)


@pytest.mark.parametrize("heuristic", factoring.HEURISTICS)
@pytest.mark.parametrize("scope", [(1, 0), (0, 1, 1)])
def test_build_rejects_unordered_scope(heuristic, scope):
    with pytest.raises(ValueError, match="strictly ascending"):
        factoring.build_tree(heuristic, [scope, (1, 2)], B2, 0)


def test_structure_over_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(40):
        nv = int(rng.integers(3, 9))
        scopes = []
        for _ in range(10):
            size = int(rng.integers(1, min(4, nv) + 1))
            scopes.append(
                tuple(sorted(rng.choice(nv, size=size, replace=False).tolist()))
            )
        query = int(rng.choice(sorted({v for s in scopes for v in s})))
        cards = {v: 2 for v in range(nv)}
        tree = build_set_factoring(scopes, cards, query)
        factoring.check_tree(tree)
        assert tree.nodes[tree.root].scope == (query,)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(0, 7), min_size=1, max_size=4),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 7),
    st.sampled_from(factoring.HEURISTICS),
)
def test_builders_preserve_invariants(scope_sets, query, heuristic):
    scopes = [tuple(sorted(s | ({query} if i == 0 else set())))
              for i, s in enumerate(scope_sets)]
    cards = {v: 2 for s in scopes for v in s}
    tree = factoring.build_tree(heuristic, scopes, cards, query,
                                costmodel.DEFAULT_MACHINE)
    factoring.check_tree(tree)
    assert tree.leaf_count == len(scopes)
    assert tree.nodes[tree.root].scope == (query,) or tree.cp_count == 0


def exhaustive_best_pair(scopes, cards, query):
    """Independent argmin over pairs with exact integer keys."""
    use = {}
    for s in scopes:
        for v in s:
            use[v] = use.get(v, 0) + 1
    best = None
    for a, b in itertools.combinations(range(len(scopes)), 2):
        union = sorted(set(scopes[a]) | set(scopes[b]))
        m = math.prod(cards[v] for v in union)
        result = [
            v for v in union
            if v == query or use[v] - (v in scopes[a]) - (v in scopes[b]) > 0
        ]
        rsize = math.prod(cards[v] for v in result)
        key = (m, rsize, a, b)
        if best is None or key < best:
            best = key
    return best[2], best[3]


def test_first_step_greedy_dominance():
    rng = np.random.default_rng(23)
    for _ in range(60):
        nv = int(rng.integers(3, 10))
        k = int(rng.integers(2, 9))
        scopes = []
        for _ in range(k):
            size = int(rng.integers(1, min(5, nv) + 1))
            scopes.append(
                tuple(sorted(rng.choice(nv, size=size, replace=False).tolist()))
            )
        query = int(rng.choice(sorted({v for s in scopes for v in s})))
        cards = {v: 2 for v in range(nv)}
        tree = build_set_factoring(scopes, cards, query)
        node = tree.nodes[len(scopes)]  # first product created
        assert (node.left, node.right) == exhaustive_best_pair(scopes, cards, query)


RESCAN_MACHINES = (
    costmodel.DEFAULT_MACHINE,
    costmodel.MachineParams(g_min=1, n_a=64),
    costmodel.MachineParams(c_st=3.0, p_init=7.0, b_buffer=1.5, n_a=8, g_min=2),
)


def rescan_best_pair(state, machine):
    """Reference choice: score every active pair from scratch in row-major
    order under an independently derived eager summation rule, and keep
    the first least (cost, result size).  machine None keys on work."""
    held = Counter(v for x in state.active for v in state.nodes[x].scope)
    best = None
    for a, b in itertools.combinations(state.active, 2):
        s1 = state.nodes[a].scope
        s2 = state.nodes[b].scope
        union = tuple(sorted(set(s1) | set(s2)))
        result = tuple(
            v for v in union
            if v == state.query_var or held[v] > (v in s1) + (v in s2)
        )
        shape = CpShape(s1, s2, union, result, tuple(state.cards[v] for v in union))
        if machine is None:
            key = (shape.multiply_count, shape.result_size)
        else:
            key = (costmodel.parallel_cp_cost(shape, machine).t_p, shape.result_size)
        if best is None or key < best[0]:
            best = (key, (a, b))
    return best[1]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sets(st.integers(0, 9), max_size=5), min_size=2, max_size=24),
    st.integers(0, 9),
    st.lists(st.integers(2, 5), min_size=10, max_size=10),
    st.booleans(),
    st.sampled_from((None,) + RESCAN_MACHINES),
)
def test_builder_matches_full_rescan_at_every_step(scope_sets, query, card_list,
                                                   binary, machine):
    # empty scopes make pairs that share no variable and keys that all tie;
    # up to 24 scopes let dead heap entries outnumber live ones
    scopes = [tuple(sorted(s | ({query} if i == 0 else set())))
              for i, s in enumerate(scope_sets)]
    cards = {v: 2 if binary else c for v, c in enumerate(card_list)}
    if machine is None:
        tree = build_set_factoring(scopes, cards, query)
    else:
        tree = build_set_factoring_c(scopes, cards, query, machine)
    state = factoring._BuildState(scopes, cards, query)
    for node in tree.nodes[len(scopes):]:
        assert (node.left, node.right) == rescan_best_pair(state, machine)
        state.combine(node.left, node.right)
        for x in state.active:
            assert state.reduced[x] == state.size(state.masks[x] & ~state.held_once)
    assert tuple(state.nodes) == tree.nodes


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(RESCAN_MACHINES),
    st.integers(1, 1 << 12),
    st.integers(1, 1 << 40),
    st.integers(1, 1 << 30),
    st.integers(0, 1 << 40),
)
def test_time_bound_never_exceeds_exact_time(machine, n_u, m, rsize, b_d):
    # the greedy builder keys set-factoring-c pairs on b_d = 0 until they
    # reach the top of its heap, so that key must be a lower bound
    assert (costmodel.bca_time(m, rsize, n_u, 0, machine)[3]
            <= costmodel.bca_time(m, rsize, n_u, b_d, machine)[3])


def test_build_is_deterministic():
    scopes = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]
    a = build_set_factoring(scopes, B2, 4)
    b = build_set_factoring(scopes, B2, 4)
    assert a == b


def test_non_binary_instances_use_exact_path():
    scopes = [(0, 1), (1, 2), (0, 2)]
    cards = {0: 2, 1: 3, 2: 4}
    tree = build_set_factoring(scopes, cards, 0)
    factoring.check_tree(tree)
    node = tree.nodes[3]
    assert (node.left, node.right) == exhaustive_best_pair(scopes, cards, 0)


# -- set-factoring(c) --------------------------------------------------------

def test_single_processor_machine_reduces_to_sequential_key():
    machine = costmodel.MachineParams(n_a=1)
    rng = np.random.default_rng(17)
    for _ in range(20):
        nv = int(rng.integers(3, 8))
        scopes = [
            tuple(sorted(rng.choice(nv, size=int(rng.integers(1, nv + 1)),
                                    replace=False).tolist()))
            for _ in range(6)
        ]
        query = int(rng.choice(sorted({v for s in scopes for v in s})))
        cards = {v: 2 for v in range(nv)}
        t_s = build_set_factoring(scopes, cards, query)
        t_c = build_set_factoring_c(scopes, cards, query, machine)
        assert t_s.nodes == t_c.nodes


def test_comm_aware_key_can_reorder_pairs():
    # found by seeded search over 3-factor instances
    scopes = [(0, 1, 3, 4, 5), (2, 3, 4, 5), (0, 2, 5)]
    machine = costmodel.MachineParams(g_min=1, n_a=16)
    t_s = build_set_factoring(scopes, {v: 2 for v in range(6)}, 5)
    t_c = build_set_factoring_c(scopes, {v: 2 for v in range(6)}, 5, machine)
    f_s, f_c = first_product(t_s), first_product(t_c)
    assert (f_s.left, f_s.right) == (1, 2)
    assert (f_c.left, f_c.right) == (0, 1)
    assert t_s.nodes != t_c.nodes


# -- chain baseline ----------------------------------------------------------

def test_chain_is_left_deep():
    tree = build_chain_baseline([(0,), (0, 1), (1, 2)], B2, 2)
    assert tree.cp_count == 2
    n3, n4 = tree.nodes[3], tree.nodes[4]
    assert (n3.left, n3.right) == (0, 1)
    assert (n4.left, n4.right) == (3, 2)
    assert tree.root == 4


def test_chain_single_factor():
    tree = build_chain_baseline([(0,)], B2, 0)
    assert tree.cp_count == 0


def test_chain_posterior_matches_set_factoring():
    for i in (3, 8, 15):
        net, q = small_net(i)
        a = factoring.posterior(net, q, "chain")
        b = factoring.posterior(net, q, "set-factoring")
        np.testing.assert_allclose(a.table, b.table, atol=1e-9)


# -- numeric evaluation ------------------------------------------------------

def test_evaluate_chain_net_matches_oracle():
    net = network.BeliefNet(
        (network.Variable(0, "A", 2), network.Variable(1, "B", 2),
         network.Variable(2, "C", 2)),
        ((), (0,), (1,)),
        (np.array([0.4, 0.6]), np.array([0.9, 0.1, 0.2, 0.8]),
         np.array([0.7, 0.3, 0.5, 0.5])),
    )
    q = network.QuerySpec(2)
    got = factoring.posterior(net, q)
    want = fa.brute_force_posterior(net, q)
    np.testing.assert_allclose(got.table, want.table, atol=1e-9)


def test_evaluate_single_leaf_normalizes_marginal():
    f = fa.Factor((0, 1), np.array([[1.0, 2.0], [3.0, 4.0]]))
    tree = build_set_factoring([(0, 1)], B2, 0)
    got = evaluate_tree(tree, [f])
    np.testing.assert_allclose(got.table, [0.3, 0.7])


def test_different_trees_same_posterior():
    for i in (4, 6, 21):
        net, q = small_net(i)
        inst = build_instance(net, q)
        posts = [
            evaluate_tree(t, fa.query_factors(net, q))
            for t in inst["trees"].values()
        ]
        for p in posts[1:]:
            np.testing.assert_allclose(posts[0].table, p.table, atol=1e-9)


def test_long_evidence_chain_does_not_underflow():
    # P(evidence | root) is 0.4**1099 for either root value, far below the
    # smallest double; the evidence is possible and leaves the prior as is
    n = 1100
    net = network.BeliefNet(
        tuple(network.Variable(v, f"n{v}", 2) for v in range(n)),
        ((),) + ((0,),) * (n - 1),
        (np.array([0.5, 0.5]),) + (np.array([0.6, 0.4, 0.6, 0.4]),) * (n - 1),
    )
    query = network.QuerySpec(0, {v: 1 for v in range(1, n)})
    got = factoring.posterior(net, query, "chain")
    np.testing.assert_array_equal(got.table, [0.5, 0.5])


def test_evaluate_respects_dimension_cap():
    tree = build_set_factoring([(0, 1), (1, 2), (2, 3)], B2, 0)
    factors = [
        fa.Factor(s, np.ones((2,) * len(s)))
        for s in [(0, 1), (1, 2), (2, 3)]
    ]
    with pytest.raises(DimensionCapError):
        evaluate_tree(tree, factors, max_dim=2)


def test_evaluate_checks_leaf_scopes():
    tree = build_set_factoring([(0, 1)], B2, 0)
    with pytest.raises(ValueError):
        evaluate_tree(tree, [fa.Factor((0,), np.ones(2))])


# -- stats -------------------------------------------------------------------

def test_tree_stats_hand_example():
    tree = build_set_factoring([(0, 1), (1, 2)], B2, 0)
    st = tree_stats(tree)
    assert st.cp_count == 1
    sh = st.shapes[0]
    assert (sh.d1, sh.d2, sh.u, sh.r) == (2, 2, 3, 1)
    assert tree.sum_out(tree.root) == (1, 2)
    assert (st.dm, st.md) == (3, 2)
    assert st.dd == pytest.approx(1 / 3)


def test_tree_stats_leaf_only():
    st = tree_stats(build_set_factoring([(0,)], B2, 0))
    assert (st.dm, st.md, st.cp_count) == (0, 0, 0)
    assert st.dd == 0.0


def test_cp_shape_sizes():
    sh = CpShape((0, 1), (1, 2), (0, 1, 2), (0, 2), (2, 3, 4))
    assert sh.multiply_count == 24
    assert (sh.size1, sh.size2, sh.result_size) == (6, 12, 8)


def test_md_tie_break_takes_max():
    # two products of equal dimension, different md
    scopes = [(0, 1, 2), (0, 1, 2), (3, 4), (0, 3, 4)]
    tree = build_chain_baseline(scopes, B2, 0)
    st = tree_stats(tree)
    dims = [sh.u for sh in st.shapes]
    assert st.dm == max(dims)
    mds = [max(sh.d1, sh.d2, sh.r) for sh in st.shapes if sh.u == st.dm]
    assert st.md == max(mds)
    assert st.md_all == max(max(sh.d1, sh.d2, sh.r) for sh in st.shapes)


# -- serialization -----------------------------------------------------------

def test_tree_round_trip(tmp_path):
    net, q = small_net(12)
    inst = build_instance(net, q)
    tree = inst["trees"]["set-factoring"]
    path = tmp_path / "tree.json"
    factoring.save_tree(tree, path)
    again = factoring.load_tree(path)
    assert again == tree
    got = evaluate_tree(again, fa.query_factors(net, q))
    want = fa.brute_force_posterior(net, q)
    np.testing.assert_allclose(got.table, want.table, atol=1e-9)


def test_load_tree_rejects_garbage(tmp_path):
    path = tmp_path / "t.json"
    path.write_text("[1,2,")
    with pytest.raises(network.NetFormatError):
        factoring.load_tree(path)
    path.write_text('{"format": "factorcube-tree-v1"}')
    with pytest.raises(network.NetFormatError):
        factoring.load_tree(path)
