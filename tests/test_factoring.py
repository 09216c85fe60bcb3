import heapq
import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import SMALL_PARAMS, build_instance, cp_shape, enumerate_posterior, small_net
from factorcube import costmodel, factoring, network
from factorcube import factors as fa
from factorcube.costmodel import DEFAULT_MACHINE
from factorcube.factoring import (
    build_chain_baseline,
    build_set_factoring,
    build_set_factoring_c,
    evaluate_tree,
    tree_stats,
)
from factorcube.factors import DimensionCapError
from factorcube.metrics import build_report_rows

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


def test_check_tree_refuses_a_tree_without_nodes():
    with pytest.raises(ValueError, match="no nodes"):
        factoring.check_tree(factoring.EvalTree(0, ((0, 2),), ()))


def test_build_requires_query_coverage():
    with pytest.raises(ValueError):
        build_set_factoring([(1,)], B2, 0)
    with pytest.raises(ValueError):
        build_set_factoring([], B2, 0)


@pytest.mark.parametrize("heuristic", factoring.HEURISTICS)
def test_build_requires_every_cardinality(heuristic):
    with pytest.raises(ValueError, match="no cardinality given for variable 2"):
        factoring.build_tree(heuristic, [(0, 1), (1, 2)], {0: 2, 1: 2}, 0)


def test_build_tree_rejects_an_unknown_heuristic():
    with pytest.raises(ValueError, match="unknown heuristic 'greedy'"):
        factoring.build_tree("greedy", [(0, 1)], B2, 0)


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


@settings(max_examples=80, deadline=None, derandomize=True)
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


def rescan_best_pair(state, active, cards, machine):
    """Reference choice: score every pair of the active node ids, ascending,
    from scratch in row-major order under an independently derived eager
    summation rule, and keep the first least (cost, result size).  machine
    None keys on work."""
    held = Counter(v for x in active for v in state.nodes[x].scope)
    best = None
    for a, b in itertools.combinations(active, 2):
        s1 = state.nodes[a].scope
        s2 = state.nodes[b].scope
        union = tuple(sorted(set(s1) | set(s2)))
        result = tuple(
            v for v in union
            if v == state.query_var or held[v] > (v in s1) + (v in s2)
        )
        shape = cp_shape(s1, s2, result, tuple(cards[v] for v in union))
        if machine is None:
            key = (shape.multiply_count, shape.result_size)
        else:
            key = (costmodel.parallel_cp_cost(shape, machine).t_p, shape.result_size)
        if best is None or key < best[0]:
            best = (key, (a, b))
    return best[1]


RESCAN_INSTANCES = st.one_of(
    # up to 24 scopes give nodes long lists of sharing pairs, whose heads
    # name dead partners and whose bounds reorder once keyed exactly
    st.tuples(
        st.lists(st.sets(st.integers(0, 9), max_size=5), min_size=2, max_size=24),
        st.just([2] * 10) | st.lists(st.integers(2, 5), min_size=10, max_size=10),
    ),
    # many scopes of at most two variables over cardinalities 2 and 3 put
    # several nodes in each class, so class-pair walks skip pairs that share
    # a variable, and class entries surface superseded or naming dead nodes
    st.tuples(
        st.lists(st.sets(st.integers(0, 9), max_size=2), min_size=8, max_size=32),
        st.lists(st.sampled_from((2, 3)), min_size=10, max_size=10),
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    RESCAN_INSTANCES,
    st.integers(0, 9),
    st.sampled_from((None,) + RESCAN_MACHINES),
)
# nodes 1-3 form one class; the first product, node 5 over variables 1
# and 6, shares variable 6 with node 1 but none with node 2, its best partner
@example(([{1, 6}, {6, 7}, {0, 3}, {2, 3}, set()], [3, 2, 3, 2, 2, 2, 2, 3, 2, 2]),
         1, RESCAN_MACHINES[2])
# the second product, of nodes 2 and 3, leaves node 5's head naming node 3
# while node 5's list still holds (4, 5), the third product
@example(([set(), set(), {8, 9}, {0, 9}, {4, 9}, {0, 4}], [3, 2, 2, 3, 3, 3, 2, 3, 3, 2]),
         5, None)
# node 2's head (1, 2) is a bound whose exact key sorts behind the bound of
# (0, 2), the next entry in node 2's list and the first product
@example(([{3, 4, 5, 6, 9}, {0, 2, 5, 7, 9}, {3, 6, 7, 9}], [3, 4, 5, 2, 4, 4, 3, 3, 3, 3]),
         5, RESCAN_MACHINES[0])
def test_builder_matches_full_rescan_at_every_step(instance, query, machine):
    # empty scopes make pairs that share no variable and keys that all tie
    scope_sets, card_list = instance
    scopes = [tuple(sorted(s | ({query} if i == 0 else set())))
              for i, s in enumerate(scope_sets)]
    cards = dict(enumerate(card_list))
    if machine is None:
        tree = build_set_factoring(scopes, cards, query)
    else:
        tree = build_set_factoring_c(scopes, cards, query, machine)
    state = factoring._BuildState(scopes, cards, query)
    active = list(range(len(scopes)))
    classes = {x: state.node_class(x) for x in active}
    for node in tree.nodes[len(scopes):]:
        assert (node.left, node.right) == rescan_best_pair(state, active, cards, machine)
        new_id = state.combine(node.left, node.right)
        active.remove(node.left)
        active.remove(node.right)
        active.append(new_id)
        classes[new_id] = state.node_class(new_id)
        for x in active:
            assert state.reduced[x] == state.size(state.masks[x] & ~state.held_once)
            assert state.node_class(x) == classes[x]
    assert tuple(state.nodes) == tree.nodes
    assert active == [tree.root]


def test_class_pairs_are_ordered():
    # Nodes 0 and 2 keep a binary then a ternary variable, node 1 keeps one
    # ternary variable; all three have 12 entries and share no variable.
    # With equal slices choose_split takes the first input's first kept
    # variable: 18 entries are sent for (0, 1), 16 for (1, 2).  So (1, 2)
    # is cheaper, though (0, 1) has the lower ids and the same classes in
    # the other order.  Node 3 holds every kept variable and the query.
    scopes = [(1, 2, 3), (4, 5), (6, 7, 8), (0, 1, 2, 4, 6, 7)]
    cards = {0: 2, 1: 2, 2: 3, 3: 2, 4: 3, 5: 4, 6: 2, 7: 3, 8: 2}
    machine = costmodel.MachineParams(n_a=2, g_min=1)
    state = factoring._BuildState(scopes, cards, 0)
    assert state.node_class(0) == state.node_class(2) != state.node_class(1)
    assert state.time_key(1, 2, machine) < state.time_key(0, 1, machine)
    tree = build_set_factoring_c(scopes, cards, 0, machine)
    assert (first_product(tree).left, first_product(tree).right) == (1, 2)


@pytest.mark.parametrize("heuristic", ["set-factoring", "set-factoring-c"])
def test_heap_grows_with_classes_not_pairs(heuristic):
    # 400 factors that share no variable fall into two classes, so the heap
    # holds a few entries, not one per pair: 79,800 entries would take
    # about 7 MiB
    k = 400
    scopes = [(0,)] + [()] * (k - 1)
    tracemalloc.start()
    try:
        tree = factoring.build_tree(heuristic, scopes, {0: 2}, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.cp_count == k - 1
    assert peak < 1 << 20


@pytest.mark.parametrize("heuristic", ["set-factoring", "set-factoring-c"])
def test_all_tie_instance_pops_linear_heap_work(monkeypatch, heuristic):
    # every pair shares no variable and ties; one entry per (node, lower
    # class) would name the same lowest member of a class from every node
    # and surface them all when it dies, about 1.2 million pops
    k = 1100
    scopes = [(0,)] + [()] * (k - 1)
    heappop = heapq.heappop
    pops = 0

    def counting_pop(heap):
        nonlocal pops
        pops += 1
        return heappop(heap)

    monkeypatch.setattr(heapq, "heappop", counting_pop)
    tree = factoring.build_tree(heuristic, scopes, {0: 2}, 0)
    assert tree.cp_count == k - 1
    assert pops <= 2 * k


def first_large_instance():
    """Scopes, cards and query of the first net of the benchmark's large
    corpus: 248 relevant factors."""
    net, query = network.random_net(network.NetGenParams(
        (400, 400), (3.5, 5.0), (30, 50), seed=9527278904628312433
    ))
    scopes, cards, _ = factoring.scopes_for_query(net, query)
    return scopes, cards, query


@pytest.mark.parametrize("heuristic", ["set-factoring", "set-factoring-c"])
def test_heap_holds_heads_not_pairs(monkeypatch, heuristic):
    # each node's sharing pairs wait in its own list behind one head in the
    # heap; an entry per sharing pair made the heap peak at 4,085 entries
    scopes, cards, query = first_large_instance()
    heappush = heapq.heappush
    peak = 0

    def tracking_push(heap, e):
        nonlocal peak
        heappush(heap, e)
        peak = max(peak, len(heap))

    monkeypatch.setattr(heapq, "heappush", tracking_push)
    factoring.build_tree(heuristic, scopes, cards, query.query_var)
    assert len(scopes) == 248
    assert 0 < peak < 2 * len(scopes)


def test_column_sizes_match_math_prod():
    # three cardinality groups; the last mask holds every column of the
    # cardinality-5 group, so it reads the last power in that group's table
    cards = {0: 2, 3: 5, 4: 3, 6: 2, 7: 5, 9: 3, 11: 2, 12: 5}
    cols = factoring._Columns(cards)
    full = (1 << len(cards)) - 1
    fives = cols.mask([v for v, card in cards.items() if card == 5])
    for mask in range(full + 1):
        assert cols.size(mask) == math.prod(cards[v] for v in cols.vars_of(mask))
    assert (cols.size(0), cols.size(full), cols.size(fives)) == (1, 2**3 * 3**2 * 5**3, 125)
    # 150 columns, wider than a machine word, of one cardinality or more;
    # with one, a size and a class signature read the bit count alone
    rng = random.Random("columns")
    for card_list in ([3], [2, 3], [2, 3, 5]):
        cards = {v: rng.choice(card_list) for v in rng.sample(range(400), 150)}
        cols = factoring._Columns(cards)
        assert len(cols.card_groups) == len(card_list)
        for mask in [(1 << 150) - 1] + [rng.getrandbits(150) for _ in range(200)]:
            mask_cards = [cards[v] for v in cols.vars_of(mask)]
            assert cols.size(mask) == math.prod(mask_cards)
            want = len(mask_cards) if len(card_list) == 1 else tuple(mask_cards)
            assert cols.cards_of(mask) == want


def test_mask_round_trips_through_vars():
    # masks 0, bits 63 and 64 on either side of a machine word, and random
    # 400-column masks decode to ascending variables that encode back
    rng = random.Random("round-trip")
    cols = factoring._Columns({v: 2 for v in rng.sample(range(1000), 400)})
    masks = [0, 1, 1 << 63, 1 << 64, 3 << 63, (1 << 400) - 1]
    masks += [rng.getrandbits(400) for _ in range(100)]
    masks += [rng.getrandbits(400) & rng.getrandbits(400) & rng.getrandbits(400)
              for _ in range(100)]
    for mask in masks:
        scope = cols.vars_of(mask)
        assert list(scope) == sorted(set(scope))
        assert len(scope) == mask.bit_count()
        assert cols.mask(scope) == mask
    assert cols.vars_of(1 << 64) == (cols.vars[64],)


def test_set_factoring_c_prices_each_bound_once(monkeypatch):
    # the first net of the benchmark's large corpus, 240-255 relevant
    # factors: thousands of bound entries share a few hundred distinct
    # (multiply count, result size) values.  Each distinct bound calls
    # bca_time once, each exact key at most twice (t_s and t_p).
    scopes, cards, query = first_large_instance()
    bca_time = costmodel.bca_time
    lookup = factoring._TimeBounds.__getitem__
    time_key = factoring._BuildState.time_key
    calls = Counter()
    bound_keys = set()

    def counting_bca_time(*args):
        calls["bca_time"] += 1
        return bca_time(*args)

    def recording_lookup(self, key):
        calls["entries"] += 1
        bound_keys.add(key)
        return lookup(self, key)

    def counting_key(self, a, b, machine):
        calls["exact"] += 1
        return time_key(self, a, b, machine)

    monkeypatch.setattr(costmodel, "bca_time", counting_bca_time)
    monkeypatch.setattr(factoring._TimeBounds, "__getitem__", recording_lookup)
    monkeypatch.setattr(factoring._BuildState, "time_key", counting_key)
    build_set_factoring_c(scopes, cards, query.query_var, costmodel.DEFAULT_MACHINE)
    assert calls["entries"] > 5 * len(bound_keys)
    assert calls["bca_time"] <= len(bound_keys) + 2 * calls["exact"]


@settings(max_examples=200, deadline=None, derandomize=True)
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


@pytest.mark.parametrize("heuristic", factoring.HEURISTICS)
def test_two_tiny_leaves_do_not_underflow(heuristic):
    # P(n2 = 1 | n0) and P(n3 = 1 | n0) are about 1e-200: the greedy
    # builders multiply those two leaves first, and their product is far
    # below the smallest double unless it is rescaled
    tiny = np.array([1 - 1e-200, 1e-200, 1 - 2e-200, 2e-200])
    net = network.BeliefNet(
        tuple(network.Variable(v, f"n{v}", 2) for v in range(4)),
        ((1,), (), (0,), (0,)),
        (np.array([0.3, 0.7, 0.6, 0.4]), np.array([0.5, 0.5]), tiny, tiny),
    )
    got = factoring.posterior(net, network.QuerySpec(0, {2: 1, 3: 1}), heuristic)
    # the prior (0.45, 0.55) times the evidence's (1e-400, 4e-400)
    np.testing.assert_allclose(got.table, np.array([0.45, 2.2]) / 2.65, rtol=1e-12)


def test_subnormal_product_keeps_the_scale_finite():
    # the first product's largest entry, 2e-310, is subnormal: scaling the
    # root's smaller input by its full exponent (2**1029) would overflow
    leaves = [
        fa.Factor((1,), np.array([1e-155, 1e-155])),
        fa.Factor((0, 1), np.array([[1e-155, 1e-155], [2e-155, 1e-155]])),
        fa.Factor((1,), np.array([1.0, 1.0])),
    ]
    tree = factoring.EvalTree(
        query_var=0,
        var_cards=((0, 2), (1, 2)),
        nodes=tuple(factoring.EvalNode(i, None, None, f.vars) for i, f in enumerate(leaves))
        + (factoring.EvalNode(None, 0, 1, (0, 1)), factoring.EvalNode(None, 3, 2, (0,))),
    )
    np.testing.assert_allclose(evaluate_tree(tree, leaves).table, [0.4, 0.6], rtol=1e-9)


def test_evaluation_never_writes_a_leaf():
    # the chain folds eleven one-variable factors into a 2**11 table, which
    # then covers each of the two observed children's factors: the kernel
    # multiplies them into the table it owns, and only reads theirs
    rng = np.random.default_rng(8)
    n = 11
    parents = ((),) * n + (tuple(range(n)),) * 2
    rows = [rng.random((2 ** len(p), 2)) for p in parents]
    net = network.BeliefNet(
        tuple(network.Variable(v, f"n{v}", 2) for v in range(n + 2)),
        parents,
        tuple((r / r.sum(axis=1, keepdims=True)).ravel() for r in rows),
    )
    query = network.QuerySpec(0, {n: 1, n + 1: 0})
    scopes, cards, _ = factoring.scopes_for_query(net, query)
    tree = build_chain_baseline(scopes, cards, 0)
    covered = [
        node for node in tree.nodes
        if not node.is_leaf and not tree.nodes[node.left].is_leaf
        and tree.nodes[node.right].is_leaf
        and set(tree.nodes[node.right].scope) <= set(tree.nodes[node.left].scope)
        and 2 ** len(tree.nodes[node.left].scope) >= 2 ** 10
    ]
    assert len(covered) == 2
    before = [cpt.tobytes() for cpt in net.cpts]
    leaves = fa.query_factors(net, query)
    first = evaluate_tree(tree, leaves)
    again = evaluate_tree(tree, leaves)
    assert [cpt.tobytes() for cpt in net.cpts] == before
    np.testing.assert_array_equal(first.table, again.table)
    np.testing.assert_allclose(
        first.table, fa.brute_force_posterior(net, query).table, atol=1e-12
    )


def test_evaluation_peak_is_live_tables_plus_one_result():
    # a 2**18-entry product the evaluator owns is multiplied by a factor
    # whose variables it holds, summing two of them out; einsum contracts
    # those two as a matmul, for which it copies the owned table
    rng = np.random.default_rng(9)
    scopes = [tuple(range(9)), tuple(range(9, 18)), (1, 17), (0, 2)]
    leaves = [fa.Factor(s, rng.random((2,) * len(s))) for s in scopes]
    union = tuple(range(18))
    rest = (0, *range(2, 17))
    tree = factoring.EvalTree(
        query_var=0,
        var_cards=tuple((v, 2) for v in union),
        nodes=tuple(factoring.EvalNode(i, None, None, s) for i, s in enumerate(scopes))
        + (factoring.EvalNode(None, 0, 1, union),
           factoring.EvalNode(None, 4, 2, rest),
           factoring.EvalNode(None, 5, 3, (0,))),
    )
    factoring.check_tree(tree)
    tracemalloc.start()
    try:
        got = evaluate_tree(tree, leaves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the owned table, the 2**16-entry result and the working buffers of
    # einsum and numpy's ufuncs (about 140 KiB)
    assert peak < (2 ** 18 + 2 ** 16) * 8 + (256 << 10)
    want = np.einsum(*(x for f in leaves for x in (f.table, f.vars)), [0])
    np.testing.assert_allclose(got.table, want / want.sum(), rtol=1e-12)


def hand_tree(leaf_scopes, products):
    """A tree over binary variables with query variable 0: a leaf per
    scope in order, then each product (left, right, scope), the last one
    the root; and random leaf factors for it."""
    rng = np.random.default_rng(len(products))
    nodes = [factoring.EvalNode(i, None, None, s) for i, s in enumerate(leaf_scopes)]
    nodes += [factoring.EvalNode(None, a, b, s) for a, b, s in products]
    var_cards = tuple((v, 2) for v in sorted({v for s in leaf_scopes for v in s}))
    tree = factoring.EvalTree(0, var_cards, tuple(nodes))
    factoring.check_tree(tree)
    leaves = [fa.Factor(s, rng.random((2,) * len(s)) + 0.1) for s in leaf_scopes]
    return tree, leaves


def kernel_result_sizes(monkeypatch):
    """A list that records the entry count of every table the kernel
    returns from now on."""
    sizes = []
    product_sum = factoring._kernels.product_sum

    def spy(*args, **kwargs):
        out = product_sum(*args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(factoring._kernels, "product_sum", spy)
    return sizes


R10 = tuple(range(10))  # the 2**10-entry base: the product of leaves 0 and 1
BASE_LEAVES = [tuple(range(5)), tuple(range(5, 10))]


DEFERRED_RUNS = [
    pytest.param(  # the run is consumed by a product with a leaf input
        BASE_LEAVES + [(0, 10), (1, 11), (10, 11), (0, 1)],
        [(0, 1, R10), (6, 2, R10 + (10,)), (7, 3, R10 + (10, 11)),
         (8, 4, R10), (9, 5, (0,))],
        2 ** 10, id="consumed-by-leaf"),
    pytest.param(  # both inputs of the consumer are product results with runs
        BASE_LEAVES + [(0, 12), tuple(range(2, 7)), tuple(range(7, 12)), (11, 13)],
        [(0, 1, R10), (6, 2, R10 + (12,)), (3, 4, tuple(range(2, 12))),
         (8, 5, tuple(range(2, 12)) + (13,)), (7, 9, (0,))],
        2 ** 11, id="consumed-by-two-runs"),
    pytest.param(  # leaf (1, 2) is covered by the base and joins it at once
        BASE_LEAVES + [(0, 10), (1, 2), (3, 11), (10, 11), (0, 1)],
        [(0, 1, R10), (7, 2, R10 + (10,)), (8, 3, R10 + (10,)),
         (9, 4, R10 + (10, 11)), (10, 5, R10), (11, 6, (0,))],
        2 ** 10, id="covered-leaf-in-run"),
    pytest.param(  # folding leaf 3 would give a 2**12-entry table: no fold
        BASE_LEAVES + [(0, 1, 2, 3, 4, 5, 10), (4, 5, 6, 7, 8, 9, 11), (10, 11), (0, 1)],
        [(0, 1, R10), (6, 2, R10 + (10,)), (7, 3, R10 + (10, 11)),
         (8, 4, R10), (9, 5, (0,))],
        2 ** 12, id="fold-outgrows-base"),
    pytest.param(  # the root consumes the run
        BASE_LEAVES + [(0, 10), (1, 11), (0, 10, 11)],
        [(0, 1, R10), (5, 2, R10 + (10,)), (6, 3, R10 + (10, 11)), (7, 4, (0,))],
        2 ** 10, id="run-ends-at-root-child"),
]


@pytest.mark.parametrize("leaf_scopes, products, largest", DEFERRED_RUNS)
def test_deferred_leaf_products_match_enumeration(monkeypatch, leaf_scopes, products,
                                                  largest):
    tree, leaves = hand_tree(leaf_scopes, products)
    sizes = kernel_result_sizes(monkeypatch)
    got = evaluate_tree(tree, leaves)
    assert max(sizes) == largest
    want = enumerate_posterior(leaves, 0, dict(tree.var_cards))
    np.testing.assert_allclose(got.table, want, rtol=1e-12)


def test_deferred_leaves_near_underflow_are_rescaled():
    # three deferred leaves of about 1e-200 each: their product is far
    # below the smallest double unless each product that folds them rescales
    tree, leaves = hand_tree(
        BASE_LEAVES + [(0, 10), (1, 11), (2, 12), (10, 11, 12)],
        [(0, 1, R10), (6, 2, R10 + (10,)), (7, 3, R10 + (10, 11)),
         (8, 4, R10 + (10, 11, 12)), (9, 5, (0,))],
    )
    leaves[2:5] = [fa.Factor(f.vars, f.table * 1e-200) for f in leaves[2:5]]
    got = evaluate_tree(tree, leaves)
    # the oracle multiplies in plain floats, so it gets the leaves scaled up
    scaled = [fa.Factor(f.vars, f.table / f.table.max()) for f in leaves]
    want = enumerate_posterior(scaled, 0, dict(tree.var_cards))
    np.testing.assert_allclose(got.table, want, rtol=1e-9)


def test_deferred_run_never_builds_its_union():
    # a 2**16-entry product gains one variable from each of four leaves,
    # and the next product sums all four out: computed one at a time, the
    # run would build a 2**20-entry table
    r16 = tuple(range(16))
    tree, leaves = hand_tree(
        [tuple(range(8)), tuple(range(8, 16)), (0, 16), (1, 17), (2, 18), (3, 19),
         (16, 17, 18, 19), (0, 1)],
        [(0, 1, r16), (8, 2, r16 + (16,)), (9, 3, r16 + (16, 17)),
         (10, 4, r16 + (16, 17, 18)), (11, 5, r16 + (16, 17, 18, 19)),
         (12, 6, r16), (13, 7, (0,))],
    )
    tracemalloc.start()
    try:
        got = evaluate_tree(tree, leaves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20 * 8
    want = np.einsum(*(x for f in leaves for x in (f.table, f.vars)), [0])
    np.testing.assert_allclose(got.table, want / want.sum(), rtol=1e-12)


def leaves_just_in_time(tree):
    """tree with its nodes renumbered so that each leaf comes just before
    the product that first uses it, which keeps children before parents."""
    nodes = tree.nodes
    order = []
    for i, node in enumerate(nodes):
        if not node.is_leaf:
            order += [c for c in (node.left, node.right) if nodes[c].is_leaf]
            order.append(i)
    new = {old: i for i, old in enumerate(order)}
    renumbered = tuple(
        n if n.is_leaf else factoring.EvalNode(None, new[n.left], new[n.right], n.scope)
        for n in map(nodes.__getitem__, order)
    )
    return factoring.EvalTree(tree.query_var, tree.var_cards, renumbered)


@pytest.mark.parametrize("leaf_scopes, products, largest", DEFERRED_RUNS)
def test_regroup_takes_leaves_after_the_first_deferral(monkeypatch, leaf_scopes,
                                                       products, largest):
    # the leaves of the run now come after its first deferring product
    tree, leaves = hand_tree(leaf_scopes, products)
    late = leaves_just_in_time(tree)
    factoring.check_tree(late)
    assert late.nodes != tree.nodes
    sizes = kernel_result_sizes(monkeypatch)
    want = evaluate_tree(tree, leaves)
    want_largest = max(sizes)
    sizes.clear()
    got = evaluate_tree(late, leaves)
    assert max(sizes) == want_largest == largest
    np.testing.assert_array_equal(got.table, want.table)
    row, late_row = (build_report_rows(None, None, {"tree": t}, DEFAULT_MACHINE)["tree"]
                     for t in (tree, late))
    assert late_row == row


def summed_out(tree):
    return set().union(*(tree.sum_out(i) for i, n in enumerate(tree.nodes) if not n.is_leaf))


@pytest.mark.parametrize("leaf_scopes, products, largest", DEFERRED_RUNS)
def test_regroup_keeps_leaves_summation_and_dimension(leaf_scopes, products, largest):
    tree, _ = hand_tree(leaf_scopes, products)
    got = factoring._regroup(tree)
    factoring.check_tree(got)
    assert Counter(n for n in got.nodes if n.is_leaf) == Counter(
        n for n in tree.nodes if n.is_leaf)
    assert summed_out(got) == summed_out(tree)
    # evaluate_tree checks --max-dim on the tree as given
    assert tree_stats(got).dm == tree_stats(tree).dm


@pytest.mark.parametrize("leaf_scopes, products", [
    pytest.param([(0, 1), (1, 2), (2, 3)], [(0, 1, (0, 2)), (3, 2, (0,))],
                 id="small-products"),
    pytest.param(BASE_LEAVES + [(0, 1), (0,)],
                 [(0, 1, R10), (4, 2, R10), (5, 3, (0,))], id="covered-leaf-only"),
])
def test_regroup_without_deferral_returns_the_tree(leaf_scopes, products):
    tree, _ = hand_tree(leaf_scopes, products)
    assert factoring._regroup(tree) is tree


def test_dimension_cap_refuses_before_any_product(monkeypatch):
    # only the root, the last product, spans four variables
    tree, leaves = hand_tree([(0, 1), (1, 2), (2, 3, 4)],
                             [(0, 1, (0, 2)), (3, 2, (0,))])
    sizes = kernel_result_sizes(monkeypatch)
    with pytest.raises(DimensionCapError):
        evaluate_tree(tree, leaves, max_dim=3)
    assert sizes == []
    evaluate_tree(tree, leaves, max_dim=4)
    assert len(sizes) == 2


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


# -- requisite pruning -------------------------------------------------------

def binary_net(parents, cpts):
    return network.BeliefNet(
        tuple(network.Variable(v, f"n{v}", 2) for v in range(len(parents))),
        tuple(parents),
        tuple(np.asarray(t, dtype=float) for t in cpts),
    )


def closure_posterior(net, query, heuristic):
    """(posterior, tree) over every CPT of the ancestral closure."""
    scopes, cards, _ = factoring.scopes_for_query(net, query)
    tree = factoring.build_tree(heuristic, scopes, cards, query.query_var)
    return evaluate_tree(tree, fa.query_factors(net, query)), tree


def test_pruning_changes_the_tree_not_the_answer():
    # query n1 has parents n0 and observed n5 and an observed child n6.
    # n2 is observed, d-separated from n1 through its unobserved root n3;
    # n4 is observed and its one parent, n5, is observed too.  The closure
    # holds all seven CPTs; P(n1 | evidence) needs those of n0, n1 and n6.
    net = binary_net(
        [(), (0, 5), (3,), (), (5,), (), (1,)],
        [[0.3, 0.7], [0.9, 0.1, 0.4, 0.6, 0.25, 0.75, 0.6, 0.4],
         [0.2, 0.8, 0.7, 0.3], [0.55, 0.45], [0.35, 0.65, 0.8, 0.2],
         [0.1, 0.9], [0.95, 0.05, 0.3, 0.7]],
    )
    query = network.QuerySpec(1, {2: 1, 4: 0, 5: 1, 6: 0})
    assert network.relevant_factors(net, query) == set(range(7))
    ids = network.requisite_factors(net, query)
    assert ids == [0, 1, 6]
    oracle = fa.brute_force_posterior(net, query)
    for heuristic in factoring.HEURISTICS:
        scopes, cards, _ = factoring.scopes_for_query(net, query, ids)
        pruned = factoring.build_tree(heuristic, scopes, cards, query.query_var)
        full, tree = closure_posterior(net, query, heuristic)
        assert pruned.leaf_count == 3 < tree.leaf_count == 7
        got = factoring.posterior(net, query, heuristic)
        np.testing.assert_allclose(got.table, full.table, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.table, oracle.table, rtol=0, atol=1e-9)


def d_separated_evidence_net(observed_cpt):
    # query n0 is a root; observed n2 is a child of the root n1 only
    return binary_net([(), (), (1,)], [[0.3, 0.7], [0.4, 0.6], observed_cpt])


@pytest.mark.parametrize("heuristic", factoring.HEURISTICS)
@pytest.mark.parametrize("observed_cpt, ids", [
    ([0.9, 0.1, 0.2, 0.8], [0]),  # the pass drops n1 and n2
    ([1.0, 0.0, 0.2, 0.8], [0, 1, 2]),  # a zero in n2's CPT keeps the closure
])
def test_d_separated_evidence_leaves_the_prior(heuristic, observed_cpt, ids):
    net = d_separated_evidence_net(observed_cpt)
    query = network.QuerySpec(0, {2: 1})
    assert network.requisite_factors(net, query) == ids
    got = factoring.posterior(net, query, heuristic)
    np.testing.assert_allclose(got.table, [0.3, 0.7], rtol=0, atol=1e-12)
    want = fa.brute_force_posterior(net, query)
    np.testing.assert_allclose(got.table, want.table, rtol=0, atol=1e-9)


@pytest.mark.parametrize("heuristic", factoring.HEURISTICS)
def test_impossible_evidence_behind_a_d_separation(heuristic):
    # P(n2 = 1 | n1) = 0 for both n1: the pass drops n1 and n2, and the
    # zero in n2's CPT sends the whole closure to the evaluator
    net = d_separated_evidence_net([1.0, 0.0, 1.0, 0.0])
    query = network.QuerySpec(0, {2: 1})
    assert network.requisite_factors(net, query) == [0, 1, 2]
    with pytest.raises(fa.InconsistentEvidenceError):
        factoring.posterior(net, query, heuristic)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**63 - 1))
def test_requisite_pruning_keeps_the_posterior(seed):
    net, query = network.random_net(network.NetGenParams(seed=seed, **SMALL_PARAMS))
    ids = network.requisite_factors(net, query)
    assert ids == sorted(set(ids))
    assert set(ids) <= network.relevant_factors(net, query)
    oracle = fa.brute_force_posterior(net, query)
    for heuristic in factoring.HEURISTICS:
        got = factoring.posterior(net, query, heuristic)
        full, _ = closure_posterior(net, query, heuristic)
        np.testing.assert_allclose(got.table, full.table, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.table, oracle.table, rtol=0, atol=1e-9)


# -- stats -------------------------------------------------------------------

def dims(sh):
    """(d1, d2, u, r) of a product: the bit counts of its inputs' masks,
    their union's and its result's."""
    return (sh.mask1.bit_count(), sh.mask2.bit_count(),
            (sh.mask1 | sh.mask2).bit_count(), sh.kept.bit_count())


def test_tree_stats_hand_example():
    tree = build_set_factoring([(0, 1), (1, 2)], B2, 0)
    st = tree_stats(tree)
    assert len(st.shapes) == 1
    sh = st.shapes[0]
    assert dims(sh) == (2, 2, 3, 1)
    assert tree.sum_out(tree.root) == (1, 2)
    assert (st.dm, st.md) == (3, 2)
    assert st.dd == pytest.approx(1 / 3)


def test_tree_stats_leaf_only():
    st = tree_stats(build_set_factoring([(0,)], B2, 0))
    assert (st.dm, st.md, len(st.shapes)) == (0, 0, 0)
    assert st.dd == 0.0


def test_cp_shape_sizes():
    sh = cp_shape((0, 1), (1, 2), (0, 2), (2, 3, 4))
    assert sh.multiply_count == 24
    assert (sh.size1, sh.size2, sh.result_size) == (6, 12, 8)


def test_md_tie_break_takes_max():
    # two products of equal dimension, different md
    scopes = [(0, 1, 2), (0, 1, 2), (3, 4), (0, 3, 4)]
    tree = build_chain_baseline(scopes, B2, 0)
    st = tree_stats(tree)
    shape_dims = [dims(sh) for sh in st.shapes]
    assert st.dm == max(u for _, _, u, _ in shape_dims)
    mds = [max(d1, d2, r) for d1, d2, u, r in shape_dims if u == st.dm]
    assert st.md == max(mds)
    assert st.md_all == max(max(d1, d2, r) for d1, d2, _, r in shape_dims)


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
