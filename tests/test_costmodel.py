import json
import math
import random
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_instance, check_split_slices, cp_shape, small_net
from test_golden_trees import LARGE_PARAMS, nonbinary_instance
from factorcube import cli, costmodel, factoring, metrics, network
from factorcube.costmodel import (
    DEFAULT_MACHINE,
    MachineParams,
    bca_time,
    longest_path,
    memory_accounting,
    parallel_cp_cost,
    query_costs,
)
from factorcube.factoring import build_chain_baseline, build_set_factoring

B2 = {v: 2 for v in range(64)}


def binary_vars(d1, d2, shared):
    """Input vars of d1 and d2 binary variables overlapping on `shared`."""
    return tuple(range(d1)), tuple(range(d1 - shared, d1 - shared + d2))


def binary_shape(d1, d2, shared, summed):
    """A shape with d1/d2 input vars overlapping on `shared`, of which the
    union loses `summed` vars (taken from the shared ones first)."""
    vars1, vars2 = binary_vars(d1, d2, shared)
    union = tuple(sorted(set(vars1) | set(vars2)))
    return cp_shape(vars1, vars2, union[summed:], (2,) * len(union))


def plain_shape(union_count, result_count):
    union = tuple(range(union_count))
    return cp_shape(union, union, union[: result_count], (2,) * union_count)


# -- machine parameters ------------------------------------------------------

def test_machine_defaults_match_protocol():
    m = DEFAULT_MACHINE
    assert (m.alpha, m.c_st, m.c_b) == (45.0, 230.0, 0.5)
    assert (m.p_init, m.s_setup, m.b_buffer) == (0.0, 0.0, 0.0)
    assert (m.n_a, m.g_min, m.bytes_per_entry) == (1024, 256, 4)


def test_machine_validation():
    with pytest.raises(ValueError):
        MachineParams(n_a=3)
    with pytest.raises(ValueError):
        MachineParams(alpha=-1)
    with pytest.raises(ValueError):
        MachineParams(bytes_per_entry=0)


def test_machine_config_round_trip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"alpha": 10, "n_a": 4, "g_min": 2}')
    m = costmodel.load_machine(path)
    assert (m.alpha, m.n_a, m.g_min) == (10.0, 4, 2)
    path.write_text('{"bogus": 1}')
    with pytest.raises(ValueError):
        costmodel.load_machine(path)


# -- sequential cost ---------------------------------------------------------

def test_seq_cost_examples():
    # bca_time on one processor is alpha per multiply and nothing else;
    # every product's t_s is that price, distributed or not
    mixed = cp_shape((0,), (1,), (0,), (2, 3))
    for shape, t_s in ((plain_shape(4, 1), 720.0), (plain_shape(12, 1), 184320.0),
                       (mixed, 270.0)):
        m = shape.multiply_count
        assert bca_time(m, shape.result_size, 1, 0, DEFAULT_MACHINE) == (t_s, 0.0, 0.0, t_s)
        assert parallel_cp_cost(shape, DEFAULT_MACHINE).t_s == t_s


# -- split planning ----------------------------------------------------------

def test_parallel_cp_cost_saturates_all_constraints():
    shape = plain_shape(20, 12)
    cost = parallel_cp_cost(shape, DEFAULT_MACHINE)
    g = shape.multiply_count // cost.n_u  # multiplies per processor
    assert g * cost.n_u == shape.multiply_count
    assert (cost.n_u, g, cost.d_max) == (1024, 1024, 10)
    assert g >= DEFAULT_MACHINE.g_min
    assert cost.n_u <= shape.result_size


def test_parallel_cp_cost_sequential_fallback_under_grainsize():
    cost = parallel_cp_cost(plain_shape(8, 8), DEFAULT_MACHINE)
    assert cost.n_u == 1
    assert cost.b_d == 0 and cost.b_result == 0


def test_parallel_cp_cost_prefers_shared_variables():
    # inputs {A,B,C} and {B,C,D}; C summed out; result {A,B,D}
    vars1, vars2 = (0, 1, 2), (1, 2, 3)
    shape = cp_shape(vars1, vars2, (0, 1, 3), (2,) * 4)
    machine = MachineParams(n_a=2, g_min=1)
    cost = parallel_cp_cost(shape, machine)
    assert cost.split_vars == (1,)  # B, the shared result variable

    def b_total_for(var):
        k1 = 2 if var in vars1 else 1
        k2 = 2 if var in vars2 else 1
        return 2 * 4 * (Fraction(shape.size1, k1) + Fraction(shape.size2, k2))

    candidates = {v: b_total_for(v) for v in (0, 1, 3)}
    assert cost.n_u * cost.b_d == min(candidates.values())
    assert candidates[1] < candidates[0] and candidates[1] < candidates[3]


def test_parallel_cp_cost_single_input_vars_balance_slices():
    # no shared result vars: splits must pour onto the larger input first
    shape = binary_shape(10, 4, 2, 2)
    machine = MachineParams(n_a=64, g_min=1)
    cost = parallel_cp_cost(shape, machine)
    vars1, vars2 = binary_vars(10, 4, 2)
    in1 = set(vars1) - set(vars2)
    assert cost.n_u == 64
    taken1 = sum(1 for v in cost.split_vars if v in in1)
    assert taken1 >= 4  # bigger input absorbs most of the split


def _sequential_pour(e1, e2, cap1, cap2, rem):
    """Split slots given one at a time to the input whose binary slice
    (2**(e - taken)) is larger, ties to the first, within each cap."""
    t1 = t2 = 0
    for _ in range(rem):
        first_available = t1 < cap1
        second_available = t2 < cap2
        if first_available and (not second_available or e1 - t1 >= e2 - t2):
            t1 += 1
        else:
            t2 += 1
    return t1, t2


def test_choose_split_matches_sequential_pour():
    for e1 in range(9):
        for e2 in range(9):
            for cap1 in range(6):
                for cap2 in range(6):
                    only1 = list(range(cap1))
                    only2 = list(range(10, 10 + cap2))
                    cards = {v: 2 for v in only1 + only2}
                    for rem in range(1, cap1 + cap2 + 1):
                        split, _ = costmodel.choose_split(
                            [], only1, only2, cards, 2 ** e1, 2 ** e2, 2 ** rem
                        )
                        got = (sum(v < 10 for v in split), sum(v >= 10 for v in split))
                        assert got == _sequential_pour(e1, e2, cap1, cap2, rem)


def fraction_split(vars1, vars2, result, cards, n_u):
    """Reference split choice with the slice sizes kept as exact rationals;
    cards maps each variable to its cardinality."""
    in1, in2 = set(vars1), set(vars2)
    shared = [v for v in result if v in in1 and v in in2]
    only1 = [v for v in result if v in in1 and v not in in2]
    only2 = [v for v in result if v in in2 and v not in in1]
    split = []
    capacity = 1
    slice1 = Fraction(math.prod(cards[v] for v in vars1))
    slice2 = Fraction(math.prod(cards[v] for v in vars2))
    for v in shared:
        if capacity >= n_u:
            break
        split.append(v)
        capacity *= cards[v]
        slice1 /= cards[v]
        slice2 /= cards[v]
    i1 = i2 = 0
    while capacity < n_u:
        if i1 < len(only1) and (i2 >= len(only2) or slice1 >= slice2):
            v = only1[i1]
            i1 += 1
            slice1 /= cards[v]
        else:
            v = only2[i2]
            i2 += 1
            slice2 /= cards[v]
        split.append(v)
        capacity *= cards[v]
    return tuple(split)


def test_choose_split_matches_fraction_slices():
    rng = random.Random(8)
    machine = MachineParams(g_min=1, n_a=1 << 14)
    split_plans = 0
    for _ in range(300):
        d1 = rng.randint(1, 8)
        d2 = rng.randint(1, 8)
        shared = rng.randint(0, min(d1, d2))
        vars1 = tuple(range(d1))
        vars2 = tuple(range(d1 - shared, d1 - shared + d2))
        union = tuple(sorted(set(vars1) | set(vars2)))
        result = tuple(sorted(rng.sample(union, rng.randint(1, len(union)))))
        cards = tuple(rng.randint(2, 5) for _ in union)
        shape = cp_shape(vars1, vars2, result, cards)
        cost = parallel_cp_cost(shape, machine)
        if cost.n_u == 1:
            continue
        split_plans += 1
        assert cost.split_vars == fraction_split(
            vars1, vars2, result, dict(zip(union, cards)), cost.n_u
        )
    assert split_plans > 200


def test_byte_accounting_is_exact():
    bpe = DEFAULT_MACHINE.bytes_per_entry
    for shape, (vars1, vars2) in (
        (plain_shape(20, 12), (range(20), range(20))),
        (binary_shape(14, 11, 6, 3), binary_vars(14, 11, 6)),
    ):
        cost = parallel_cp_cost(shape, DEFAULT_MACHINE)
        # each worker gets one slice of each input, cut by the split vars
        k1 = math.prod(2 for v in cost.split_vars if v in vars1)
        k2 = math.prod(2 for v in cost.split_vars if v in vars2)
        assert shape.size1 % k1 == 0 and shape.size2 % k2 == 0
        assert cost.b_d == bpe * (shape.size1 // k1 + shape.size2 // k2)
        assert cost.b_result == bpe * shape.result_size
        assert cost.b_result % cost.n_u == 0  # whole bytes per worker here


def test_split_slices_run_on_real_tables(small_corpus):
    # on 4 processors with no grainsize floor, about 2,000 products of the
    # small corpus distribute, split on shared and on one input's variables
    machine = costmodel.MachineParams(n_a=4, g_min=1)
    rng = np.random.default_rng(14)
    checked = 0
    for net, query in small_corpus:
        for tree in build_instance(net, query, machine)["trees"].values():
            checked += check_split_slices(tree, machine, rng)
    assert checked > 1000


# -- communication formulas --------------------------------------------------

def comm_times(n_u, b_d=0, result_size=0):
    """(c_d, c_r) that bca_time charges on DEFAULT_MACHINE for a product of
    result_size entries spread over n_u workers, each sent b_d bytes."""
    _, c_d, c_r, _ = bca_time(0, result_size, n_u, b_d, DEFAULT_MACHINE)
    return c_d, c_r


def test_distribute_cost_formula():
    assert comm_times(1024, b_d=4096)[0] == 2_097_404.0


def test_distribute_startup_only():
    assert comm_times(1024)[0] == 2300.0


def test_distribute_two_processors():
    assert comm_times(2, b_d=100)[0] == 280.0


def test_return_cost_formula():
    # 256 four-byte entries: 1024 bytes over 1024 workers, 1 byte each
    assert comm_times(1024, result_size=256)[1] == 2811.5


def test_return_startup_only_and_sequential():
    assert comm_times(1024)[1] == 2300.0
    assert comm_times(1, result_size=5)[1] == 0.0
    assert comm_times(1, b_d=5)[0] == 0.0


# -- parallel cost -----------------------------------------------------------

def test_parallel_cost_sequential_case():
    cost = parallel_cp_cost(plain_shape(8, 8), DEFAULT_MACHINE)
    assert cost.n_u == 1
    assert cost.t_p == cost.t_s == 45.0 * 256
    assert cost.c_d == cost.c_r == 0.0


def test_parallel_cost_composes_verified_pieces():
    shape = plain_shape(20, 12)
    cost = parallel_cp_cost(shape, DEFAULT_MACHINE)
    assert cost.n_u == 1024
    assert cost.w == 45.0 * 1024
    # each worker gets a 1024-entry slice of both inputs, returns 4 entries
    assert cost.b_d == 4 * 2048 and cost.b_result == 4 * 4096
    assert (cost.c_d, cost.c_r) == comm_times(1024, cost.b_d, shape.result_size)
    assert cost.c_d == 2300.0 + 8192 * 1023 * 0.5 == 4_192_508.0
    assert cost.c_r == 2300.0 + 16 * 1023 * 0.5 == 10_484.0
    assert cost.t_p == cost.w + cost.c_d + cost.c_r == 4_249_072.0


def test_fixed_overheads_only_on_distributed_products():
    machine = MachineParams(p_init=7.0, s_setup=5.0, b_buffer=3.0, n_a=64, g_min=16)
    scopes = [(0, 1), (1, 2), (2, 3, 4, 5, 6, 7)]
    # nodes 0 x 1: 8 multiplies, under the grainsize, so sequential
    seq_shape = cp_shape((0, 1), (1, 2), (0, 2), (2,) * 3)
    seq = parallel_cp_cost(seq_shape, machine)
    assert seq.n_u == 1
    assert seq.t_p == seq.t_s == seq.w == 45.0 * 8
    assert seq.c_d == seq.c_r == 0.0
    # nodes 1 x 2: 128 multiplies, result {1}, so two workers split on 1
    dist_shape = cp_shape((1, 2), (2, 3, 4, 5, 6, 7), (1,), (2,) * 7)
    dist = parallel_cp_cost(dist_shape, machine)
    assert dist.n_u == 2 and dist.split_vars == (1,)
    assert (dist.w, dist.c_d, dist.c_r) == (45.0 * 64, 230.0 + 264 * 0.5, 230.0 + 4 * 0.5)
    assert dist.t_p == (
        machine.p_init + machine.s_setup + dist.w + dist.c_d + dist.c_r
        + machine.b_buffer
    ) == 3489.0
    state = factoring._BuildState(scopes, B2, 0)
    assert state.time_key(0, 1, machine) == (seq.t_p, 4)
    assert state.time_key(1, 2, machine) == (dist.t_p, 2)


def test_zero_overhead_gives_perfect_speedup():
    machine = MachineParams(c_st=0.0, c_b=0.0)
    for shape in (plain_shape(20, 12), plain_shape(12, 10), binary_shape(9, 9, 4, 2)):
        cost = parallel_cp_cost(shape, machine)
        assert cost.t_p == cost.t_s / cost.n_u


# -- query-level costs -------------------------------------------------------

def test_query_costs_single_product():
    tree = build_set_factoring([(0, 1), (1, 2)], B2, 0)
    qc = query_costs(tree, DEFAULT_MACHINE)
    assert len(qc.per_cp) == 1
    assert qc.t_s_query == qc.per_cp[0].t_s
    assert qc.t_p_query == qc.per_cp[0].t_p


def test_query_costs_all_sequential_on_tiny_tree():
    tree = build_set_factoring([(0, 1), (1, 2), (2, 3)], B2, 0)
    qc = query_costs(tree, DEFAULT_MACHINE)
    assert qc.t_p_query == qc.t_s_query
    assert qc.n_u_query == 1
    assert qc.cm_total == 0.0


def test_query_costs_sums_match_second_traversal(protocol_corpus):
    inst = protocol_corpus[0]
    tree = inst["trees"]["set-factoring"]
    qc = query_costs(tree, DEFAULT_MACHINE)
    shapes = factoring.tree_stats(tree).shapes
    t_p = sum(parallel_cp_cost(s, DEFAULT_MACHINE).t_p for s in shapes)
    t_s = sum(parallel_cp_cost(s, DEFAULT_MACHINE).t_s for s in shapes)
    assert qc.t_p_query == pytest.approx(t_p, rel=0)
    assert qc.t_s_query == pytest.approx(t_s, rel=0)


# -- the cost walk against an independent oracle ------------------------------

SHAPE_INTS = ("size1", "size2", "multiply_count", "result_size")

ORACLE_MACHINES = (
    DEFAULT_MACHINE,
    MachineParams(n_a=64, g_min=1),
    MachineParams(p_init=7.0, s_setup=5.0, b_buffer=3.0, n_a=16, g_min=16),
)


def oracle_costs(tree, machine):
    """Each product's CpCost fields, its shape's sizes and the tree's
    (dm, md, md_all), priced from variable tuples: `processor_count`,
    `choose_split` and `bca_time` over each product's children scopes,
    with sets and a cardinality dict, no bitmasks."""
    cards = dict(tree.var_cards)
    bpe = machine.bytes_per_entry
    per = []
    dm = md = md_all = 0
    for node in tree.nodes:
        if node.is_leaf:
            continue
        s1 = tree.nodes[node.left].scope
        s2 = tree.nodes[node.right].scope
        result = node.scope
        union = sorted(set(s1) | set(s2))
        m = math.prod(cards[v] for v in union)
        size1 = math.prod(cards[v] for v in s1)
        size2 = math.prod(cards[v] for v in s2)
        rsize = math.prod(cards[v] for v in result)
        n_u = costmodel.processor_count(m, rsize, machine)
        split, b_d, b_result = [], 0, 0
        if n_u > 1:
            split, entries = costmodel.choose_split(
                [v for v in result if v in s1 and v in s2],
                [v for v in result if v in s1 and v not in s2],
                [v for v in result if v in s2 and v not in s1],
                cards, size1, size2, n_u,
            )
            b_d = bpe * entries
            b_result = bpe * rsize
        t_s = bca_time(m, rsize, 1, 0, machine)[3]
        w, c_d, c_r, t_p = bca_time(m, rsize, n_u, b_d, machine)
        per.append(dict(
            t_s=t_s, t_p=t_p, w=w, c_d=c_d, c_r=c_r, n_u=n_u,
            split_vars=tuple(split), b_d=b_d, b_result=b_result,
            d1=len(s1), d2=len(s2), u=len(union), r=len(result),
            size1=size1, size2=size2, multiply_count=m, result_size=rsize,
        ))
        node_md = max(len(s1), len(s2), len(result))
        md_all = max(md_all, node_md)
        if len(union) > dm:
            dm, md = len(union), node_md
        elif len(union) == dm:
            md = max(md, node_md)
    return per, (dm, md, md_all)


def walked_costs(tree, machine):
    """The same figures from `query_costs`: every CpCost field, the
    shape's sizes and its masks' bit counts in place of the shape."""
    qc = query_costs(tree, machine)
    per = []
    for c in qc.per_cp:
        got = {f.name: getattr(c, f.name) for f in fields(c) if f.name != "shape"}
        got.update((k, getattr(c.shape, k)) for k in SHAPE_INTS)
        sh = c.shape
        got.update(d1=sh.mask1.bit_count(), d2=sh.mask2.bit_count(),
                   u=(sh.mask1 | sh.mask2).bit_count(), r=sh.kept.bit_count())
        per.append(got)
    return per, (qc.stats.dm, qc.stats.md, qc.stats.md_all)


def assert_matches_oracle(tree, machine):
    got = walked_costs(tree, machine)
    assert got == oracle_costs(tree, machine)
    return got[0]


def test_cost_walk_matches_oracle_on_protocol_trees(protocol_corpus):
    distributed = 0
    for inst in protocol_corpus:
        for tree in inst["trees"].values():
            for machine in ORACLE_MACHINES:
                per = assert_matches_oracle(tree, machine)
                distributed += sum(c["n_u"] > 1 for c in per)
    assert distributed > 1000


HAND_CARDS = {0: 2, 1: 3, 2: 4, 3: 2, 4: 3, 5: 4, 6: 3, 7: 4}
HAND_SCOPES = [(0, 1), (1, 2, 3), (2, 4), (3, 4, 5), (5, 6, 7), (0, 6), (7,)]


@pytest.mark.parametrize("heuristic", factoring.HEURISTICS)
def test_cost_walk_matches_oracle_on_hand_trees(heuristic):
    # cardinalities 2-4; on the default machine every product is
    # sequential, on the third (g_min 16) those of fewer than 32 multiplies
    per_machine = []
    for machine in ORACLE_MACHINES:
        tree = factoring.build_tree(heuristic, HAND_SCOPES, HAND_CARDS, 0, machine)
        per_machine.append(assert_matches_oracle(tree, machine))
    coarse = per_machine[2]
    assert any(c["n_u"] == 1 for c in coarse) and any(c["n_u"] > 1 for c in coarse)
    split_cards = {HAND_CARDS[v] for per in per_machine for c in per for v in c["split_vars"]}
    assert split_cards == {2, 3, 4}


@pytest.fixture(scope="module")
def large_trees():
    """Every heuristic's tree of the golden `large` net (248 factors)."""
    net, query = network.random_net(LARGE_PARAMS)
    scopes, cards, _ = factoring.scopes_for_query(net, query)
    return [factoring.build_tree(h, scopes, cards, query.query_var)
            for h in factoring.HEURISTICS]


def test_cost_walk_matches_oracle_on_large_trees(large_trees):
    # masks of up to 163 variables span several machine words; products
    # that keep their children's whole union (r == u) take their mask
    # from the children, the others from their scope
    per = [c for tree in large_trees for machine in ORACLE_MACHINES
           for c in assert_matches_oracle(tree, machine)]
    assert max(c["u"] for c in per) > 128
    assert {c["r"] == c["u"] for c in per} == {True, False}
    assert any(c["n_u"] > 1 for c in per)


COST_FIGURES = ("t_s", "t_p", "w", "c_d", "c_r", "n_u", "b_d", "b_result")
QUERY_TOTALS = ("t_s_query", "t_p_query", "n_u_query", "cm_total", "cp_total")


def relabelled(tree, new_id):
    """The tree with each variable v renamed new_id[v]: its scopes,
    var_cards and query variable move along, its nodes stay in place."""
    return factoring.EvalTree(
        new_id[tree.query_var],
        tuple(sorted((new_id[v], card) for v, card in tree.var_cards)),
        tuple(factoring.EvalNode(n.factor, n.left, n.right,
                                 tuple(sorted(map(new_id.__getitem__, n.scope))))
              for n in tree.nodes),
    )


def cost_figures(qc):
    """Every CpCost figure but the split, the totals and the dimensions."""
    return ([tuple(getattr(c, f) for f in COST_FIGURES) for c in qc.per_cp],
            tuple(getattr(qc, f) for f in QUERY_TOTALS),
            (qc.stats.dm, qc.stats.md, qc.stats.md_all))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_relabelled_tree_costs_the_same(protocol_corpus, data):
    # renaming a tree's variables moves no cost figure.  A renaming that
    # keeps their order maps each split variable to its new name; one that
    # shuffles them may split on other variables, through choose_split's
    # ascending-id tie-break, so it is asserted on binary trees only,
    # where any split of the same length costs the same
    machine = data.draw(st.sampled_from(ORACLE_MACHINES), label="machine")
    heuristic = data.draw(st.sampled_from(factoring.HEURISTICS), label="heuristic")
    binary = data.draw(st.booleans(), label="protocol tree")
    if binary:
        tree = data.draw(st.sampled_from(protocol_corpus[:50]))["trees"][heuristic]
    else:
        scopes, cards, query = nonbinary_instance(data.draw(st.integers(0, 59)))
        tree = factoring.build_tree(heuristic, scopes, cards, query, machine)
    old = [v for v, _ in tree.var_cards]
    new = sorted(data.draw(st.lists(st.integers(0, 10**6), min_size=len(old),
                                    max_size=len(old), unique=True)))
    shuffled = binary and data.draw(st.booleans(), label="shuffled")
    if shuffled:
        new = data.draw(st.permutations(new))
    new_id = dict(zip(old, new))
    renamed = relabelled(tree, new_id)
    factoring.check_tree(renamed)
    before = query_costs(tree, machine)
    after = query_costs(renamed, machine)
    assert cost_figures(after) == cost_figures(before)
    splits = [tuple(new_id[v] for v in c.split_vars) for c in before.per_cp]
    if shuffled:
        assert [len(c.split_vars) for c in after.per_cp] == list(map(len, splits))
    else:
        assert [c.split_vars for c in after.per_cp] == splits


def test_cost_walk_ignores_declared_variable_order(protocol_corpus, tmp_path, capsys):
    # a tree file may declare its variables in any order; the walk sorts
    # them by id, so costs, stats and simulate's CSV do not change
    inst = max(protocol_corpus, key=lambda i: i["trees"]["set-factoring"].cp_count)
    tree = inst["trees"]["set-factoring"]
    sorted_path = tmp_path / "sorted.json"
    factoring.save_tree(tree, sorted_path)
    obj = json.loads(sorted_path.read_text())
    obj["vars"].reverse()
    descending_path = tmp_path / "descending.json"
    descending_path.write_text(json.dumps(obj))
    descending = factoring.load_tree(descending_path)
    assert [v for v, _ in descending.var_cards] == sorted(
        (v for v, _ in tree.var_cards), reverse=True
    )
    for machine in ORACLE_MACHINES:
        per = assert_matches_oracle(descending, machine)
        assert any(c["n_u"] > 1 for c in per)
        assert walked_costs(descending, machine) == walked_costs(tree, machine)
    details = []
    for path in (sorted_path, descending_path):
        out = tmp_path / path.stem
        assert cli.main(["simulate", str(path), "--out", str(out)]) == cli.EXIT_OK
        details.append((out / "details.csv").read_bytes())
    capsys.readouterr()
    assert details[0] == details[1]


# -- longest path ------------------------------------------------------------

def test_longest_path_of_chain_contains_every_product():
    scopes = [(0, 1), (1, 2), (2, 3), (3, 4)]
    tree = build_chain_baseline(scopes, B2, 0)
    qc = query_costs(tree, DEFAULT_MACHINE)
    lp = longest_path(tree, qc)
    assert len(lp.node_ids) == tree.cp_count == 3
    assert lp.seq_time == qc.t_s_query
    assert lp.par_time == qc.t_p_query


def test_longest_path_of_balanced_tree_is_depth():
    # ((a x b) x (c x d)): three equal products, path covers two
    scopes = [(0, 1), (0, 1), (2, 3), (2, 3)]
    tree = build_set_factoring(scopes, B2, 0)
    internal = [n for n in tree.nodes if not n.is_leaf]
    kids = {(n.left, n.right) for n in internal}
    assert (0, 1) in kids and (2, 3) in kids
    lp = longest_path(tree, query_costs(tree, DEFAULT_MACHINE))
    assert tree.cp_count == 3
    assert len(lp.node_ids) == 2


def test_longest_path_bounded_by_query_totals(protocol_corpus):
    for inst in protocol_corpus[:25]:
        for tree in inst["trees"].values():
            qc = query_costs(tree, DEFAULT_MACHINE)
            lp = longest_path(tree, qc)
            assert lp.seq_time <= qc.t_s_query * (1 + 1e-12)
            assert lp.par_time <= qc.t_p_query * (1 + 1e-12)


# -- dist-net and memory -----------------------------------------------------

def test_distnet_doubles_return_cost():
    assert 2.0 * comm_times(1024, result_size=256)[1] == 2 * 2811.5 == 5623.0


def test_distnet_zero_cases():
    assert 2.0 * comm_times(1, result_size=9)[1] == 0.0
    assert 2.0 * comm_times(8)[1] == 2 * 3 * 230.0


def test_distnet_report_pays_return_path_twice(protocol_corpus):
    # Dist-cm: each distributed product's result gathered and rebroadcast,
    # from each product's split fields; no input distribution
    checked = 0
    for inst in protocol_corpus[:10]:
        rows = metrics.build_report_rows(
            inst["net"], inst["query"], inst["trees"], DEFAULT_MACHINE
        )
        for h, tree in inst["trees"].items():
            want = 0.0
            for c in query_costs(tree, DEFAULT_MACHINE).per_cp:
                if c.n_u > 1:
                    back = c.d_max * 230.0 + c.b_result / c.n_u * (c.n_u - 1) * 0.5
                    want += 2.0 * back
                    checked += 1
            assert rows[h].dist_cm == want
    assert checked > 0


def test_memory_accounting_single_product():
    tree = build_set_factoring([(0, 1), (1, 2)], B2, 0)
    qc = query_costs(tree, DEFAULT_MACHINE)
    bca, bca_excl, dist = memory_accounting(qc)
    assert dist == 4 * (4 + 4 + 2) == 40.0
    assert bca == bca_excl == 0.0  # under grainsize: nothing distributed


def test_memory_accounting_leaf_only():
    tree = build_set_factoring([(0,)], B2, 0)
    qc = query_costs(tree, DEFAULT_MACHINE)
    assert memory_accounting(qc) == (0.0, 0.0, 0.0)


def test_memory_excludes_root_product(protocol_corpus):
    inst = next(i for i in protocol_corpus if i["trees"]["set-factoring"].cp_count > 2)
    tree = inst["trees"]["set-factoring"]
    qc = query_costs(tree, DEFAULT_MACHINE)
    bca, bca_excl, _ = memory_accounting(qc)
    root_cost = qc.per_cp[-1]
    assert not tree.nodes[tree.root].is_leaf
    assert bca - bca_excl == pytest.approx(
        root_cost.b_d + root_cost.b_result / root_cost.n_u, rel=1e-12
    )


# -- invariants over the corpus ----------------------------------------------

def test_work_term_lower_bound_and_speedup_cap(protocol_corpus):
    for inst in protocol_corpus[:30]:
        for tree in inst["trees"].values():
            qc = query_costs(tree, DEFAULT_MACHINE)
            for c in qc.per_cp:
                m = c.shape.multiply_count
                assert c.t_p >= DEFAULT_MACHINE.alpha * m / c.n_u - 1e-9
                assert c.t_s / c.t_p <= c.n_u + 1e-12
            if qc.t_p_query > 0:
                assert qc.t_s_query / qc.t_p_query <= qc.n_u_query + 1e-12


def test_grainsize_monotonicity(protocol_corpus):
    # raising g_min never increases the processor count; the parallel time
    # is monotone too once communication is free (with per-byte costs the
    # model can get cheaper on fewer processors, since total traffic grows
    # with the split), so the time half is asserted on a zero-comm machine
    coarse = MachineParams(g_min=1024)
    free_fine = MachineParams(c_st=0.0, c_b=0.0)
    free_coarse = MachineParams(c_st=0.0, c_b=0.0, g_min=1024)
    for inst in protocol_corpus[:15]:
        tree = inst["trees"]["set-factoring"]
        for shape in factoring.tree_stats(tree).shapes:
            fine = parallel_cp_cost(shape, DEFAULT_MACHINE)
            rough = parallel_cp_cost(shape, coarse)
            assert rough.n_u <= fine.n_u
            assert (
                parallel_cp_cost(shape, free_coarse).t_p
                >= parallel_cp_cost(shape, free_fine).t_p
            )


def test_zero_comm_limit_is_exact(protocol_corpus):
    machine = MachineParams(c_st=0.0, c_b=0.0)
    for inst in protocol_corpus[:15]:
        tree = inst["trees"]["set-factoring"]
        for shape in factoring.tree_stats(tree).shapes:
            c = parallel_cp_cost(shape, machine)
            assert c.t_p == c.t_s / c.n_u
