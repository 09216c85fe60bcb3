import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import enumerate_posterior, small_net
from factorcube import _kernels, network
from factorcube import factors as fa
from factorcube.factoring import posterior
from factorcube.factors import (
    DimensionCapError,
    Factor,
    InconsistentEvidenceError,
)


def f(vars_, table):
    return Factor(tuple(vars_), np.asarray(table, dtype=float))


def assert_factor(got, vars_, table, tol=0.0):
    assert got.vars == tuple(vars_)
    assert got.cards == np.shape(table)
    np.testing.assert_allclose(got.table, table, atol=tol, rtol=0)


def product(f1, f2, keep=None):
    """The conformal product of two factors, summed down to `keep`
    (default: the whole union), through the evaluator's kernel."""
    union = tuple(sorted({*f1.vars, *f2.vars}))
    keep = union if keep is None else tuple(keep)
    return Factor(keep, _kernels.product_sum(f1.table, f1.vars, f2.table, f2.vars, keep))


# -- construction ------------------------------------------------------------

def test_factor_rejects_bad_shapes():
    with pytest.raises(ValueError):  # repeated variable
        f([0, 0], [[1, 2], [3, 4]])
    with pytest.raises(ValueError):  # descending
        f([1, 0], [[1, 2], [3, 4]])
    with pytest.raises(ValueError):  # one axis for two variables
        f([0, 1], [1, 2, 3, 4])
    with pytest.raises(ValueError):  # two axes for one variable
        f([0], [[1, 2], [3, 4]])
    with pytest.raises(ValueError):  # cardinality 0
        f([0, 1], np.ones((2, 0)))


def test_factor_table_is_read_only():
    mine = np.array([0.3, 0.7])
    x = Factor((0,), mine)
    with pytest.raises(ValueError):
        x.table[0] = 1.0
    # the factor made a view read-only; the caller's array stays writeable
    mine[0] = 0.5
    assert x.table[0] == 0.5
    assert x.cards == (2,)


# -- conformal product -------------------------------------------------------

def test_product_same_variable_is_pointwise():
    got = product(f([0], [0.3, 0.7]), f([0], [0.5, 0.5]))
    assert_factor(got, [0], [0.15, 0.35])


def test_product_disjoint_is_outer_last_var_fastest():
    got = product(f([0], [1, 2]), f([1], [3, 4]))
    assert_factor(got, [0, 1], [[3, 4], [6, 8]])


def test_product_overlapping_matches_enumeration():
    rng = np.random.default_rng(3)
    f1 = f([0, 1], rng.random((2, 2)))
    f2 = f([1, 2], rng.random((2, 2)))
    got = product(f1, f2)
    # direct walk over all (a, b, c)
    want = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                want[a, b, c] = f1.table[a, b] * f2.table[b, c]
    assert_factor(got, [0, 1, 2], want)


def test_product_cardinality_mismatch():
    with pytest.raises(ValueError):
        product(f([0], [1, 1]), f([0], [1, 1, 1]))


def test_product_reads_strided_views():
    # a transposed CPT view and a sliced one, as query_factors hands them
    # to the evaluator, against the same tables made contiguous
    net = network.BeliefNet(
        (network.Variable(0, "A", 2), network.Variable(1, "B", 3),
         network.Variable(2, "C", 2)),
        ((1,), (), (1, 0)),
        (np.arange(1.0, 7.0), np.array([0.2, 0.3, 0.5]), np.arange(1.0, 13.0)),
    )
    (cpt,) = fa.query_factors(net, network.QuerySpec(1), [0])  # vars (0, 1), B as rows
    (sliced,) = fa.query_factors(net, network.QuerySpec(1, {0: 1}), [2])  # vars (1, 2)
    assert not cpt.table.flags.c_contiguous
    assert not sliced.table.flags.c_contiguous
    assert np.shares_memory(cpt.table, net.cpts[0])
    assert np.shares_memory(sliced.table, net.cpts[2])
    dense = [f(x.vars, np.ascontiguousarray(x.table)) for x in (cpt, sliced)]
    for keep in ((0, 1, 2), (0, 2), ()):
        got = product(cpt, sliced, keep)
        want = product(*dense, keep)
        assert got.vars == want.vars
        np.testing.assert_array_equal(got.table, want.table)
    assert_factor(product(cpt, sliced, (0,)), [0], [
        sum(net.cpts[0][b * 2 + a] * net.cpts[2][(b * 2 + 1) * 2 + c]
            for b in range(3) for c in range(2))
        for a in range(2)
    ], tol=1e-12)


def test_product_down_to_no_variables_is_a_fresh_array():
    f1 = f([0, 1], [[1, 2], [3, 4]])
    f2 = f([1], [10, 100])
    got = _kernels.product_sum(f1.table, f1.vars, f2.table, f2.vars, ())
    assert isinstance(got, np.ndarray) and got.shape == ()
    assert got == 1 * 10 + 2 * 100 + 3 * 10 + 4 * 100
    # evaluate_tree gives the result back to the kernel, which may write into it
    assert got.flags.writeable
    assert not np.shares_memory(got, f1.table)
    assert not np.shares_memory(got, f2.table)


# -- marginalization ---------------------------------------------------------

def test_marginalize_row_sums():
    got = fa.marginalize_out(f([0, 1], [[1, 2], [3, 4]]), {1})
    assert_factor(got, [0], [3, 7])


def test_marginalize_nothing_is_identity():
    x = f([0, 1], [[1, 2], [3, 4]])
    assert fa.marginalize_out(x, set()) is x


def test_marginalize_everything_keeps_mass():
    got = fa.marginalize_out(f([0, 1], [[1, 2], [3, 4]]), {0, 1})
    assert got.vars == ()
    assert got.cards == ()
    assert got.table.tolist() == 10.0


def test_marginalize_matches_enumeration():
    rng = np.random.default_rng(5)
    x = f([0, 1, 2, 3], rng.random((2, 2, 2, 2)))
    got = fa.marginalize_out(x, {1, 3})
    want = np.zeros((2, 2))
    for a, b, c, d in itertools.product(range(2), repeat=4):
        want[a, c] += x.table[a, b, c, d]
    assert_factor(got, [0, 2], want, tol=1e-15)


def test_marginalize_unknown_variable_rejected():
    with pytest.raises(ValueError):
        fa.marginalize_out(f([0], [1, 1]), {5})


# -- conditioning ------------------------------------------------------------

def cpt_leaf(cards, parents, cpt, evidence=None):
    """query_factors' factor for `cpt`, the CPT of variable 0 stored with
    `parents` as rows, in a net of variables of cardinalities `cards` (the
    others parentless and uniform)."""
    net = network.BeliefNet(
        tuple(network.Variable(v, f"V{v}", c) for v, c in enumerate(cards)),
        (tuple(parents),) + ((),) * (len(cards) - 1),
        (np.asarray(cpt, dtype=float),) + tuple(np.full(c, 1 / c) for c in cards[1:]),
    )
    (got,) = fa.query_factors(net, network.QuerySpec(0, evidence or {}), [0])
    assert np.shares_memory(got.table, net.cpts[0])
    return got


def test_condition_slices():
    # entry (a, b) of the factor is cpt[b * 2 + a]: [[1, 2], [3, 4]]
    got = cpt_leaf((2, 2), (1,), [1, 3, 2, 4], {1: 0})
    assert_factor(got, [0], [1, 3])


def test_condition_ignores_absent_variables():
    got = cpt_leaf((2, 2, 2), (1,), [1, 3, 2, 4], {2: 1})
    assert_factor(got, [0, 1], [[1, 2], [3, 4]])


def test_condition_matches_enumeration():
    rng = np.random.default_rng(7)
    x = rng.random((2, 2, 2))  # entry (a, b, c); parents (2, 1) are the rows
    got = cpt_leaf((2, 2, 2), (2, 1), x.transpose(2, 1, 0).ravel(), {0: 1, 2: 0})
    want = [x[1, b, 0] for b in range(2)]
    assert_factor(got, [1], want)


def test_condition_value_out_of_range():
    with pytest.raises(ValueError):
        cpt_leaf((2,), (), [1, 1], {0: 2})
    with pytest.raises(ValueError):  # never a numpy index from the end
        cpt_leaf((2,), (), [1, 1], {0: -1})


def test_query_factors_make_one_factor_per_cpt(monkeypatch):
    # each leaf is one Factor over a view of its CPT, observed or not
    made = []
    post_init = Factor.__post_init__

    def spy(self):
        post_init(self)
        made.append(self)

    monkeypatch.setattr(Factor, "__post_init__", spy)
    for i in (4, 8, 11, 14):
        net, q = small_net(i)
        ids = sorted(network.relevant_factors(net, q))
        assert q.evidence and set(q.evidence) & set(ids)
        made.clear()
        got = fa.query_factors(net, q, ids)
        assert made == got and len(got) == len(ids)
        for v, x in zip(ids, got):
            assert np.shares_memory(x.table, net.cpts[v])
            assert x.vars == tuple(
                w for w in sorted({v, *net.parents[v]}) if w not in q.evidence)


@pytest.mark.parametrize("value", [-1, 2])
def test_posterior_rejects_evidence_out_of_range(value):
    net = network.BeliefNet(
        (network.Variable(0, "A", 2), network.Variable(1, "B", 2)),
        ((), (0,)),
        (np.array([0.4, 0.6]), np.array([0.9, 0.1, 0.2, 0.8])),
    )
    with pytest.raises(ValueError, match="out of range"):
        posterior(net, network.QuerySpec(0, {1: value}))
    # A (the query) and B are roots, C is B's child: the pruning keeps
    # only A's CPT, so no factor reads the evidence on B or C
    net = network.BeliefNet(
        tuple(network.Variable(v, name, 2) for v, name in enumerate("ABC")),
        ((), (), (1,)),
        (np.array([0.3, 0.7]), np.array([0.4, 0.6]), np.array([0.9, 0.1, 0.2, 0.8])),
    )
    for evidence in ({2: value}, {1: value}):
        with pytest.raises(network.NetValidationError, match="out of range"):
            posterior(net, network.QuerySpec(0, evidence))
    with pytest.raises(network.NetValidationError, match="unknown 3"):
        posterior(net, network.QuerySpec(0, {3: 0}))


# -- normalization -----------------------------------------------------------

def test_normalize_examples():
    assert_factor(fa.normalize(f([0], [2, 2])), [0], [0.5, 0.5])
    got = fa.normalize(f([0], [0.15, 0.35]))
    assert_factor(got, [0], [0.3, 0.7], tol=1e-15)


def test_normalize_zero_mass_is_inconsistent_evidence():
    with pytest.raises(InconsistentEvidenceError):
        fa.normalize(f([0], [0.0, 0.0]))


# -- brute-force posterior ---------------------------------------------------

def _two_node_net():
    return network.BeliefNet(
        (network.Variable(0, "A", 2), network.Variable(1, "B", 2)),
        ((), (0,)),
        (np.array([0.5, 0.5]), np.array([0.9, 0.1, 0.2, 0.8])),
    ), network.QuerySpec(0, {1: 0})


def test_brute_force_single_node_prior():
    net = network.BeliefNet(
        (network.Variable(0, "A", 2),), ((),), (np.array([0.3, 0.7]),)
    )
    got = fa.brute_force_posterior(net, network.QuerySpec(0))
    assert_factor(got, [0], [0.3, 0.7], tol=1e-15)


def test_brute_force_two_node_bayes():
    net, q = _two_node_net()
    got = fa.brute_force_posterior(net, q)
    np.testing.assert_allclose(got.table, [9 / 11, 2 / 11], atol=1e-12)


def test_brute_force_root_query_without_evidence_is_prior():
    net, _ = small_net(11)
    roots = [v for v in range(net.node_count) if not net.parents[v]]
    q = network.QuerySpec(roots[0])
    got = fa.brute_force_posterior(net, q)
    np.testing.assert_allclose(got.table, net.cpts[roots[0]], atol=1e-9)


def test_brute_force_refuses_zero_probability_evidence():
    # P(B = 1 | A) = 0 for both values of A
    net = network.BeliefNet(
        (network.Variable(0, "A", 2), network.Variable(1, "B", 2)),
        ((), (0,)),
        (np.array([0.5, 0.5]), np.array([1.0, 0.0, 1.0, 0.0])),
    )
    with pytest.raises(InconsistentEvidenceError, match="zero probability"):
        fa.brute_force_posterior(net, network.QuerySpec(0, {1: 1}))


def test_brute_force_respects_joint_cap():
    # 25 binary variables: a joint of 2**25 entries, above DEFAULT_JOINT_CAP
    n = 25
    net = network.BeliefNet(
        tuple(network.Variable(i, f"V{i}", 2) for i in range(n)),
        ((),) * n,
        (np.array([0.5, 0.5]),) * n,
    )
    assert 2 ** n > fa.DEFAULT_JOINT_CAP
    with pytest.raises(DimensionCapError):
        fa.brute_force_posterior(net, network.QuerySpec(0))


def test_query_factors_sort_axes():
    # child 0 with parent 2: CPT rows indexed by the parent
    net = network.BeliefNet(
        (network.Variable(0, "A", 2), network.Variable(1, "B", 2),
         network.Variable(2, "C", 2)),
        ((2,), (), ()),
        (np.array([0.9, 0.1, 0.2, 0.8]), np.array([0.5, 0.5]),
         np.array([0.4, 0.6])),
    )
    (got,) = fa.query_factors(net, network.QuerySpec(0), [0])
    # vars (0, 2): entry (a, c) = P(A=a | C=c)
    assert_factor(got, [0, 2], [[0.9, 0.2], [0.1, 0.8]])


# -- algebraic properties ----------------------------------------------------

def factor_strategy(var_pool=(0, 1, 2, 3, 4)):
    def build(draw_vars, values):
        vs = tuple(sorted(draw_vars))
        size = 2 ** len(vs)
        table = np.asarray((values * size)[:size]) + 0.01
        return Factor(vs, table.reshape((2,) * len(vs)))

    return st.builds(
        build,
        st.sets(st.sampled_from(var_pool), min_size=1, max_size=3),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(factor_strategy(), factor_strategy())
def test_product_commutes(f1, f2):
    a = product(f1, f2)
    b = product(f2, f1)
    assert a.vars == b.vars
    np.testing.assert_allclose(a.table, b.table, rtol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(factor_strategy(), factor_strategy(), factor_strategy())
def test_product_associates(f1, f2, f3):
    a = product(product(f1, f2), f3)
    b = product(f1, product(f2, f3))
    assert a.vars == b.vars
    np.testing.assert_allclose(a.table, b.table, rtol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(factor_strategy(var_pool=(0, 1)), factor_strategy(var_pool=(5, 6)))
def test_mass_multiplies_when_disjoint(f1, f2):
    got = product(f1, f2).table.sum()
    assert got == pytest.approx(f1.table.sum() * f2.table.sum(), rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(factor_strategy(var_pool=(0, 1)), factor_strategy(var_pool=(2, 3, 4)))
def test_sum_product_exchange(f1, f2):
    drop = set(f2.vars[:1])
    a = fa.marginalize_out(product(f1, f2), drop)
    b = product(f1, fa.marginalize_out(f2, drop))
    fused = product(f1, f2, a.vars)  # the kernel sums while it multiplies
    assert a.vars == b.vars
    np.testing.assert_allclose(a.table, b.table, rtol=1e-12)
    np.testing.assert_allclose(fused.table, a.table, rtol=1e-12)


def test_enumeration_oracle_agrees_with_brute_force():
    # the helpers enumerator (over conditioned factors) and the net-level
    # brute force must agree; both back later oracle tests
    for i in (2, 5, 9):
        net, q = small_net(i)
        got = fa.brute_force_posterior(net, q)
        conditioned = fa.query_factors(net, q)
        cards = {v.id: v.cardinality for v in net.variables}
        want = enumerate_posterior(conditioned, q.query_var, cards)
        np.testing.assert_allclose(got.table, want, atol=1e-9)
