"""The product+sum kernel against a walk over every joint assignment,
and the time-keyed builder against the exact planner costs."""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import factorcube
from helpers import cp_shape
from factorcube import _kernels, costmodel, factoring


def test_backend_is_numpy():
    assert factorcube.backend() == "numpy"


def enumerated(t1, vars1, t2, vars2, keep, card_of):
    """Walk every joint assignment of the union, adding t1 * t2 into the
    result entry of its kept values."""
    union = sorted({*vars1, *vars2})
    out = np.zeros([card_of(v) for v in keep])
    for x in itertools.product(*(range(card_of(v)) for v in union)):
        at = dict(zip(union, x))
        out[tuple(at[v] for v in keep)] += (
            t1[tuple(at[v] for v in vars1)] * t2[tuple(at[v] for v in vars2)]
        )
    return out


def check_product_sum(rng, vars1, vars2, keep, card_of):
    t1, t2 = (rng.random([card_of(v) for v in vs]) for vs in (vars1, vars2))
    t1.setflags(write=False)
    t2.setflags(write=False)
    got = _kernels.product_sum(t1, vars1, t2, vars2, keep)
    np.testing.assert_allclose(
        got, enumerated(t1, vars1, t2, vars2, keep, card_of), rtol=1e-12
    )
    # evaluate_tree gives the result back to the kernel, which may write into it
    assert got.flags.writeable
    assert not np.shares_memory(got, t1) and not np.shares_memory(got, t2)


def test_product_sum_matches_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(25):
        nv = int(rng.integers(1, 7))
        v1, v2 = (
            tuple(sorted(rng.choice(nv + 2, size=int(rng.integers(0, nv + 1)),
                                    replace=False).tolist()))
            for _ in range(2)
        )
        keep = tuple(v for v in sorted({*v1, *v2}) if rng.random() < 0.6)
        cards = dict(enumerate(rng.integers(2, 4, size=nv + 2).tolist()))
        check_product_sum(rng, v1, v2, keep, cards.__getitem__)


@pytest.mark.parametrize(
    "vars1, vars2, keep",
    [
        ((), (0, 1), (0,)),
        ((0, 1), (), (1,)),
        ((), (), ()),
        ((0, 1), (1, 2), ()),
        ((0, 1), (1, 2), (0, 1, 2)),
        # 432 and 1296 joint assignments, below `_MATMUL_FROM`, of inputs not
        # owned: each takes the plain einsum route, summing out or not
        (tuple(range(5)), tuple(range(2, 7)), (1, 4, 6)),
        (tuple(range(6)), tuple(range(2, 8)), (1, 4, 6)),
        (tuple(range(6)), tuple(range(2, 8)), tuple(range(8))),
        (tuple(range(6)), tuple(range(2, 8)), ()),
    ],
)
def test_product_sum_edge_shapes(vars1, vars2, keep):
    # cardinalities 2 and 3 alternate with the variable id
    check_product_sum(
        np.random.default_rng(3), vars1, vars2, keep, lambda v: 2 + v % 2
    )


def test_product_sum_medium_dimension():
    rng = np.random.default_rng(4)
    u = 18
    vars1 = tuple(range(u - 3))
    vars2 = tuple(range(3, u))
    union = tuple(range(u))
    keep = union[2:9]
    t1 = rng.random((2,) * len(vars1))
    t2 = rng.random((2,) * len(vars2))
    t1.setflags(write=False)
    t2.setflags(write=False)
    got = _kernels.product_sum(t1, vars1, t2, vars2, keep)
    assert got.flags.writeable
    assert not np.shares_memory(got, t1) and not np.shares_memory(got, t2)
    # broadcast both inputs over the union, multiply, then sum the dropped axes
    full = t1[(...,) + (None,) * 3] * t2[(None,) * 3]
    want = full.sum(axis=tuple(i for i in union if i not in keep))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def _owned(rng, shape, order, step):
    """A writeable table of `shape` that is a transposed view of a larger
    array: `order` permutes the base's axes and `step` slices its last."""
    base_shape = [shape[i] for i in np.argsort(order)]
    base_shape[-1] = base_shape[-1] * step
    base = rng.random(base_shape)
    return base[..., ::step].transpose(order)


@pytest.mark.parametrize(
    "vars1, order, step, vars2, keep",
    [
        # a transposed, non-contiguous view; the factor's variables in another
        # order than the table's
        (tuple(range(11)), (10, *range(1, 10), 0), 2, (9, 0, 4), (0, 4, 8)),
        # laid out in memory in reverse variable order
        (tuple(range(11)), tuple(reversed(range(11))), 1, (10, 2), (5, 2)),
        # nothing summed out: the result is the owned table
        (tuple(range(11)), tuple(range(11)), 1, (3, 10), tuple(range(11))),
        (tuple(range(11)), (10, *range(10)), 1, (10,), (10, *range(10))),
        # everything summed out: a 0-d result
        (tuple(range(11)), tuple(range(11)), 1, (0, 1, 10), ()),
        # a factor over every variable of the table, in reverse order
        (tuple(range(11)), tuple(range(11)), 1, tuple(range(10, -1, -1)), (7,)),
        # a factor over the table's innermost variables
        (tuple(range(11)), tuple(range(11)), 1, (8, 9, 10), (0, 9)),
    ],
)
def test_product_sum_in_place_matches_enumeration(vars1, order, step, vars2, keep):
    # cardinalities 2 and 3 alternate with the variable id: 2**6 * 3**5
    # joint assignments, above the in-place route's threshold
    rng = np.random.default_rng(6)
    card_of = lambda v: 2 + v % 2
    t1 = _owned(rng, [card_of(v) for v in vars1], order, step)
    t2 = rng.random([card_of(v) for v in vars2])
    t2.setflags(write=False)
    assert t1.size >= _kernels._OPTIMIZE_FROM
    want = enumerated(t1, vars1, t2, vars2, keep, card_of)
    before = t1.copy()
    # the owned input may come first or second
    got = _kernels.product_sum(t2, vars2, t1, vars1, keep, owned=(False, True))
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert got.shape == want.shape and got.flags.writeable
    # the owned table was written into, the factor only read
    assert not np.array_equal(t1, before)
    assert not np.shares_memory(got, t2)
    assert np.shares_memory(got, t1) == (len(keep) == len(vars1))


@pytest.mark.parametrize("keep", [tuple(range(11)), (0, 4, 8)])
def test_product_sum_shift_is_exact(keep):
    # the shift scales the smaller input, which equals scaling the result
    # by the same power of two bit for bit
    rng = np.random.default_rng(7)
    vars1, vars2 = tuple(range(11)), (9, 0, 4)
    t1 = rng.random((2,) * 11)
    t2 = rng.random((2,) * 3)
    for shift in (-37, 5):
        unshifted = _kernels.product_sum(t1.copy(), vars1, t2, vars2, keep,
                                         owned=(True, False))
        got = _kernels.product_sum(t1.copy(), vars1, t2, vars2, keep,
                                   owned=(True, False), shift=shift)
        np.testing.assert_array_equal(got, np.ldexp(unshifted, shift))
        einsum = _kernels.product_sum(t1, vars1, t2, vars2, keep, shift=shift)
        if keep == vars1:
            # one multiply per entry on either route
            np.testing.assert_array_equal(got, einsum)
            np.testing.assert_array_equal(
                einsum, np.ldexp(_kernels.product_sum(t1, vars1, t2, vars2, keep), shift)
            )
        else:
            np.testing.assert_allclose(got, einsum, rtol=1e-12)


@pytest.mark.parametrize("vars1, vars2, keep, shift", [
    pytest.param((3, 5, 7), (0, 2), (0, 3, 7), 0, id="disjoint"),
    pytest.param((1, 3, 4, 6), (6, 3), (1, 6), 0, id="scope-inside"),
    pytest.param((2, 5, 8), (1, 5), (8, 1), 0, id="shared-summed-out"),
    pytest.param((0, 3, 4, 6), (4, 2, 6), (2, 0), -9, id="shift"),
    pytest.param((1, 2, 3), (0, 3), (), 0, id="empty-result"),
])
def test_product_sum_einsum_route_is_one_plain_einsum(vars1, vars2, keep, shift):
    # below the in-place and matmul sizes the kernel is one np.einsum call
    # with each union variable labelled in order of first appearance, the
    # larger input first and the shift on the smaller one, bit for bit
    rng = np.random.default_rng(11)
    t1, t2 = (rng.random([2 + v % 2 for v in vs]) for vs in (vars1, vars2))
    assert t1.size > t2.size
    label = {}
    for v in (*vars1, *vars2):
        label.setdefault(v, len(label))
    want = np.einsum(t1, [label[v] for v in vars1],
                     np.ldexp(t2, shift), [label[v] for v in vars2],
                     [label[v] for v in keep])
    # the smaller input given first still runs larger-first
    for args in ((t1, vars1, t2, vars2), (t2, vars2, t1, vars1)):
        got = _kernels.product_sum(*args, keep, shift=shift)
        assert type(got) is np.ndarray and got.shape == want.shape
        assert np.array_equal(got, want)


def counting_calls(monkeypatch, *args, **kwargs):
    """product_sum(*args, **kwargs) and how many np.matmul and np.add
    calls it made."""
    calls = Counter()

    def counting(name, ufunc):
        def call(*a, **k):
            calls[name] += 1
            return ufunc(*a, **k)
        return call

    with monkeypatch.context() as patch:
        for name in ("matmul", "add"):
            patch.setattr(np, name, counting(name, getattr(np, name)))
        return _kernels.product_sum(*args, **kwargs), calls


@pytest.mark.parametrize(
    "vars2, keep",
    [
        # a kept variable both inputs hold (0) lies outside the block
        ((0, 8, 9, 10), (0, 1, 3, 9, 10)),
        # a kept variable the smaller input lacks (0) lies outside the
        # block; variables only one input holds are summed out (1, 3, 5, 6; 10)
        ((7, 8, 9, 10), (0, 2, 4, 9)),
        # a kept variable only the smaller input holds (9) lies outside its
        # part of the block
        ((6, 7, 8, 9, 10), (0, 6, 7, 9, 10)),
        # the contracted variables (0, 2, 4, 6, 8) hold exactly 32 entries,
        # one block
        ((0, 2, 4, 6, 8, 9, 10), (1, 9, 10)),
    ],
)
def test_blocked_matmul_matches_enumeration(monkeypatch, vars2, keep):
    # cardinalities 2 and 3 alternate with the variable id; the union has
    # at least 2**5 * 3**4 * 6 joint assignments, above the matmul route's
    # threshold, and a block of at most 32 entries takes several steps,
    # each writing its matmul straight into the result
    monkeypatch.setattr(_kernels, "_MATMUL_BLOCK", 32)
    rng = np.random.default_rng(10)
    card_of = lambda v: 2 + v % 2
    vars1 = tuple(range(9))
    t1, t2 = (rng.random([card_of(v) for v in vs]) for vs in (vars1, vars2))
    t1.setflags(write=False)
    t2.setflags(write=False)
    got, calls = counting_calls(monkeypatch, t1, vars1, t2, vars2, keep)
    assert calls["matmul"] > 1 and calls["add"] == 0
    np.testing.assert_allclose(
        got, enumerated(t1, vars1, t2, vars2, keep, card_of), rtol=1e-12
    )
    assert got.flags.writeable
    assert not np.shares_memory(got, t1) and not np.shares_memory(got, t2)


@pytest.mark.parametrize(
    "vars2, keep",
    [
        # the contracted variables (3-8) hold 216 entries, more than a block;
        # kept variables of either input (0, 1, 2; 9, 10)
        ((3, 4, 5, 6, 7, 8, 9, 10), (0, 1, 2, 9, 10)),
        # everything summed out: a 0-d result
        ((3, 4, 5, 6, 7, 8, 9, 10), ()),
    ],
)
def test_wide_contraction_takes_the_einsum_route(monkeypatch, vars2, keep):
    # a product above the matmul route's threshold whose contracted
    # variables overflow a block is one plain einsum call, which allocates
    # little beyond its result
    monkeypatch.setattr(_kernels, "_MATMUL_BLOCK", 32)
    rng = np.random.default_rng(10)
    card_of = lambda v: 2 + v % 2
    vars1 = tuple(range(9))
    t1, t2 = (rng.random([card_of(v) for v in vs]) for vs in (vars1, vars2))
    t1.setflags(write=False)
    t2.setflags(write=False)
    tracemalloc.start()
    try:
        got = _kernels.product_sum(t1, vars1, t2, vars2, keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= got.nbytes + (64 << 10)
    _, calls = counting_calls(monkeypatch, t1, vars1, t2, vars2, keep)
    assert calls["matmul"] == 0 and calls["add"] == 0
    np.testing.assert_allclose(
        got, enumerated(t1, vars1, t2, vars2, keep, card_of), rtol=1e-12
    )
    assert got.flags.writeable
    assert not np.shares_memory(got, t1) and not np.shares_memory(got, t2)


def test_blocked_matmul_reads_a_transposed_owned_view(monkeypatch):
    # the owned input is a non-contiguous transposed view; the factor holds
    # a variable it lacks, so the product cannot run in place
    monkeypatch.setattr(_kernels, "_MATMUL_BLOCK", 32)
    rng = np.random.default_rng(11)
    card_of = lambda v: 2 + v % 2
    vars1, vars2, keep = tuple(range(10)), (3, 9, 10), (0, 5, 10)
    t1 = _owned(rng, [card_of(v) for v in vars1], (9, *range(1, 9), 0), 2)
    t2 = rng.random([card_of(v) for v in vars2])
    want = enumerated(t1, vars1, t2, vars2, keep, card_of)
    before = t1.copy()
    got, calls = counting_calls(monkeypatch, t2, vars2, t1, vars1, keep,
                                owned=(False, True))
    assert calls["matmul"] > 1
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert got.shape == want.shape and got.flags.writeable
    np.testing.assert_array_equal(t1, before)
    assert not np.shares_memory(got, t1) and not np.shares_memory(got, t2)


def test_blocked_matmul_lays_out_one_block_at_a_time():
    # the shape of a deferred run's consumer: a 2**18-entry owned base, a
    # transposed view, times a fold with a new variable (18) and one the
    # product sums out (3); the result is as large as the base.  Laying out
    # the whole base for one matmul would copy it.
    n = 18
    rng = np.random.default_rng(12)
    vars1, vars2 = tuple(range(n)), (3, n)
    keep = tuple(v for v in range(n + 1) if v != 3)
    fold = rng.random((2, 2))
    tracemalloc.start()
    try:
        base = rng.random((2,) * n).transpose((*range(9, n), *range(9)))
        got = _kernels.product_sum(base, vars1, fold, vars2, keep, owned=(True, False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entry = base.itemsize
    assert peak < (base.size + got.size + _kernels._MATMUL_BLOCK) * entry + (256 << 10)
    want = np.einsum(base, vars1, fold, vars2, keep)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_time_key_selection_dominates_exact_costs():
    # the builder's time key is the planner's t_p bit for bit, and its first
    # pair is optimal under the exact planner costs
    rng = np.random.default_rng(5)
    machine = costmodel.DEFAULT_MACHINE
    for _ in range(40):
        nv = int(rng.integers(3, 9))
        k = int(rng.integers(2, 8))
        scopes = [
            tuple(sorted(rng.choice(nv, size=int(rng.integers(1, nv + 1)),
                                    replace=False).tolist()))
            for _ in range(k)
        ]
        query = int(rng.choice(sorted({v for s in scopes for v in s})))
        cards = {v: 2 for v in range(nv)}
        state = factoring._BuildState(scopes, cards, query)
        held = Counter(v for s in scopes for v in s)
        exact = {}
        for i in range(k):
            for j in range(i + 1, k):
                s1, s2 = scopes[i], scopes[j]
                union = tuple(sorted(set(s1) | set(s2)))
                # a variable survives if it is the query or a third factor holds it
                result = tuple(
                    v for v in union
                    if v == query or held[v] > (v in s1) + (v in s2)
                )
                shape = cp_shape(s1, s2, result, (2,) * len(union))
                exact[i, j] = costmodel.parallel_cp_cost(shape, machine).t_p
                assert state.time_key(i, j, machine) == (exact[i, j], shape.result_size)
        first = factoring.build_set_factoring_c(scopes, cards, query, machine).nodes[k]
        assert exact[first.left, first.right] == min(exact.values())
