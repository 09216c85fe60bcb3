"""The product+sum kernel against an unfused product and sum by
`np.einsum`, and the time-keyed builder against the exact planner costs."""

from collections import Counter

import numpy as np

import factorcube
from factorcube import _kernels, costmodel, factoring
from factorcube import factors as fa


def test_backend_is_numpy():
    assert factorcube.backend() == "numpy"


def unfused(f1, f2, keep):
    """f1 * f2 over the union of their variables, summed down to keep."""
    union = sorted({*f1.vars, *f2.vars})
    letter = {v: chr(ord("a") + i) for i, v in enumerate(union)}
    spec = ",".join("".join(letter[v] for v in f.vars) for f in (f1, f2))
    spec += "->" + "".join(letter[v] for v in keep)
    return np.einsum(spec, f1.table.reshape(f1.cards), f2.table.reshape(f2.cards)).ravel()


def test_product_sum_matches_unfused_algebra():
    rng = np.random.default_rng(2)
    for _ in range(25):
        nv = int(rng.integers(1, 7))
        v1 = tuple(sorted(rng.choice(nv + 2, size=int(rng.integers(1, nv + 1)),
                                     replace=False).tolist()))
        v2 = tuple(sorted(rng.choice(nv + 2, size=int(rng.integers(1, nv + 1)),
                                     replace=False).tolist()))
        union = tuple(sorted(set(v1) | set(v2)))
        cards = tuple(int(rng.integers(2, 4)) for _ in union)
        card_of = dict(zip(union, cards))
        f1 = fa.Factor(v1, tuple(card_of[v] for v in v1),
                       rng.random(int(np.prod([card_of[v] for v in v1]))))
        f2 = fa.Factor(v2, tuple(card_of[v] for v in v2),
                       rng.random(int(np.prod([card_of[v] for v in v2]))))
        keep = tuple(v for v in union if rng.random() < 0.6)

        got = _kernels.product_sum(f1.table, v1, f2.table, v2, union, cards, keep)
        np.testing.assert_allclose(got, unfused(f1, f2, keep), rtol=1e-12)


def test_product_sum_medium_dimension():
    rng = np.random.default_rng(4)
    u = 18
    vars1 = tuple(range(u - 3))
    vars2 = tuple(range(3, u))
    union = tuple(range(u))
    cards = (2,) * u
    keep = union[2:9]
    t1 = rng.random(2 ** len(vars1))
    t2 = rng.random(2 ** len(vars2))
    got = _kernels.product_sum(t1, vars1, t2, vars2, union, cards, keep)
    f1 = fa.Factor(vars1, (2,) * len(vars1), t1)
    f2 = fa.Factor(vars2, (2,) * len(vars2), t2)
    np.testing.assert_allclose(got, unfused(f1, f2, keep), rtol=1e-12)


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
                shape = factoring.CpShape(s1, s2, union, result, (2,) * len(union))
                exact[i, j] = costmodel.parallel_cp_cost(shape, machine).t_p
                assert state.time_key(i, j, machine) == (exact[i, j], shape.result_size)
        first = factoring.build_set_factoring_c(scopes, cards, query, machine).nodes[k]
        assert exact[first.left, first.right] == min(exact.values())
