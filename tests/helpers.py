"""Shared corpora and independent oracles for the test suite, imported
by the test modules (`from helpers import ...`) and by `conftest.py`,
which keeps the fixtures.

The enumeration helpers here deliberately avoid the package's factor
algebra and tree machinery: they walk assignments with plain Python so
they can act as ground truth for it.
"""

import itertools
import json
import math

import numpy as np

from factorcube import _kernels, costmodel, factoring, network
from factorcube.cli import net_seed

# Master seeds for the seeded corpora.  The acceptance corpus master is
# part of the pinned experimental setup.
ACCEPTANCE_MASTER = 31337
SMALL_MASTER = 97531

SMALL_PARAMS = dict(node_count_range=(3, 12), avg_arcs_range=(1.0, 2.0),
                    obs_count_range=(0, 3))


def small_net(index: int, master: int = SMALL_MASTER):
    """One net of the <=12-node oracle corpus."""
    return network.random_net(
        network.NetGenParams(seed=net_seed(master, index), **SMALL_PARAMS)
    )


def write_golden(path, digests: dict[str, str]) -> None:
    """Record digests in the golden file at path.  Before it writes, it
    prints each case id whose digest changes (new, changed or dropped)
    and their count, so that a run meant to change nothing shows it."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    changed = sorted(k for k in old.keys() | digests.keys() if old.get(k) != digests.get(k))
    for case_id in changed:
        print(f"changed: {case_id}")
    print(f"{len(changed)} of {len(digests)} digests change in {path.name}")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {path}")


def enumerate_posterior(factors, query_var: int, cards: dict[int, int]):
    """Posterior over query_var from an explicit factor list, by walking
    every assignment of the mentioned variables.  factors are Factor
    objects, each table indexed by one value per variable of its vars."""
    pairs = [(tuple(f.vars), f.table) for f in factors]
    universe = sorted({v for vs, _ in pairs for v in vs} | {query_var})
    mass = [0.0] * cards[query_var]
    for values in itertools.product(*(range(cards[v]) for v in universe)):
        at = dict(zip(universe, values))
        p = 1.0
        for vs, table in pairs:
            p *= table[tuple(at[v] for v in vs)]
        mass[at[query_var]] += p
    total = sum(mass)
    return [m / total for m in mass]


def build_instance(net, query, machine=None):
    """scopes/cards plus one tree per heuristic for a net's query."""
    machine = machine or costmodel.DEFAULT_MACHINE
    scopes, cards, relevant = factoring.scopes_for_query(net, query)
    trees = {
        h: factoring.build_tree(h, scopes, cards, query.query_var, machine)
        for h in factoring.HEURISTICS
    }
    return {
        "scopes": scopes,
        "cards": cards,
        "relevant": relevant,
        "trees": trees,
    }


def cp_shape(vars1, vars2, result, cards):
    """The `factoring.CpShape` of the product of tables over vars1 and
    vars2 that keeps result; cards holds the cardinalities of their union,
    in ascending variable order.  Read back through `tree_stats` from a
    tree of two leaves and the product."""
    union = sorted({*vars1, *vars2})
    tree = factoring.EvalTree(
        0,  # tree_stats does not read the query variable
        tuple(zip(union, cards, strict=True)),
        (
            factoring.EvalNode(0, None, None, tuple(vars1)),
            factoring.EvalNode(1, None, None, tuple(vars2)),
            factoring.EvalNode(None, 0, 1, tuple(result)),
        ),
    )
    return factoring.tree_stats(tree).shapes[0]



def check_split_slices(tree, machine, rng) -> int:
    """The slice oracle for a binary tree: run each distributed product
    (n_u > 1) of `tree` under `machine` one slice of its modeled split at
    a time, on random tables over its children's scopes, and return the
    number of products checked.

    A slice indexes each input at one joint value of the split variables
    it holds and runs `_kernels.product_sum` on what is left, keeping the
    result variables outside the split.  The slices must tile the whole
    product, each result entry in exactly one slice and equal to the
    kernel's whole product to 1e-12; and each slice, one worker's share,
    must have exactly the input entries b_d / bytes_per_entry, the result
    entries b_result / n_u and the multiplies m / n_u that the model
    prices, so there are n_u slices."""
    cards = dict(tree.var_cards)
    bytes_per_entry = machine.bytes_per_entry
    products = [node for node in tree.nodes if not node.is_leaf]
    checked = 0
    for node, cost in zip(products, costmodel.query_costs(tree, machine).per_cp):
        if cost.n_u == 1:
            continue
        inputs = [(rng.random([cards[v] for v in vs]), vs)
                  for vs in (tree.nodes[node.left].scope, tree.nodes[node.right].scope)]
        whole = _kernels.product_sum(*inputs[0], *inputs[1], node.scope)
        tiled = np.zeros(whole.shape)
        covered = np.zeros(whole.shape, dtype=int)
        split = cost.split_vars
        for values in itertools.product(*(range(cards[v]) for v in split)):
            at = dict(zip(split, values))
            (t1, vars1), (t2, vars2) = (
                (t[tuple(at.get(v, slice(None)) for v in vs)],
                 tuple(v for v in vs if v not in at))
                for t, vs in inputs
            )
            result = _kernels.product_sum(t1, vars1, t2, vars2,
                                          tuple(v for v in node.scope if v not in at))
            block = tuple(at.get(v, slice(None)) for v in node.scope)
            tiled[block] = result
            covered[block] += 1
            assert (t1.size + t2.size) * bytes_per_entry == cost.b_d
            assert result.size * cost.n_u * bytes_per_entry == cost.b_result
            assert math.prod(cards[v] for v in {*vars1, *vars2}) * cost.n_u == (
                cost.shape.multiply_count)
        assert math.prod(cards[v] for v in split) == cost.n_u
        assert (covered == 1).all()
        np.testing.assert_allclose(tiled, whole, rtol=1e-12, atol=0)
        checked += 1
    return checked
