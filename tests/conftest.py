"""Shared corpora and independent oracles for the test suite.

The enumeration helpers here deliberately avoid the package's factor
algebra and tree machinery: they walk assignments with plain Python so
they can act as ground truth for it.
"""

import itertools
import json
import math

import pytest

from factorcube import costmodel, factoring, network
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
        2,
    )
    return factoring.tree_stats(tree).shapes[0]


@pytest.fixture(scope="session")
def machine():
    return costmodel.DEFAULT_MACHINE


@pytest.fixture(scope="session")
def protocol_corpus():
    """100 default-protocol nets with trees for every heuristic; the first
    50 form the trend-reproduction corpus."""
    out = []
    for i in range(1, 101):
        net, query = network.random_net(
            network.NetGenParams(seed=net_seed(ACCEPTANCE_MASTER, i))
        )
        inst = build_instance(net, query)
        inst["net"] = net
        inst["query"] = query
        inst["index"] = i
        out.append(inst)
    return out


@pytest.fixture(scope="session")
def small_corpus():
    """200 nets of at most 12 binary nodes, for oracle comparisons."""
    out = []
    for i in range(1, 201):
        net, query = small_net(i)
        out.append((net, query))
    return out
