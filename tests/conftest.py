"""Session fixtures: the machine, the protocol corpus and the small
oracle corpus.  Helpers the test modules import live in `helpers.py`."""

import pytest

from factorcube import costmodel, network
from factorcube.cli import net_seed
from helpers import ACCEPTANCE_MASTER, build_instance, small_net


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
