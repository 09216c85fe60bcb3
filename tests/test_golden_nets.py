"""Generator stability: `random_net` must reproduce recorded nets bit for bit.

`data/golden_nets.json` holds the sha256 of each net's parent lists, CPT
bytes, query variable and evidence, for nets that exercise each branch of
the arc adjustment:

default    `NetGenParams(seed=25)`: the default ranges, arcs added;
surplus    400 nodes, seed 10: arcs removed;
deficit    400 nodes, seed 53: 24 arcs added;
n2000-s0   2000 nodes, seed 0: 145 arcs removed;
n2000-s1   2000 nodes, seed 1: 156 arcs added.

To record the digests again, run this file as a script:
`PYTHONPATH=src python tests/test_golden_nets.py`.  Only do so when a
change of net is intended, and say why where the change is described.
Before it writes, the script prints the case ids whose digests change,
and their count.
"""

import hashlib
import json
from pathlib import Path

import pytest

from helpers import write_golden
from factorcube import network

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_nets.json"

CASES = {
    "default": network.NetGenParams(seed=25),
    "surplus": network.NetGenParams((400, 400), (3.5, 5.0), (30, 50), 10),
    "deficit": network.NetGenParams((400, 400), (3.5, 5.0), (30, 50), 53),
    "n2000-s0": network.NetGenParams((2000, 2000), (3.5, 3.5), (30, 50), 0),
    "n2000-s1": network.NetGenParams((2000, 2000), (3.5, 3.5), (30, 50), 1),
}


def net_digest(net, query) -> str:
    h = hashlib.sha256()
    h.update(json.dumps([list(p) for p in net.parents]).encode())
    for table in net.cpts:
        h.update(table.tobytes())
    h.update(json.dumps([query.query_var, sorted(query.evidence.items())]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_net_matches_golden(case):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert net_digest(*network.random_net(CASES[case])) == want[case]


if __name__ == "__main__":
    digests = {
        case: net_digest(*network.random_net(params))
        for case, params in CASES.items()
    }
    write_golden(GOLDEN, digests)
