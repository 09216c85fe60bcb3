"""Tree stability: the builders must reproduce recorded trees node for node.

`data/golden_trees.json` holds the sha256 of the canonical JSON form of
every tree built for three corpora:

protocol   the first 50 protocol nets at master seed 31337, every heuristic;
large      the first 400-node net with 240-255 relevant factors of the
           benchmark's `large` corpus stream, every heuristic;
k653       a 1200-node net of the same generator settings with 653
           relevant factors, every heuristic;
nonbinary  60 seeded random instances with cardinalities 2-5, keyed on
           work and on modeled time under two machines.

To record the digests again, run this file as a script:
`PYTHONPATH=src python tests/test_golden_trees.py`.  Only do so when a
change of tree is intended, and say why where the change is described.
Before it writes, the script prints the case ids whose digests change,
and their count.
"""

import hashlib
import json
import random
from pathlib import Path

from helpers import write_golden
from factorcube import costmodel, factoring, network
from factorcube.cli import net_seed

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_trees.json"

PROTOCOL_MASTER = 31337
LARGE_PARAMS = network.NetGenParams(
    (400, 400), (3.5, 5.0), (30, 50), seed=9527278904628312433
)
K653_PARAMS = network.NetGenParams(
    (1200, 1200), (3.5, 5.0), (30, 50), seed=net_seed(650, 120001)
)
MACHINES = {
    "default": costmodel.DEFAULT_MACHINE,
    "g1-n64": costmodel.MachineParams(g_min=1, n_a=64),
}


def tree_digest(tree) -> str:
    text = json.dumps(factoring._tree_to_obj(tree), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _net_cases(prefix, net, query):
    scopes, cards, _ = factoring.scopes_for_query(net, query)
    for h in factoring.HEURISTICS:
        yield f"{prefix}/{h}", lambda h=h: factoring.build_tree(
            h, scopes, cards, query.query_var
        )


def protocol_cases():
    for i in range(1, 51):
        net, query = network.random_net(
            network.NetGenParams(seed=net_seed(PROTOCOL_MASTER, i))
        )
        yield from _net_cases(f"protocol/{i}", net, query)


def large_cases():
    net, query = network.random_net(LARGE_PARAMS)
    yield from _net_cases("large", net, query)


def k653_cases():
    net, query = network.random_net(K653_PARAMS)
    yield from _net_cases("k653", net, query)


def nonbinary_instance(seed: int):
    """A random factor instance whose variables have 2-5 states."""
    rng = random.Random(f"nonbinary:{seed}")
    nv = rng.randint(4, 10)
    cards = {v: rng.randint(2, 5) for v in range(nv)}
    scopes = [
        tuple(sorted(rng.sample(range(nv), rng.randint(1, min(5, nv)))))
        for _ in range(rng.randint(2, 12))
    ]
    query = rng.choice(sorted({v for s in scopes for v in s}))
    return scopes, cards, query


def nonbinary_cases():
    for seed in range(60):
        scopes, cards, query = nonbinary_instance(seed)
        yield f"nonbinary/{seed}/set-factoring", lambda s=scopes, c=cards, q=query: (
            factoring.build_set_factoring(s, c, q)
        )
        for name, machine in MACHINES.items():
            yield (
                f"nonbinary/{seed}/set-factoring-c/{name}",
                lambda s=scopes, c=cards, q=query, m=machine: (
                    factoring.build_set_factoring_c(s, c, q, m)
                ),
            )


def _check(cases):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    seen = 0
    wrong = []
    for case_id, build in cases:
        seen += 1
        if tree_digest(build()) != want[case_id]:
            wrong.append(case_id)
    assert seen > 0
    assert not wrong, f"{len(wrong)} of {seen} trees changed: {wrong[:10]}"


def test_protocol_trees_match_golden():
    _check(protocol_cases())


def test_large_trees_match_golden():
    _check(large_cases())


def test_k653_trees_match_golden():
    _check(k653_cases())


def test_nonbinary_trees_match_golden():
    _check(nonbinary_cases())


def test_set_factoring_c_keys_few_pairs_exactly(monkeypatch):
    # the builder keys a pair exactly only when its lower bound reaches the
    # top of the heap; scoring every pair exactly would make 61,009 calls
    net, query = network.random_net(LARGE_PARAMS)
    scopes, cards, _ = factoring.scopes_for_query(net, query)
    calls = 0
    time_key = factoring._BuildState.time_key

    def counted(self, a, b, machine):
        nonlocal calls
        calls += 1
        return time_key(self, a, b, machine)

    monkeypatch.setattr(factoring._BuildState, "time_key", counted)
    factoring.build_set_factoring_c(
        scopes, cards, query.query_var, costmodel.DEFAULT_MACHINE
    )
    assert 0 < calls <= 2 * (len(scopes) - 1)


def test_write_golden_names_the_changed_cases(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"a": "1", "b": "2", "c": "3"}), encoding="utf-8")
    write_golden(path, {"a": "1", "b": "9", "d": "4"})
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["changed: b", "changed: c", "changed: d",
                       "3 of 3 digests change in golden.json"]
    assert json.loads(path.read_text(encoding="utf-8")) == {"a": "1", "b": "9", "d": "4"}


if __name__ == "__main__":
    digests = {}
    for cases in (protocol_cases(), large_cases(), k653_cases(), nonbinary_cases()):
        for case_id, build in cases:
            digests[case_id] = tree_digest(build())
    write_golden(GOLDEN, digests)
