"""Report stability: the cost model and report rows must reproduce recorded
tables byte for byte.

`data/golden_tables.json` holds sha256 digests of:

experiment  every CSV that `run_experiment(count=50, master_seed=31337)`
            writes, under each machine of `test_golden_trees.MACHINES`;
nonbinary   `details_csv` of the rows of the 60 non-binary instances of
            `test_golden_trees`, all three heuristics, under each machine.
            Their products have non-binary splits, so per-worker return
            bytes are fractional.

To record the digests again, run this file as a script:
`PYTHONPATH=src python tests/test_golden_tables.py`.  Only do so when a
change of table is intended, and say why where the change is described.
Before it writes, the script prints the case ids whose digests change,
and their count.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from conftest import write_golden
from factorcube import cli, factoring, metrics, network
from test_golden_trees import MACHINES, PROTOCOL_MASTER, nonbinary_instance

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_tables.json"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def experiment_digests(machine_name: str) -> dict[str, str]:
    config = cli.ExperimentConfig(
        count=50, master_seed=PROTOCOL_MASTER, machine=MACHINES[machine_name]
    )
    with tempfile.TemporaryDirectory() as out:
        cli.run_experiment(config, out)
        return {
            f"experiment/{machine_name}/{path.name}": _digest(path.read_text())
            for path in sorted(Path(out).glob("*.csv"))
        }


def nonbinary_digests(machine_name: str) -> dict[str, str]:
    machine = MACHINES[machine_name]
    out = {}
    for seed in range(60):
        scopes, cards, query_var = nonbinary_instance(seed)
        trees = {
            h: factoring.build_tree(h, scopes, cards, query_var, machine)
            for h in factoring.HEURISTICS
        }
        rows = metrics.build_report_rows(
            None, network.QuerySpec(query_var, {}), trees, machine, seed + 1
        )
        out[f"nonbinary/{seed}/{machine_name}"] = _digest(
            metrics.details_csv(list(rows.values()))
        )
    return out


def _check(got: dict[str, str]):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert got
    wrong = sorted(k for k, v in got.items() if want.get(k) != v)
    assert not wrong, f"{len(wrong)} of {len(got)} tables changed: {wrong[:10]}"


def test_experiment_tables_match_golden():
    for name in MACHINES:
        _check(experiment_digests(name))


def test_nonbinary_details_match_golden():
    for name in MACHINES:
        _check(nonbinary_digests(name))


if __name__ == "__main__":
    digests = {}
    for name in MACHINES:
        digests.update(experiment_digests(name))
        digests.update(nonbinary_digests(name))
    write_golden(GOLDEN, digests)
