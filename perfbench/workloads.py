"""The benchmark's three workloads.

Each workload makes its inputs from the seed during `setup`, then runs one
unit of work per `unit(i, tick)` call.  It returns the operations it timed,
as (key, latency) pairs, and how many failed; it calls `tick()` between
operations, outside their latencies, so the worker can probe the host's
speed there.  An operation that is repeated in later units keeps its key.
`reference` runs after the timed loop, untimed: it replays a fixed input and
returns a fingerprint of what the program wrote and what shape its input
had, which `compare_pinned` sets against `pinned.json`.

protocol  the paper's experiment: `run_experiment` on 50 protocol nets per
          pass, a fresh master seed per pass.  One operation is one net
          through generation, three tree builds, costing and report rows.
large     `run_experiment` on one 400-node generator net at a time, each with
          240-255 relevant factors, so the k^3 greedy pair scan dominates.
          A unit is one pass over a fixed corpus of such nets, in an order
          drawn from the seed.  One operation is one net through the whole
          pipeline.
numeric   `posterior` on every (net, heuristic) pair of a fixed protocol
          corpus whose tree has dm <= 24, in whole passes ordered by the
          seed.  One operation is one posterior query.
"""

import csv
import hashlib
import json
import random
import time
from pathlib import Path

import numpy as np

from factorcube import cli, factoring, factors, metrics, network


PINNED = Path(__file__).resolve().parent / "pinned.json"

AGREE_TOL = 1e-9


class SetupError(RuntimeError):
    """The seed's input stream did not yield the inputs the workload needs."""


def _master(workload: str, seed: int, index: int = 0) -> int:
    """Deterministic 63-bit master seed; distinct per workload, seed, index."""
    return random.Random(f"{workload}:{seed}:{index}").getrandbits(63)


def experiment_fingerprint(out_dir: Path, meta: dict) -> dict:
    """Digests of every CSV an experiment wrote, plus the realized input
    shape read back from details.csv."""
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.glob("*.csv"))
        if p.name != "errors.csv"
    }
    with open(out_dir / "details.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    relevant = [int(r["factors"]) for r in rows]
    max_dm = {}
    for r in rows:
        max_dm[r["heuristic"]] = max(max_dm.get(r["heuristic"], 0), int(r["dm"]))
    return {
        "nets": meta["net_count"],
        "failures": meta["failures"],
        "relevant_factors": [min(relevant), max(relevant)],
        "max_dm": max_dm,
        "csv_sha256": digests,
    }


def compare_pinned(name: str, got: dict) -> list[str]:
    """Differences between `got` and the pinned fingerprint of `name`."""
    with open(PINNED, encoding="utf-8") as fh:
        want = json.load(fh).get(name, {})
    return [
        f"{name}.{key}: pinned {want.get(key)!r}, got {got.get(key)!r}"
        for key in sorted(set(want) | set(got))
        if want.get(key) != got.get(key)
    ]


class Protocol:
    name = "protocol"
    default_seed = 31337
    count = 50

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.out = workdir / "protocol"

    def _install_boundaries(self, marks, tick):
        """An operation starts when its net is generated and ends when its
        report rows are built; these two calls delimit it inside a pass."""
        random_net = network.random_net
        build_report_rows = metrics.build_report_rows

        def start(*args, **kwargs):
            marks.append(("start", time.perf_counter()))
            return random_net(*args, **kwargs)

        def end(*args, **kwargs):
            rows = build_report_rows(*args, **kwargs)
            marks.append(("end", time.perf_counter()))
            tick()
            return rows

        network.random_net = start
        metrics.build_report_rows = end

        def restore():
            network.random_net = random_net
            metrics.build_report_rows = build_report_rows

        return restore

    def unit(self, i: int, tick=lambda: None):
        config = cli.ExperimentConfig(
            count=self.count, master_seed=_master(self.name, self.seed, i)
        )
        marks = []
        restore = self._install_boundaries(marks, tick)
        try:
            meta = cli.run_experiment(config, self.out)
        finally:
            restore()
        latencies = []
        begun = None
        for kind, t in marks:
            if kind == "start":
                begun = t
            elif begun is not None:
                latencies.append(((i, len(latencies)), t - begun))
                begun = None
        return latencies, max(self.count - len(latencies), meta["failures"])

    def reference(self) -> dict:
        config = cli.ExperimentConfig(count=self.count, master_seed=self.default_seed)
        meta = cli.run_experiment(config, self.out / "pinned")
        got = experiment_fingerprint(self.out / "pinned", meta)
        return {
            "attempted": self.count,
            "failed": meta["failures"],
            "fingerprint": got,
        }


class Large:
    name = "large"
    default_seed = 2024
    # The corpus is fixed: the first `nets` in-band nets of the stream at
    # master seed 2024.  Nets in the band still differ by 2x in build time,
    # and only about 18 fit a run, so corpora drawn per seed differ in work
    # by more than the benchmark's bounds allow.  The seed orders each pass.
    corpus_seed = 2024
    nets = 6
    nodes = (400, 400)
    arcs = (3.5, 5.0)
    obs = (30, 50)
    band = (240, 255)  # relevant factors of every selected net
    scan = 60  # candidate nets looked at, at most

    def config(self, master: int) -> cli.ExperimentConfig:
        return cli.ExperimentConfig(
            count=1,
            node_count_range=self.nodes,
            avg_arcs_range=self.arcs,
            obs_count_range=self.obs,
            master_seed=master,
        )

    def select(self) -> list[int]:
        """Master seeds of the first `nets` candidates of the corpus stream
        whose single experiment net has a relevant-factor count in the band."""
        picked = []
        for index in range(self.scan):
            master = _master(self.name, self.corpus_seed, index)
            params = network.NetGenParams(
                self.nodes, self.arcs, self.obs, seed=cli.net_seed(master, 1)
            )
            net, query = network.random_net(params)
            if self.band[0] <= len(network.relevant_factors(net, query)) <= self.band[1]:
                picked.append(master)
                if len(picked) == self.nets:
                    return picked
        raise SetupError(f"large: {len(picked)} nets in band {self.band} among {self.scan}")

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.masters = self.select()
        self.out = workdir / "large"

    def unit(self, i: int, tick=lambda: None):
        """One pass over the corpus, in an order drawn from the seed."""
        order = list(self.masters)
        random.Random(f"{self.name}:{self.seed}:{i}").shuffle(order)
        latencies = []
        failed = 0
        for master in order:
            t0 = time.perf_counter()
            meta = cli.run_experiment(self.config(master), self.out)
            latency = time.perf_counter() - t0
            tick()
            if meta["failures"]:
                failed += 1
            else:
                latencies.append((master, latency))
        return latencies, failed

    def reference(self) -> dict:
        master = self.select()[0]
        meta = cli.run_experiment(self.config(master), self.out / "pinned")
        got = experiment_fingerprint(self.out / "pinned", meta)
        return {
            "attempted": 1,
            "failed": meta["failures"],
            "fingerprint": got,
        }


class Numeric:
    name = "numeric"
    default_seed = 31337
    # The query corpus is fixed: the first 100 nets of the protocol family at
    # master seed 31337.  Query times differ by up to 8x at equal multiply
    # counts (numpy's broadcast layout), and a few heavy queries take most
    # of a pass, so corpora drawn per seed differ by 20% in work.  The seed
    # orders each pass and draws the oracle corpus.
    family_master = 31337
    nets = 100
    dm_cap = 24
    oracle_nets = 200
    oracle_params = dict(node_count_range=(3, 12), avg_arcs_range=(1.0, 2.0),
                         obs_count_range=(0, 3))

    def select(self):
        """(pairs, shape): every (net index, net, query, heuristic) of the
        corpus whose tree has dm <= 24."""
        pairs = []
        relevant = []
        max_dm = {}
        for index in range(1, self.nets + 1):
            net, query = network.random_net(
                network.NetGenParams(seed=cli.net_seed(self.family_master, index))
            )
            scopes, cards, rel = factoring.scopes_for_query(net, query)
            for heuristic in factoring.HEURISTICS:
                tree = factoring.build_tree(heuristic, scopes, cards, query.query_var)
                dm = factoring.tree_stats(tree).dm
                if dm > self.dm_cap:
                    continue
                pairs.append((index, net, query, heuristic))
                relevant.append(len(rel))
                max_dm[heuristic] = max(max_dm.get(heuristic, 0), dm)
        shape = {
            "nets": self.nets,
            "queries": len(pairs),
            "relevant_factors": [min(relevant), max(relevant)],
            "max_dm": max_dm,
        }
        return pairs, shape

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.pairs, self.shape = self.select()
        self.answers = {}

    def unit(self, i: int, tick=lambda: None):
        """One pass over every query, in an order drawn from the seed."""
        order = list(self.pairs)
        random.Random(f"{self.name}:{self.seed}:{i}").shuffle(order)
        latencies = []
        failed = 0
        for index, net, query, heuristic in order:
            t0 = time.perf_counter()
            try:
                post = factoring.posterior(net, query, heuristic)
            except Exception:  # any failure of a legal query counts, never stops the run
                post = None
            latency = time.perf_counter() - t0
            tick()
            if post is None:
                failed += 1
                continue
            # every heuristic and every repeat must give the first answer seen
            ref = self.answers.setdefault(index, post.table)
            if post.table.shape != ref.shape or np.abs(post.table - ref).max() > AGREE_TOL:
                failed += 1
                continue
            latencies.append(((index, heuristic), latency))
        return latencies, failed

    def reference(self) -> dict:
        """The oracle corpus against joint enumeration, and the shape of the
        query corpus."""
        attempted = failed = 0
        master = _master("oracle", self.seed)
        for index in range(1, self.oracle_nets + 1):
            net, query = network.random_net(
                network.NetGenParams(seed=cli.net_seed(master, index), **self.oracle_params)
            )
            oracle = factors.brute_force_posterior(net, query)
            for heuristic in factoring.HEURISTICS:
                attempted += 1
                try:
                    got = factoring.posterior(net, query, heuristic)
                except Exception:  # counted as a failed query
                    failed += 1
                    continue
                if np.abs(got.table - oracle.table).max() > AGREE_TOL:
                    failed += 1
        return {
            "attempted": attempted,
            "failed": failed,
            "fingerprint": self.shape,
        }


WORKLOADS = {w.name: w for w in (Protocol, Large, Numeric)}

