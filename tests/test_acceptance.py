"""Acceptance criteria, one test per criterion (5 is split per trend).

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line with the measured
quantities, then asserts.  Criteria 5c and 5d encode their target ranges
as stated even though the seeded random-net family does not reproduce
them (the README's acceptance note has the short version); they report
the measured distributions when they fail.
"""

import itertools
import math
import statistics

import numpy as np
import pytest

from helpers import ACCEPTANCE_MASTER, build_instance
from factorcube import costmodel, factoring, metrics, network
from factorcube import factors as fa
from factorcube.cli import main, net_seed
from factorcube.costmodel import DEFAULT_MACHINE, MachineParams


def _criterion(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def trend_rows(protocol_corpus):
    """ReportRows per heuristic for the 50-net trend corpus."""
    rows = {h: [] for h in factoring.HEURISTICS}
    for inst in protocol_corpus[:50]:
        got = metrics.build_report_rows(
            inst["net"], inst["query"], inst["trees"], DEFAULT_MACHINE,
            inst["index"],
        )
        for h in factoring.HEURISTICS:
            rows[h].append(got[h])
    return rows


def test_criterion_1_oracle_equivalence(small_corpus):
    worst = 0.0
    for net, query in small_corpus:
        oracle = fa.brute_force_posterior(net, query)
        inst = build_instance(net, query)
        factors = fa.query_factors(net, query)
        for tree in inst["trees"].values():
            got = factoring.evaluate_tree(tree, factors)
            worst = max(worst, float(np.abs(got.table - oracle.table).max()))
    _criterion(
        "1 oracle-equivalence",
        worst < 1e-9,
        f"200 nets x 3 heuristics, max |deviation| = {worst:.3e}",
    )


def test_criterion_2_cost_formula_exactness():
    # a 4-variable binary product on one processor: 16 multiplies
    t_s = costmodel.bca_time(16, 2, 1, 0, DEFAULT_MACHINE)[3]
    # 1024 workers, each sent 4096 bytes; a 256-entry result, 1 byte each
    c_d = costmodel.bca_time(0, 0, 1024, 4096, DEFAULT_MACHINE)[1]
    c_r = costmodel.bca_time(0, 256, 1024, 0, DEFAULT_MACHINE)[2]
    sce = metrics.speedup_cost_efficiency(1000.0, 100.0, 16)
    ok = (
        t_s == 720.0
        and c_d == 2_097_404.0
        and c_r == 2_811.5
        and sce == (10.0, 1600.0, 0.625)
    )
    _criterion(
        "2 cost-formula-exactness",
        ok,
        f"t_s={t_s}, C_d={c_d}, C_r={c_r}, S/C/E={sce}",
    )


def test_criterion_3_zero_overhead_limit(protocol_corpus):
    machine = MachineParams(c_st=0.0, c_b=0.0)
    checked = 0
    exact = True
    for inst in protocol_corpus[:50]:
        for h in ("set-factoring", "chain"):
            for shape in factoring.tree_stats(inst["trees"][h]).shapes:
                c = costmodel.parallel_cp_cost(shape, machine)
                exact = exact and (c.t_p == c.t_s / c.n_u)
                checked += 1

    # a machine every product of which saturates: two processors, no floor
    sat_machine = MachineParams(c_st=0.0, c_b=0.0, n_a=2, g_min=1)
    net, query = network.random_net(
        network.NetGenParams((10, 10), (1.5, 1.5), (0, 0), seed=4)
    )
    inst = build_instance(net, query, sat_machine)
    tree = inst["trees"]["set-factoring"]
    qc = costmodel.query_costs(tree, sat_machine)
    saturated = all(c.n_u == 2 for c in qc.per_cp)
    eff = metrics.speedup_cost_efficiency(
        qc.t_s_query, qc.t_p_query, qc.n_u_query
    )[2]
    _criterion(
        "3 zero-overhead-limit",
        exact and saturated and eff == 1.0,
        f"{checked} products bit-exact={exact}; saturated instance E={eff}",
    )


def test_criterion_4_efficiency_bound(protocol_corpus):
    worst = 0.0
    for inst in protocol_corpus:
        for tree in inst["trees"].values():
            qc = costmodel.query_costs(tree, DEFAULT_MACHINE)
            if qc.t_p_query > 0:
                e = metrics.speedup_cost_efficiency(
                    qc.t_s_query, qc.t_p_query, qc.n_u_query
                )[2]
                worst = max(worst, e)
    _criterion(
        "4 efficiency-bound",
        worst <= 1.0 + 1e-12,
        f"100 nets x 3 heuristics, max E = {worst:.6f}",
    )


def test_criterion_5a_dd_median(trend_rows):
    dd_s = statistics.median(r.dd for r in trend_rows["set-factoring"])
    dd_chain = statistics.median(r.dd for r in trend_rows["chain"])
    _criterion(
        "5a dd-median",
        dd_s >= 0.10 and dd_s > dd_chain,
        f"set-factoring median dd = {dd_s:.3f}, chain = {dd_chain:.3f}",
    )


def test_criterion_5b_high_dimension_speedup(trend_rows):
    big = [r for r in trend_rows["set-factoring"] if r.dm >= 28]
    dist = sorted(round(r.a_spdp, 1) for r in big)
    ok = len(big) > 0 and all(r.a_spdp >= 10.0 for r in big)
    _criterion(
        "5b high-dm-speedup",
        ok,
        f"{len(big)} nets with dm >= 28; a-spdp distribution = {dist}",
    )


def test_criterion_5c_memory_ratio(trend_rows):
    sat = [
        r for r in trend_rows["set-factoring-c"]
        if r.n_u_query == DEFAULT_MACHINE.n_a and r.mem_ratio is not None
    ]
    dist = sorted(round(r.mem_ratio) for r in sat)
    ok = len(sat) > 0 and all(500.0 <= r.mem_ratio <= 2000.0 for r in sat)
    _criterion(
        "5c memory-ratio",
        ok,
        f"{len(sat)} saturating nets; mem/Dist-mem distribution = {dist}",
    )


def test_criterion_5d_distnet_direction(trend_rows):
    rows = [r for r in trend_rows["set-factoring-c"] if r.bca_cm > 0]
    ratios = sorted(r.dist_cm / r.bca_cm for r in rows)
    med = statistics.median(ratios)
    every = all(r.dist_cm <= r.bca_cm for r in rows)
    ok = every and 0.3 <= med <= 0.7
    _criterion(
        "5d distnet-direction",
        ok,
        f"median Dist-cm/BCA-cm = {med:.3f}, max = {ratios[-1]:.3f}, "
        f"all <= 1: {every} ({len(rows)} nets)",
    )


def test_criterion_5e_longest_path_dominance(trend_rows):
    med = statistics.median(r.pct_time for r in trend_rows["set-factoring-c"])
    _criterion(
        "5e longest-path-dominance",
        med > 0.6,
        f"%-time median = {med:.3f}",
    )


def test_criterion_5f_comm_heuristic_no_improvement(trend_rows):
    within = 0
    pairs = list(zip(trend_rows["set-factoring"], trend_rows["set-factoring-c"]))
    for rs, rc in pairs:
        if rs.cm_cst == 0:
            within += rc.cm_cst == 0
        else:
            within += abs(rc.cm_cst - rs.cm_cst) <= 0.5 * rs.cm_cst
    share = within / len(pairs)
    _criterion(
        "5f comm-key-no-improvement",
        share >= 0.8,
        f"communication within +-50% on {within}/{len(pairs)} nets",
    )


def test_criterion_6_experiment_determinism(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main([
            "experiment", "--count", "8", "--seed", str(ACCEPTANCE_MASTER),
            "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    capsys.readouterr()
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    same = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in csvs
    )
    _criterion(
        "6 experiment-determinism",
        same and len(csvs) >= 6,
        f"{len(csvs)} CSV files byte-identical across reruns",
    )


def _exhaustive_best_pair(scopes, cards, query):
    use = {}
    for s in scopes:
        for v in s:
            use[v] = use.get(v, 0) + 1
    best = None
    for a, b in itertools.combinations(range(len(scopes)), 2):
        union = sorted(set(scopes[a]) | set(scopes[b]))
        m = math.prod(cards[v] for v in union)
        rsize = math.prod(
            cards[v] for v in union
            if v == query or use[v] - (v in scopes[a]) - (v in scopes[b]) > 0
        )
        key = (m, rsize, a, b)
        if best is None or key < best:
            best = key
    return best[2], best[3]


def test_criterion_7_structural_invariants():
    checked = 0
    for i in range(1, 501):
        net, query = network.random_net(
            network.NetGenParams(
                node_count_range=(4, 30),
                avg_arcs_range=(1.0, 2.5),
                obs_count_range=(0, 5),
                seed=net_seed(ACCEPTANCE_MASTER + 1, i),
            )
        )
        scopes, cards, _ = factoring.scopes_for_query(net, query)
        tree = factoring.build_set_factoring(scopes, cards, query.query_var)
        factoring.check_tree(tree)
        assert tree.nodes[tree.root].scope == (query.query_var,)
        if len(scopes) > 1:
            first = tree.nodes[len(scopes)]
            want = _exhaustive_best_pair(scopes, cards, query.query_var)
            assert (first.left, first.right) == want
        checked += 1
    _criterion(
        "7 structural-invariants",
        checked == 500,
        f"{checked} instances: single summation, root scope, greedy dominance",
    )
