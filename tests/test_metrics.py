import io

import pytest

from conftest import build_instance, small_net
from factorcube import costmodel, factoring, metrics, network
from factorcube.costmodel import DEFAULT_MACHINE, MachineParams
from factorcube.metrics import (
    build_report_rows,
    short_sci,
    speedup_cost_efficiency,
    table_csv,
    table_text,
)

B2 = {v: 2 for v in range(40)}


# -- speedup / cost / efficiency ---------------------------------------------

def test_speedup_cost_efficiency_worked_example():
    assert speedup_cost_efficiency(1000.0, 100.0, 16) == (10.0, 1600.0, 0.625)


def test_speedup_identity_case():
    s, c, e = speedup_cost_efficiency(320.0, 320.0, 1)
    assert (s, e) == (1.0, 1.0)


def test_speedup_rejects_zero_time():
    with pytest.raises(ValueError):
        speedup_cost_efficiency(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        speedup_cost_efficiency(1.0, 1.0, 0)


def test_efficiency_bounded_over_corpus(protocol_corpus):
    for inst in protocol_corpus[:30]:
        for tree in inst["trees"].values():
            qc = costmodel.query_costs(tree, DEFAULT_MACHINE)
            if qc.t_p_query > 0:
                _, _, e = speedup_cost_efficiency(
                    qc.t_s_query, qc.t_p_query, qc.n_u_query
                )
                assert e <= 1.0 + 1e-12


# -- report rows ---------------------------------------------------------------

def rows_for(index, machine=DEFAULT_MACHINE):
    net, q = small_net(index)
    inst = build_instance(net, q, machine)
    return build_report_rows(net, q, inst["trees"], machine, index)


def test_single_heuristic_speedups_coincide():
    net, q = small_net(3)
    inst = build_instance(net, q)
    rows = build_report_rows(
        net, q, {"set-factoring": inst["trees"]["set-factoring"]}, DEFAULT_MACHINE
    )
    row = rows["set-factoring"]
    assert row.r_spdp == row.a_spdp
    assert row.seq_time_best == row.seq_time


def test_dd_identity_and_rounding():
    # the ratio is reported at full precision and rounds to 0.14 in text
    assert (36 - 31) / 36 == pytest.approx(0.1389, abs=5e-5)
    assert metrics._fmt_ratio((36 - 31) / 36) == "0.14"


def test_row_cross_column_identities(protocol_corpus):
    for inst in protocol_corpus[:20]:
        rows = build_report_rows(
            inst["net"], inst["query"], inst["trees"], DEFAULT_MACHINE,
            inst["index"],
        )
        best = min(r.seq_time for r in rows.values())
        for row in rows.values():
            if row.dm > 0:
                assert row.dd == (row.dm - row.md) / row.dm
            assert 0.0 <= row.dd < 1.0
            assert row.seq_time_best == best
            if row.ttl_cst > 0:
                assert row.a_spdp == pytest.approx(
                    row.r_spdp * best / row.seq_time, rel=1e-12
                )
            if row.cm_cst > 0:
                assert row.cp_over_cm == pytest.approx(
                    row.cp_cst / row.cm_cst, rel=1e-12
                )
            assert row.efficiency <= 1.0 + 1e-12
            assert row.pct_time <= 1.0 + 1e-12
            assert 0.0 <= row.pct_cp <= 1.0
            assert 0.0 <= row.lp_pct_cp <= 1.0
            assert row.cp_count == row.factors - 1


def test_unparallelizable_tree_has_unit_speedup():
    scopes = [(0, 1), (1, 2)]
    net, q = small_net(5)
    tree = factoring.build_set_factoring(scopes, B2, 0)
    qc = costmodel.query_costs(tree, DEFAULT_MACHINE)
    assert qc.t_p_query == qc.t_s_query  # below grainsize
    s, _, e = speedup_cost_efficiency(qc.t_s_query, qc.t_p_query, qc.n_u_query)
    assert s == 1.0 and e == 1.0


# -- tree-parallelism columns --------------------------------------------------

def tree_row(tree):
    """The report row of a bare tree, as `simulate` fills it."""
    query = network.QuerySpec(tree.query_var, {})
    return build_report_rows(None, query, {"tree": tree}, DEFAULT_MACHINE)["tree"]


def test_tree_parallelism_left_deep_chain_covers_everything():
    scopes = [(0, 1), (1, 2), (2, 3), (3, 4)]
    tree = factoring.build_chain_baseline(scopes, B2, 0)
    row = tree_row(tree)
    assert row.lp_cp == tree.cp_count
    assert row.lp_pct_cp == 1.0
    assert row.pct_time == pytest.approx(1.0, rel=1e-12)


def test_tree_parallelism_below_grainsize():
    scopes = [(0, 1), (1, 2), (2, 3)]
    tree = factoring.build_set_factoring(scopes, B2, 0)
    qc = costmodel.query_costs(tree, DEFAULT_MACHINE)
    assert all(c.n_u == 1 for c in qc.per_cp)
    row = tree_row(tree)
    lp = costmodel.longest_path(tree, qc)
    assert row.seq_time_best == qc.t_s_query
    assert row.para_cp == 0 and row.pct_cp == 0.0
    assert row.lp_speedup == pytest.approx(qc.t_s_query / lp.seq_time, rel=1e-12)


def test_bare_tree_row_counts_tree_variables():
    tree = factoring.build_chain_baseline([(0, 1), (1, 2), (2, 3)], B2, 0)
    row = tree_row(tree)
    assert (row.nodes, row.arcs, row.obs) == (len(tree.var_cards), 0.0, 0)


# -- rendering -----------------------------------------------------------------

def test_short_sci_format():
    assert short_sci(2.7e8) == "2.7+8"
    assert short_sci(5.41e9) == "5.4+9"
    assert short_sci(0.14) == "1.4-1"
    assert short_sci(0.0) == "0"
    assert short_sci(9.96e8) == "1.0+9"
    assert short_sci(1023.0) == "1.0+3"


def test_table_column_names_match_report_shapes():
    assert [c[0] for c in metrics.RESULTS_TABLE_COLUMNS] == [
        "#", "dm", "md", "dd", "cm-cst", "cp-cst", "cp/cm", "ttl-cst",
        "r-spdp", "a-spdp",
    ]
    assert [c[0] for c in metrics.MEMORY_TABLE_COLUMNS] == [
        "#", "BCA-cm", "Dist-cm", "BCA-mem", "Dist-mem", "memory",
        "mem/Dist-mem",
    ]
    assert [c[0] for c in metrics.TREE_PARALLELISM_COLUMNS] == [
        "net", "para-cp", "%-cp", "lp-cp", "lp-speedup", "lp-%-cp", "%-time",
    ]
    assert [c[0] for c in metrics.NET_TABLE_COLUMNS] == [
        "#", "nodes", "arcs", "obs", "CPs", "seq-time",
    ]


def test_csv_has_full_precision_and_header_comments():
    rows = list(rows_for(7).values())
    text = table_csv(rows, metrics.RESULTS_TABLE_COLUMNS, ["hello world"])
    lines = text.strip().split("\n")
    assert lines[0] == "# hello world"
    assert lines[1].split(",")[0] == "#"
    got = float(lines[2].split(",")[3])  # dd column round-trips exactly
    assert got == rows[0].dd


def test_text_table_alignment_and_rounding():
    rows = list(rows_for(7).values())
    text = table_text(rows, metrics.RESULTS_TABLE_COLUMNS, title="results")
    lines = text.strip().split("\n")
    assert lines[0] == "results"
    header = lines[1].split()
    assert header == ["#", "dm", "md", "dd", "cm-cst", "cp-cst", "cp/cm",
                      "ttl-cst", "r-spdp", "a-spdp"]
    assert len(lines) == 2 + len(rows)


def test_details_csv_contains_every_field():
    rows = list(rows_for(9).values())
    text = metrics.details_csv(rows)
    header = text.strip().split("\n")[0].split(",")
    assert "md_all" in header and "lp_seq_time" in header
    assert len(header) == len(metrics.DETAIL_COLUMNS)
