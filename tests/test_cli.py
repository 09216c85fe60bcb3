import contextlib
import copy
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import small_net
from factorcube import cli, factoring, network
from factorcube.cli import (
    EXIT_CAP, EXIT_INTERNAL, EXIT_OK, EXIT_PARSE, EXIT_USAGE, EXIT_VALIDATION,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_two_node_net(path):
    net = network.BeliefNet(
        (network.Variable(0, "A", 2), network.Variable(1, "B", 2)),
        ((), (0,)),
        (np.array([0.5, 0.5]), np.array([0.9, 0.1, 0.2, 0.8])),
    )
    network.save_net(net, network.QuerySpec(0, {1: 0}), path)


# -- gen -----------------------------------------------------------------------

def test_gen_writes_valid_deterministic_file(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "gen", "--seed", "1", "--nodes", "10..10",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    net, q = network.load_net(a)
    assert network.validate(net) == []
    assert net.node_count == 10


def test_gen_range_errors(capsys):
    code, _, err = run(capsys, "gen", "--nodes", "5..4")
    assert code == EXIT_USAGE
    assert "range" in err
    code, _, err = run(capsys, "gen", "--nodes", "4..4", "--arcs", "3..3")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "gen", "--arcs", "1..inf")
    assert code == EXIT_USAGE
    assert err == "error: arcs range (1.0, inf) must be finite\n"


def test_gen_rejects_malformed_range(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--nodes", "ten..twenty"])
    assert err.value.code == EXIT_USAGE
    capsys.readouterr()


# -- unreadable input files ----------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("query", "{missing}"),
    ("plan", "{missing}"),
    ("simulate", "{missing}"),
    ("validate", "{missing}"),
    ("simulate", "{directory}"),
    ("query", "{net}", "--machine", "{missing}"),
])
def test_unreadable_input_is_usage_error(tmp_path, capsys, argv):
    net = tmp_path / "n.json"
    write_two_node_net(net)
    paths = {"missing": tmp_path / "missing.json", "directory": tmp_path, "net": net}
    argv = [a.format(**paths) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {argv[-1]}: cannot read (")


# -- validate ------------------------------------------------------------------

def test_validate_ok_and_failures(tmp_path, capsys):
    path = tmp_path / "net.json"
    write_two_node_net(path)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and "ok" in out

    obj = json.loads(path.read_text())
    obj["cpts"][0] = [0.3, 0.6]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == EXIT_VALIDATION
    assert "row-sum" in err or "row-sum" in _

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{oops")
    code, _, err = run(capsys, "validate", str(garbage))
    assert code == EXIT_PARSE


@pytest.mark.parametrize("command", ["validate", "query"])
@pytest.mark.parametrize("evidence", [
    pytest.param([[1, 0], [1, 1]], id="conflicting-values"),
    pytest.param([[1, 0], [1, 0]], id="same-value"),
])
def test_repeated_evidence_variable_is_parse_error(tmp_path, capsys, command, evidence):
    path = tmp_path / "net.json"
    write_two_node_net(path)
    obj = json.loads(path.read_text())
    obj["evidence"] = evidence
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, str(path))
    assert code == EXIT_PARSE
    assert out == ""
    assert err == f"error: {path}: evidence[1]: variable 1 is observed twice\n"


# -- query ---------------------------------------------------------------------

@pytest.mark.parametrize("field, value, code", [
    pytest.param("evidence", [[1, 0]], EXIT_OK, id="well-formed"),
    pytest.param("evidence", [[1, 0.9]], EXIT_PARSE, id="fractional-evidence-value"),
    pytest.param("evidence", [[True, 0]], EXIT_PARSE, id="bool-evidence-variable"),
    pytest.param("evidence", [["1", 0]], EXIT_PARSE, id="string-evidence-variable"),
    pytest.param("parents", [[], [0.6]], EXIT_PARSE, id="fractional-parent"),
    pytest.param("parents", [[], [False]], EXIT_PARSE, id="bool-parent"),
    pytest.param("parents", [[], ["0"]], EXIT_PARSE, id="string-parent"),
    pytest.param("query", False, EXIT_PARSE, id="bool-query"),
    pytest.param("variables", [{"id": False, "name": "A", "cardinality": 2},
                               {"id": 1, "name": "B", "cardinality": 2}],
                 EXIT_PARSE, id="bool-variable-id"),
])
def test_query_checks_net_ids(tmp_path, capsys, field, value, code):
    path = tmp_path / "net.json"
    write_two_node_net(path)
    obj = json.loads(path.read_text())
    obj[field] = value
    path.write_text(json.dumps(obj))
    got, out, err = run(capsys, "query", str(path))
    assert got == code
    if code == EXIT_PARSE:
        assert str(path) in err
    else:
        assert "A=0: 0.818182" in out


def test_query_two_node_bayes(tmp_path, capsys):
    path = tmp_path / "net.json"
    write_two_node_net(path)
    code, out, _ = run(capsys, "query", str(path))
    assert code == 0
    assert "A=0: 0.818182" in out


def test_query_impossible_evidence_is_validation_error(tmp_path, capsys):
    # B is observed 1, which it never takes: P(B = 1 | A) = 0 for both A
    net = network.BeliefNet(
        (network.Variable(0, "A", 2), network.Variable(1, "B", 2)),
        ((), (0,)),
        (np.array([0.5, 0.5]), np.array([1.0, 0.0, 1.0, 0.0])),
    )
    path = tmp_path / "net.json"
    network.save_net(net, network.QuerySpec(0, {1: 1}), path)
    code, out, err = run(capsys, "query", str(path))
    assert code == EXIT_VALIDATION
    assert "zero" in err and out == ""


def test_query_impossible_evidence_behind_a_d_separation(tmp_path, capsys):
    # C is observed 1, which it never takes, and only C's parent B links it
    # to the query A: Bayes-ball drops B and C, but the evidence is still
    # impossible
    net = network.BeliefNet(
        (network.Variable(0, "A", 2), network.Variable(1, "B", 2),
         network.Variable(2, "C", 2)),
        ((), (), (1,)),
        (np.array([0.5, 0.5]), np.array([0.4, 0.6]), np.array([1.0, 0.0, 1.0, 0.0])),
    )
    path = tmp_path / "net.json"
    network.save_net(net, network.QuerySpec(0, {2: 1}), path)
    code, out, err = run(capsys, "query", str(path))
    assert code == EXIT_VALIDATION
    assert "zero" in err and out == ""


def test_query_oracle_check_sweep(tmp_path, capsys):
    for i in range(1, 11):
        net, q = network.random_net(
            network.NetGenParams((3, 10), (1.0, 2.0), (0, 2), seed=900 + i)
        )
        path = tmp_path / f"n{i}.json"
        network.save_net(net, q, path)
        code, out, _ = run(capsys, "query", str(path), "--check-oracle")
        assert code == 0
        dev = float(out.strip().split()[-1])
        assert dev < 1e-9


def test_query_oracle_refusal_prints_no_posterior(tmp_path, capsys):
    # the tree evaluates, but the joint has 2**40 entries; the refusal must
    # not follow an answer on stdout
    path = tmp_path / "n.json"
    code, _, _ = run(capsys, "gen", "--seed", "3", "--nodes", "40..40",
                     "--out", str(path))
    assert code == EXIT_OK
    code, out, err = run(capsys, "query", str(path), "--check-oracle")
    assert code == EXIT_CAP
    assert out == ""
    assert err == "error: joint has 1099511627776 entries, above the cap of 16777216\n"
    code, out, _ = run(capsys, "query", str(path))
    assert code == EXIT_OK
    assert out.startswith("P(n38 | 4 observations)\n")


def test_query_prior_for_root_without_evidence(tmp_path, capsys):
    net = network.BeliefNet(
        (network.Variable(0, "A", 2),), ((),), (np.array([0.25, 0.75]),)
    )
    path = tmp_path / "root.json"
    network.save_net(net, network.QuerySpec(0), path)
    code, out, _ = run(capsys, "query", str(path))
    assert "A=0: 0.250000" in out and "A=1: 0.750000" in out


def test_query_dimension_cap_exit_code(tmp_path, capsys):
    net = network.BeliefNet(
        (network.Variable(0, "A", 2), network.Variable(1, "B", 2),
         network.Variable(2, "C", 2)),
        ((), (0,), (1,)),
        (np.array([0.4, 0.6]), np.array([0.9, 0.1, 0.2, 0.8]),
         np.array([0.7, 0.3, 0.5, 0.5])),
    )
    path = tmp_path / "n.json"
    network.save_net(net, network.QuerySpec(2), path)
    code, _, err = run(capsys, "query", str(path), "--max-dim", "1")
    assert code == EXIT_CAP
    assert "cap" in err


@pytest.mark.parametrize("max_dim", ["0", "-1"])
def test_query_rejects_max_dim_below_one(tmp_path, capsys, max_dim):
    path = tmp_path / "n.json"
    write_two_node_net(path)
    with pytest.raises(SystemExit) as err:
        main(["query", str(path), "--max-dim", max_dim])
    assert err.value.code == EXIT_USAGE
    assert "--max-dim must be at least 1" in capsys.readouterr().err


def test_unmapped_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def cmd_query(args):
        raise RuntimeError("lost\ntrack")

    monkeypatch.setattr(cli, "cmd_query", cmd_query)
    path = tmp_path / "n.json"
    write_two_node_net(path)
    code, out, err = run(capsys, "query", str(path))
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "error: internal: RuntimeError: lost track\n"


# -- plan ----------------------------------------------------------------------

def test_plan_single_factor_has_zero_products(tmp_path, capsys):
    net = network.BeliefNet(
        (network.Variable(0, "A", 2),), ((),), (np.array([0.4, 0.6]),)
    )
    path = tmp_path / "n.json"
    network.save_net(net, network.QuerySpec(0), path)
    code, out, _ = run(capsys, "plan", str(path), "--out",
                       str(tmp_path / "t.json"))
    assert code == 0
    assert "cps=0" in out


def test_plan_chain_writes_left_deep_tree(tmp_path, capsys):
    net = network.BeliefNet(
        (network.Variable(0, "A", 2), network.Variable(1, "B", 2),
         network.Variable(2, "C", 2)),
        ((), (0,), (1,)),
        (np.array([0.4, 0.6]), np.array([0.9, 0.1, 0.2, 0.8]),
         np.array([0.7, 0.3, 0.5, 0.5])),
    )
    path = tmp_path / "n.json"
    network.save_net(net, network.QuerySpec(2), path)
    tree_path = tmp_path / "t.json"
    code, _, _ = run(capsys, "plan", str(path), "--heuristic", "chain",
                     "--out", str(tree_path))
    assert code == 0
    tree = factoring.load_tree(tree_path)
    n3, n4 = tree.nodes[3], tree.nodes[4]
    assert (n3.left, n3.right) == (0, 1)
    assert (n4.left, n4.right) == (3, 2)
    factoring.check_tree(tree)


def test_plan_set_factoring_passes_invariants(tmp_path, capsys):
    net, q = network.random_net(
        network.NetGenParams((15, 25), (1.0, 2.5), (1, 4), seed=77)
    )
    path = tmp_path / "n.json"
    network.save_net(net, q, path)
    tree_path = tmp_path / "t.json"
    code, _, _ = run(capsys, "plan", str(path), "--out", str(tree_path))
    assert code == 0
    factoring.check_tree(factoring.load_tree(tree_path))


def test_plan_unknown_heuristic_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["plan", "x.json", "--heuristic", "magic"])
    assert err.value.code == EXIT_USAGE
    capsys.readouterr()


# -- simulate ------------------------------------------------------------------

def read_details(path):
    # metadata comment lines are "# <text>"; the header row may itself
    # start with a "#" column name
    with open(path) as fh:
        rows = [r for r in csv.reader(line for line in fh
                                      if not line.startswith("# "))]
    header, *data = rows
    return [dict(zip(header, r)) for r in data]


def test_simulate_tiny_net_is_sequential(tmp_path, capsys):
    path = tmp_path / "n.json"
    write_two_node_net(path)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "simulate", str(path), "--out", str(out_dir))
    assert code == 0
    assert "r-spdp" in out and "mem/Dist-mem" in out and "%-time" in out
    for rec in read_details(out_dir / "details.csv"):
        assert float(rec["r_spdp"]) == 1.0
        assert float(rec["dd"]) == (
            (int(rec["dm"]) - int(rec["md"])) / int(rec["dm"])
            if int(rec["dm"]) else 0.0
        )


def test_simulate_zero_comm_machine_reaches_processor_bound(tmp_path, capsys):
    machine = tmp_path / "m.json"
    machine.write_text(json.dumps(
        {"c_st": 0, "c_b": 0, "n_a": 2, "g_min": 1}
    ))
    net, q = network.random_net(
        network.NetGenParams((8, 8), (1.2, 1.8), (0, 0), seed=5)
    )
    path = tmp_path / "n.json"
    network.save_net(net, q, path)
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "simulate", str(path), "--machine", str(machine),
                     "--heuristic", "set-factoring", "--out", str(out_dir))
    assert code == 0
    (rec,) = read_details(out_dir / "details.csv")
    # every product result keeps >= 1 variable, so n_u = 2 everywhere
    assert int(rec["n_u_query"]) == 2
    assert float(rec["r_spdp"]) == 2.0
    assert float(rec["efficiency"]) == 1.0


def test_simulate_accepts_tree_files(tmp_path, capsys):
    net, q = network.random_net(
        network.NetGenParams((10, 14), (1.0, 2.0), (1, 2), seed=9)
    )
    npath = tmp_path / "n.json"
    network.save_net(net, q, npath)
    tpath = tmp_path / "t.json"
    run(capsys, "plan", str(npath), "--out", str(tpath))
    code, out, _ = run(capsys, "simulate", str(tpath))
    assert code == 0
    assert "results (tree)" in out


def test_simulate_refuses_heuristic_for_tree_file(tmp_path, capsys):
    net = tmp_path / "net.json"
    write_two_node_net(net)
    tree = tmp_path / "tree.json"
    run(capsys, "plan", str(net), "--out", str(tree))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "simulate", str(tree), "--heuristic", "chain",
                         "--out", str(out_dir))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: --heuristic applies to net files only; {tree} is a tree file\n"
    assert not out_dir.exists()


def test_input_that_is_not_utf8_is_parse_error(tmp_path, capsys):
    path = tmp_path / "noise.json"
    path.write_bytes(np.random.default_rng(0).bytes(100))
    with pytest.raises(UnicodeDecodeError):
        path.read_text(encoding="utf-8")
    code, out, err = run(capsys, "simulate", str(path))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith(f"error: {path}: not valid JSON (")


def test_simulate_rejects_unknown_format(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text('{"format": "mystery"}')
    code, _, err = run(capsys, "simulate", str(path))
    assert code == EXIT_PARSE


def _tree_doc(products, root, scope=(0,), variables=((0, 2), (1, 2)),
              sum_out=(1,), leaves=((0, (0,)), (1, (0, 1)))):
    """Tree file document over leaves, by default factor 0 on (0,) and
    factor 1 on (0, 1) (nodes 0 and 1), query 0; each product is (left,
    right), keeping scope and summing out sum_out."""
    nodes = [{"factor": f, "scope": list(s)} for f, s in leaves]
    nodes += [
        {"left": left, "right": right, "sum_out": list(sum_out), "scope": list(scope)}
        for left, right in products
    ]
    return {
        "format": factoring.TREE_FORMAT, "query_var": 0,
        "vars": [list(vc) for vc in variables], "root": root, "nodes": nodes,
    }


def _tree_file(path, products, root, **fields):
    path.write_text(json.dumps(_tree_doc(products, root, **fields)))


@pytest.mark.parametrize("products, root, code", [
    pytest.param([(0, 1)], 2, EXIT_OK, id="well-formed"),
    pytest.param([(0, 5)], 2, EXIT_PARSE, id="child-out-of-range"),
    pytest.param([(0, -1)], 2, EXIT_PARSE, id="negative-child"),
    pytest.param([(0, 3), (0, 1)], 3, EXIT_PARSE, id="child-after-parent"),
    pytest.param([(2, 1)], 2, EXIT_PARSE, id="own-descendant"),
    pytest.param([(0, 0)], 2, EXIT_PARSE, id="same-child-twice"),
    pytest.param([(0, 1), (0, 2)], 3, EXIT_PARSE, id="shared-child"),
    pytest.param([(0, 1)], 3, EXIT_PARSE, id="root-out-of-range"),
    pytest.param([(0, 1)], 1, EXIT_PARSE, id="root-is-a-child"),
    pytest.param([], 1, EXIT_PARSE, id="unused-leaf"),
    pytest.param([(0, 1)], -1, EXIT_PARSE, id="negative-root"),
    pytest.param([(0, 1)], 2.7, EXIT_PARSE, id="fractional-root"),
    pytest.param([(0, 1.5)], 2, EXIT_PARSE, id="fractional-child"),
    pytest.param([(0, True)], 2, EXIT_PARSE, id="bool-child"),
    pytest.param([(0, "1")], 2, EXIT_PARSE, id="string-child"),
])
def test_simulate_checks_tree_node_indices(tmp_path, capsys, products, root, code):
    path = tmp_path / "t.json"
    _tree_file(path, products, root)
    got, out, err = run(capsys, "simulate", str(path))
    assert got == code
    if code == EXIT_PARSE:
        assert str(path) in err
    else:
        assert "results (tree)" in out


@pytest.mark.parametrize("tree", [
    pytest.param({"variables": ((0, 2),)}, id="undeclared-variable"),
    pytest.param({"scope": (5,), "variables": ((0, 2), (1, 2), (5, 2))},
                 id="scope-outside-children"),
    pytest.param({"scope": (), "sum_out": (0, 1)}, id="query-summed-out"),
    pytest.param({"variables": ((0, 2), (1, 2), (2, 2)), "sum_out": (1, 2)},
                 id="wrong-sum-out"),
    pytest.param({"variables": ((0, 2), (1, 0))}, id="cardinality-zero"),
    pytest.param({"variables": ((0, 2), (1, -2))}, id="negative-cardinality"),
    pytest.param({"variables": ((0, 2), (1, 2), (1, 5))}, id="declared-twice"),
    pytest.param({"leaves": ((0, (0,)), (1, (0, 1, 1)))}, id="repeated-variable"),
    pytest.param({"leaves": ((0, (0,)), (1, (1, 0)))}, id="descending-scope"),
    pytest.param({"products": [], "root": 0, "leaves": ((0, (1,)),)},
                 id="leaf-root-without-query"),
    pytest.param({"leaves": ((-4, (0,)), (1, (0, 1)))}, id="negative-factor"),
])
def test_simulate_checks_tree_variables(tmp_path, capsys, tree):
    path = tmp_path / "t.json"
    _tree_file(path, **{"products": [(0, 1)], "root": 2, **tree})
    code, _, err = run(capsys, "simulate", str(path))
    assert code == EXIT_PARSE
    assert str(path) in err


@pytest.mark.parametrize("text, code", [
    pytest.param('{"n_a": 2.9}', EXIT_USAGE, id="fractional-int"),
    pytest.param('{"g_min": true}', EXIT_USAGE, id="bool-int"),
    pytest.param('{"alpha": "45"}', EXIT_USAGE, id="string-number"),
    pytest.param('{"n_a": 4.0, "alpha": 10}', EXIT_OK, id="integral-numbers"),
    pytest.param('{"n_a": 4', EXIT_PARSE, id="not-json"),
])
def test_simulate_checks_machine_values(tmp_path, capsys, text, code):
    npath = tmp_path / "n.json"
    write_two_node_net(npath)
    machine = tmp_path / "m.json"
    machine.write_text(text)
    got, _, err = run(capsys, "simulate", str(npath), "--machine", str(machine))
    assert got == code
    if code == EXIT_USAGE:
        assert "machine key" in err
    elif code == EXIT_PARSE:
        assert str(machine) in err


@pytest.mark.parametrize("text, key", [
    pytest.param('{"alpha": 1e400}', "alpha", id="overflow-is-inf"),
    pytest.param('{"c_b": Infinity}', "c_b", id="infinity"),
    pytest.param('{"alpha": NaN}', "alpha", id="nan-alpha"),
    pytest.param('{"c_st": NaN}', "c_st", id="nan-c_st"),
])
def test_simulate_rejects_non_finite_machine_times(tmp_path, capsys, text, key):
    npath = tmp_path / "n.json"
    write_two_node_net(npath)
    machine = tmp_path / "m.json"
    machine.write_text(text)
    code, out, err = run(capsys, "simulate", str(npath), "--machine", str(machine))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: machine key {key!r} must be a finite")


def test_simulate_malformed_machine_config(tmp_path, capsys):
    npath = tmp_path / "n.json"
    write_two_node_net(npath)
    machine = tmp_path / "m.json"
    machine.write_text('{"warp": 9}')
    code, _, err = run(capsys, "simulate", str(npath), "--machine", str(machine))
    assert code == EXIT_USAGE
    assert "machine" in err


def test_simulate_rejects_zero_procs(tmp_path, capsys):
    npath = tmp_path / "n.json"
    write_two_node_net(npath)
    code, _, err = run(capsys, "simulate", str(npath), "--procs", "0")
    assert code == EXIT_USAGE
    assert "n_a" in err


def test_simulate_one_leaf_tree_writes_float_columns(tmp_path, capsys):
    # no products: every sum is empty, and t_p = 0 reads r-spdp 1.0
    path = tmp_path / "t.json"
    _tree_file(path, [], 0, variables=((0, 2),), leaves=((0, (0,)),))
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "simulate", str(path), "--out", str(out_dir))
    assert code == EXIT_OK
    (rec,) = read_details(out_dir / "details.csv")
    for column in ("seq_time", "seq_time_best", "cm_cst", "cp_cst", "ttl_cst",
                   "bca_cm", "dist_cm", "lp_seq_time", "lp_par_time"):
        assert rec[column] == "0.0", column
    assert (rec["cp_count"], rec["r_spdp"]) == ("0", "1.0")


def test_simulate_grainsize_changes_costs(tmp_path, capsys):
    # the two-node net's products are below the default grainsize, so
    # they run on one processor unless --grainsize 1 lets them split
    npath = tmp_path / "n.json"
    write_two_node_net(npath)
    costs = []
    for flags in ((), ("--grainsize", "1")):
        out_dir = tmp_path / f"out{len(flags)}"
        code, _, _ = run(capsys, "simulate", str(npath), "--out", str(out_dir), *flags)
        assert code == EXIT_OK
        costs.append([(r["ttl_cst"], r["n_u_query"])
                      for r in read_details(out_dir / "details.csv")])
    assert all(n_u == "1" for _, n_u in costs[0])
    assert all(a != b for a, b in zip(*costs))


# -- exit codes of bad input ---------------------------------------------------

_VARIABLES = [{"id": 0, "name": "A", "cardinality": 2},
              {"id": 1, "name": "B", "cardinality": 2}]


def _net_doc(**fields):
    """The net file document of `write_two_node_net` with fields replaced."""
    doc = {
        "format": network.NET_FORMAT, "variables": _VARIABLES,
        "parents": [[], [0]], "cpts": [[0.5, 0.5], [0.9, 0.1, 0.2, 0.8]],
        "query": 0, "evidence": [[1, 0]],
    }
    return {**doc, **fields}


_ROW_SUM = _net_doc(cpts=[[0.5, 0.5], [0.9, 0.1, 0.2, 0.3]])

# a 401-digit integer, too large for a float
_HUGE = 10 ** 400

# stands for an integer literal of 5,000 digits, above the interpreter's
# 4,300-digit limit for int(); json.dumps cannot write one, so `_dump`
# puts the digits into the file text
_LONG = "<5000 digits>"


class _Object(list):
    """A JSON object as its [key, value] pairs, so a key can repeat."""


def _dump(value) -> str:
    """JSON text of value, as json.dumps writes it, objects given as dicts
    or as `_Object` pairs; the string _LONG is written as a 5,000-digit
    integer."""
    if isinstance(value, (dict, _Object)):
        pairs = value.items() if isinstance(value, dict) else value
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in pairs) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_dump, value)) + "]"
    return "9" * 5000 if value == _LONG else json.dumps(value)


@pytest.mark.parametrize("argv, doc, code, message", [
    pytest.param(("query", "{bad}"), _ROW_SUM, EXIT_VALIDATION,
                 "row-sum: variable 1 CPT row 1 sums to 0.5", id="row-sum-query"),
    pytest.param(("plan", "{bad}"), _ROW_SUM, EXIT_VALIDATION,
                 "row-sum: variable 1 CPT row 1 sums to 0.5", id="row-sum-plan"),
    pytest.param(("simulate", "{bad}"), _ROW_SUM, EXIT_VALIDATION,
                 "row-sum: variable 1 CPT row 1 sums to 0.5", id="row-sum-simulate"),
    pytest.param(("query", "{bad}"), [], EXIT_PARSE,
                 "{bad}: top level must be an object", id="net-top-level-list"),
    pytest.param(("query", "{bad}"), _net_doc(variables=[1, _VARIABLES[1]]), EXIT_PARSE,
                 "{bad}: variables[0] must be an object", id="variable-not-object"),
    pytest.param(("query", "{bad}"), _net_doc(parents=[[]]), EXIT_PARSE,
                 "{bad}: variables, parents, and cpts must have equal length",
                 id="parents-too-short"),
    pytest.param(("query", "{bad}"), _net_doc(parents=[[], 0]), EXIT_PARSE,
                 "{bad}: parents[1] must be a list", id="parents-entry-not-list"),
    pytest.param(("query", "{bad}"), _net_doc(cpts=[["a", 0.5], [0.9, 0.1, 0.2, 0.8]]),
                 EXIT_PARSE, "{bad}: cpts must be flat numeric arrays", id="cpt-string"),
    pytest.param(("query", "{bad}"), _net_doc(cpts=[[_HUGE, 0.5], [0.9, 0.1, 0.2, 0.8]]),
                 EXIT_PARSE, "{bad}: cpts must be flat numeric arrays", id="cpt-huge-int-query"),
    pytest.param(("validate", "{bad}"), _net_doc(cpts=[[_HUGE, 0.5], [0.9, 0.1, 0.2, 0.8]]),
                 EXIT_PARSE, "{bad}: cpts must be flat numeric arrays",
                 id="cpt-huge-int-validate"),
    pytest.param(("validate", "{bad}"), _net_doc(cpts=[[_LONG, 0.5], [0.9, 0.1, 0.2, 0.8]]),
                 EXIT_PARSE, "{bad}: not valid JSON (Exceeds the limit (4300 digits)",
                 id="cpt-5000-digits"),
    pytest.param(("validate", "{bad}"), "[" * 100_000, EXIT_PARSE,
                 "{bad}: not valid JSON (maximum recursion depth exceeded",
                 id="nesting-too-deep"),
    pytest.param(("query", "{bad}"), _net_doc(evidence=[[1]]), EXIT_PARSE,
                 "{bad}: evidence[0] must be a [var, value] pair", id="evidence-not-pair"),
    pytest.param(("query", "{bad}"),
                 _net_doc(variables=[_VARIABLES[0], {**_VARIABLES[1], "name": 5}]),
                 EXIT_PARSE, "{bad}: variables[1]: field 'name' has wrong type",
                 id="name-not-string"),
    pytest.param(("query", "{bad}"),
                 _net_doc(variables=[_VARIABLES[0], {**_VARIABLES[1], "id": 7}]),
                 EXIT_VALIDATION, "id-dense: variable at slot 1 has id 7", id="ids-not-dense"),
    pytest.param(("query", "{bad}"),
                 _net_doc(variables=[_VARIABLES[0], {**_VARIABLES[1], "id": 0}]),
                 EXIT_VALIDATION, "id-duplicate: duplicate id 0", id="id-repeated"),
    pytest.param(("query", "{bad}"), _net_doc(cpts=[[-0.5, 1.5], [0.9, 0.1, 0.2, 0.8]]),
                 EXIT_VALIDATION, "prob-range: variable 0 has a negative or non-finite entry",
                 id="cpt-negative"),
    pytest.param(("query", "{bad}"),
                 _net_doc(cpts=[[float("nan"), 0.5], [0.9, 0.1, 0.2, 0.8]]),
                 EXIT_VALIDATION, "prob-range: variable 0 has a negative or non-finite entry",
                 id="cpt-nan"),
    pytest.param(("query", "{bad}"), _net_doc(evidence=[[999, 0]]), EXIT_VALIDATION,
                 "evidence-unknown: evidence on unknown 999", id="evidence-unknown"),
    pytest.param(("simulate", "{good}", "--machine", "{bad}"), [], EXIT_USAGE,
                 "{bad}: machine config must be an object", id="machine-list"),
    pytest.param(("simulate", "{good}", "--machine", "{bad}"), {"g_min": -1}, EXIT_USAGE,
                 "g_min must be non-negative", id="machine-negative-grainsize"),
    pytest.param(("simulate", "{good}", "--machine", "{bad}"), {"alpha": _HUGE}, EXIT_USAGE,
                 "machine key 'alpha' must be a finite non-negative time",
                 id="machine-huge-int-time"),
    pytest.param(("simulate", "{good}", "--machine", "{bad}"), {"alpha": _LONG}, EXIT_PARSE,
                 "{bad}: not valid JSON (Exceeds the limit (4300 digits)",
                 id="machine-5000-digits"),
    pytest.param(("gen", "--out", "{bad}/n.json"), [], EXIT_USAGE,
                 "{bad}/n.json: cannot write (Not a directory)", id="gen-out-unwritable"),
    pytest.param(("plan", "{good}", "--out", "{bad}/t.json"), [], EXIT_USAGE,
                 "{bad}/t.json: cannot write (Not a directory)", id="plan-out-unwritable"),
    pytest.param(("simulate", "{good}", "--out", "{bad}/x"), [], EXIT_USAGE,
                 "{bad}/x: cannot write (Not a directory)", id="simulate-out-unwritable"),
    pytest.param(("experiment", "--count", "1", "--out", "{bad}"), [], EXIT_USAGE,
                 "{bad}: cannot write (File exists)", id="experiment-out-unwritable"),
    pytest.param(("experiment", "--count", "1", "--seed", "3", "--out", "{old}"), [],
                 EXIT_USAGE, "{old}/errors.csv: cannot remove (Is a directory)",
                 id="experiment-errors-csv-a-directory"),
    pytest.param(("simulate", "{bad}"), _tree_doc([], 0, leaves=()), EXIT_PARSE,
                 "{bad}: not a valid evaluation tree (the tree has no nodes)",
                 id="tree-no-nodes"),
    pytest.param(("simulate", "{bad}"),
                 _tree_doc([(0, 1)], 2, leaves=((0, (0,)), (0, (0, 1)))), EXIT_PARSE,
                 "{bad}: not a valid evaluation tree (factor 0 is in more than one leaf)",
                 id="tree-factor-twice"),
    pytest.param(("simulate", "{bad}"),
                 _tree_doc([(0, 1), (3, 2)], 4,
                           leaves=((0, (0, 1)), (1, (1,)), (2, (0, 1)))),
                 EXIT_PARSE, "{bad}: not a valid evaluation tree (variable 1 is summed out twice)",
                 id="tree-summed-out-twice"),
    pytest.param(("simulate", "{bad}"), _tree_doc([(0, 1)], 2, scope=(0, 1), sum_out=()),
                 EXIT_PARSE, "{bad}: not a valid evaluation tree (root scope (0, 1) != query",
                 id="tree-root-keeps-non-query"),
])
def test_bad_input_exits_with_its_code(tmp_path, capsys, argv, doc, code, message):
    paths = {"good": tmp_path / "good.json", "bad": tmp_path / "bad.json",
             "old": tmp_path / "old"}
    write_two_node_net(paths["good"])
    # an output directory whose stale errors.csv cannot be removed
    (paths["old"] / "errors.csv").mkdir(parents=True)
    # a string is the file text itself
    paths["bad"].write_text(doc if isinstance(doc, str) else _dump(doc))
    got, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert got == code
    assert out == ""
    assert all(line.startswith("error: ") for line in err.splitlines())
    assert f"error: {message.format(**paths)}" in err
    assert "Traceback" not in err


def test_validate_prints_row_sum_as_float(tmp_path, capsys):
    path = tmp_path / "n.json"
    path.write_text(json.dumps(_ROW_SUM))
    code, out, err = run(capsys, "validate", str(path))
    assert code == EXIT_VALIDATION
    assert (out, err) == ("row-sum: variable 1 CPT row 1 sums to 0.5\n", "")


def test_gen_and_plan_write_to_stdout(tmp_path, capsys):
    code, out, err = run(capsys, "gen", "--seed", "3", "--nodes", "8..8")
    assert (code, err) == (EXIT_OK, "")
    net = tmp_path / "n.json"
    net.write_text(out)
    assert run(capsys, "validate", str(net))[:2] == (EXIT_OK, "ok\n")
    code, out, err = run(capsys, "plan", str(net))
    assert code == EXIT_OK
    assert err.startswith("heuristic=set-factoring factors=")
    tree = tmp_path / "t.json"
    tree.write_text(out)
    code, out, _ = run(capsys, "simulate", str(tree))
    assert code == EXIT_OK
    assert "results (tree)" in out


# -- fuzzed net files ------------------------------------------------------------

def _slots(value, out):
    """Append every (container, index) of value to out, outer first."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            out.append((value, i))
            _slots(item[1] if isinstance(value, _Object) else item, out)
    return out


# a value of every JSON type, huge and negative integers, NaN and infinities
_FUZZ_VALUES = (
    None, True, "x", 0, -1, 0.5, -2.5, 2 ** 64, -(2 ** 63), _HUGE, _LONG,
    float("nan"), float("inf"), float("-inf"), [], [0.5, 0.5], _Object(),
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A directory to write into and the text of four small generated nets."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = []
    for index in range(1, 5):
        path = root / f"net{index}.json"
        network.save_net(*small_net(index), path)
        texts.append(path.read_text())
    return root, texts


@settings(max_examples=250, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_net_files_exit_with_an_input_code(fuzz_files, data):
    # a mutated valid net file: keys dropped or duplicated, values swapped for
    # another type, a huge or negative integer, NaN or an infinity; then the
    # text perhaps truncated or a byte flipped.  Every command answers with an
    # input's exit code, never 1, and prints no traceback.
    root, texts = fuzz_files
    doc = json.loads(data.draw(st.sampled_from(texts)),
                     object_pairs_hook=lambda pairs: _Object(map(list, pairs)))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        container, i = data.draw(st.sampled_from(slots))
        kind = data.draw(st.sampled_from(("drop", "duplicate", "replace")))
        if kind == "drop":
            del container[i]
        elif kind == "duplicate":
            container.insert(i, copy.deepcopy(container[i]))
        else:
            value = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_VALUES)))
            if isinstance(container, _Object):
                container[i][1] = value
            else:
                container[i] = value
    raw = bytearray(_dump(doc).encode())
    edit = data.draw(st.sampled_from(("none", "none", "truncate", "flip")))
    if edit == "truncate":
        del raw[data.draw(st.integers(0, len(raw) - 1)):]
    elif edit == "flip":
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    path = root / "mutated.json"
    path.write_bytes(raw)
    for command in ("validate", "query", "plan", "simulate"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_VALIDATION, EXIT_CAP), (
            command, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()


# -- experiment ------------------------------------------------------------------

EXPERIMENT_FILES = [
    "nets_table.csv", "nets_table.txt",
    "results_set_factoring.csv", "results_set_factoring_c.csv",
    "results_chain.csv", "memory_comparison.csv",
    "tree_parallelism.csv", "details.csv", "metadata.json",
]


def test_experiment_writes_all_tables(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run(capsys, "experiment", "--count", "8", "--seed", "7",
                     "--out", str(out))
    assert code == 0
    for name in EXPERIMENT_FILES:
        assert (out / name).exists(), name
    table1 = (out / "nets_table.csv").read_text().strip().split("\n")
    assert len([l for l in table1 if not l.startswith("# ")]) == 1 + 8
    details = read_details(out / "details.csv")
    assert len(details) == 8 * 3
    for rec in details:
        dd = float(rec["dd"])
        assert 0.0 <= dd < 1.0
        assert float(rec["efficiency"]) <= 1.0 + 1e-12
        assert float(rec["pct_time"]) <= 1.0 + 1e-12
        # default machine has zero fixed overheads, so total = work + comm
        assert float(rec["ttl_cst"]) == pytest.approx(
            float(rec["cm_cst"]) + float(rec["cp_cst"]), rel=1e-12
        )
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["memory_tables_heuristic"] == "set-factoring-c"
    assert meta["net_count"] == 8


def test_experiment_single_net(tmp_path, capsys):
    out = tmp_path / "one"
    code, _, _ = run(capsys, "experiment", "--count", "1", "--seed", "3",
                     "--nodes", "10..14", "--out", str(out))
    assert code == 0
    assert len(read_details(out / "details.csv")) == 3


def test_experiment_reruns_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(capsys, "experiment", "--count", "5", "--seed", "11",
                         "--nodes", "10..40", "--out", str(out))
        assert code == 0
    for name in EXPERIMENT_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_experiment_records_partial_failures_and_continues(tmp_path, capsys):
    # an arcs average of 2.6 is infeasible for 4-node draws (at most
    # 6 arcs exist) but fine for larger ones, so some nets fail
    out = tmp_path / "partial"
    code, stdout, _ = run(capsys, "experiment", "--count", "12", "--seed", "2",
                          "--nodes", "4..30", "--arcs", "2.6..2.6",
                          "--out", str(out))
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["failures"] > 0
    assert meta["net_count"] + meta["failures"] == 12
    errors = (out / "errors.csv").read_text().strip().split("\n")
    assert len(errors) == 1 + meta["failures"]
    assert "infeasible" in errors[1]
    assert meta["net_count"] > 0  # the run kept going


def test_experiment_without_failures_removes_earlier_errors(tmp_path, capsys):
    # a 2-node draw cannot average 3 arcs per node, so net 3 of the first
    # run fails; the second run into the same directory fails on none
    out = tmp_path / "run"
    code, _, _ = run(capsys, "experiment", "--count", "6", "--nodes", "2..40",
                     "--arcs", "3..4", "--obs", "0..1", "--seed", "3",
                     "--out", str(out))
    assert code == 0
    assert "GenerationError" in (out / "errors.csv").read_text()
    code, _, _ = run(capsys, "experiment", "--count", "3", "--seed", "3",
                     "--out", str(out))
    assert code == 0
    assert json.loads((out / "metadata.json").read_text())["failures"] == 0
    assert not (out / "errors.csv").exists()


def test_experiment_with_every_net_failing_writes_header_only_tables(tmp_path, capsys):
    # a 2..7-node draw cannot average 3 arcs per node, so the second run
    # into the same directory fails on its only net
    out = tmp_path / "run"
    code, _, _ = run(capsys, "experiment", "--count", "2", "--seed", "5",
                     "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "experiment", "--count", "1", "--nodes", "2..7",
                          "--arcs", "3..3", "--seed", "1", "--out", str(out))
    assert code == 0
    assert stdout.startswith("0 nets simulated, 1 failures")
    for name in EXPERIMENT_FILES:
        assert (out / name).exists(), name
    table1 = (out / "nets_table.csv").read_text().strip().split("\n")
    assert table1[1].startswith("# config count=1 seed=1 ")
    assert len([l for l in table1 if not l.startswith("# ")]) == 1
    assert read_details(out / "details.csv") == []
    assert json.loads((out / "metadata.json").read_text())["net_count"] == 0


@pytest.mark.parametrize("flags, message", [
    pytest.param(("--nodes", "5..4"), "empty range", id="empty-range"),
    pytest.param(("--arcs", "1..inf"), "must be finite", id="infinite-arcs"),
    pytest.param(("--obs=-1..2",), "non-negative", id="negative-obs"),
])
def test_experiment_rejects_ranges_before_any_net(tmp_path, capsys, monkeypatch,
                                                  flags, message):
    def random_net(params):
        raise AssertionError("a net was generated")

    monkeypatch.setattr(network, "random_net", random_net)
    out = tmp_path / "run"
    code, stdout, err = run(capsys, "experiment", "--count", "2", *flags,
                            "--out", str(out))
    assert code == EXIT_USAGE
    assert stdout == ""
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["experiment", "simulate"])
def test_repeated_heuristic_is_usage_error(tmp_path, capsys, command):
    net = tmp_path / "net.json"
    write_two_node_net(net)
    out_dir = tmp_path / "out"
    argv = ["experiment", "--count", "2"] if command == "experiment" else ["simulate", str(net)]
    code, out, err = run(capsys, *argv, "--heuristic", "chain", "--heuristic", "chain",
                         "--out", str(out_dir))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: heuristic listed more than once: chain\n"
    assert not out_dir.exists()


def test_experiment_count_validation(capsys):
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--count", "0", "--out", "x"])
    assert err.value.code == EXIT_USAGE
    capsys.readouterr()


def test_experiment_config_validation():
    from factorcube import ExperimentConfig

    with pytest.raises(ValueError):
        ExperimentConfig(count=0)
    with pytest.raises(ValueError):
        ExperimentConfig(heuristics=())
    with pytest.raises(ValueError):
        ExperimentConfig(heuristics=("alphabetical",))
    with pytest.raises(ValueError, match="more than once: chain"):
        ExperimentConfig(heuristics=("chain", "set-factoring", "chain"))
    with pytest.raises(network.GenerationError):
        ExperimentConfig(node_count_range=(5, 4))
    with pytest.raises(network.GenerationError):
        ExperimentConfig(avg_arcs_range=(1.0, float("inf")))


def test_run_experiment_library_entry(tmp_path):
    from factorcube import ExperimentConfig, run_experiment

    config = ExperimentConfig(
        count=3, node_count_range=(10, 20), master_seed=5,
        heuristics=("set-factoring",),
    )
    meta = run_experiment(config, tmp_path / "lib")
    assert meta["net_count"] == 3
    assert (tmp_path / "lib" / "results_set_factoring.csv").exists()
    assert not (tmp_path / "lib" / "errors.csv").exists()
