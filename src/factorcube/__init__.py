"""Exact belief-net inference by factoring, with an analytic simulator for
sequential and hypercube-parallel execution cost of the evaluation trees."""

__version__ = "0.1.0"

from ._kernels import backend
from .costmodel import (
    DEFAULT_MACHINE,
    CpCost,
    MachineParams,
    QueryCost,
    SplitPlan,
    load_machine,
    longest_path,
    memory_accounting,
    parallel_cp_cost,
    plan_split,
    query_costs,
)
from .factoring import (
    CpShape,
    EvalTree,
    TreeStats,
    build_chain_baseline,
    build_set_factoring,
    build_set_factoring_c,
    build_tree,
    evaluate_tree,
    load_tree,
    posterior,
    save_tree,
    scopes_for_query,
    tree_stats,
)
from .factors import (
    Factor,
    brute_force_posterior,
    condition,
    conformal_product,
    cpt_factor,
    marginalize_out,
    normalize,
    query_factors,
)
from .metrics import (
    ReportRow,
    build_report_rows,
    speedup_cost_efficiency,
)
from .network import (
    BeliefNet,
    NetGenParams,
    QuerySpec,
    Variable,
    load_net,
    random_net,
    relevant_factors,
    save_net,
    validate,
)

# imported last: the CLI pulls in everything above
from .cli import ExperimentConfig, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
