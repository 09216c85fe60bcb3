"""Report rows and table rendering for cost-simulation runs.

One ReportRow summarizes one (net, heuristic) pair: dimension figures,
communication/computation costs, speedups, memory estimates, and the
tree-parallelism columns.  Tables are emitted twice from the same rows:
CSV with full-precision values and aligned text with display rounding
(two-significant-figure scientific for costs, short decimals for ratios).
"""

import math
from dataclasses import dataclass

from . import costmodel, factoring


@dataclass(frozen=True)
class ReportRow:
    net_index: int
    heuristic: str
    nodes: int
    arcs: float
    obs: int
    factors: int
    cp_count: int
    seq_time: float
    seq_time_best: float
    dm: int
    md: int
    md_all: int
    dd: float
    cm_cst: float
    cp_cst: float
    cp_over_cm: float | None
    ttl_cst: float
    r_spdp: float
    a_spdp: float
    n_u_query: int
    efficiency: float
    bca_cm: float
    dist_cm: float
    bca_mem: float
    memory: float          # BCA bytes with the final product ignored
    dist_mem: float
    mem_ratio: float | None  # dist_mem / memory
    para_cp: int
    pct_cp: float
    lp_cp: int
    lp_seq_time: float
    lp_par_time: float
    lp_speedup: float
    lp_pct_cp: float
    pct_time: float


def speedup_cost_efficiency(t_s: float, t_p: float, n_u: int):
    """(speedup, cost, efficiency) = (t_s/t_p, t_p*n_u, speedup/n_u)."""
    if t_p <= 0:
        raise ValueError("parallel time must be positive")
    if n_u < 1:
        raise ValueError("processor count must be at least 1")
    speedup = t_s / t_p
    return speedup, t_p * n_u, speedup / n_u


def build_report_rows(
    net, query, trees: dict[str, "factoring.EvalTree"], machine, net_index: int = 1
) -> dict[str, ReportRow]:
    """One row per heuristic; absolute speedup is taken against the best
    sequential time among the supplied trees.  Every figure comes from one
    `query_costs` pass per tree.  With net and query None (a bare tree
    file), nodes counts the tree's variables, and arcs and obs read 0."""
    if not trees:
        raise ValueError("at least one heuristic's tree is required")
    costs = {h: costmodel.query_costs(t, machine) for h, t in trees.items()}
    seq_time_best = min(qc.t_s_query for qc in costs.values())
    rows = {}
    for heuristic, tree in trees.items():
        qc = costs[heuristic]
        stats = qc.stats
        lp = costmodel.longest_path(tree, qc)
        bca_mem, memory, dist_mem = costmodel.memory_accounting(qc)
        # dist-net: the result is gathered and rebroadcast, no inputs sent
        dist_cm = sum((2.0 * c.c_r for c in qc.per_cp), 0.0)
        t_s = qc.t_s_query
        t_p = qc.t_p_query
        if t_p > 0:
            r_spdp, _, efficiency = speedup_cost_efficiency(t_s, t_p, qc.n_u_query)
        else:
            r_spdp, efficiency = 1.0, 1.0 / qc.n_u_query
        a_spdp = seq_time_best / t_p if t_p > 0 else 1.0
        cp_count = len(stats.shapes)
        para_cp = sum(1 for c in qc.per_cp if c.n_u > 1)
        lp_speedup = seq_time_best / lp.par_time if lp.par_time > 0 else 1.0
        rows[heuristic] = ReportRow(
            net_index=net_index,
            heuristic=heuristic,
            nodes=len(tree.var_cards) if net is None else net.node_count,
            arcs=0.0 if net is None else net.avg_in_arcs(),
            obs=0 if query is None else len(query.evidence),
            factors=len(tree.nodes) - cp_count,
            cp_count=cp_count,
            seq_time=t_s,
            seq_time_best=seq_time_best,
            dm=stats.dm,
            md=stats.md,
            md_all=stats.md_all,
            dd=stats.dd,
            cm_cst=qc.cm_total,
            cp_cst=qc.cp_total,
            cp_over_cm=(qc.cp_total / qc.cm_total) if qc.cm_total > 0 else None,
            ttl_cst=t_p,
            r_spdp=r_spdp,
            a_spdp=a_spdp,
            n_u_query=qc.n_u_query,
            efficiency=efficiency,
            bca_cm=qc.cm_total,
            dist_cm=dist_cm,
            bca_mem=bca_mem,
            memory=memory,
            dist_mem=dist_mem,
            mem_ratio=(dist_mem / memory) if memory > 0 else None,
            para_cp=para_cp,
            pct_cp=para_cp / cp_count if cp_count else 0.0,
            lp_cp=len(lp.node_ids),
            lp_seq_time=lp.seq_time,
            lp_par_time=lp.par_time,
            lp_speedup=lp_speedup,
            lp_pct_cp=len(lp.node_ids) / cp_count if cp_count else 0.0,
            pct_time=lp.par_time / t_p if t_p > 0 else 1.0,
        )
    return rows


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def short_sci(x: float) -> str:
    """Two-significant-figure scientific shorthand: 2.7e8 -> '2.7+8'."""
    if x == 0:
        return "0"
    exp = math.floor(math.log10(abs(x)))
    mant = x / 10.0 ** exp
    if abs(round(mant, 1)) >= 10.0:
        mant /= 10.0
        exp += 1
    return f"{mant:.1f}{'+' if exp >= 0 else '-'}{abs(exp)}"


def _fmt_ratio(x):
    return f"{x:.2f}"


def _fmt_tenths(x):
    return f"{x:.1f}"


def _fmt_int(x):
    return str(int(x))


# Each table shape: (column name, row attribute, text formatter).
NET_TABLE_COLUMNS = (
    ("#", "net_index", _fmt_int),
    ("nodes", "nodes", _fmt_int),
    ("arcs", "arcs", _fmt_tenths),
    ("obs", "obs", _fmt_int),
    ("CPs", "cp_count", _fmt_int),
    ("seq-time", "seq_time_best", short_sci),
)

RESULTS_TABLE_COLUMNS = (
    ("#", "net_index", _fmt_int),
    ("dm", "dm", _fmt_int),
    ("md", "md", _fmt_int),
    ("dd", "dd", _fmt_ratio),
    ("cm-cst", "cm_cst", short_sci),
    ("cp-cst", "cp_cst", short_sci),
    ("cp/cm", "cp_over_cm", _fmt_ratio),
    ("ttl-cst", "ttl_cst", short_sci),
    ("r-spdp", "r_spdp", _fmt_tenths),
    ("a-spdp", "a_spdp", _fmt_tenths),
)

MEMORY_TABLE_COLUMNS = (
    ("#", "net_index", _fmt_int),
    ("BCA-cm", "bca_cm", short_sci),
    ("Dist-cm", "dist_cm", short_sci),
    ("BCA-mem", "bca_mem", short_sci),
    ("Dist-mem", "dist_mem", short_sci),
    ("memory", "memory", short_sci),
    ("mem/Dist-mem", "mem_ratio", lambda x: f"{x:.0f}"),
)

TREE_PARALLELISM_COLUMNS = (
    ("net", "net_index", _fmt_int),
    ("para-cp", "para_cp", _fmt_int),
    ("%-cp", "pct_cp", _fmt_ratio),
    ("lp-cp", "lp_cp", _fmt_int),
    ("lp-speedup", "lp_speedup", _fmt_tenths),
    ("lp-%-cp", "lp_pct_cp", _fmt_ratio),
    ("%-time", "pct_time", lambda x: f"{x:.3f}"),
)

DETAIL_COLUMNS = tuple(ReportRow.__dataclass_fields__)


def _cell(value) -> str:
    if value is None:
        return ""
    return str(value)


def table_csv(rows, columns, header_lines=()) -> str:
    """Comma-separated table with full-precision values."""
    out = [f"# {line}" for line in header_lines]
    out.append(",".join(name for name, _, _ in columns))
    for row in rows:
        out.append(",".join(_cell(getattr(row, attr)) for _, attr, _ in columns))
    return "\n".join(out) + "\n"


def table_text(rows, columns, title: str) -> str:
    """Aligned text table with display rounding."""
    header = [name for name, _, _ in columns]
    body = [
        [fmt(getattr(row, attr)) if getattr(row, attr) is not None else "-"
         for _, attr, fmt in columns]
        for row in rows
    ]
    widths = [
        max(len(header[c]), *(len(r[c]) for r in body)) if body else len(header[c])
        for c in range(len(header))
    ]
    lines = [title, "  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in body:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def details_csv(rows, header_lines=()) -> str:
    columns = tuple((name, name, str) for name in DETAIL_COLUMNS)
    return table_csv(rows, columns, header_lines)
