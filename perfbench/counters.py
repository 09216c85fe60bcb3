"""Work counters computed from what the traced calls return.

Every count here is derived from the shapes of the trees and factor scopes
the program hands back, by the benchmark's own arithmetic: none is read from
inside factorcube.  They are labelled "computed" in the records.  For a given
set of inputs they repeat exactly, so a change in a layer's seconds can be
set against a change in its work.
"""

import math
from collections import Counter

GREEDY_BUILDERS = ("factoring.build_set-factoring", "factoring.build_set-factoring-c")
BUILDERS = GREEDY_BUILDERS + ("factoring.build_chain",)

BYTES_PER_VALUE = 8  # float64 tables


def pairs_scored(leaves: int) -> int:
    """Pairs a greedy builder scores on `leaves` factors: every pair of the k
    active factors at each step, k = leaves..2, which sums to C(leaves+1, 3)."""
    return math.comb(leaves + 1, 3) if leaves > 1 else 0


def evaluation_work(tree):
    """(products, multiplies, table bytes) of one numeric tree evaluation.

    A product over union variables U multiplies once per assignment of U and
    touches both input tables and its result table."""
    cards = dict(tree.var_cards)
    products = mults = values = 0
    for node in tree.nodes:
        if node.is_leaf:
            continue
        s1 = tree.nodes[node.left].scope
        s2 = tree.nodes[node.right].scope
        union = set(s1) | set(s2)
        products += 1
        mults += math.prod(cards[v] for v in union)
        values += sum(math.prod(cards[v] for v in s) for s in (s1, s2, node.scope))
    return products, mults, values * BYTES_PER_VALUE


class WorkCounter:
    """Collects traced calls' results, then counts their work on `settle`,
    outside every span so the counting is charged to no layer."""

    def __init__(self):
        self.counts = Counter()
        self._pending = []

    def seen(self, name, args, kwargs, result):
        self._pending.append((name, args, kwargs, result))

    def settle(self):
        for name, args, kwargs, result in self._pending:
            if name in BUILDERS:
                self.counts["factoring.products_built"] += result.cp_count
                if name in GREEDY_BUILDERS:
                    self.counts["factoring.pairs_scored"] += pairs_scored(result.leaf_count)
            elif name == "network.random_net":
                self.counts["network.nets"] += 1
            elif name == "factoring.scopes_for_query":
                self.counts["factoring.relevant_factors"] += len(result[2])
            elif name == "metrics.build_report_rows":
                trees = args[2] if len(args) > 2 else kwargs["trees"]
                self.counts["costmodel.products_costed"] += sum(
                    t.cp_count for t in trees.values()
                )
                self.counts["metrics.rows"] += len(result)
            elif name == "factoring.evaluate_tree":
                tree = args[0] if args else kwargs["tree"]
                products, mults, table_bytes = evaluation_work(tree)
                self.counts["factoring.products_evaluated"] += products
                self.counts["kernels.mults"] += mults
                self.counts["kernels.table_bytes"] += table_bytes
        self._pending.clear()
