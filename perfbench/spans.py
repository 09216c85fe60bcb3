"""In-memory spans around calls into factorcube's public functions.

Tracing is installed from outside the program: `install` replaces module
attributes with wrappers, so every call made through the module (including
calls one factorcube module makes into another) opens a span.  Nothing under
src/ knows about it.  Spans are kept in memory as (name, start, end, parent)
and summarised or written out when the run ends.
"""

import functools
import json
import time
from contextlib import contextmanager

from factorcube import _kernels, cli, costmodel, factoring, factors, metrics, network

# (module, attribute, span name).  Span names are the layer names the
# per-layer metrics use; the three builders are named after their heuristic.
TARGETS = (
    (cli, "run_experiment", "cli.run_experiment"),
    (network, "random_net", "network.random_net"),
    (factoring, "scopes_for_query", "factoring.scopes_for_query"),
    (factoring, "build_set_factoring", "factoring.build_set-factoring"),
    (factoring, "build_set_factoring_c", "factoring.build_set-factoring-c"),
    (factoring, "build_chain_baseline", "factoring.build_chain"),
    (factoring, "tree_stats", "factoring.tree_stats"),
    (factoring, "posterior", "factoring.posterior"),
    (factoring, "evaluate_tree", "factoring.evaluate_tree"),
    (factors, "query_factors", "factors.query_factors"),
    (costmodel, "query_costs", "costmodel.query_costs"),
    (costmodel, "longest_path", "costmodel.longest_path"),
    (costmodel, "memory_accounting", "costmodel.memory_accounting"),
    (metrics, "build_report_rows", "metrics.build_report_rows"),
    (metrics, "table_csv", "metrics.render"),
    (metrics, "table_text", "metrics.render"),
    (metrics, "details_csv", "metrics.render"),
    (_kernels, "product_sum", "kernels.product_sum"),
)


class Tracer:
    """Nested spans on one thread.  `spans[i]` is [name, start, end, parent]
    with parent the index of the enclosing span, or None for a root."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, self.clock(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield index
        finally:
            record[2] = self.clock()
            self._open.pop()

    def wrap(self, name, fn, seen=None):
        """`fn` inside a span; `seen(name, args, kwargs, result)` is called
        after the span closes, so what it does is charged to the caller."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if seen is not None:
                seen(name, args, kwargs, result)
            return result

        return traced

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def summary(self, root=None):
        """{name: {"calls", "total_s", "self_s"}} over every recorded span, or
        only over those inside root spans named `root`."""
        roots = []
        for name, _, _, parent in self.spans:
            roots.append(name if parent is None else roots[parent])
        out = {}
        for (name, start, end, _), own, top in zip(self.spans, self.self_times(), roots):
            if root is not None and top != root:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
                fh,
            )
            fh.write("\n")


def install(tracer, seen=None):
    """Wrap every target; returns a function that restores the originals."""
    originals = []
    for module, attr, name in TARGETS:
        fn = getattr(module, attr)
        originals.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(name, fn, seen))

    def restore():
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)

    return restore
