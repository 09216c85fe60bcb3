"""Exact belief-net inference by factoring, with an analytic simulator for
sequential and hypercube-parallel execution cost of the evaluation trees."""

__version__ = "0.1.0"

from ._kernels import backend
from .costmodel import DEFAULT_MACHINE, query_costs
from .factoring import build_tree, posterior, scopes_for_query
from .factors import brute_force_posterior
from .metrics import build_report_rows
from .network import NetGenParams, random_net

__all__ = [
    "__version__",
    "NetGenParams",
    "random_net",
    "scopes_for_query",
    "build_tree",
    "query_costs",
    "build_report_rows",
    "DEFAULT_MACHINE",
    "posterior",
    "brute_force_posterior",
    "ExperimentConfig",
    "run_experiment",
    "backend",
]


def __getattr__(name):
    # The CLI imports every other module; importing it here at package load
    # would also make `python -m factorcube.cli` find it already imported.
    if name in ("ExperimentConfig", "run_experiment"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
