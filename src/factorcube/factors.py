"""Dense discrete factor algebra.

A factor is a non-negative table over an ordered set of discrete variables.
Variables are kept sorted by id and the table is an ndarray with one axis
per variable, in that order, so a factor's cardinalities are its table's
shape.  The table may be any strided view (a transposed CPT, a slice of
one): every operation reads it through numpy's axis-aware calls and never
copies it into a fixed layout.  All operations return new factors; tables
are read-only.

`brute_force_posterior` is a deliberately naive full-joint enumerator kept
free of the factor operations above so it can serve as an independent
cross-check for any tree-structured evaluation.
"""

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import network

DEFAULT_JOINT_CAP = 2 ** 24


class InconsistentEvidenceError(ValueError):
    """A distribution has zero total mass, i.e. the evidence is impossible."""


class DimensionCapError(RuntimeError):
    """A table would exceed the configured size cap."""


@dataclass(slots=True, eq=False)
class Factor:
    """Dense table over `vars` (ascending ids), one axis per variable.

    A slotted record, not frozen, since a frozen dataclass pays for every
    field it sets in `__init__`; the table is a read-only view, and no
    code reassigns a factor's fields."""

    vars: tuple[int, ...]
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not all(map(operator.lt, self.vars, self.vars[1:])):
            raise ValueError(f"vars must be strictly ascending: {self.vars}")
        # a view, so that making it read-only leaves the caller's array writeable
        table = np.asarray(self.table, dtype=np.float64).view()
        if table.ndim != len(self.vars):
            raise ValueError(
                f"table has {table.ndim} axes, expected one per variable "
                f"of {self.vars}"
            )
        if 0 in table.shape:
            raise ValueError(f"cardinalities must be >= 1: {table.shape}")
        # positional: numpy parses setflags' keywords slowly (0.4 us a call)
        table.setflags(False)
        self.table = table

    @property
    def cards(self) -> tuple[int, ...]:
        return self.table.shape


def marginalize_out(f: Factor, drop) -> Factor:
    """Sum `drop` out of f.  Dropping every variable leaves the total mass."""
    drop = frozenset(drop)
    extra = drop - set(f.vars)
    if extra:
        raise ValueError(f"cannot sum out variables not in factor: {sorted(extra)}")
    if not drop:
        return f
    return Factor(
        tuple(v for v in f.vars if v not in drop),
        f.table.sum(axis=tuple(i for i, v in enumerate(f.vars) if v in drop)),
    )


def normalize(f: Factor) -> Factor:
    """Scale f to unit mass."""
    total = f.table.sum()
    if total <= 0.0:
        raise InconsistentEvidenceError("factor has zero total mass")
    return Factor(f.vars, f.table / total)


def query_factors(net, query, ids=None) -> list[Factor]:
    """CPT factors reduced at the evidence, one per id in `ids` (ascending;
    by default the ancestral closure, `network.relevant_factors`), in that
    order.

    Net CPTs are stored with parent assignments as rows (parents in the
    net's stored order, last parent fastest) and the child value fastest
    within a row.  Each factor is a view of its CPT with one axis per
    variable, indexed at the observed values of the variables it holds,
    its remaining axes transposed into ascending id order; so its scope
    holds only unobserved ids.  ValueError if an observed value is out of
    range for its variable.
    """
    if ids is None:
        ids = sorted(network.relevant_factors(net, query))
    evidence = query.evidence
    variables = net.variables
    out = []
    for v in ids:
        # one pass over the CPT's axes: parents in stored order, child last
        cards, index, kept = [], [], []
        for w in (*net.parents[v], v):
            card = variables[w].cardinality
            cards.append(card)
            value = evidence.get(w)
            if value is None:
                index.append(slice(None))
                kept.append(w)
            elif 0 <= value < card:
                index.append(value)
            else:
                raise ValueError(
                    f"evidence value {value} out of range for "
                    f"variable {w} (cardinality {card})"
                )
        order = sorted(range(len(kept)), key=kept.__getitem__)
        # the Ellipsis keeps a fully observed CPT a 0-d view, not a copy
        table = net.cpts[v].reshape(cards)[(*index, ...)]
        out.append(Factor(tuple(sorted(kept)), table.transpose(order)))
    return out


def _cpt_row_prob(net, var: int, assignment) -> float:
    row = 0
    for p in net.parents[var]:
        row = row * net.variables[p].cardinality + assignment[p]
    card = net.variables[var].cardinality
    return net.cpts[var][row * card + assignment[var]]


def brute_force_posterior(net, query) -> Factor:
    """P(query var | evidence) by enumerating the full joint.

    Walks every complete assignment consistent with the evidence,
    multiplying raw CPT entries, and bins the mass by query value.
    O(n * prod(cards)) for n variables, exponential in n, and deliberately
    independent of the factor algebra.
    DimensionCapError if the joint has more than DEFAULT_JOINT_CAP entries.
    """
    cards = [v.cardinality for v in net.variables]
    joint = math.prod(cards)
    if joint > DEFAULT_JOINT_CAP:
        raise DimensionCapError(
            f"joint has {joint} entries, above the cap of {DEFAULT_JOINT_CAP}"
        )
    qcard = cards[query.query_var]
    ranges = [
        (range(ev, ev + 1) if (ev := query.evidence.get(v)) is not None else range(c))
        for v, c in enumerate(cards)
    ]
    mass = [0.0] * qcard
    n = len(cards)
    for assignment in itertools.product(*ranges):
        p = 1.0
        for v in range(n):
            p *= _cpt_row_prob(net, v, assignment)
        mass[assignment[query.query_var]] += p
    total = sum(mass)
    if total <= 0.0:
        raise InconsistentEvidenceError("evidence has zero probability")
    return Factor((query.query_var,), np.array(mass, dtype=np.float64) / total)
