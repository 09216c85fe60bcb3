"""Dense discrete factor algebra.

A factor is a non-negative table over an ordered set of discrete variables.
Variables are kept sorted by id and the table is laid out in C order over
their cardinalities, so the last variable varies fastest.  All operations
return new factors; tables are marked read-only after construction.

`brute_force_posterior` is a deliberately naive full-joint enumerator kept
free of the factor operations above so it can serve as an independent
cross-check for any tree-structured evaluation.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, network

DEFAULT_JOINT_CAP = 2 ** 24


class CardinalityMismatchError(ValueError):
    """Two factors disagree on the cardinality of a shared variable."""


class InconsistentEvidenceError(ValueError):
    """A distribution has zero total mass, i.e. the evidence is impossible."""


class DimensionCapError(RuntimeError):
    """A table would exceed the configured size cap."""


@dataclass(frozen=True, eq=False)
class Factor:
    """Dense table over `vars` (ascending ids), C order, last var fastest."""

    vars: tuple[int, ...]
    cards: tuple[int, ...]
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.vars) != len(self.cards):
            raise ValueError("vars and cards must have equal length")
        if any(a >= b for a, b in zip(self.vars, self.vars[1:])):
            raise ValueError(f"vars must be strictly ascending: {self.vars}")
        if any(c < 1 for c in self.cards):
            raise ValueError(f"cardinalities must be >= 1: {self.cards}")
        table = np.ascontiguousarray(self.table, dtype=np.float64)
        if table.ndim != 1 or table.size != self.size:
            raise ValueError(
                f"table has {table.size} entries, expected {self.size}"
            )
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def size(self) -> int:
        return math.prod(self.cards)

    def card_of(self, var: int) -> int:
        return self.cards[self.vars.index(var)]

    def shaped(self) -> np.ndarray:
        """The table as an ndarray with one axis per variable."""
        return self.table.reshape(self.cards) if self.vars else self.table

    def mass(self) -> float:
        return float(self.table.sum())


def _union_vars(f1: Factor, f2: Factor) -> tuple[tuple[int, ...], tuple[int, ...]]:
    cards: dict[int, int] = dict(zip(f1.vars, f1.cards))
    for v, c in zip(f2.vars, f2.cards):
        if cards.setdefault(v, c) != c:
            raise CardinalityMismatchError(
                f"variable {v} has cardinality {cards[v]} in one factor "
                f"and {c} in the other"
            )
    vs = tuple(sorted(cards))
    return vs, tuple(cards[v] for v in vs)


def conformal_product(f1: Factor, f2: Factor) -> Factor:
    """Pointwise product over the union of the two variable sets."""
    union, cards = _union_vars(f1, f2)
    table = _kernels.product_sum(
        f1.table, f1.vars, f2.table, f2.vars, union, cards, union
    )
    return Factor(union, cards, table)


def marginalize_out(f: Factor, drop) -> Factor:
    """Sum `drop` out of f.  Dropping every variable leaves the total mass."""
    drop = frozenset(drop)
    extra = drop - set(f.vars)
    if extra:
        raise ValueError(f"cannot sum out variables not in factor: {sorted(extra)}")
    if not drop:
        return f
    axes = tuple(i for i, v in enumerate(f.vars) if v in drop)
    kept = tuple(i for i, v in enumerate(f.vars) if v not in drop)
    out = f.shaped().sum(axis=axes)
    return Factor(
        tuple(f.vars[i] for i in kept),
        tuple(f.cards[i] for i in kept),
        np.asarray(out).ravel(),
    )


def condition(f: Factor, evidence: dict[int, int]) -> Factor:
    """Slice f at the observed values; observed variables are removed.

    Evidence on variables the factor does not mention is ignored.
    """
    hit = {v: evidence[v] for v in f.vars if v in evidence}
    if not hit:
        return f
    for v, val in hit.items():
        card = f.card_of(v)
        if not 0 <= val < card:
            raise ValueError(
                f"evidence value {val} out of range for variable {v} "
                f"(cardinality {card})"
            )
    index = tuple(hit[v] if v in hit else slice(None) for v in f.vars)
    kept = [i for i, v in enumerate(f.vars) if v not in hit]
    out = f.shaped()[index]
    return Factor(
        tuple(f.vars[i] for i in kept),
        tuple(f.cards[i] for i in kept),
        np.asarray(out).ravel(),
    )


def normalize(f: Factor) -> Factor:
    """Scale f to unit mass."""
    total = f.table.sum()
    if total <= 0.0:
        raise InconsistentEvidenceError("factor has zero total mass")
    return Factor(f.vars, f.cards, f.table / total)


def cpt_factor(net, var: int) -> Factor:
    """The conditional table of `var` as a factor over {var} | parents(var).

    Net CPTs are stored with parent assignments as rows (parents in the
    net's stored order, last parent fastest) and the child value fastest
    within a row; the factor re-sorts those axes into ascending id order.
    """
    parents = net.parents[var]
    axis_vars = tuple(parents) + (var,)
    axis_cards = tuple(net.variables[p].cardinality for p in parents) + (
        net.variables[var].cardinality,
    )
    table = np.asarray(net.cpts[var], dtype=np.float64).reshape(axis_cards)
    order = sorted(range(len(axis_vars)), key=lambda i: axis_vars[i])
    table = np.ascontiguousarray(np.transpose(table, order))
    return Factor(
        tuple(axis_vars[i] for i in order),
        tuple(axis_cards[i] for i in order),
        table.ravel(),
    )


def query_factors(net, query) -> list[Factor]:
    """Conditioned factors for the relevant part of the net, one per
    relevant variable in ascending id order.  Observed variables are
    sliced away, so the returned scopes contain only unobserved ids."""
    relevant = sorted(network.relevant_factors(net, query))
    return [condition(cpt_factor(net, v), query.evidence) for v in relevant]


def _cpt_row_prob(net, var: int, assignment) -> float:
    row = 0
    for p in net.parents[var]:
        row = row * net.variables[p].cardinality + assignment[p]
    card = net.variables[var].cardinality
    return net.cpts[var][row * card + assignment[var]]


def brute_force_posterior(net, query, joint_cap: int = DEFAULT_JOINT_CAP) -> Factor:
    """P(query var | evidence) by enumerating the full joint.

    Walks every complete assignment consistent with the evidence,
    multiplying raw CPT entries, and bins the mass by query value.
    Quadratic-time and deliberately independent of the factor algebra.
    """
    cards = [v.cardinality for v in net.variables]
    joint = math.prod(cards)
    if joint > joint_cap:
        raise DimensionCapError(
            f"joint has {joint} entries, above the cap of {joint_cap}"
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
    return Factor(
        (query.query_var,), (qcard,), np.array(mass, dtype=np.float64) / total
    )
