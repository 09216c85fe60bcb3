"""Evaluation trees: construction heuristics, numeric evaluation, stats.

An evaluation tree is a binary tree over the query's factors.  Each
internal node multiplies its two children over the union of their
variables and immediately sums out every variable that no other pending
factor (and no later tree node) still needs, query variable excepted.
The root is therefore always left holding exactly the query variable.

Two greedy builders pick, at every step, the factor pair with the lowest
cost key: `build_set_factoring` keys on sequential work (multiply count,
then result size), `build_set_factoring_c` keys on the modeled parallel
run time of the candidate product.  `build_chain_baseline` is the
worst-case comparator that just folds factors left to right.
"""

import heapq
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels, costmodel, factors, network
from .factors import DimensionCapError, Factor, marginalize_out, normalize
from .network import json_int

TREE_FORMAT = "factorcube-tree-v1"

DEFAULT_EVAL_CAP = 25

HEURISTICS = ("set-factoring", "set-factoring-c", "chain")


@dataclass(frozen=True)
class EvalNode:
    """Leaf (factor set, children None) or product node (factor None)."""

    factor: int | None
    left: int | None
    right: int | None
    scope: tuple[int, ...]

    @property
    def is_leaf(self) -> bool:
        return self.factor is not None


@dataclass(frozen=True)
class EvalTree:
    query_var: int
    var_cards: tuple[tuple[int, int], ...]  # (variable id, cardinality), sorted
    nodes: tuple[EvalNode, ...]  # leaves first, products in creation order
    root: int

    def sum_out(self, i: int) -> tuple[int, ...]:
        """What product node i sums out: the variables its children hold
        and it does not keep, ascending."""
        node = self.nodes[i]
        held = {*self.nodes[node.left].scope, *self.nodes[node.right].scope}
        return tuple(sorted(held - set(node.scope)))

    @property
    def leaf_count(self) -> int:
        return sum(1 for n in self.nodes if n.is_leaf)

    @property
    def cp_count(self) -> int:
        return len(self.nodes) - self.leaf_count


@dataclass(frozen=True)
class CpShape:
    """Variable-level description of one conformal product."""

    vars1: tuple[int, ...]
    vars2: tuple[int, ...]
    union_vars: tuple[int, ...]
    result_vars: tuple[int, ...]
    cards: tuple[int, ...]  # aligned with union_vars

    @cached_property
    def _card_of(self) -> dict[int, int]:
        return dict(zip(self.union_vars, self.cards))

    def _prod(self, vs) -> int:
        return math.prod(map(self._card_of.__getitem__, vs))

    @property
    def d1(self) -> int:
        return len(self.vars1)

    @property
    def d2(self) -> int:
        return len(self.vars2)

    @property
    def u(self) -> int:
        return len(self.union_vars)

    @property
    def r(self) -> int:
        return len(self.result_vars)

    @cached_property
    def multiply_count(self) -> int:
        return math.prod(self.cards)

    @cached_property
    def size1(self) -> int:
        return self._prod(self.vars1)

    @cached_property
    def size2(self) -> int:
        return self._prod(self.vars2)

    @cached_property
    def result_size(self) -> int:
        return self._prod(self.result_vars)


@dataclass(frozen=True)
class TreeStats:
    shapes: tuple[CpShape, ...]  # creation order; last one is the root
    dm: int
    md: int
    md_all: int
    cp_count: int

    @property
    def dd(self) -> float:
        return (self.dm - self.md) / self.dm if self.dm > 0 else 0.0


def scopes_for_query(net, query) -> tuple[list[tuple[int, ...]], dict[int, int], list[int]]:
    """Factor scopes for a query: one scope per relevant variable, with the
    observed variables sliced away.  Returns (scopes, cards, relevant_ids)."""
    relevant = sorted(network.relevant_factors(net, query))
    scopes = []
    for v in relevant:
        scope = tuple(
            w
            for w in sorted({v, *net.parents[v]})
            if w not in query.evidence
        )
        scopes.append(scope)
    cards = {
        v: net.variables[v].cardinality
        for scope in scopes
        for v in scope
    }
    cards.setdefault(query.query_var, net.variables[query.query_var].cardinality)
    return scopes, cards, relevant


def _check_instance(scopes, cards, query_var) -> None:
    if not scopes:
        raise ValueError("at least one factor is required")
    if not any(query_var in s for s in scopes):
        raise ValueError(f"query variable {query_var} appears in no factor")
    for s in scopes:
        if any(a >= b for a, b in zip(s, s[1:])):
            raise ValueError(f"scope {tuple(s)} is not strictly ascending")
        for v in s:
            if v not in cards:
                raise ValueError(f"no cardinality given for variable {v}")


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _BuildState:
    """Active factor multiset during a greedy build.

    Node scopes are bitmasks over `columns`, the variables in ascending id
    order, so scope algebra is integer arithmetic and decoding a mask
    yields variables in ascending order.  `count` holds, per column, how
    many active nodes hold that variable.  `sizes` holds each node's table
    size and `reduced` its size after summing out the variables only it
    holds, which is what it keeps in a product with a node it shares no
    variable with.
    """

    def __init__(self, scopes, cards, query_var):
        self.cards = dict(cards)
        self.query_var = query_var
        self.nodes: list[EvalNode] = [
            EvalNode(i, None, None, tuple(s)) for i, s in enumerate(scopes)
        ]
        self.active: list[int] = list(range(len(scopes)))  # node ids, ascending
        self.alive = bytearray([1]) * len(scopes)
        self.columns = sorted({v for s in scopes for v in s} | {query_var})
        col_of = {v: i for i, v in enumerate(self.columns)}
        self.col_cards = [self.cards[v] for v in self.columns]
        self.count = [0] * len(self.columns)
        self.masks: list[int] = []
        for s in scopes:
            mask = 0
            for v in s:
                mask |= 1 << col_of[v]
            self.masks.append(mask)
            for col in _bits(mask):
                self.count[col] += 1
        self.query_col = col_of[query_var]
        self.held_once = self.held_twice = 0
        for col in range(len(self.columns)):
            self._recount(col)
        groups: dict[int, int] = {}
        for col, card in enumerate(self.col_cards):
            groups[card] = groups.get(card, 0) | 1 << col
        self.card_groups = sorted(groups.items())
        self.sizes = [self.size(mask) for mask in self.masks]
        self.reduced = [self.size(mask & ~self.held_once) for mask in self.masks]

    def _recount(self, col: int) -> None:
        bit = 1 << col
        self.held_once &= ~bit
        self.held_twice &= ~bit
        if col != self.query_col:
            if self.count[col] == 1:
                self.held_once |= bit
            elif self.count[col] == 2:
                self.held_twice |= bit

    def size(self, mask: int) -> int:
        """Joint cardinality of the variables in mask."""
        out = 1
        for card, group in self.card_groups:
            out *= card ** (mask & group).bit_count()
        return out

    def _dead(self, mask_a: int, mask_b: int) -> int:
        """The eager summation rule: the product of two active nodes sums
        out every variable no other active node holds, that is, a variable
        of one input held once or a variable of both inputs held twice.
        The query variable never dies."""
        return (mask_a ^ mask_b) & self.held_once | mask_a & mask_b & self.held_twice

    def _vars(self, mask: int) -> tuple[int, ...]:
        return tuple(self.columns[col] for col in _bits(mask))

    def work_key(self, a: int, b: int) -> tuple[int, int]:
        """(multiply count, result size) of the product of nodes a and b.
        Two nodes that share no variable multiply their sizes and keep
        their reduced sizes."""
        mask_a = self.masks[a]
        mask_b = self.masks[b]
        if not mask_a & mask_b:
            return self.sizes[a] * self.sizes[b], self.reduced[a] * self.reduced[b]
        union = mask_a | mask_b
        return self.size(union), self.size(union & ~self._dead(mask_a, mask_b))

    def work_entry(self, a: int, b: int):
        """Heap entry of the pair a < b keyed on work, always exact."""
        m, rsize = self.work_key(a, b)
        return m, rsize, a, b, True

    def time_entry(self, a: int, b: int, machine):
        """Heap entry of the pair a < b keyed on a lower bound of its
        modeled time: `bca_time` with nothing distributed (b_d = 0), which
        never exceeds the exact t_p and equals it on one processor."""
        m, rsize = self.work_key(a, b)
        n_u = costmodel.processor_count(m, rsize, machine)
        return costmodel.bca_time(m, rsize, n_u, 0, machine)[3], rsize, a, b, n_u == 1

    def time_key(self, a: int, b: int, machine) -> tuple[float, int]:
        """(modeled parallel time, result size) of the product of nodes a
        and b: the t_p `costmodel.parallel_cp_cost` gives its shape."""
        m, rsize = self.work_key(a, b)
        n_u = costmodel.processor_count(m, rsize, machine)
        b_d = 0
        if n_u > 1:
            mask_a = self.masks[a]
            mask_b = self.masks[b]
            kept = (mask_a | mask_b) & ~self._dead(mask_a, mask_b)
            _, entries = costmodel.choose_split(
                _bits(mask_a & mask_b & kept),
                _bits(mask_a & ~mask_b & kept),
                _bits(mask_b & ~mask_a & kept),
                self.col_cards, self.sizes[a], self.sizes[b], n_u,
            )
            b_d = machine.bytes_per_entry * entries
        return costmodel.bca_time(m, rsize, n_u, b_d, machine)[3], rsize

    def combine(self, a: int, b: int) -> int:
        """Replace active nodes a and b by their product (a = left) and
        return the product's node id, the largest so far."""
        mask_a = self.masks[a]
        mask_b = self.masks[b]
        dead = self._dead(mask_a, mask_b)
        kept = (mask_a | mask_b) & ~dead
        self.nodes.append(EvalNode(None, a, b, self._vars(kept)))
        new_id = len(self.nodes) - 1
        self.masks.append(kept)
        self.sizes.append(self.size(kept))
        self.alive[a] = self.alive[b] = 0
        self.alive.append(1)
        self.active.remove(a)
        self.active.remove(b)
        self.active.append(new_id)
        # kept variables of both inputs lose one holder; dead ones lose all
        for col in _bits(mask_a & mask_b & kept):
            self.count[col] -= 1
            self._recount(col)
        for col in _bits(dead):
            self.count[col] = 0
            self._recount(col)
        self.reduced.append(self.size(kept & ~self.held_once))
        return new_id

    def finish(self) -> EvalTree:
        root = self.active[0]
        return EvalTree(
            self.query_var,
            tuple((v, self.cards[v]) for v in self.columns),
            tuple(self.nodes),
            root,
        )


def _greedy(state: _BuildState, entry, exact_key) -> EvalTree:
    """Combine the active pair with the least (key, result size, lower id,
    higher id) until one node remains.

    `entry(a, b)` gives the heap entry (bound, result size, a, b, exact) of
    a pair a < b, where bound is at most the pair's key and equals it when
    exact is true; `exact_key(a, b)` gives the (key, result size) of a pair
    whose entry is not exact.  The heap holds one entry per live pair.  An
    inexact entry on top is replaced by its exact one; an exact entry on
    top is the least live pair, since every other live pair's key is at
    least its entry.  Only the top pairs are ever keyed exactly.

    The active list stays sorted by node id, so the id tie-break is the
    row-major pair order of a full rescan.  A pair's key depends only on
    its two scopes and on the holder counts of their variables.  A combine
    lowers only the counts of variables held by both inputs and kept by
    the product, and each of those stays held by the product; so a pair of
    two older nodes keeps its entry, and only pairs with the new product
    need one.  For the same reason a node's `sizes` and `reduced` stay
    fixed while it is active: its mask does not change, and a variable it
    shares with both inputs of a combine goes from at least three holders
    to at least two, so it is held once neither before nor after.

    Entries of combined nodes are skipped when they surface.  Once they
    outnumber the live ones, that is, once the heap holds more than
    n(n - 1) entries for n active nodes, they are filtered out and the
    rest heapified, which costs O(1) per dropped entry.
    """
    heap = [entry(a, b) for a, b in itertools.combinations(state.active, 2)]
    heapq.heapify(heap)
    alive = state.alive
    active = state.active
    while len(active) > 1:
        _, _, a, b, exact = heapq.heappop(heap)
        if not (alive[a] and alive[b]):
            continue
        if not exact:
            heapq.heappush(heap, (*exact_key(a, b), a, b, True))
            continue
        new_id = state.combine(a, b)
        for x in active[:-1]:
            heapq.heappush(heap, entry(x, new_id))
        n = len(active)
        if len(heap) > n * (n - 1):
            heap = [e for e in heap if alive[e[2]] and alive[e[3]]]
            heapq.heapify(heap)
    return state.finish()


def build_set_factoring(scopes, cards, query_var) -> EvalTree:
    """Greedy tree keyed on sequential work: repeatedly multiply the pair
    with the fewest multiplies, breaking ties by result size, then by pair
    position."""
    _check_instance(scopes, cards, query_var)
    state = _BuildState(scopes, cards, query_var)
    return _greedy(state, state.work_entry, None)


def build_set_factoring_c(scopes, cards, query_var, machine) -> EvalTree:
    """Same greedy loop keyed on the modeled parallel run time of each
    candidate product under the broadcast-compute-aggregate machine."""
    _check_instance(scopes, cards, query_var)
    state = _BuildState(scopes, cards, query_var)
    return _greedy(
        state,
        lambda a, b: state.time_entry(a, b, machine),
        lambda a, b: state.time_key(a, b, machine),
    )


def build_chain_baseline(scopes, cards, query_var) -> EvalTree:
    """Left-deep chain in input order; same eager summation rule."""
    _check_instance(scopes, cards, query_var)
    state = _BuildState(scopes, cards, query_var)
    if len(state.active) > 1:
        state.combine(0, 1)
    while len(state.active) > 1:
        # running product stays on the left, next input factor on the right
        state.combine(state.active[-1], state.active[0])
    return state.finish()


def build_tree(heuristic: str, scopes, cards, query_var, machine=None) -> EvalTree:
    if heuristic == "set-factoring":
        return build_set_factoring(scopes, cards, query_var)
    if heuristic == "set-factoring-c":
        return build_set_factoring_c(
            scopes, cards, query_var, machine or costmodel.DEFAULT_MACHINE
        )
    if heuristic == "chain":
        return build_chain_baseline(scopes, cards, query_var)
    raise ValueError(f"unknown heuristic {heuristic!r}")


def tree_stats(tree: EvalTree) -> TreeStats:
    """Per-product shapes plus the dimension summary.

    dm is the largest product dimension in the tree; md is max(d1, d2, r)
    at a product of that dimension (largest such value if several products
    tie); md_all is the same maximum taken over every product.
    """
    cards = dict(tree.var_cards)
    shapes = []
    for node in tree.nodes:
        if node.is_leaf:
            continue
        s1 = tree.nodes[node.left].scope
        s2 = tree.nodes[node.right].scope
        union = tuple(sorted(set(s1) | set(s2)))
        shapes.append(
            CpShape(s1, s2, union, node.scope, tuple(cards[v] for v in union))
        )
    dm = 0
    md = 0
    md_all = 0
    for sh in shapes:
        node_md = max(sh.d1, sh.d2, sh.r)
        md_all = max(md_all, node_md)
        if sh.u > dm:
            dm = sh.u
            md = node_md
        elif sh.u == dm:
            md = max(md, node_md)
    return TreeStats(tuple(shapes), dm, md, md_all, len(shapes))


def check_tree(tree: EvalTree) -> None:
    """ValueError unless the tree is a valid evaluation tree: each variable
    declared once with cardinality at least 1; one tree, children before
    parents, which is the order every pass over the node list relies on;
    each factor, a number from 0, in one leaf; every scope strictly
    ascending and only over declared variables, a product's only over what
    its children hold; a root that holds the query variable; and, below a
    product root, every variable but the query summed out exactly once."""
    cards = {}
    for v, card in tree.var_cards:
        if v in cards:
            raise ValueError(f"variable {v} is declared twice")
        if card < 1:
            raise ValueError(f"variable {v} has cardinality {card}, below 1")
        cards[v] = card
    factors_used = set()
    children = set()
    summed = set()
    for i, node in enumerate(tree.nodes):
        if any(a >= b for a, b in zip(node.scope, node.scope[1:])):
            raise ValueError(f"node {i} scope {node.scope} is not strictly ascending")
        if node.is_leaf:
            if node.factor < 0:
                raise ValueError(f"node {i} has negative factor {node.factor}")
            if node.factor in factors_used:
                raise ValueError(f"factor {node.factor} is in more than one leaf")
            factors_used.add(node.factor)
            held = set(node.scope)
        else:
            held = set()
            for child in (node.left, node.right):
                if not 0 <= child < i:
                    raise ValueError(f"node {i} has child {child}, not an earlier node")
                if child in children:
                    raise ValueError(f"node {child} is a child twice")
                children.add(child)
                held.update(tree.nodes[child].scope)
        if not set(node.scope) <= held or not held <= cards.keys():
            raise ValueError(
                f"node {i} holds a variable that is not declared "
                f"or not held by its children"
            )
        for v in held - set(node.scope):
            if v == tree.query_var:
                raise ValueError("query variable was summed out")
            if v in summed:
                raise ValueError(f"variable {v} is summed out twice")
            summed.add(v)
    if not 0 <= tree.root < len(tree.nodes):
        raise ValueError(f"root {tree.root} is not a node")
    if tree.root in children or len(children) != len(tree.nodes) - 1:
        raise ValueError(f"not every node is below root {tree.root}")
    root = tree.nodes[tree.root]
    if tree.query_var not in root.scope:
        raise ValueError(f"root scope {root.scope} does not hold the query variable")
    if not root.is_leaf and root.scope != (tree.query_var,):
        raise ValueError(f"root scope {root.scope} != query variable")


def evaluate_tree(
    tree: EvalTree, factors: list[Factor], max_dim: int = DEFAULT_EVAL_CAP
) -> Factor:
    """Run the tree numerically and return the normalized query posterior.

    `factors` is indexed by the leaves' factor numbers.  Refuses products
    whose union dimension exceeds `max_dim` variables.
    """
    tables: dict[int, np.ndarray] = {}
    for idx, node in enumerate(tree.nodes):
        if not node.is_leaf:
            continue
        f = factors[node.factor]
        if f.vars != node.scope:
            raise ValueError(
                f"factor {node.factor} covers {f.vars}, leaf expects {node.scope}"
            )
        tables[idx] = f.table
    for idx, node in enumerate(tree.nodes):
        if node.is_leaf:
            continue
        v1 = tree.nodes[node.left].scope
        v2 = tree.nodes[node.right].scope
        dim = len({*v1, *v2})
        if dim > max_dim:
            raise DimensionCapError(
                f"conformal product spans {dim} variables, "
                f"above the cap of {max_dim}"
            )
        table = _kernels.product_sum(
            tables.pop(node.left), v1, tables.pop(node.right), v2, node.scope
        )
        # rescale by a power of two, which is exact, so that long chains of
        # small probabilities do not underflow; normalize cancels the scale.
        # In place: the kernel's result is a fresh array, and a copy of it
        # would double the largest table's memory.
        exponent = math.frexp(table.max())[1]
        if exponent:
            np.ldexp(table, -exponent, out=table)
        tables[idx] = table
    out = Factor(tree.nodes[tree.root].scope, tables[tree.root])
    if out.vars != (tree.query_var,):
        out = marginalize_out(out, set(out.vars) - {tree.query_var})
    return normalize(out)


def posterior(net, query, heuristic: str = "set-factoring",
              machine=None, max_dim: int = DEFAULT_EVAL_CAP) -> Factor:
    """End-to-end numeric answer: prune, condition, build, evaluate."""
    scopes, cards, _ = scopes_for_query(net, query)
    tree = build_tree(heuristic, scopes, cards, query.query_var, machine)
    return evaluate_tree(tree, factors.query_factors(net, query), max_dim=max_dim)


def _tree_to_obj(tree: EvalTree) -> dict:
    nodes = []
    for i, n in enumerate(tree.nodes):
        if n.is_leaf:
            nodes.append({"factor": n.factor, "scope": list(n.scope)})
        else:
            nodes.append(
                {
                    "left": n.left,
                    "right": n.right,
                    "sum_out": list(tree.sum_out(i)),
                    "scope": list(n.scope),
                }
            )
    return {
        "format": TREE_FORMAT,
        "query_var": tree.query_var,
        "vars": [list(vc) for vc in tree.var_cards],
        "root": tree.root,
        "nodes": nodes,
    }


def save_tree(tree: EvalTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_tree_to_obj(tree), fh, indent=1)
        fh.write("\n")


def load_tree(path) -> EvalTree:
    """Parse and check a tree file (`tree_from_obj`)."""
    return tree_from_obj(network.read_json(path), path)


def tree_from_obj(obj, path) -> EvalTree:
    """The tree in the parsed JSON document of a tree file; path names the
    file in messages.  NetFormatError if the document is malformed, fails
    `check_tree`, or lists a `sum_out` other than what its scopes give."""
    try:
        nodes = []
        listed = {}
        for i, rec in enumerate(obj["nodes"]):
            where = f"nodes[{i}]"
            scope = tuple(json_int(v, where) for v in rec["scope"])
            if "factor" in rec:
                node = EvalNode(json_int(rec["factor"], where), None, None, scope)
            else:
                left, right = (json_int(rec[k], where) for k in ("left", "right"))
                node = EvalNode(None, left, right, scope)
                listed[i] = {json_int(v, where) for v in rec["sum_out"]}
            nodes.append(node)
        tree = EvalTree(
            json_int(obj["query_var"], "query_var"),
            tuple((json_int(v, "vars"), json_int(c, "vars")) for v, c in obj["vars"]),
            tuple(nodes),
            json_int(obj["root"], "root"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise network.NetFormatError(f"{path}: malformed tree file ({exc})") from exc
    try:
        check_tree(tree)
        for i, sum_out in listed.items():
            if sum_out != set(tree.sum_out(i)):
                raise ValueError(
                    f"node {i} sums out {sorted(sum_out)}, not the variables "
                    f"its children hold and it does not keep"
                )
    except ValueError as exc:
        raise network.NetFormatError(f"{path}: not a valid evaluation tree ({exc})") from exc
    return tree
