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

import bisect
import heapq
import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from . import _kernels, costmodel, factors, network
from .factors import DimensionCapError, Factor, marginalize_out, normalize
from .network import json_int

TREE_FORMAT = "factorcube-tree-v1"

DEFAULT_EVAL_CAP = 25

HEURISTICS = ("set-factoring", "set-factoring-c", "chain")


@dataclass(slots=True, unsafe_hash=True)
class EvalNode:
    """Leaf (factor set, children None) or product node (factor None).

    Hashable by value but not frozen, since a frozen dataclass pays for
    every field it sets in `__init__`; trees share nodes (`_regroup`), so
    no code may change a node once made."""

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
    nodes: tuple[EvalNode, ...]  # children before parents; the last is the root

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

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


@dataclass(slots=True)
class CpShape:
    """One conformal product as scope bitmasks over a column table, with
    its table sizes.

    mask1/mask2 are the inputs' scopes and kept the result's, so their bit
    counts are the product's dimensions; size1, size2 and result_size are
    table sizes, multiply_count is the union's joint cardinality.
    """

    columns: "_Columns"
    mask1: int
    mask2: int
    kept: int
    size1: int
    size2: int
    multiply_count: int
    result_size: int


@dataclass(frozen=True)
class TreeStats:
    shapes: tuple[CpShape, ...]  # creation order; last one is the root
    dm: int
    md: int
    md_all: int

    @property
    def dd(self) -> float:
        return (self.dm - self.md) / self.dm if self.dm > 0 else 0.0


def scopes_for_query(
    net, query, ids=None
) -> tuple[list[tuple[int, ...]], dict[int, int], list[int]]:
    """Factor scopes for a query: one scope per CPT id in `ids` (ascending;
    by default the ancestral closure, `network.relevant_factors`), with the
    observed variables sliced away.  Returns (scopes, cards, ids)."""
    if ids is None:
        ids = sorted(network.relevant_factors(net, query))
    observed = query.evidence.keys()
    scopes = [tuple(sorted({v, *net.parents[v]} - observed)) for v in ids]
    cards = {
        v: net.variables[v].cardinality
        for scope in scopes
        for v in scope
    }
    return scopes, cards, ids


def _check_instance(scopes, cards, query_var) -> None:
    if not scopes:
        raise ValueError("at least one factor is required")
    if not any(query_var in s for s in scopes):
        raise ValueError(f"query variable {query_var} appears in no factor")
    for s in scopes:
        if not all(map(operator.lt, s, s[1:])):
            raise ValueError(f"scope {tuple(s)} is not strictly ascending")
    if missing := set().union(*scopes) - cards.keys():
        raise ValueError(f"no cardinality given for variable {min(missing)}")


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# maps the binary digits "0" and "1" to the bytes 0 and 1
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


class _Columns:
    """Scope algebra over a fixed set of variables.

    Column i is the i-th variable in ascending id order and a scope is a
    bitmask over columns, so scope algebra is integer arithmetic and
    decoding a mask yields variables in ascending order.  `vars` and
    `cards` hold each column's variable and cardinality, `bit` each
    variable's bit.  `card_groups` holds, per distinct cardinality c in
    ascending order, the mask of its columns and the powers c**0 ... c**n
    for its n columns.  With one cardinality (every generated net is
    binary), `size` and `cards_of` read a mask's bit count alone.
    """

    def __init__(self, cards: dict[int, int]):
        self.vars = sorted(cards)
        self.cards = [cards[v] for v in self.vars]
        self.bit = {v: 1 << col for col, v in enumerate(self.vars)}
        groups: dict[int, int] = {}
        for col, card in enumerate(self.cards):
            groups[card] = groups.get(card, 0) | 1 << col
        self.card_groups = [
            (group, [card ** e for e in range(group.bit_count() + 1)])
            for card, group in sorted(groups.items())
        ]
        if len(self.card_groups) == 1:
            powers = self.card_groups[0][1]
            self.size = lambda mask: powers[mask.bit_count()]
            self.cards_of = int.bit_count

    def mask(self, scope) -> int:
        mask = 0
        for v in scope:
            mask |= self.bit[v]
        return mask

    def vars_of(self, mask: int) -> tuple[int, ...]:
        """The variables of mask, ascending: column i is kept when binary
        digit i of mask is 1."""
        return tuple(compress(self.vars, bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)))

    def size(self, mask: int) -> int:
        """Joint cardinality of the variables in mask."""
        out = 1
        for group, powers in self.card_groups:
            out *= powers[(mask & group).bit_count()]
        return out

    def cards_of(self, mask: int):
        """The cardinalities of mask's variables in column order, as a
        hashable value; with one cardinality, their count fixes them."""
        cards = self.cards
        return tuple(cards[col] for col in _bits(mask))


class _BuildState:
    """The nodes of a build and what its active ones hold; the caller
    keeps which nodes are active.

    Node scopes are bitmasks over `cols`, the column table of the
    instance's variables.  `count` holds, per column of a variable that
    has not died, the query's excepted, how many active nodes hold it;
    `held_once` and `held_twice` are the masks of those columns held by
    one and by two active nodes.  The build keeps these masks and holder
    counts only: a node's table size, and what it keeps in a product with
    a node it shares no variable with, are worked out from its mask where
    they are read.
    """

    def __init__(self, scopes, cards, query_var):
        self.query_var = query_var
        self.nodes: list[EvalNode] = [
            EvalNode(i, None, None, tuple(s)) for i, s in enumerate(scopes)
        ]
        holders = Counter(chain.from_iterable(scopes))
        self.cols = cols = _Columns({v: cards[v] for v in {*holders, query_var}})
        self.size = cols.size
        self.masks: list[int] = [cols.mask(s) for s in scopes]
        self.count = [holders[v] for v in cols.vars]
        self.query_bit = cols.bit[query_var]
        self.held_once = self.held_twice = 0
        for col, count in enumerate(self.count):
            if count == 1:
                self.held_once |= 1 << col
            elif count == 2:
                self.held_twice |= 1 << col
        self.held_once &= ~self.query_bit
        self.held_twice &= ~self.query_bit
        self.class_ids: dict[tuple, int] = {}

    def node_class(self, x: int) -> int:
        """Class of active node x, as a small integer: its table size and
        the cardinalities, in column order, of the variables it keeps in a
        product with a node it shares no variable with.  Every key of a
        pair that shares no variable, exact or bound, depends only on the
        classes of its lower and its higher node."""
        mask = self.masks[x]
        key = (self.size(mask), self.cols.cards_of(mask & ~self.held_once))
        return self.class_ids.setdefault(key, len(self.class_ids))

    def _dead(self, mask_a: int, mask_b: int) -> int:
        """The eager summation rule: the product of two active nodes sums
        out every variable no other active node holds, that is, a variable
        of one input held once or a variable of both inputs held twice.
        The query variable never dies."""
        return (mask_a ^ mask_b) & self.held_once | mask_a & mask_b & self.held_twice

    def work_key(self, a: int, b: int) -> tuple[int, int]:
        """(multiply count, result size) of the product of nodes a and b."""
        mask_a = self.masks[a]
        mask_b = self.masks[b]
        union = mask_a | mask_b
        return self.size(union), self.size(union & ~self._dead(mask_a, mask_b))

    def time_key(self, a: int, b: int, machine) -> tuple[float, int]:
        """(modeled parallel time, result size) of the product of nodes a
        and b: the t_p `costmodel.parallel_cp_cost` gives its shape."""
        mask_a = self.masks[a]
        mask_b = self.masks[b]
        union = mask_a | mask_b
        kept = union & ~self._dead(mask_a, mask_b)
        shape = CpShape(self.cols, mask_a, mask_b, kept, self.size(mask_a),
                        self.size(mask_b), self.size(union), self.size(kept))
        return costmodel.parallel_cp_cost(shape, machine).t_p, shape.result_size

    def combine(self, a: int, b: int) -> int:
        """Replace active nodes a and b by their product (a = left) and
        return the product's node id, the largest so far."""
        mask_a = self.masks[a]
        mask_b = self.masks[b]
        dead = self._dead(mask_a, mask_b)
        kept = (mask_a | mask_b) & ~dead
        self.nodes.append(EvalNode(None, a, b, self.cols.vars_of(kept)))
        self.masks.append(kept)
        # dead variables lose every holder.  A kept variable of both inputs
        # loses one: held twice it would have died, so it goes from three
        # holders or more to two or more, and never becomes held once
        self.held_once &= ~dead
        self.held_twice &= ~dead
        count = self.count
        for col in _bits(mask_a & mask_b & kept & ~self.query_bit):
            count[col] -= 1
            if count[col] == 2:
                self.held_twice |= 1 << col
        return len(self.nodes) - 1

    def finish(self) -> EvalTree:
        """The tree rooted at the last node made."""
        return EvalTree(
            self.query_var,
            tuple(zip(self.cols.vars, self.cols.cards)),
            tuple(self.nodes),
        )


class _TimeBounds(dict):
    """The set-factoring-c lower bound of a pair's key, by its (multiply
    count, result size): (bound, exact), where bound is `bca_time` with
    nothing distributed (b_d = 0), which never exceeds the exact t_p, and
    exact is true on one processor, where the two are equal.  Each
    distinct (multiply count, result size) is priced once, when first
    looked up."""

    def __init__(self, machine):
        super().__init__()
        self.machine = machine

    def __missing__(self, key):
        m, rsize = key
        n_u = costmodel.processor_count(m, rsize, self.machine)
        t_p = costmodel.bca_time(m, rsize, n_u, 0, self.machine)[3]
        self[key] = t_p, n_u == 1
        return t_p, n_u == 1


def _greedy(state: _BuildState, bounds, exact_key) -> EvalTree:
    """Combine the active pair with the least (key, result size, lower id,
    higher id) until one node remains.

    A pair a < b has the heap entry (bound, size bound, a, b, exact,
    cls_pair), whose (bound, size bound) is at most the pair's (key, result
    size) and equals it when exact is true; `exact_key(a, b)` gives the
    (key, result size) of a pair whose entry is not exact.  With `bounds`
    None the key is the multiply count m: a class pair's entry is exact,
    and a pair that shares a variable enters as (m, 0), so that its result
    size is worked out only if it reaches the top.  Otherwise the key is a
    time and `bounds[m, rsize]` gives (bound, exact) for a pair of result
    size rsize.  An inexact entry on top is replaced by its
    exact one; an exact entry on top that names a live pair is the least
    live pair, since every other live pair's key is at least some entry's.
    Only the top pairs are ever keyed exactly.

    A pair's key depends only on its two scopes and on the holder counts of
    their variables.  A combine lowers only the counts of variables held by
    both inputs and kept by the product, and each of those stays held by
    the product; so a pair of two older nodes keeps its key, and only pairs
    with the new product need an entry.  For the same reason a node's size
    and class stay fixed while it is active: its mask does not change, and
    a variable it shares with both inputs of a combine goes from at least
    three holders to at least two, so it is held once neither before nor
    after.

    `members`, each class's active nodes in ascending order, is the one
    record of the active nodes; a dead node's list is None.  When node b
    enters, one walk over the members, all lower than b, enters both
    kinds of pairs below.

    Pairs that share a variable (cls_pair None) are entered by their
    higher node: b's entries of its pairs that share a variable go into
    b's list, sorted, and only the list's head goes into the heap.  A head
    that surfaces after b died is dropped.  One that names a dead partner
    moves b's list past its entries with dead partners and pushes the next
    head; one that is inexact puts its exact entry in its sorted place in
    the list and pushes the new head.  A list orders entries by the same
    tuple as the heap.  So the heap holds one head per node, and every live
    sharing pair's entry is at least its higher node's head.

    For every ordered class pair (C1, C2) that has a live pair a < b
    sharing no variable, with a in C1 and b in C2, the heap holds one
    current entry.  All such pairs have the same key, so that entry
    carries the key, or its bound, and names a pair no higher in (a, b)
    order than the lowest live one; such a pair multiplies its nodes' sizes
    and keeps what each shares with other nodes.  So every live pair's key
    is at least some entry's.  The class pairs keep the order of their nodes'
    ids because the exact time key depends on which input comes first.

    A class pair's lowest live pair only rises as nodes die.  The pairs a
    new product brings have the highest higher id, so for each class pair
    only the one with the lowest lower id can undercut the current entry.
    A current entry that surfaces naming a dead node moves to the lowest
    live pair after its own, found by walking the two classes' members; a
    superseded entry is dropped when it surfaces.
    """
    masks = state.masks
    size = state.size
    classes: list[int] = []  # per node id; nodes enter in id order
    lists: list[list | None] = []  # per node id: its sharing entries, ascending
    heads: list[int] = []  # per node id: index of its list's head
    heap = []
    current = {}  # class pair -> its current entry
    members: dict[int, list[int]] = {}  # class -> its active node ids, ascending

    def push_head(b: int, i: int) -> None:
        """Make the first entry of b's list from index i on that names a
        live partner b's head, if there is one."""
        entries = lists[b]
        while i < len(entries) and lists[entries[i][2]] is None:
            i += 1
        heads[b] = i
        if i < len(entries):
            heapq.heappush(heap, entries[i])

    def lowest_after(cls_pair, a0, b0):
        """The lowest disjoint pair (a, b) above (a0, b0), a < b, with a in
        the first class and b in the second, or None."""
        firsts = members.get(cls_pair[0], ())
        seconds = members.get(cls_pair[1], ())
        for i in range(bisect.bisect_left(firsts, a0), len(firsts)):
            a = firsts[i]
            mask_a = masks[a]
            for j in range(bisect.bisect_right(seconds, b0 if a == a0 else a),
                           len(seconds)):
                if not mask_a & masks[seconds[j]]:
                    return a, seconds[j]
        return None

    def advance(e) -> None:
        """Move the current entry e, which names a dead node, to its class
        pair's lowest live pair under the same key, or drop the class pair
        when it has none."""
        cls_pair = e[5]
        pair = lowest_after(cls_pair, e[2], e[3])
        if pair is None:
            del current[cls_pair]
        else:
            current[cls_pair] = e = (e[0], e[1], *pair, e[4], cls_pair)
            heapq.heappush(heap, e)

    def enter(n: int) -> None:
        """Enter the pairs of node n, the highest, with every active node:
        a sharing entry for each node that shares a variable with n, and a
        candidate for each class's first node that shares none."""
        mask_n = masks[n]
        cls_n = state.node_class(n)
        classes.append(cls_n)
        # the rule of `_BuildState._dead`, inline; no count changes while n enters
        once = state.held_once
        twice = state.held_twice
        entries = []
        for cls, xs in members.items():
            cls_pair = None
            for x in xs:
                mask_x = masks[x]
                if mask_x & mask_n:
                    union = mask_x | mask_n
                    if bounds is None:
                        entries.append((size(union), 0, x, n, False, None))
                    else:
                        rsize = size(union & ~((mask_x ^ mask_n) & once
                                               | mask_x & mask_n & twice))
                        bound, exact = bounds[size(union), rsize]
                        entries.append((bound, rsize, x, n, exact, None))
                elif cls_pair is None:
                    cls_pair = (cls, cls_n)
                    cur = current.get(cls_pair)
                    if cur is None:
                        union = mask_x | mask_n
                        m, rsize = size(union), size(union & ~once)
                        bound, exact = (m, True) if bounds is None else bounds[m, rsize]
                        e = (bound, rsize, x, n, exact, cls_pair)
                    elif x < cur[2]:
                        e = (cur[0], cur[1], x, n, cur[4], cls_pair)
                    else:
                        continue
                    current[cls_pair] = e
                    heapq.heappush(heap, e)
        entries.sort()
        lists.append(entries)
        heads.append(0)
        if entries:
            heapq.heappush(heap, entries[0])
        members.setdefault(cls_n, []).append(n)

    k = len(masks)
    for n in range(k):
        enter(n)
    while len(masks) < 2 * k - 1:  # k - 1 combines
        e = heapq.heappop(heap)
        _, _, a, b, exact, cls_pair = e
        if cls_pair is None:
            if lists[b] is None:
                continue
            if lists[a] is None:
                push_head(b, heads[b] + 1)
                continue
            if not exact:
                i = heads[b] + 1
                bisect.insort(lists[b], (*exact_key(a, b), a, b, True, None), lo=i)
                push_head(b, i)
                continue
        elif current.get(cls_pair) is not e:
            continue
        elif lists[a] is None or lists[b] is None:
            advance(e)
            continue
        elif not exact:
            e = (*exact_key(a, b), a, b, True, cls_pair)
            current[cls_pair] = e
            heapq.heappush(heap, e)
            continue
        for x in (a, b):
            lists[x] = None
            xs = members[classes[x]]
            xs.remove(x)
            if not xs:
                del members[classes[x]]
        enter(state.combine(a, b))
        if cls_pair is not None and current[cls_pair] is e:
            advance(e)
    return state.finish()


def build_set_factoring(scopes, cards, query_var) -> EvalTree:
    """Greedy tree keyed on sequential work: repeatedly multiply the pair
    with the fewest multiplies, breaking ties by result size, then by pair
    position."""
    _check_instance(scopes, cards, query_var)
    state = _BuildState(scopes, cards, query_var)
    return _greedy(state, None, state.work_key)


def build_set_factoring_c(scopes, cards, query_var, machine) -> EvalTree:
    """Same greedy loop keyed on the modeled parallel run time of each
    candidate product under the broadcast-compute-aggregate machine."""
    _check_instance(scopes, cards, query_var)
    state = _BuildState(scopes, cards, query_var)
    return _greedy(state, _TimeBounds(machine),
                   lambda a, b: state.time_key(a, b, machine))


def build_chain_baseline(scopes, cards, query_var) -> EvalTree:
    """Left-deep chain in input order; same eager summation rule."""
    _check_instance(scopes, cards, query_var)
    state = _BuildState(scopes, cards, query_var)
    left = 0
    for x in range(1, len(scopes)):
        # running product stays on the left, next input factor on the right
        left = state.combine(left, x)
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
    """Each product's shape, and the dimensions, in one walk.

    A product's mask is its children's union when its scope has as many
    variables (`check_tree` keeps it within the union), else its encoded
    scope.  Its dimensions are the bit counts of its masks: d1 and d2 of
    its inputs', u of their union's and r of its result's.  dm is the
    largest u in the tree; md is max(d1, d2, r) at a product of that
    dimension (largest such value if several products tie); md_all is the
    same maximum taken over every product.
    """
    cols = _Columns(dict(tree.var_cards))
    masks = []
    sizes = []
    shapes = []
    dm = md = md_all = 0
    for node in tree.nodes:
        if node.factor is not None:  # a leaf
            mask = cols.mask(node.scope)
            masks.append(mask)
            sizes.append(cols.size(mask))
            continue
        mask1, mask2 = masks[node.left], masks[node.right]
        union = mask1 | mask2
        u = union.bit_count()
        m = cols.size(union)
        mask = union if len(node.scope) == u else cols.mask(node.scope)
        size = m if mask == union else cols.size(mask)
        masks.append(mask)
        sizes.append(size)
        shapes.append(CpShape(cols, mask1, mask2, mask, sizes[node.left],
                              sizes[node.right], m, size))
        node_md = max(mask1.bit_count(), mask2.bit_count(), mask.bit_count())
        if node_md > md_all:
            md_all = node_md
        if u > dm:
            dm = u
            md = node_md
        elif u == dm and node_md > md:
            md = node_md
    return TreeStats(tuple(shapes), dm, md, md_all)


def check_tree(tree: EvalTree) -> None:
    """ValueError unless the tree is a valid evaluation tree: each variable
    declared once with cardinality at least 1; at least one node; one tree,
    children before parents, which is the order every pass over the node
    list relies on, so its root is the last node; each factor, a number
    from 0, in one leaf; every scope strictly ascending and only over
    declared variables, a product's only over what its children hold; a
    root that holds the query variable; and, below a product root, every
    variable but the query summed out exactly once."""
    cards = {}
    for v, card in tree.var_cards:
        if v in cards:
            raise ValueError(f"variable {v} is declared twice")
        if card < 1:
            raise ValueError(f"variable {v} has cardinality {card}, below 1")
        cards[v] = card
    if not tree.nodes:
        raise ValueError("the tree has no nodes")
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
    # the last node is no node's child, so the other nodes all are
    if len(children) != len(tree.nodes) - 1:
        raise ValueError(f"not every node is below root {tree.root}")
    root = tree.nodes[tree.root]
    if tree.query_var not in root.scope:
        raise ValueError(f"root scope {root.scope} does not hold the query variable")
    if not root.is_leaf and root.scope != (tree.query_var,):
        raise ValueError(f"root scope {root.scope} != query variable")


def _exponent(table: np.ndarray) -> int:
    """The power of two that brings table's largest entry into [0.5, 1).
    A subnormal maximum keeps the smallest normal exponent, so that
    dividing the power out of another table stays finite."""
    return max(math.frexp(np.maximum.reduce(table, None))[1], -1021)


def _regroup(tree: EvalTree) -> EvalTree:
    """A valid evaluation tree that runs the same products as `tree`, in
    the same order, except that each run of deferred leaf products
    `((B x L1) x L2) x Lq` becomes `B x ((L1 x L2) x Lq)`, the fold of
    the leaves placed just before its consumer; `tree` itself when no
    product defers.

    A product defers when it sums nothing out, is not the root, and
    multiplies a product result of at least `_kernels._OPTIMIZE_FROM`
    entries (its base) by a leaf that holds a variable the base lacks.  A
    further such leaf joins the run, and a leaf the base covers goes into
    the base at once.  The next product with a leaf input consumes the
    run: the base times the fold of the run's leaves and its own, so the
    run's union table is never built.  The fold holds no more entries
    than its base; a leaf that would break this, or a consumer of two
    product results, gets the run's products one at a time, as in `tree`.
    """
    nodes = tree.nodes
    cards = dict(tree.var_cards)

    def size(scope) -> int:
        return math.prod(map(cards.__getitem__, scope))

    def split(node: EvalNode) -> tuple[int, int] | None:
        """(product-result input, leaf input) of a product with one of each."""
        left, right = node.left, node.right
        if (nodes[left].factor is None) == (nodes[right].factor is None):
            return None
        return (right, left) if nodes[right].factor is None else (left, right)

    def deferrable(i: int, base_vars) -> bool:
        node = nodes[i]
        return (i != tree.root and size(base_vars) >= _kernels._OPTIMIZE_FROM
                and len(node.scope) == len({*nodes[node.left].scope,
                                            *nodes[node.right].scope}))

    # nodes before the first product that defers, which holds more
    # variables than its base, are kept as they are
    for first, node in enumerate(nodes):
        if node.factor is None and (pq := split(node)):
            bvars, lvars = nodes[pq[0]].scope, nodes[pq[1]].scope
            if (len(node.scope) > len(bvars) and deferrable(first, bvars)
                    and size(lvars) <= size(bvars)):
                break
    else:
        return tree
    out = list(nodes[:first])
    # node -> (its base's id in out, the steps it still owes), a step being
    # (a deferred leaf's id in out, the scope of the product that took it);
    # a node that does not defer is its own base and owes no steps
    made = {i: (i, ()) for i in range(first)}

    def emit(left: int, right: int, scope) -> int:
        out.append(EvalNode(None, left, right, scope))
        return len(out) - 1

    def settle(i: int) -> int:
        """The id in out of node i's result, emitting the steps it owes."""
        base, steps = made[i]
        for leaf, scope in steps:
            base = emit(base, leaf, scope)
        return base

    for i in range(first, len(nodes)):
        node = nodes[i]
        if node.is_leaf:
            made[i] = (len(out), ())
            out.append(node)
            continue
        if pq := split(node):
            p, q = pq
            base, steps = made[p]
            bvars, lvars = out[base].scope, nodes[q].scope
            defers = deferrable(i, bvars)
            if defers and set(lvars) <= set(bvars):
                if steps:
                    made[i] = (emit(base, made[q][0], bvars), steps)
                    continue
            elif (defers or steps) and size(set(lvars).union(
                    *(out[leaf].scope for leaf, _ in steps))) <= size(bvars):
                steps = (*steps, (made[q][0], node.scope))
                if defers:
                    made[i] = (base, steps)
                    continue
                fold = steps[0][0]
                for leaf, _ in steps[1:]:
                    fold = emit(fold, leaf, tuple(sorted({*out[fold].scope,
                                                          *out[leaf].scope})))
                made[i] = (emit(base, fold, node.scope), ())
                continue
        made[i] = (emit(settle(node.left), settle(node.right), node.scope), ())
    return EvalTree(tree.query_var, tree.var_cards, tuple(out))


def evaluate_tree(
    tree: EvalTree, factors: list[Factor], max_dim: int = DEFAULT_EVAL_CAP
) -> Factor:
    """Run the tree numerically and return the normalized query posterior.

    `factors` is indexed by the leaves' factor numbers.  Refuses, before
    any product runs, a tree with a product whose union dimension exceeds
    `max_dim` variables.

    The products run in the order of `_regroup(tree)`, whose largest
    product has the same dimension.  Each product result is handed to the
    next product as owned, so while a product runs, memory holds the live
    tables (the pending results and the leaves) and the product's result.
    """
    nodes = tree.nodes
    for node in nodes:
        if node.factor is not None:
            if factors[node.factor].vars != node.scope:
                raise ValueError(f"factor {node.factor} covers "
                                 f"{factors[node.factor].vars}, leaf expects {node.scope}")
            continue
        scope1, scope2 = nodes[node.left].scope, nodes[node.right].scope
        # the union is built only when the inputs' dimensions could exceed the cap
        if (len(scope1) + len(scope2) > max_dim
                and (dim := len({*scope1, *scope2})) > max_dim):
            raise DimensionCapError(f"conformal product spans {dim} variables, "
                                    f"above the cap of {max_dim}")
    tree = _regroup(tree)
    tables: dict[int, np.ndarray] = {}
    # Each product's table is 2**exponents[i] times its rescaled value, which
    # has its largest entry in [0.5, 1), so that long chains of small
    # probabilities do not underflow.  The parent's kernel call divides the
    # two pending powers out of its smaller input, which is exact and spares
    # a pass over a big table; normalize cancels the root's.  A leaf keeps
    # its scale, except in a product of two leaves, which divides out both
    # leaves' powers: two leaves of 1e-200 would underflow.
    exponents: dict[int, int] = {}
    for idx, node in enumerate(tree.nodes):
        if node.factor is not None:
            tables[idx] = factors[node.factor].table
            continue
        left, right = tree.nodes[node.left], tree.nodes[node.right]
        owned = (left.factor is None, right.factor is None)
        if owned == (False, False):
            shift = -_exponent(tables[node.left]) - _exponent(tables[node.right])
        else:
            shift = -exponents.pop(node.left, 0) - exponents.pop(node.right, 0)
        # the inputs are popped into the call, so both are freed before
        # the result is stored, unless the result is a view of one
        table = _kernels.product_sum(
            tables.pop(node.left), left.scope,
            tables.pop(node.right), right.scope, node.scope,
            owned=owned, shift=shift,
        )
        exponents[idx] = _exponent(table)
        tables[idx] = table
    out = Factor(tree.nodes[tree.root].scope, tables[tree.root])
    if out.vars != (tree.query_var,):
        out = marginalize_out(out, set(out.vars) - {tree.query_var})
    return normalize(out)


def posterior(net, query, heuristic: str = "set-factoring",
              machine=None, max_dim: int = DEFAULT_EVAL_CAP) -> Factor:
    """End-to-end numeric answer: prune, condition, build, evaluate.

    Only the requisite CPTs (`network.requisite_factors`, a Bayes-ball
    pass) are conditioned and multiplied, so the tree, and the `max_dim`
    cap on it, can be smaller than those of the ancestral closure the
    analytic commands use; the posterior is the same.  A query that
    `network.validate_query` rejects raises `NetValidationError`, even
    where the pruning drops the variable it names."""
    if violations := network.validate_query(net, query):
        raise network.NetValidationError(violations)
    ids = network.requisite_factors(net, query)
    scopes, cards, _ = scopes_for_query(net, query, ids)
    tree = build_tree(heuristic, scopes, cards, query.query_var, machine)
    return evaluate_tree(tree, factors.query_factors(net, query, ids), max_dim=max_dim)


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
    network.write_json(_tree_to_obj(tree), path)


def load_tree(path) -> EvalTree:
    """Parse and check a tree file (`tree_from_obj`)."""
    return tree_from_obj(network.read_json(path), path)


def tree_from_obj(obj, path) -> EvalTree:
    """The tree in the parsed JSON document of a tree file; path names the
    file in messages.  NetFormatError if the document is malformed, fails
    `check_tree`, names a `root` other than its last node, or lists a
    `sum_out` other than what its scopes give."""
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
        )
        root = json_int(obj["root"], "root")
    except (KeyError, TypeError, ValueError) as exc:
        raise network.NetFormatError(f"{path}: malformed tree file ({exc})") from exc
    try:
        check_tree(tree)
        if root != tree.root:
            raise ValueError(f"root is {root}, not the last node {tree.root}")
        for i, sum_out in listed.items():
            if sum_out != set(tree.sum_out(i)):
                raise ValueError(
                    f"node {i} sums out {sorted(sum_out)}, not the variables "
                    f"its children hold and it does not keep"
                )
    except ValueError as exc:
        raise network.NetFormatError(f"{path}: not a valid evaluation tree ({exc})") from exc
    return tree
