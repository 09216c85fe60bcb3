"""Analytic cost models for conformal-product trees on hypercube machines.

Everything here is shape arithmetic: no factor values are touched.  The
parallel model is broadcast-compute-aggregate (BCA): a distinguished
processor slices the inputs along chosen result variables, ships a slice
to each worker over a log spanning tree, and collects the result slices
the same way.  `bca_time` is the one price of a product; on one processor
it is the sequential model, a fixed scale factor per multiply.  A
distributed-net variant keeps all data resident everywhere and pays only
to gather and rebroadcast each intermediate result, that is, each
product's BCA return cost twice.

Byte quantities are exact integers, and every quotient of them is rounded
to float once, so the accounting identities hold bit for bit; times are
float64 microseconds.
"""

import math
from dataclasses import dataclass, fields

from . import factoring, network


@dataclass(frozen=True)
class MachineParams:
    """Hypercube machine description (times in microseconds).

    alpha: cost per multiply-equivalent; c_st: per-message startup;
    c_b: per byte per link; p_init/s_setup/b_buffer: fixed overheads of a
    distributed product; n_a: processors available (a power of two);
    g_min: smallest worthwhile number of multiplies per processor;
    bytes_per_entry: bytes per table value.
    """

    alpha: float = 45.0
    c_st: float = 230.0
    c_b: float = 0.5
    p_init: float = 0.0
    s_setup: float = 0.0
    b_buffer: float = 0.0
    n_a: int = 1024
    g_min: int = 256
    bytes_per_entry: int = 4

    def __post_init__(self):
        for key in ("alpha", "c_st", "c_b", "p_init", "s_setup", "b_buffer"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"machine key {key!r} must be a finite non-negative "
                    f"time, got {value!r}"
                )
        if self.n_a < 1 or self.n_a & (self.n_a - 1):
            raise ValueError(f"n_a must be a power of two, got {self.n_a}")
        if self.g_min < 0:
            raise ValueError("g_min must be non-negative")
        if self.bytes_per_entry < 1:
            raise ValueError("bytes_per_entry must be positive")


DEFAULT_MACHINE = MachineParams()


def machine_from_dict(obj: dict) -> MachineParams:
    """MachineParams from a JSON object whose keys are its field names.
    An int field takes an integer (`network.is_integer`), a float field
    any number; ValueError otherwise."""
    types = {f.name: f.type for f in fields(MachineParams)}
    unknown = set(obj) - types.keys()
    if unknown:
        raise ValueError(f"unknown machine keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in obj.items():
        if types[key] is int and not network.is_integer(value):
            raise ValueError(f"machine key {key!r} must be an integer, got {value!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"machine key {key!r} must be a number, got {value!r}")
        try:
            kwargs[key] = types[key](value)
        except OverflowError:
            # an integer too large for a float is no finite time
            kwargs[key] = math.inf
    return MachineParams(**kwargs)


def load_machine(path) -> MachineParams:
    obj = network.read_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: machine config must be an object")
    return machine_from_dict(obj)


@dataclass(slots=True)
class CpCost:
    """Modeled cost of one conformal product and how it is spread over
    the cube.

    split_vars: result variables whose joint assignment indexes the n_u
    processors; b_d: bytes sent to each worker; b_result: bytes of the
    whole result table, which the n_u workers return in equal shares of
    b_result / n_u.  split_vars is empty and both byte counts are 0 for
    an undistributed product.
    """

    t_s: float
    t_p: float
    w: float
    c_d: float
    c_r: float
    n_u: int
    shape: object
    split_vars: tuple[int, ...]
    b_d: int
    b_result: int

    @property
    def d_max(self) -> int:
        """Cube dimension used."""
        return self.n_u.bit_length() - 1


@dataclass(frozen=True)
class QueryCost:
    """Every product's cost, in creation order, with the tree's stats
    (`factoring.TreeStats`: shapes and dimensions) and machine."""

    per_cp: tuple[CpCost, ...]
    stats: object
    machine: MachineParams
    t_s_query: float
    t_p_query: float
    n_u_query: int
    cm_total: float
    cp_total: float


@dataclass(frozen=True)
class LongestPath:
    seq_time: float
    par_time: float
    node_ids: tuple[int, ...]


def processor_count(multiplies: int, result_size: int, machine: MachineParams) -> int:
    """Largest power-of-two processor count obeying the machine size, the
    grainsize floor (at least g_min multiplies per processor) and the
    result-table bound (at least one result entry per processor)."""
    bound = min(machine.n_a, result_size)
    if machine.g_min > 0:
        bound = min(bound, multiplies // machine.g_min)
    return 1 << (bound.bit_length() - 1) if bound > 1 else 1


def choose_split(shared, only1, only2, cards, size1: int, size2: int, n_u: int):
    """Split variables for a product spread over n_u > 1 processors.

    shared/only1/only2 iterate the result variables held by both inputs,
    by the first only and by the second only, each in ascending order;
    cards maps a variable to its cardinality (`parallel_cp_cost` passes
    columns of a `CpShape`'s column table).  Shared variables come first
    (they shrink both input slices); then input-exclusive ones are taken
    from whichever input currently has the larger slice, ties favoring the
    first input.  Returns the split variables and the number of table
    entries each worker is sent: one slice of each input.
    """
    split = []
    capacity = 1
    for v in shared:
        if capacity >= n_u:
            break
        split.append(v)
        capacity *= cards[v]
    k1 = k2 = capacity  # a shared variable slices both inputs
    only1 = iter(only1)
    only2 = iter(only2)
    next1 = next(only1, None)
    next2 = next(only2, None)
    while capacity < n_u:
        # slice sizes are size1/k1 and size2/k2: compare them cross-multiplied
        if next1 is not None and (next2 is None or size1 * k2 >= size2 * k1):
            v, next1 = next1, next(only1, None)
            k1 *= cards[v]
        else:
            v, next2 = next2, next(only2, None)
            k2 *= cards[v]
        split.append(v)
        capacity *= cards[v]
    return split, size1 // k1 + size2 // k2


def _spanning_tree_time(d_max: int, n_u: int, nbytes: float, machine: MachineParams) -> float:
    """Time to move nbytes to or from each of n_u workers over a spanning
    tree of depth d_max."""
    return float(d_max) * machine.c_st + nbytes * ((n_u - 1) * machine.c_b)


def bca_time(multiplies: int, result_size: int, n_u: int, b_d, machine: MachineParams):
    """(w, c_d, c_r, t_p) of a product spread over n_u workers, each sent
    b_d bytes and returning its share of the result table: the one price
    of a product.

    A product on one processor (n_u == 1) runs sequentially: it pays
    alpha per multiply and no communication, startup or buffering.
    Every quotient is rounded to float once, from exact integers, so the
    times equal those computed from a CpCost's fields.
    """
    if n_u == 1:
        t_s = machine.alpha * multiplies
        return t_s, 0.0, 0.0, t_s
    d_max = n_u.bit_length() - 1
    w = machine.alpha * (multiplies / n_u)
    c_d = _spanning_tree_time(d_max, n_u, b_d, machine)
    b_r = machine.bytes_per_entry * result_size / n_u
    c_r = _spanning_tree_time(d_max, n_u, b_r, machine)
    t_p = (
        (((machine.p_init + machine.s_setup) + w) + c_d) + c_r
    ) + machine.b_buffer
    return w, c_d, c_r, t_p


def parallel_cp_cost(shape, machine: MachineParams) -> CpCost:
    """Modeled cost of one conformal product, the one per-product pricer:
    its processor count (`processor_count`) and split variables
    (`choose_split`, over the variables each input keeps), priced by
    `bca_time`; t_s is the price of the same product on one processor.
    `shape` is a `factoring.CpShape`."""
    m = shape.multiply_count
    rsize = shape.result_size
    n_u = processor_count(m, rsize, machine)
    sequential = bca_time(m, rsize, 1, 0, machine)
    split, b_d, b_result = (), 0, 0
    if n_u > 1:
        mask1 = shape.mask1
        mask2 = shape.mask2
        kept = shape.kept
        columns = shape.columns
        split, entries = choose_split(
            factoring._bits(mask1 & mask2 & kept),
            factoring._bits(mask1 & ~mask2 & kept),
            factoring._bits(mask2 & ~mask1 & kept),
            columns.cards, shape.size1, shape.size2, n_u,
        )
        split = tuple(map(columns.vars.__getitem__, split))
        b_d = machine.bytes_per_entry * entries
        b_result = machine.bytes_per_entry * rsize
    # a product on one processor is priced once
    w, c_d, c_r, t_p = bca_time(m, rsize, n_u, b_d, machine) if n_u > 1 else sequential
    return CpCost(sequential[3], t_p, w, c_d, c_r, n_u, shape, split, b_d, b_result)


def query_costs(tree, machine: MachineParams) -> QueryCost:
    """The one cost pass of a tree: each product's shape, split and cost,
    derived once, with their query-level sums, added in product order.

    Sequential products contribute their full t_s to the computation
    total; only distributed products contribute communication.
    """
    stats = factoring.tree_stats(tree)
    per = []
    t_s = t_p = cm = cp = 0.0
    n_u = 1
    for shape in stats.shapes:
        c = parallel_cp_cost(shape, machine)
        per.append(c)
        t_s += c.t_s
        t_p += c.t_p
        n_u = max(n_u, c.n_u)
        cm += c.c_d + c.c_r
        cp += c.w
    return QueryCost(tuple(per), stats, machine, t_s, t_p, n_u, cm, cp)


def longest_path(tree, qc: QueryCost) -> LongestPath:
    """The root-to-leaf path whose products cost the most sequentially.

    seq_time sums the sequential product times along that path: the floor
    for any schedule that runs disjoint subtrees concurrently but each
    product on one processor.  par_time sums the same products' modeled
    parallel times, pricing tree-level concurrency on top of per-product
    distribution; concurrent subtrees are assumed to find processors
    beyond the per-product allotment, so each product keeps the cost it
    has in the plain query run.  `qc` is the tree's `query_costs`, one
    cost per product node in node order.  Requires children to precede
    parents in the node list, which built and loaded trees guarantee.
    """
    nodes = tree.nodes
    cost = dict(zip((i for i, node in enumerate(nodes) if node.factor is None), qc.per_cp))
    below = [0.0] * len(nodes)  # a leaf adds nothing
    for i, c in cost.items():
        node = nodes[i]
        below[i] = c.t_s + max(below[node.left], below[node.right])
    path = []
    at = tree.root
    while at in cost:
        path.append(at)
        node = nodes[at]
        at = node.left if below[node.left] >= below[node.right] else node.right
    return LongestPath(
        seq_time=sum((cost[i].t_s for i in path), 0.0),
        par_time=sum((cost[i].t_p for i in path), 0.0),
        node_ids=tuple(path),
    )


def memory_accounting(qc: QueryCost):
    """Per-processor byte estimates: (bca_mem, bca_mem_excl_final, dist_mem).

    bca_mem totals the bytes moved to and from one worker over all
    products; bca_mem_excl_final drops the root product, whose limited
    split inflates the figure; dist_mem is the resident footprint of the
    biggest product when inputs and result all live on every processor.
    `qc` is the tree's `query_costs`.

    A worker returns b_result / 2**d_max bytes, so the sums are kept as
    exact integers scaled by 2**D, D the largest d_max, and divided once.
    """
    if not qc.per_cp:
        return 0.0, 0.0, 0.0
    top = qc.n_u_query.bit_length() - 1  # the largest d_max
    total = biggest = 0
    for c in qc.per_cp:
        moved = (c.b_d << top) + (c.b_result << (top - c.d_max))
        total += moved
        biggest = max(biggest, c.shape.size1 + c.shape.size2 + c.shape.result_size)
    # children come before parents, so `moved` is the root's, the last product
    scale = 1 << top
    dist_mem = float(qc.machine.bytes_per_entry * biggest)
    return total / scale, (total - moved) / scale, dist_mem
