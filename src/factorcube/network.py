"""Belief networks: representation, validation, pruning, generation, files.

A net is a DAG of discrete variables, each carrying a dense conditional
probability table given its parents.  CPT layout: one row per parent
assignment (parents in stored order, last parent fastest), child value
fastest within the row.

The file format is a single JSON document holding the variables, parent
lists, CPTs, and the attached query (query variable plus evidence pairs).
Probabilities are written with shortest round-trip precision, so a
save/load cycle reproduces every table bit for bit.
"""

import graphlib
import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

NET_FORMAT = "factorcube-net-v1"

ROW_SUM_TOL = 1e-9

# Dense CPTs grow as 2^(in-degree); this cap keeps a single table at or
# below 2^17 entries while leaving the realized arc totals untouched.
MAX_IN_DEGREE = 16


class NetFormatError(ValueError):
    """A net file is structurally malformed."""


class NetValidationError(ValueError):
    """A net file parsed but violates net invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class GenerationError(ValueError):
    """Random-net parameters are empty or infeasible."""


@dataclass(frozen=True)
class Variable:
    id: int
    name: str
    cardinality: int


@dataclass(frozen=True)
class QuerySpec:
    query_var: int
    evidence: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class BeliefNet:
    variables: tuple[Variable, ...]
    parents: tuple[tuple[int, ...], ...]
    cpts: tuple[np.ndarray, ...]

    def __post_init__(self):
        frozen = []
        for t in self.cpts:
            t = np.ascontiguousarray(t, dtype=np.float64)
            t.setflags(write=False)
            frozen.append(t)
        object.__setattr__(self, "cpts", tuple(frozen))

    @property
    def node_count(self) -> int:
        return len(self.variables)

    @property
    def arc_count(self) -> int:
        return sum(len(p) for p in self.parents)

    def avg_in_arcs(self) -> float:
        return self.arc_count / self.node_count


@dataclass(frozen=True)
class NetGenParams:
    """Generator constraints: closed ranges plus the seed."""

    node_count_range: tuple[int, int] = (10, 100)
    avg_arcs_range: tuple[float, float] = (1.0, 5.0)
    obs_count_range: tuple[int, int] = (1, 20)
    seed: int = 0

    def __post_init__(self):
        # what no node count can satisfy; `random_net` checks the rest per draw
        if not all(map(math.isfinite, self.avg_arcs_range)):
            raise GenerationError(f"arcs range {self.avg_arcs_range} must be finite")
        ranges = (self.node_count_range, self.avg_arcs_range, self.obs_count_range)
        if any(lo > hi for lo, hi in ranges):
            raise GenerationError(
                f"empty range: nodes {self.node_count_range}, "
                f"arcs {self.avg_arcs_range}, obs {self.obs_count_range}"
            )
        if self.node_count_range[0] < 1 or any(lo < 0 for lo, _ in ranges):
            raise GenerationError("ranges must be non-negative (nodes >= 1)")


@dataclass(frozen=True)
class Violation:
    kind: str
    var_id: int | None
    message: str


def validate(net: BeliefNet) -> list[Violation]:
    """Check every net invariant; an empty report means the net is valid."""
    out: list[Violation] = []
    n = net.node_count
    seen = set()
    for i, var in enumerate(net.variables):
        if var.id != i:
            out.append(
                Violation("id-dense", var.id, f"variable at slot {i} has id {var.id}")
            )
        if var.id in seen:
            out.append(Violation("id-duplicate", var.id, f"duplicate id {var.id}"))
        seen.add(var.id)
        if var.cardinality < 2:
            out.append(
                Violation(
                    "cardinality",
                    var.id,
                    f"variable {var.id} has cardinality {var.cardinality} < 2",
                )
            )
    for v, ps in enumerate(net.parents):
        for p in ps:
            if not 0 <= p < n:
                out.append(
                    Violation(
                        "parent-unknown", v, f"variable {v} lists unknown parent {p}"
                    )
                )
        if len(set(ps)) != len(ps):
            out.append(
                Violation("parent-duplicate", v, f"variable {v} repeats a parent")
            )
    if any(o.kind == "parent-unknown" for o in out):
        return out
    try:
        graphlib.TopologicalSorter(dict(enumerate(net.parents))).prepare()
    except graphlib.CycleError:
        out.append(Violation("cycle", None, "parent relation contains a cycle"))
    for v in range(n):
        want = math.prod(net.variables[w].cardinality for w in (v, *net.parents[v]))
        got = net.cpts[v].size
        if got != want:
            out.append(
                Violation(
                    "cpt-size",
                    v,
                    f"variable {v} has a CPT of {got} entries, expected {want}",
                )
            )
            continue
        card = net.variables[v].cardinality
        rows = net.cpts[v].reshape(-1, card)
        if not np.all(np.isfinite(rows)) or np.any(rows < 0):
            out.append(
                Violation(
                    "prob-range", v, f"variable {v} has a negative or non-finite entry"
                )
            )
            continue
        bad = np.nonzero(np.abs(rows.sum(axis=1) - 1.0) > ROW_SUM_TOL)[0]
        for r in bad:
            out.append(
                Violation(
                    "row-sum",
                    v,
                    f"variable {v} CPT row {int(r)} sums to {float(rows[r].sum())}",
                )
            )
    return out


def validate_query(net: BeliefNet, query: QuerySpec) -> list[Violation]:
    out: list[Violation] = []
    n = net.node_count
    if not 0 <= query.query_var < n:
        out.append(
            Violation("query-unknown", query.query_var, "query variable not in net")
        )
    if query.query_var in query.evidence:
        out.append(
            Violation("query-observed", query.query_var, "query variable is observed")
        )
    for v, val in query.evidence.items():
        if not 0 <= v < n:
            out.append(Violation("evidence-unknown", v, f"evidence on unknown {v}"))
        elif not 0 <= val < net.variables[v].cardinality:
            out.append(
                Violation(
                    "evidence-range",
                    v,
                    f"evidence value {val} out of range for variable {v}",
                )
            )
    return out


def relevant_factors(net: BeliefNet, query: QuerySpec) -> set[int]:
    """The ancestral closure of the query variable and the evidence
    variables (barren nodes drop out).  Its CPTs define the paper's
    instances; it is a superset of the requisite CPTs
    (`requisite_factors`)."""
    todo = [query.query_var, *query.evidence]
    closure: set[int] = set()
    while todo:
        v = todo.pop()
        if v in closure:
            continue
        closure.add(v)
        todo.extend(net.parents[v])
    return closure


def requisite_factors(net: BeliefNet, query: QuerySpec) -> list[int]:
    """Ids, ascending, of the CPTs that P(query | evidence) needs: the
    nodes one Bayes-ball pass from the query variable marks on top
    (Shachter, "Bayes-Ball: The Rational Pastime", UAI 1998).

    An unobserved node visited from a child passes the ball to its parents
    and children, one visited from a parent to its children; an observed
    node passes it to its parents when visited from a parent, and stops it
    otherwise.  A node that passes to its parents is on top.  Each node is
    marked on top and at the bottom at most once, so the pass is linear.

    The ids are a subset of `relevant_factors`.  A CPT the pass drops
    cannot change the posterior, but a zero in it can make the evidence
    impossible; so if any dropped CPT has an entry that is not strictly
    positive, the whole ancestral closure is returned instead.
    """
    children: list[list[int]] = [[] for _ in net.parents]
    for v, ps in enumerate(net.parents):
        for p in ps:
            children[p].append(v)
    top: set[int] = set()
    bottom: set[int] = set()
    todo = [(query.query_var, True)]  # (node, visited from a child)
    while todo:
        v, from_child = todo.pop()
        if v in query.evidence:
            if not from_child and v not in top:
                top.add(v)
                todo.extend((p, True) for p in net.parents[v])
            continue
        if from_child and v not in top:
            top.add(v)
            todo.extend((p, True) for p in net.parents[v])
        if v not in bottom:
            bottom.add(v)
            todo.extend((c, False) for c in children[v])
    closure = relevant_factors(net, query)
    if any(not net.cpts[v].min() > 0.0 for v in closure - top):
        return sorted(closure)
    return sorted(top)


def _arc_capacity(n: int) -> int:
    """Distinct arcs available once each node's in-degree is capped."""
    return sum(min(i, MAX_IN_DEGREE) for i in range(n))


def _draw_arc_slots(rng, n: int, target_avg: float, t_lo: int, t_hi: int):
    """Parent sets by topological position.

    Each node draws an in-degree with expectation `target_avg` (clipped by
    its predecessor count and MAX_IN_DEGREE) and uniform parents among its
    predecessors; single arcs are then added or removed at random until the
    total lands in [t_lo, t_hi], so the realized average is in range by
    construction.  Requires t_lo <= _arc_capacity(n).

    A removal takes the r-th of all arcs and an addition the r-th of all
    free slots, both ordered child first, then parent, ascending, for one
    uniform r.  Neither list is built: the node holding index r is found
    in a running sum of the per-node counts, so each adjusted arc costs
    O(n).
    """
    caps = [min(i, MAX_IN_DEGREE) for i in range(n)]
    chosen: list[set[int]] = [set() for _ in range(n)]
    for i in range(1, n):
        p = min(1.0, target_avg / caps[i])
        k = int(rng.binomial(caps[i], p))
        chosen[i].update(rng.choice(i, size=k, replace=False).tolist())

    def locate(counts, r):
        """(node, offset) of overall index r in the counts' concatenation."""
        ends = list(accumulate(counts))
        i = bisect_right(ends, r)
        return i, r - ends[i] + counts[i]

    degrees = [len(c) for c in chosen]
    total = sum(degrees)
    while total > t_hi:
        i, r = locate(degrees, int(rng.integers(0, total)))
        chosen[i].discard(sorted(chosen[i])[r])
        degrees[i] -= 1
        total -= 1

    def free_slots(i):
        """Node i's unchosen predecessors while it is below its cap, else 0."""
        return i - len(chosen[i]) if len(chosen[i]) < caps[i] else 0

    free = [free_slots(i) for i in range(n)]
    while total < t_lo:
        i, j = locate(free, int(rng.integers(0, sum(free))))
        for c in sorted(chosen[i]):  # j-th unchosen predecessor of i
            if c > j:
                break
            j += 1
        chosen[i].add(j)
        free[i] = free_slots(i)
        total += 1
    return [sorted(c) for c in chosen]


def random_net(params: NetGenParams) -> tuple[BeliefNet, QuerySpec]:
    """Deterministic random net and query for the given params.

    Node count, target average in-degree, and observation count are drawn
    uniformly from their (feasibility-clipped) ranges.  Over a random
    topological order, each node draws a binomial in-degree with the target
    average as its mean and that many uniform parents among its predecessors;
    the arc total is then moved into the range one uniformly drawn arc
    (removed) or free slot (added) at a time, at O(n) per arc moved (see
    `_draw_arc_slots`), so the realized average lands inside the requested
    range by construction.  Every variable is binary; CPT rows are uniform
    draws renormalized to one.
    """
    n_lo, n_hi = params.node_count_range
    a_lo, a_hi = params.avg_arcs_range
    o_lo, o_hi = params.obs_count_range
    rng = np.random.default_rng(params.seed)
    n = int(rng.integers(n_lo, n_hi + 1))

    max_arcs = _arc_capacity(n)
    t_lo = math.ceil(a_lo * n)
    t_hi = min(math.floor(a_hi * n), max_arcs)
    if t_lo > max_arcs:
        raise GenerationError(
            f"average in-arcs {a_lo} infeasible for {n} nodes "
            f"(at most {max_arcs / n:.2f} per node)"
        )
    if t_lo > t_hi:
        # No achievable total lies inside the range; take the closest one.
        t_lo = t_hi = min(max_arcs, round(((a_lo + a_hi) / 2) * n))
    target_avg = float(rng.uniform(a_lo, a_hi))

    obs_hi = min(o_hi, n - 1)
    if o_lo > obs_hi:
        raise GenerationError(
            f"observation count {o_lo} infeasible for {n} nodes "
            "(at least one variable must stay unobserved)"
        )
    obs_count = int(rng.integers(o_lo, obs_hi + 1))

    # Positions 0..n-1 form the topological order; shuffle the id labels.
    label = rng.permutation(n).tolist()
    parents_by_pos = _draw_arc_slots(rng, n, target_avg, t_lo, t_hi)

    parents: list[tuple[int, ...]] = [()] * n
    for pos in range(n):
        parents[label[pos]] = tuple(sorted(label[p] for p in parents_by_pos[pos]))

    variables = tuple(Variable(i, f"n{i}", 2) for i in range(n))
    # one draw for every row, in variable order: the same doubles as one
    # draw per variable, since the generator fills arrays in C order
    ends = [0, *accumulate(2 ** len(ps) for ps in parents)]
    raw = rng.random((ends[-1], 2))
    raw /= raw.sum(axis=1, keepdims=True)
    cpts = tuple(raw[a:b].ravel() for a, b in zip(ends, ends[1:]))
    net = BeliefNet(variables, tuple(parents), cpts)

    observed = [int(x) for x in rng.choice(n, size=obs_count, replace=False)]
    evidence = {v: int(rng.integers(0, 2)) for v in sorted(observed)}
    unobserved = [v for v in range(n) if v not in evidence]
    query_var = int(unobserved[int(rng.integers(0, len(unobserved)))])
    return net, QuerySpec(query_var, evidence)


def _net_to_obj(net: BeliefNet, query: QuerySpec) -> dict:
    return {
        "format": NET_FORMAT,
        "variables": [
            {"id": v.id, "name": v.name, "cardinality": v.cardinality}
            for v in net.variables
        ],
        "parents": [list(p) for p in net.parents],
        "cpts": [t.tolist() for t in net.cpts],
        "query": query.query_var,
        "evidence": [[v, query.evidence[v]] for v in sorted(query.evidence)],
    }


def save_net(net: BeliefNet, query: QuerySpec, path) -> None:
    write_json(_net_to_obj(net, query), path)


def write_json(obj, path) -> None:
    """Write obj as indent-1 JSON and a newline to the file at path, or to
    stdout when path is None; ValueError naming the path if the file
    cannot be written.  The one writer of net and tree files."""
    text = json.dumps(obj, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        write_text(text, path)


def write_text(text: str, path) -> None:
    """Write text to the file at path; ValueError naming the path if the
    file cannot be written.  Every file the command line writes goes
    through here."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"{path}: cannot write ({exc.strerror})") from exc


def read_json(path):
    """The JSON document in the file at path; ValueError naming the path
    if the file cannot be opened, NetFormatError if it is not valid JSON
    or nests too deep to parse."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read ({exc.strerror})") from exc
    with fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise NetFormatError(f"{path}: not valid JSON ({exc})") from exc


def is_integer(value) -> bool:
    """Whether a JSON value is an integer: an int or a float with an
    integral value, never a bool or a string."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or isinstance(value, float) and value.is_integer()


def json_int(value, where) -> int:
    """value as an int; NetFormatError unless `is_integer(value)`."""
    if not is_integer(value):
        raise NetFormatError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _require(obj, key, types, where):
    if key not in obj:
        raise NetFormatError(f"{where}: missing field {key!r}")
    val = obj[key]
    if types is int:
        return json_int(val, f"{where}: field {key!r}")
    if not isinstance(val, types):
        raise NetFormatError(f"{where}: field {key!r} has wrong type")
    return val


def load_net(path) -> tuple[BeliefNet, QuerySpec]:
    """Parse and validate a net file (`net_from_obj`)."""
    return net_from_obj(read_json(path), path)


def net_from_obj(obj, path) -> tuple[BeliefNet, QuerySpec]:
    """Validate the parsed JSON document of a net file; path names the
    file in messages.

    Raises NetFormatError for malformed documents and NetValidationError
    (carrying the violation report) for well-formed but invalid nets.
    """
    if not isinstance(obj, dict):
        raise NetFormatError(f"{path}: top level must be an object")
    variables = []
    for i, rec in enumerate(_require(obj, "variables", list, path)):
        if not isinstance(rec, dict):
            raise NetFormatError(f"{path}: variables[{i}] must be an object")
        where = f"{path}: variables[{i}]"
        variables.append(
            Variable(
                _require(rec, "id", int, where),
                _require(rec, "name", str, where),
                _require(rec, "cardinality", int, where),
            )
        )
    parents_raw = _require(obj, "parents", list, path)
    cpts_raw = _require(obj, "cpts", list, path)
    if len(parents_raw) != len(variables) or len(cpts_raw) != len(variables):
        raise NetFormatError(
            f"{path}: variables, parents, and cpts must have equal length"
        )
    parents = tuple(
        tuple(json_int(p, f"{path}: parents[{i}]") for p in ps)
        if isinstance(ps, list)
        else _bad_parents(path, i)
        for i, ps in enumerate(parents_raw)
    )
    try:
        cpts = tuple(np.asarray(t, dtype=np.float64).ravel() for t in cpts_raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NetFormatError(f"{path}: cpts must be flat numeric arrays ({exc})") from exc
    net = BeliefNet(tuple(variables), parents, cpts)

    qvar = _require(obj, "query", int, path)
    evidence = {}
    for i, pair in enumerate(_require(obj, "evidence", list, path)):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise NetFormatError(f"{path}: evidence[{i}] must be a [var, value] pair")
        where = f"{path}: evidence[{i}]"
        var = json_int(pair[0], where)
        if var in evidence:
            raise NetFormatError(f"{where}: variable {var} is observed twice")
        evidence[var] = json_int(pair[1], where)
    query = QuerySpec(qvar, evidence)

    report = validate(net) + validate_query(net, query)
    if report:
        raise NetValidationError(report)
    return net, query


def _bad_parents(path, i):
    raise NetFormatError(f"{path}: parents[{i}] must be a list of variable ids")
