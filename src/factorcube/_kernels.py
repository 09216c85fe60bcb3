"""The numeric evaluator's inner loop: one fused conformal product and
summation per tree node."""

import itertools
import math

import numpy as np

# Products with fewer joint assignments than this are never multiplied in
# place: one plain einsum call costs less than the route's set-up.
_OPTIMIZE_FROM = 2 ** 10

# A product that sums out a variable both inputs hold runs as blocked
# matmuls from this many joint assignments on; below it one plain einsum
# call is faster.  A block holds every contracted variable and at most
# `_MATMUL_BLOCK` entries of each input, so a wider contraction takes einsum.
_MATMUL_FROM = 2 ** 13
_MATMUL_BLOCK = 2 ** 16

# The in-place multiply's shortest inner loop, and the most entries it
# spends on a copy of the factor to reach it (see `_multiply`).
_BLOCK = 2 ** 10
_SPREAD_MAX = 2 ** 14


def backend() -> str:
    """Name of the kernel implementation; there is one, in numpy."""
    return "numpy"


def product_sum(t1, vars1, t2, vars2, result_vars, *,
                owned=(False, False), shift=0) -> np.ndarray:
    """result(y) = 2**shift * sum over dropped vars of t1(x|vars1) * t2(x|vars2).

    Each table has one axis per variable of its list, in list order, and
    the result has one per variable of `result_vars`, which must be a
    subset of the union of vars1 and vars2.  Cardinalities are read from
    the shapes; a variable held by both inputs must have the same length
    in each.

    `owned` names the inputs the caller gives up: the kernel may write
    into them, and the result may be a view of one.  An input not owned is
    only read.  The power-of-two `shift` is exact; it scales the smaller
    input, never the result.

    Three routes, chosen from the inputs' sizes, variables and owners:
    - In place, when the product has at least `_OPTIMIZE_FROM` joint
      assignments and an owned input holds every variable of the other:
      the smaller input is multiplied into the owned table, iterating in
      that table's memory order, and the dropped variables are summed out
      of it in place.  No union-sized temporary and no copy of the owned
      table is made.  The result is the owned table itself when nothing
      is dropped, else a new array.
    - Blocked matmuls, when the product has at least `_MATMUL_FROM` joint
      assignments and sums out a variable both inputs hold, and these
      contracted variables have at most `_MATMUL_BLOCK` joint values, so
      that they fit one block (see `_blocked_matmul`).  Each input is
      laid out for the matmul one block of at most `_MATMUL_BLOCK`
      entries at a time, never whole, so the route holds its inputs, its
      result and two block buffers.  The result is a new writeable array,
      a transposed view in `result_vars` order.
    - Otherwise one plain `np.einsum` call on the two tables as they are.
    The last two routes label each union variable by a small integer for
    einsum, so the union may hold at most 52 variables, einsum's label
    limit (a table over 53 binary variables could not be allocated anyway).
    A result with no variables is a fresh 0-d array on every route.
    """
    # the larger input first; of two equal ones, an owned one first
    if (t2.size, owned[1]) > (t1.size, owned[0]):
        t1, vars1, t2, vars2 = t2, vars2, t1, vars1
        owned = owned[::-1]
    if shift:
        t2 = np.ldexp(t2, shift, out=t2 if owned[1] else None)
    if owned[0] and t1.size >= _OPTIMIZE_FROM and set(vars2) <= set(vars1):
        return _multiply_into(t1, vars1, t2, vars2, result_vars)
    # union variables labelled in order of first appearance; m, the product's
    # joint assignments, is t1's size times the cardinalities t2 adds
    label = {v: i for i, v in enumerate(vars1)}
    labels2 = []
    m = t1.size
    for v, n in zip(vars2, t2.shape):
        if v not in label:
            label[v] = len(label)
            m *= n
        labels2.append(label[v])
    if m >= _MATMUL_FROM:
        # the contracted variables' cardinalities: both inputs hold them,
        # the result drops them
        contracted = [n for v, n in zip(vars2, t2.shape)
                      if label[v] < len(vars1) and v not in result_vars]
        if contracted and math.prod(contracted) <= _MATMUL_BLOCK:
            return _blocked_matmul(t1, vars1, t2, vars2, result_vars, label)
    # einsum returns a numpy scalar, not an array, when result_vars is empty
    return np.asarray(np.einsum(
        t1, [*range(len(vars1))], t2, labels2, [label[v] for v in result_vars],
    ))


def _blocked_matmul(big, bvars, small, svars, result_vars, label) -> np.ndarray:
    """The product of `big` and the smaller `small`, which sums out a
    variable both hold, as batched matmuls over blocks of the inputs.

    A block holds every contracted variable (both inputs hold it, the
    result drops it), whose joint values must number at most
    `_MATMUL_BLOCK`, then the kept variables, each input's innermost in
    memory first, while each input's part of it has at most
    `_MATMUL_BLOCK` entries.  Every value of the kept variables outside
    the block is one step.  At each step one einsum call lays `big`'s part
    out in a block-sized buffer as (batch, kept, contracted), summing out
    the variables only `big` holds, and another lays `small`'s part out as
    (batch, contracted, kept); each is redone only when its input's part
    changes.  The matmul writes straight into the result's block."""
    card = dict(zip([*bvars, *svars], big.shape + small.shape))
    keep, bheld, sheld = set(result_vars), set(bvars), set(svars)
    shared = bheld & sheld
    binner, sinner = ([tvars[i] for i in sorted(range(t.ndim), key=t.strides.__getitem__)]
                      for t, tvars in ((big, bvars), (small, svars)))
    broom = sroom = _MATMUL_BLOCK
    inblock = set()
    for v in ([v for v in binner if v in shared and v not in keep]
              + [v for v in binner if v in keep]
              + [v for v in sinner if v in keep and v not in bheld]):
        if (v not in bheld or card[v] <= broom) and (v not in sheld or card[v] <= sroom):
            inblock.add(v)
            if v in bheld:
                broom //= card[v]
            if v in sheld:
                sroom //= card[v]
    steps = [v for v in bvars if v not in inblock and v in keep]
    steps += [v for v in svars if v not in inblock and v in keep and v not in bheld]
    step_of = {v: i for i, v in enumerate(steps)}
    batch = [v for v in bvars if v in inblock and v in shared and v in keep]
    bkeep = [v for v in bvars if v in inblock and v in keep and v not in shared]
    contracted = [v for v in bvars if v in inblock and v in shared and v not in keep]
    skeep = [v for v in svars if v in inblock and v in keep and v not in bheld]
    nb, nk, nc, ns = (math.prod([card[v] for v in group])
                      for group in (batch, bkeep, contracted, skeep))
    lhs, rhs = np.empty((nb, nk, nc)), np.empty((nb, nc, ns))
    lhs_vars, rhs_vars = batch + bkeep + contracted, batch + contracted + skeep
    lhs_view = lhs.reshape([card[v] for v in lhs_vars])
    rhs_view = rhs.reshape([card[v] for v in rhs_vars])
    big_labels = [label[v] for v in bvars if v not in step_of]
    small_labels = [label[v] for v in svars if v not in step_of]
    lhs_labels = [label[v] for v in lhs_vars]
    rhs_labels = [label[v] for v in rhs_vars]
    out_vars = steps + batch + bkeep + skeep
    out = np.empty([card[v] for v in out_vars])
    bpick = [step_of.get(v) for v in bvars]
    spick = [step_of.get(v) for v in svars]
    every = slice(None)
    big_at = small_at = None
    for values in itertools.product(*[range(card[v]) for v in steps]):
        at = tuple(every if i is None else values[i] for i in bpick)
        if at != big_at:
            np.einsum(big[at + (...,)], big_labels, lhs_labels, out=lhs_view)
            big_at = at
        at = tuple(every if i is None else values[i] for i in spick)
        if at != small_at:
            np.einsum(small[at + (...,)], small_labels, rhs_labels, out=rhs_view)
            small_at = at
        np.matmul(lhs, rhs, out=out[values + (...,)].reshape(nb, nk, ns))
    return out.transpose([out_vars.index(v) for v in result_vars])


def _multiply_into(table, tvars, factor, fvars, result_vars) -> np.ndarray:
    """Multiply `factor`, whose variables `table` all holds, into the
    writeable `table`, then sum out the variables not in `result_vars`."""
    # the table's axes from the largest stride to the smallest, so that each
    # pass walks its memory in order
    order = sorted(range(table.ndim), key=lambda i: -table.strides[i])
    table = table.transpose(order)
    tvars = [tvars[i] for i in order]
    at = {v: i for i, v in enumerate(tvars)}
    factor = factor.transpose(sorted(range(len(fvars)), key=lambda i: at[fvars[i]]))
    factor = factor[tuple(slice(None) if v in fvars else None for v in tvars)]
    _multiply(table, factor)
    keep = set(result_vars)
    dead = [i for i, v in enumerate(tvars) if v not in keep]
    kept = [v for v in tvars if v in keep]
    back = [kept.index(v) for v in result_vars]
    if not dead:
        return table.transpose(back)
    # sum out in place, outermost axis first: add each value's slice into the
    # first value's, then copy the summed slice out in result order
    cut = [slice(None)] * table.ndim
    for i in dead:
        cut[i] = slice(0, 1)
        first = table[tuple(cut)]
        for k in range(1, table.shape[i]):
            cut[i] = slice(k, k + 1)
            np.add(first, table[tuple(cut)], out=first)
        cut[i] = 0
    return np.array(table[tuple(cut)].transpose(back), order="C")


def _multiply(table, factor) -> None:
    """table *= factor, the factor broadcast over the table's axes.

    numpy's inner loop runs over the trailing axes along which the factor
    is constant or laid out like the table, so a factor that holds a short
    trailing axis makes that loop a few entries long.  Over a C-contiguous
    table such a factor is first spread over the trailing block of at
    least `_BLOCK` entries, when that copy takes at most `_SPREAD_MAX`."""
    j, block = table.ndim, 1
    while j > 0 and block < _BLOCK:
        j -= 1
        block *= table.shape[j]
    outer = factor.shape[:j]
    if (factor.size > math.prod(outer) and table.flags.c_contiguous
            and math.prod(outer) * block <= _SPREAD_MAX):
        factor = np.broadcast_to(factor, outer + table.shape[j:])
        factor = factor.reshape(outer + (block,))
        table = table.reshape(table.shape[:j] + (block,))
    np.multiply(table, factor, out=table)
