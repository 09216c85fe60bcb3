"""The numeric evaluator's inner loop: one fused conformal product and
summation per tree node."""

import math

import numpy as np

# Products with fewer joint assignments than this skip einsum's path
# optimizer, and are never multiplied in place: planning a call costs more
# than the small contraction itself.
_OPTIMIZE_FROM = 2 ** 10

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

    Two routes, chosen from the inputs' sizes, variables and owners:
    - In place, when the product has at least `_OPTIMIZE_FROM` joint
      assignments and an owned input holds every variable of the other:
      the smaller input is multiplied into the owned table, iterating in
      that table's memory order, and the dropped variables are summed out
      of it in place.  No union-sized temporary and no copy of the owned
      table is made.  The result is the owned table itself when nothing
      is dropped, else a new array.
    - Otherwise one `np.einsum` call on the two tables as they are.  It
      labels each union variable by a small integer, so the union may
      hold at most 52 variables, einsum's label limit (a table over 53
      binary variables could not be allocated anyway).  Large products
      take einsum's optimized path, which sums out a variable only one
      input holds before the product and multiplies the rest as one
      batched matmul.  The result is a new writeable array.
    A result with no variables is a fresh 0-d array on either route.
    """
    # the larger input first; of two equal ones, an owned one first
    if (t2.size, owned[1]) > (t1.size, owned[0]):
        t1, vars1, t2, vars2 = t2, vars2, t1, vars1
        owned = owned[::-1]
    if shift:
        t2 = np.ldexp(t2, shift, out=t2 if owned[1] else None)
    if owned[0] and t1.size >= _OPTIMIZE_FROM and set(vars2) <= set(vars1):
        return _multiply_into(t1, vars1, t2, vars2, result_vars)
    card = dict(zip(vars1, t1.shape))
    card.update(zip(vars2, t2.shape))
    label = {v: i for i, v in enumerate(card)}
    # einsum returns a numpy scalar, not an array, when result_vars is empty
    return np.asarray(np.einsum(
        t1, [label[v] for v in vars1],
        t2, [label[v] for v in vars2],
        [label[v] for v in result_vars],
        optimize=math.prod(card.values()) >= _OPTIMIZE_FROM,
    ))


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
