"""The numeric evaluator's inner loop: one fused conformal product and
summation per tree node."""

import math

import numpy as np

# Products with fewer joint assignments than this skip einsum's path
# optimizer: planning a call costs more than the small contraction itself.
_OPTIMIZE_FROM = 2 ** 10


def backend() -> str:
    """Name of the kernel implementation; there is one, in numpy."""
    return "numpy"


def product_sum(t1, vars1, t2, vars2, result_vars) -> np.ndarray:
    """result(y) = sum over dropped vars of t1(x|vars1) * t2(x|vars2).

    Each table has one axis per variable of its list, in list order, and
    the result has one per variable of `result_vars`, which must be a
    subset of the union of vars1 and vars2.  Cardinalities are read from
    the shapes; a variable held by both inputs must have the same length
    in each.  One `np.einsum` call labels each union variable by a small
    integer, so the union may hold at most 52 variables, einsum's label
    limit (a table over 53 binary variables could not be allocated
    anyway).  Large products take einsum's optimized path, which sums out
    a variable only one input holds before the product and multiplies the
    rest as one batched matmul.  Returns a new writeable array, which the
    caller may scale in place.
    """
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
