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


def product_sum(t1, vars1, t2, vars2, union, cards, result_vars) -> np.ndarray:
    """result(y) = sum over dropped vars of t1(x|vars1) * t2(x|vars2).

    `union`/`cards` describe the joint assignment space (ascending ids,
    last variable fastest); `result_vars` must be a subset of `union`.
    One `np.einsum` call labels each variable by its position in `union`,
    so `union` may hold at most 52 variables, einsum's label limit (a
    table over 53 binary variables could not be allocated anyway).  Large
    products take einsum's optimized path, which sums out a variable only
    one input holds before the product and multiplies the rest as one
    batched matmul.  Returns a new array, which the caller may scale in
    place.
    """
    pos = {v: i for i, v in enumerate(union)}
    return np.einsum(
        np.reshape(t1, [cards[pos[v]] for v in vars1]), [pos[v] for v in vars1],
        np.reshape(t2, [cards[pos[v]] for v in vars2]), [pos[v] for v in vars2],
        [pos[v] for v in result_vars],
        optimize=math.prod(cards) >= _OPTIMIZE_FROM,
    ).ravel()
