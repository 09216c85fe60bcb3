"""The numeric evaluator's inner loop: one fused conformal product and
summation per tree node."""

import numpy as np


def backend() -> str:
    """Name of the kernel implementation; there is one, in numpy."""
    return "numpy"


def product_sum(t1, vars1, t2, vars2, union, cards, result_vars) -> np.ndarray:
    """result(y) = sum over dropped vars of t1(x|vars1) * t2(x|vars2).

    `union`/`cards` describe the joint assignment space (ascending ids,
    last variable fastest); `result_vars` must be a subset of `union`.
    The product is formed over the full union table and then reduced.
    Returns a new array, which the caller may scale in place.
    """
    in1 = set(vars1)
    in2 = set(vars2)
    kept = set(result_vars)
    shape1 = tuple(cards[i] if v in in1 else 1 for i, v in enumerate(union))
    shape2 = tuple(cards[i] if v in in2 else 1 for i, v in enumerate(union))
    full = np.asarray(t1, dtype=np.float64).reshape(shape1 or (1,)) * np.asarray(
        t2, dtype=np.float64
    ).reshape(shape2 or (1,))
    dropped = tuple(i for i, v in enumerate(union) if v not in kept)
    if dropped:
        full = full.sum(axis=dropped)
    return np.asarray(full, dtype=np.float64).ravel()
