"""Batch-wise negative prototypes: leave-one-out means of target embeddings.

Events sharing a timestamp form the batch; for sample i the negative is the
mean of the other N-1 gold-target embeddings. The construction is a taped
operation, so gradients flow back into the embedding table through every
prototype that a target participates in.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .kernel import tensor as T


@dataclass
class NegativePrototypeBatch:
    prototypes: T.Tensor  # [N, h]
    valid: bool  # False when N == 1 (no peers to average)


def negative_prototypes(target_embeddings):
    """Row i of the result = mean over j != i of target_embeddings[j].

    N == 1 yields a zero prototype flagged invalid; callers skip the
    negative branch. Peers sharing row i's gold entity are averaged in
    like any other row.
    """
    e = target_embeddings
    if e.ndim != 2:
        raise ShapeMismatchError(f"expected [N, h] target embeddings, got {e.shape}")
    n = e.shape[0]
    if n == 1:
        return NegativePrototypeBatch(
            prototypes=T.constant(np.zeros_like(e.data)), valid=False
        )

    # Row i sums every row with row i zeroed, in row order: the same
    # additions as an explicit zero-diagonal construction, so the result is
    # bitwise equal to it and row i never reaches prototype i.
    keep = np.ones((n, 1), dtype=e.data.dtype)
    sums = np.empty_like(e.data)
    for i in range(n):
        keep[i] = 0.0
        sums[i] = (e.data * keep).sum(axis=0)
        keep[i] = 1.0
    out = T.Tensor(sums / (n - 1))

    def bwd(g):
        # each e_j feeds every row except its own, at weight 1/(N-1)
        e.accumulate_grad((g.sum(axis=0, keepdims=True) - g) / (n - 1))

    return NegativePrototypeBatch(
        prototypes=T.record_op(out, (e,), bwd), valid=True
    )
