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

    # Row j is added to every prototype but its own, in place and in row
    # order, so prototype i is the row-order sum of the other rows at any
    # width, and row i never reaches it.
    sums = np.zeros_like(e.data)
    for j, row in enumerate(e.data):
        sums[:j] += row
        sums[j + 1:] += row
    out = T.Tensor(sums / (n - 1))

    def bwd(g):
        # each e_j feeds every row except its own, at weight 1/(N-1)
        e.accumulate_grad((g.sum(axis=0, keepdims=True) - g) / (n - 1))

    return NegativePrototypeBatch(
        prototypes=T.record_op(out, (e,), bwd), valid=True
    )
