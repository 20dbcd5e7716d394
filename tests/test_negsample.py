"""Batch-wise negative prototypes: self-excluding row means over targets."""

import itertools

import numpy as np
import pytest

from nadex.kernel import tensor as K
from nadex.errors import ShapeMismatchError
from nadex.negsample import negative_prototypes

from helpers import check_grad


def T(x, grad=False):
    return K.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


def zero_diagonal_oracle(e):
    """Explicit N x N zero-diagonal weight matrix, then row means."""
    n = e.shape[0]
    w = (np.ones((n, n)) - np.eye(n)) / (n - 1)
    out = np.zeros((n, e.shape[1]))
    for i in range(n):
        acc = np.zeros(e.shape[1])
        for j in range(n):
            acc += w[i, j] * e[j]
        out[i] = acc
    return out


def test_three_row_example():
    e = T([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    out = negative_prototypes(e)
    assert out.valid
    assert np.array_equal(out.prototypes.data,
                          [[0.5, 1.0], [1.0, 0.5], [0.5, 0.5]])


def test_two_rows_swap():
    e = T([[3.0, -1.0], [4.5, 2.0]])
    out = negative_prototypes(e)
    assert np.array_equal(out.prototypes.data[0], e.data[1])
    assert np.array_equal(out.prototypes.data[1], e.data[0])


def test_single_row_degenerates_to_invalid_zero():
    e = T([[7.0, 8.0, 9.0]])
    out = negative_prototypes(e)
    assert not out.valid
    assert np.array_equal(out.prototypes.data, np.zeros((1, 3)))


def test_oracle_equivalence_random_batches():
    rng = np.random.default_rng(0)
    small = (int(rng.integers(2, 9)) for _ in range(200))  # drawn per batch
    for n in itertools.chain(small, (17, 64, 128)):
        h = int(rng.integers(1, 12))
        e = rng.normal(size=(n, h))
        out = negative_prototypes(T(e))
        assert out.valid
        assert np.allclose(out.prototypes.data, zero_diagonal_oracle(e),
                           rtol=0.0, atol=1e-13)


def test_self_exclusion_bitwise():
    rng = np.random.default_rng(1)
    e = rng.normal(size=(5, 6))
    base = negative_prototypes(T(e)).prototypes.data
    for i in range(5):
        bumped = e.copy()
        bumped[i] += rng.normal(size=6) * 10.0
        out = negative_prototypes(T(bumped)).prototypes.data
        assert np.array_equal(out[i], base[i]), f"row {i} reacted to itself"
        others = [j for j in range(5) if j != i]
        assert not np.array_equal(out[others], base[others])


def test_mean_identity():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5, 8):
        e = rng.normal(size=(n, 4))
        protos = negative_prototypes(T(e)).prototypes.data
        assert np.allclose(protos.sum(axis=0), e.sum(axis=0),
                           rtol=1e-12, atol=1e-12)


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    e = rng.normal(size=(6, 3))
    perm = rng.permutation(6)
    base = negative_prototypes(T(e)).prototypes.data
    permuted = negative_prototypes(T(e[perm])).prototypes.data
    assert np.allclose(permuted, base[perm], rtol=0.0, atol=1e-13)


def test_rejects_non_matrix_input():
    with pytest.raises(ShapeMismatchError):
        negative_prototypes(T(np.zeros((2, 3, 4))))


def test_gradients_flow_to_contributing_embeddings():
    rng = np.random.default_rng(4)
    e = K.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w = rng.normal(size=(4, 5))

    def build():
        protos = negative_prototypes(e).prototypes
        return K.sum(K.mul(protos, K.constant(w)))

    check_grad(build, {"e": e}, seeds_checked=4)


def test_gradient_closed_form():
    # d(sum of prototypes)/d(e_j) = (N-1) rows containing e_j / (N-1) = 1
    e = K.Tensor(np.random.default_rng(5).normal(size=(3, 2)),
                 requires_grad=True)
    with K.Tape().active():
        protos = negative_prototypes(e).prototypes
        K.backward(K.sum(protos))
    assert np.allclose(e.grad, np.ones((3, 2)), rtol=0.0, atol=1e-14)


def test_single_row_contributes_zero_gradient():
    e = K.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    with K.Tape().active():
        out = negative_prototypes(e)
        loss = K.sum(K.add(out.prototypes, e))
        K.backward(loss)
    assert np.array_equal(e.grad, np.ones((1, 2)))


def test_duplicate_gold_flag_off_includes_everything():
    e = T([[2.0, 0.0], [0.0, 2.0], [4.0, 4.0]])
    # no gold ids go in, so rows sharing a gold still average each other in
    out = negative_prototypes(e)
    assert np.allclose(out.prototypes.data, zero_diagonal_oracle(e.data),
                       rtol=0.0, atol=1e-13)

