"""Forward semantics of the tensor kernel: fixed oracles and properties."""

import numpy as np
import pytest

from nadex.kernel import tensor as K
from nadex.errors import (ConfigurationError, ContractError, DomainError,
                          ShapeMismatchError, UnknownIdError)


def t(x, grad=False):
    return K.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity_case():
    eye = t(np.eye(2))
    a = t([[1.0, 2.0], [3.0, 4.0]])
    out = K.matmul(eye, a)
    assert np.array_equal(out.data, a.data)


def test_matmul_selector_row():
    out = K.matmul(t([[1.0, 0.0]]), t([[2.0], [5.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 2.0


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, k, n = rng.integers(1, 7, size=3)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        ref = np.zeros((m, n))
        for i in range(m):
            for j in range(n):
                for p in range(k):
                    ref[i, j] += a[i, p] * b[p, j]
        out = K.matmul(t(a), t(b)).data
        assert np.max(np.abs(out - ref)) <= 1e-12


@pytest.mark.parametrize("left_shape", [(2, 3, 4, 5), (3, 5), (1, 1, 5)])
def test_matmul_with_2d_weight_matches_numpy(left_shape):
    rng = np.random.default_rng(11)
    a = rng.normal(size=left_shape)
    b = rng.normal(size=(5, 2))
    out = K.matmul(t(a), t(b)).data
    ref = np.matmul(a, b)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-12


def test_matmul_identity_associativity_bitwise():
    rng = np.random.default_rng(7)
    a = rng.integers(-4, 5, size=(3, 3)).astype(np.float64)
    b = rng.integers(-4, 5, size=(3, 3)).astype(np.float64)
    eye = np.eye(3)
    left = K.matmul(K.matmul(t(a), t(eye)), t(b)).data
    right = K.matmul(t(a), K.matmul(t(eye), t(b))).data
    assert np.array_equal(left, right)


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeMismatchError) as exc:
        K.matmul(t(np.ones((2, 3))), t(np.ones((4, 2))))
    msg = str(exc.value)
    assert "3" in msg and "4" in msg


def test_matmul_batched_broadcast():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 2, 3))
    b = rng.normal(size=(3, 5))
    out = K.matmul(t(a), t(b)).data
    assert out.shape == (4, 2, 5)
    assert np.allclose(out, a @ b)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = K.softmax(t([0.0, 0.0])).data
    assert np.array_equal(out, [0.5, 0.5])


def test_softmax_ln3_analytic():
    out = K.softmax(t([np.log(3.0), 0.0])).data
    assert np.allclose(out, [0.75, 0.25], atol=1e-12)


def test_softmax_high_temperature_flattens():
    out = K.softmax(t([2.0, 0.0]), temperature=100.0).data
    assert np.max(np.abs(out - np.array([0.505, 0.495]))) <= 1e-3


def test_softmax_simplex_property():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.normal(scale=10.0, size=(4, 9))
        y = K.softmax(t(x)).data
        assert np.all(y >= 0.0)
        assert np.max(np.abs(y.sum(axis=-1) - 1.0)) <= 1e-12


def test_softmax_max_subtraction_is_stable():
    y = K.softmax(t([1e4, 0.0])).data
    assert np.all(np.isfinite(y))
    assert y[0] > 0.999999


def test_softmax_rejects_nonpositive_temperature():
    for bad in (0.0, -1.0):
        with pytest.raises(ConfigurationError):
            K.softmax(t([1.0, 2.0]), temperature=bad)


# ---------------------------------------------------------------------------
# elementwise suite


def test_sigmoid_zero():
    assert K.sigmoid(t(0.0)).data == 0.5


def test_sigmoid_extremes_stay_finite():
    y = K.sigmoid(t([-1e3, 1e3])).data
    assert np.all(np.isfinite(y))
    assert 0.0 <= y[0] < 1e-12
    assert 1.0 - 1e-12 < y[1] <= 1.0


def test_l2_normalize_345_triangle():
    out = K.l2_normalize(t([3.0, 4.0])).data
    assert np.allclose(out, [0.6, 0.8], atol=1e-15)


def test_l2_normalize_zero_vector_returns_zero():
    x = t(np.zeros(4), grad=True)
    with K.Tape().active():
        y = K.l2_normalize(x)
        assert np.array_equal(y.data, np.zeros(4))
        K.backward(K.sum(y))
    assert x.grad is None or not np.any(x.grad)


def test_layer_norm_constant_vector_is_zero():
    # power-of-two length: the mean of equal values is exact, so the
    # centered input is exactly zero and the variance floor keeps it there
    gain = t(np.ones(8))
    bias = t(np.zeros(8))
    out = K.layer_norm(t(np.full(8, 3.7)), gain, bias).data
    assert np.array_equal(out, np.zeros(8))


def test_layer_norm_constant_vector_general_length():
    gain = t(np.ones(7))
    bias = t(np.zeros(7))
    out = K.layer_norm(t(np.full(7, 3.7)), gain, bias).data
    assert np.max(np.abs(out)) <= 1e-9


def test_layer_norm_standardizes_generic_rows():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 32))
    h = x.shape[-1]
    out = K.layer_norm(t(x), t(np.ones(h)), t(np.zeros(h))).data
    assert np.max(np.abs(out.mean(axis=-1))) <= 1e-12
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) <= 1e-3


def test_log_domain_error():
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            K.log(t([1.0, bad]))


def test_relu_values_and_subgradient_at_zero():
    x = t([-2.0, 0.0, 3.0], grad=True)
    with K.Tape().active():
        y = K.relu(x)
        assert np.array_equal(y.data, [0.0, 0.0, 3.0])
        K.backward(K.sum(y))
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


def test_add_broadcasting_and_unbroadcast_grad():
    a = t(np.ones((2, 3)), grad=True)
    b = t(np.ones((1, 3)), grad=True)
    with K.Tape().active():
        K.backward(K.sum(K.add(a, b)))
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (1, 3)
    assert np.array_equal(b.grad, np.full((1, 3), 2.0))


def test_mul_sub_scale_add_scalar_values():
    a = np.array([1.0, -2.0, 4.0])
    b = np.array([3.0, 5.0, -1.0])
    assert np.array_equal(K.mul(t(a), t(b)).data, a * b)
    assert np.array_equal(K.sub(t(a), t(b)).data, a - b)
    assert np.array_equal(K.scale(t(a), -2.5).data, a * -2.5)
    assert np.array_equal(K.add_scalar(t(a), 1e-8).data, a + 1e-8)


def test_mean_and_sum_reductions():
    x = np.arange(12, dtype=np.float64).reshape(3, 4)
    assert K.mean(t(x)).data == x.mean()
    assert np.array_equal(K.sum(t(x), axis=0).data, x.sum(axis=0))
    assert K.sum(t(x), axis=1, keepdims=True).data.shape == (3, 1)


# ---------------------------------------------------------------------------
# embedding_gather


def test_gather_returns_rows_in_order():
    table = t(np.arange(12, dtype=np.float64).reshape(4, 3))
    out = K.embedding_gather(table, np.array([2, 0, 2]))
    assert np.array_equal(out.data, table.data[[2, 0, 2]])


def test_gather_empty_ids():
    table = t(np.ones((4, 3)))
    out = K.embedding_gather(table, np.array([], dtype=np.int64))
    assert out.data.shape == (0, 3)


def test_gather_one_hot_basis_row():
    table = t(np.eye(5))
    out = K.embedding_gather(table, np.array([3]))
    assert np.array_equal(out.data[0], np.eye(5)[3])


def test_gather_duplicate_id_doubles_gradient():
    table = t(np.random.default_rng(0).normal(size=(4, 3)), grad=True)
    with K.Tape().active():
        out = K.embedding_gather(table, np.array([1, 1]))
        K.backward(K.sum(out))
    assert np.array_equal(table.grad[1], np.full(3, 2.0))
    assert not np.any(table.grad[0])


def test_gather_scatter_matches_sequential_loop_on_existing_grad():
    rng = np.random.default_rng(5)
    table = t(rng.normal(size=(5, 16)), grad=True)
    # a large existing grad makes any regrouping of the sums change bits
    base = rng.normal(size=(5, 16)) * 1e3
    table.grad = base.copy()
    ids_a, ids_b = np.array([3, 3, 3, 0, 3]), np.array([0, 3, 1, 3])
    w_a, w_b = rng.normal(size=(5, 16)), rng.normal(size=(4, 16))
    with K.Tape().active():
        loss = K.add(K.sum(K.mul(K.embedding_gather(table, ids_a), t(w_a))),
                     K.sum(K.mul(K.embedding_gather(table, ids_b), t(w_b))))
        K.backward(loss)
    expected = base.copy()
    # the tape replays in reverse, so the second gather scatters first
    for ids, rows in ((ids_b, w_b), (ids_a, w_a)):
        for k in range(len(ids)):
            expected[ids[k]] += rows[k]
    assert np.array_equal(table.grad, expected)


def test_gather_unknown_id_names_id_and_size():
    table = t(np.ones((4, 3)))
    with pytest.raises(UnknownIdError) as exc:
        K.embedding_gather(table, np.array([7]))
    msg = str(exc.value)
    assert "7" in msg and "4" in msg


# ---------------------------------------------------------------------------
# backward contract


def test_backward_x_times_x():
    x = t(3.0, grad=True)
    with K.Tape().active():
        K.backward(K.mul(x, x))
    assert x.grad == pytest.approx(6.0, abs=0.0)


def test_backward_disconnected_parameter_keeps_zero_grad():
    x = t([1.0, 2.0], grad=True)
    unused = t([5.0], grad=True)
    with K.Tape().active():
        K.backward(K.sum(K.mul(x, x)))
    assert unused.grad is None or not np.any(unused.grad)


def test_backward_rejects_non_scalar():
    x = t([1.0, 2.0], grad=True)
    with K.Tape().active():
        y = K.mul(x, x)
        with pytest.raises(ContractError):
            K.backward(y)


def test_backward_clears_tape():
    x = t(2.0, grad=True)
    tape = K.Tape()
    with tape.active():
        K.backward(K.mul(x, x))
        assert len(tape) == 0


def test_duplicate_use_accumulates():
    x = t([1.0, 2.0], grad=True)
    with K.Tape().active():
        K.backward(K.sum(K.add(x, x)))
    assert np.array_equal(x.grad, [2.0, 2.0])


# ---------------------------------------------------------------------------
# structural ops


def test_reshape_transpose_concat_take_roundtrip():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 3, 4))
    xt = K.transpose(t(x), (2, 0, 1))
    assert np.array_equal(xt.data, np.transpose(x, (2, 0, 1)))
    xr = K.reshape(t(x), (6, 4))
    assert np.array_equal(xr.data, x.reshape(6, 4))
    a, b = t(x[:1]), t(x[1:])
    cat = K.concat([a, b], axis=0)
    assert np.array_equal(cat.data, x)
    tk = K.take(t(x), 2, axis=1)
    assert np.array_equal(tk.data, x[:, 2, :])


def test_gather_rows_at_picks_one_column_per_row():
    x = t(np.arange(12, dtype=np.float64).reshape(3, 4))
    cols = np.array([1, 3, 0])
    out = K.gather_rows_at(x, cols)
    assert np.array_equal(out.data, [1.0, 7.0, 8.0])


def test_dropout_off_is_identity():
    x = t(np.ones((3, 3)))
    out = K.dropout(x, 0.5, None, train_mode=False)
    assert np.array_equal(out.data, x.data)


def test_dropout_rate_zero_is_identity_in_train_mode():
    x = t(np.ones((3, 3)))
    out = K.dropout(x, 0.0, np.random.default_rng(0), train_mode=True)
    assert np.array_equal(out.data, x.data)


def test_dropout_rescales_survivors():
    rng = np.random.default_rng(21)
    x = t(np.ones((100, 100)))
    out = K.dropout(x, 0.25, rng, train_mode=True).data
    kept = out != 0.0
    assert np.all(np.isin(out[kept], [1.0 / 0.75]))
    assert abs(kept.mean() - 0.75) < 0.02


def test_dropout_rejects_rate_one():
    with pytest.raises(ConfigurationError):
        K.dropout(t(np.ones(3)), 1.0, np.random.default_rng(0), train_mode=True)


def test_forward_determinism_fixed_seed():
    def run():
        rng = np.random.default_rng(42)
        x = t(rng.normal(size=(4, 8)))
        y = K.softmax(K.matmul(x, K.transpose(x, (1, 0))))
        return K.sum(K.sigmoid(y)).data.copy()

    assert np.array_equal(run(), run())
