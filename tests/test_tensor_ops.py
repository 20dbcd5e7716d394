"""Forward semantics of the tensor kernel: fixed oracles and properties."""

import warnings

import numpy as np
import pytest

from nadex.kernel import tensor as K
from nadex.negsample import negative_prototypes
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_bias_is_the_sum_it_replaces_bitwise(dtype):
    rng = np.random.default_rng(12)
    a, w, bias = (K.Tensor(rng.normal(size=shape).astype(dtype))
                  for shape in ((6, 4), (4, 3), (3,)))
    fused = K.matmul(a, w, bias).data
    assert fused.dtype == dtype
    assert fused.tobytes() == K.add(K.matmul(a, w), bias).data.tobytes()


def test_matmul_bias_widens_like_add():
    rng = np.random.default_rng(13)
    a = K.Tensor(rng.normal(size=(2, 3)).astype(np.float32))
    w = K.Tensor(rng.normal(size=(3, 2)).astype(np.float32))
    bias = t(rng.normal(size=(2,)))
    out = K.matmul(a, w, bias).data
    assert out.dtype == np.float64
    assert np.array_equal(out, K.add(K.matmul(a, w), bias).data)


def test_matmul_bias_is_positional_only():
    # perfbench's matmul FLOP counter takes no keyword arguments
    eye = t(np.eye(2))
    with pytest.raises(TypeError):
        K.matmul(eye, eye, bias=t(np.ones(2)))


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


def test_log_sigmoid_zero():
    assert K.log_sigmoid(t(0.0)).data == -np.log(2.0)


def test_log_sigmoid_extremes_stay_finite():
    y = K.log_sigmoid(t([-1e3, 1e3])).data
    assert y[0] == -1e3
    assert abs(y[1]) <= 1e-12


def test_log_sigmoid_float32_backward_at_large_magnitude():
    # the gradient is sigmoid(-x): 1 at -200, and 0 (its float32 rounding
    # of ~1e-87) at +200
    x = K.Tensor(np.array([-200.0, 200.0], dtype=np.float32), requires_grad=True)
    with K.Tape().active():
        y = K.log_sigmoid(x)
        K.backward(K.sum(y))
    assert y.data.dtype == x.grad.dtype == np.float32
    assert y.data[0] == -200.0 and y.data[1] == 0.0
    assert np.array_equal(x.grad, [1.0, 0.0])


def test_log_sigmoid_propagates_nan_silently():
    x = t([np.nan, 1.0], grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with K.Tape().active():
            y = K.log_sigmoid(x)
            K.backward(K.sum(y))
    assert np.isnan(y.data[0]) and np.isfinite(y.data[1])
    assert np.isnan(x.grad[0]) and np.isfinite(x.grad[1])


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


# The gathers' backward adds g into the entries it touched, one at a time in
# order; each case is (input shape, op, that sequential reference).
_GATHER_IDS = np.array([[3, 1], [3, 3]])  # id 3 three times: summed in order
_COLUMNS = np.array([5, 0, 5, 2])


def _scatter_rows(ref, g):
    for i, row in zip(_GATHER_IDS.reshape(-1), g.reshape(-1, ref.shape[1])):
        ref[i] += row


def _scatter_columns(ref, g):
    for i, c in enumerate(_COLUMNS):
        ref[i, c] += g[i]


def _scatter_slice(ref, g):
    ref[:, 2, :] += g


def _scatter_strided(ref, g):
    for i, row in zip(range(2, ref.shape[0], 3), g):
        ref[i] += row


_GATHERS = {
    "embedding_gather": ((5, 3), lambda x: K.embedding_gather(x, _GATHER_IDS),
                         _scatter_rows),
    "gather_rows_at": ((4, 6), lambda x: K.gather_rows_at(x, _COLUMNS),
                       _scatter_columns),
    "take": ((3, 4, 5), lambda x: K.take(x, 2, axis=1), _scatter_slice),
    "take_strided": ((8, 3), lambda x: K.take(x, slice(2, None, 3), axis=0),
                     _scatter_strided),
}


def _gather_backward(name, dtype, existing):
    """Run one gather's backward with upstream g; return (grad, g)."""
    shape, op, _ = _GATHERS[name]
    rng = np.random.default_rng(17)
    x = K.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
    x.grad = existing
    with K.Tape().active():
        out = op(x)
        g = rng.normal(size=out.shape).astype(dtype)
        K.backward(K.sum(K.mul(out, K.constant(g))))
    return x.grad, g


def _touched(shape, scatter, g):
    touched = np.zeros(shape, bool)
    scatter(touched, np.ones_like(g, dtype=bool))
    return touched


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(_GATHERS))
def test_gather_first_gradient_is_zero_outside_touched_entries(name, dtype):
    shape, _, scatter = _GATHERS[name]
    grad, g = _gather_backward(name, dtype, None)
    assert grad.dtype == dtype and grad.flags.c_contiguous
    expected = np.zeros(shape, dtype)
    scatter(expected, g)
    assert _same_bytes(grad, expected)
    assert not np.any(grad[~_touched(shape, scatter, g)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(_GATHERS))
def test_gather_adds_into_existing_gradient_keeping_untouched_bits(name, dtype):
    shape, _, scatter = _GATHERS[name]
    rng = np.random.default_rng(23)
    # large values make any regrouping of the sums change bits; -0.0 would
    # turn into +0.0 if the untouched entries were added to
    base = (rng.normal(size=shape) * 1e3).astype(dtype)
    base[rng.random(shape) < 0.3] = -0.0
    grad, g = _gather_backward(name, dtype, base.copy())
    expected = base.copy()
    scatter(expected, g)
    assert _same_bytes(grad, expected)
    untouched = base[~_touched(shape, scatter, g)]
    assert np.any(np.signbit(untouched) & (untouched == 0.0))


@pytest.mark.parametrize("cols,bad", [([0, 7, 1], "7"), ([0, -1, 1], "-1")])
def test_gather_rows_at_unknown_column_names_id_and_extent(cols, bad):
    x = t(np.ones((3, 4)))
    with pytest.raises(UnknownIdError) as exc:
        K.gather_rows_at(x, np.array(cols))
    msg = str(exc.value)
    assert f"id {bad} " in msg and "4 columns" in msg


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


# Single-parent backward closures carry no requires_grad guard: record_op
# only tapes an op when its one parent requires grad.
_SINGLE_PARENT_OPS = {
    "scale": lambda x: K.scale(x, 2.0),
    "add_scalar": lambda x: K.add_scalar(x, 1.0),
    "log_sigmoid": K.log_sigmoid,
    "log": K.log,
    "relu": K.relu,
    "sum": lambda x: K.sum(x, axis=0),
    "mean": lambda x: K.mean(x, axis=1),
    "softmax": K.softmax,
    "l2_normalize": K.l2_normalize,
    "dropout": lambda x: K.dropout(x, 0.5, np.random.default_rng(0), True),
    "embedding_gather": lambda x: K.embedding_gather(x, [1, 0, 1]),
    "gather_rows_at": lambda x: K.gather_rows_at(x, [2, 0]),
    "reshape": lambda x: K.reshape(x, (3, 2)),
    "transpose": lambda x: K.transpose(x, (1, 0)),
    "take": lambda x: K.take(x, 1, axis=1),
    "negative_prototypes": lambda x: negative_prototypes(x).prototypes,
}


@pytest.mark.parametrize("op", sorted(_SINGLE_PARENT_OPS))
def test_single_parent_op_on_constant_records_nothing(op):
    x = K.constant(np.arange(1.0, 7.0).reshape(2, 3))
    tape = K.Tape()
    with tape.active():
        out = _SINGLE_PARENT_OPS[op](x)
    assert len(tape) == 0
    assert not out.requires_grad


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
        return K.sum(K.log_sigmoid(y)).data.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# dtype policy and cast


def test_tensor_keeps_float32_and_widens_everything_else():
    assert K.Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float32
    for other in (np.ones(3, dtype=np.float16), np.arange(3), [1.0, 2.0], 2.5):
        assert K.Tensor(other).data.dtype == np.float64


def test_cast_forward_dtype_and_values():
    x = t([[1.5, -2.25], [1.0 / 3.0, 4.0]])
    y = K.cast(x, np.float32)
    assert y.data.dtype == np.float32
    assert np.array_equal(y.data, x.data.astype(np.float32))
    back = K.cast(y, np.float64)
    assert back.data.dtype == np.float64
    assert np.array_equal(back.data, y.data.astype(np.float64))


def test_cast_gradient_comes_back_in_source_dtype():
    x = t([1.0, 2.0, 3.0], grad=True)
    with K.Tape().active():
        y = K.cast(x, np.float32)
        K.backward(K.sum(K.mul(y, y)))
    assert x.grad.dtype == np.float64
    assert np.array_equal(x.grad, [2.0, 4.0, 6.0])

    x32 = K.Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    with K.Tape().active():
        K.backward(K.sum(K.mul(K.cast(x32, np.float64), t([0.5, 0.25]))))
    assert x32.grad.dtype == np.float32
    assert np.array_equal(x32.grad, [0.5, 0.25])


def test_cast_chain_gradient_matches_float64_within_float32_tolerance():
    # float64 leaves -> float32 body -> float64 tail, against the same graph
    # with every cast a float64 copy
    rng = np.random.default_rng(4)
    x = t(rng.normal(size=(6, 5)), grad=True)
    w = t(rng.normal(size=(5, 7)), grad=True)
    gain, bias = t(np.ones(7), grad=True), t(np.zeros(7), grad=True)

    def grads(body_dtype):
        with K.Tape().active():
            xs, ws = K.cast(x, body_dtype), K.cast(w, body_dtype)
            g, b = K.cast(gain, body_dtype), K.cast(bias, body_dtype)
            h = K.layer_norm(K.relu(K.matmul(xs, ws)), g, b)
            probs = K.cast(K.softmax(h, temperature=0.5), np.float64)
            K.backward(K.scale(K.mean(K.log(K.add_scalar(probs, 1e-8))), -1.0))
        out = [p.grad.copy() for p in (x, w, gain, bias)]
        for p in (x, w, gain, bias):
            p.grad = None
        return out

    for g32, g64 in zip(grads(np.float32), grads(np.float64)):
        assert g32.dtype == np.float64
        np.testing.assert_allclose(g32, g64, rtol=1e-4,
                                   atol=1e-5 * np.abs(g64).max())


def test_masked_keys_get_exactly_zero_attention_in_float32():
    rng = np.random.default_rng(6)
    logits = rng.normal(scale=30.0, size=(3, 5)).astype(np.float32)
    mask = np.array([[1, 1, 0, 1, 0], [0, 0, 0, 0, 1], [1, 1, 1, 1, 1]], bool)
    bias = np.where(mask, 0.0, K.MASK_NEG).astype(np.float32)
    att = K.softmax(K.add(K.Tensor(logits), K.Tensor(bias))).data
    assert att.dtype == np.float32
    assert np.all(att[~mask] == 0.0)
    assert np.all(att[mask] > 0.0)
    np.testing.assert_allclose(att.sum(axis=-1), 1.0, rtol=1e-6)


def test_layer_norm_variance_floor_keeps_constant_float32_row_finite(monkeypatch):
    # row 0 is a constant (padded) row whose float32 mean is exact, so its
    # variance is exactly 0; rows 1-2 are generic
    rng = np.random.default_rng(8)
    x32 = np.vstack([np.full(8, 3.7), rng.normal(size=(2, 8))]).astype(np.float32)

    def run():
        x = K.Tensor(x32.copy(), requires_grad=True)
        gain = K.Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
        bias = K.Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        with K.Tape().active():
            out = K.layer_norm(x, gain, bias)
            weights = K.Tensor(rng.normal(size=(3, 8)).astype(np.float32))
            K.backward(K.sum(K.mul(out, weights)))
        return out.data, x.grad, gain.grad

    out, gx, ggain = run()
    assert out.dtype == gx.dtype == ggain.dtype == np.float32
    assert np.array_equal(out[0], np.zeros(8))
    assert np.all(np.isfinite(gx)) and np.all(np.isfinite(ggain))

    monkeypatch.setattr(K, "LAYER_NORM_VAR_FLOOR", 0.0)  # the floor is load-bearing
    with np.errstate(divide="ignore", invalid="ignore"):
        out, gx, _ = run()
    assert not np.all(np.isfinite(out[0])) and not np.all(np.isfinite(gx[0]))


# ---------------------------------------------------------------------------
# in-place kernels: gradient buffers, signed zeros, dtype policy, and bytes
# equal to the textbook expressions


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_special_values(dtype):
    x = K.Tensor(np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -1.5, 2.5],
                          dtype=dtype), requires_grad=True)
    with K.Tape().active():
        y = K.relu(x)
        K.backward(K.sum(K.mul(y, K.Tensor(np.ones(7, dtype=dtype)))))
    assert y.data.dtype == dtype
    assert np.array_equal(y.data[:4], [0.0, 0.0, np.inf, 0.0])
    assert not np.any(np.signbit(y.data[[0, 1, 3, 5]]))  # every zero is +0.0
    assert np.isnan(y.data[4])  # NaN propagates
    assert y.data[5] == 0.0 and y.data[6] == dtype(2.5)
    # the subgradient is 1 where x > 0 only: 0 at both zeros and at NaN
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_matches_where_bytewise_on_finite_inputs(dtype):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(37, 129)).astype(dtype)  # odd extents: SIMD tails
    x[rng.random(x.shape) < 0.1] = -0.0
    x[rng.random(x.shape) < 0.05] = 0.0
    assert np.any(np.signbit(x) & (x == 0.0))
    got = K.relu(K.Tensor(x)).data
    assert _same_bytes(got, np.where(x > 0, x, 0.0).astype(dtype))


def test_first_gradient_is_a_private_c_contiguous_zero_filled_sum():
    base = np.arange(12.0).reshape(3, 4)
    x = t(np.zeros((4, 3)), grad=True)
    view = base.T  # F-ordered view of another array
    x.accumulate_grad(view)
    assert x.grad.flags.c_contiguous and x.grad.dtype == np.float64
    assert not np.shares_memory(x.grad, base)
    assert np.array_equal(x.grad, view)
    base[...] = -1.0
    assert np.array_equal(x.grad, np.arange(12.0).reshape(3, 4).T)
    x.accumulate_grad(np.ones((4, 3)))  # later gradients add in place
    assert np.array_equal(x.grad, np.arange(12.0).reshape(3, 4).T + 1.0)

    g32 = np.array([[0.1, -0.2], [1e-30, 3.0]], dtype=np.float32)
    w = t(np.zeros((2, 2)), grad=True)
    w.accumulate_grad(g32)
    assert w.grad.dtype == np.float64 and w.grad.flags.c_contiguous
    assert np.array_equal(w.grad, g32.astype(np.float64))
    g32[...] = 7.0
    assert np.array_equal(w.grad[1], [np.float32(1e-30), 3.0])

    # the buffer holds 0.0 + g: a -0.0 arrives as +0.0, as it would in a
    # zero-filled buffer; a broadcastable g fills the tensor's shape
    z = K.Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
    z.accumulate_grad(np.array([-0.0, 1.0, -0.0], dtype=np.float32))
    assert z.grad.shape == (2, 3) and z.grad.dtype == np.float32
    assert not np.any(np.signbit(z.grad[:, [0, 2]]))


def _layer_norm_reference(x, gain, bias, g):
    """The textbook layer norm forward and backward, as fresh expressions."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.maximum(var, K.LAYER_NORM_VAR_FLOOR))
    xhat = centered * inv
    n = x.shape[-1]
    dxhat = g * gain
    dvar = (dxhat * centered).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
    dvar = np.where(var > K.LAYER_NORM_VAR_FLOOR, dvar, 0.0)
    dmu = -dxhat.sum(axis=-1, keepdims=True) * inv
    dmu = dmu + dvar * (-2.0) * centered.mean(axis=-1, keepdims=True)
    gx = dxhat * inv + dvar * 2.0 * centered / n + dmu / n
    return xhat * gain + bias, gx, (g * xhat).sum(axis=0), g.sum(axis=0)


@pytest.mark.parametrize("dtypes", [
    (np.float32, np.float32, np.float32),
    (np.float64, np.float64, np.float64),
    (np.float32, np.float64, np.float64),  # float32 x, float64 gain/bias
    (np.float32, np.float32, np.float64),  # only bias is wide
])
def test_layer_norm_matches_textbook_bytewise_and_keeps_dtype(dtypes):
    xd, gd, bd = dtypes
    rng = np.random.default_rng(17)
    x_np = np.vstack([np.full(24, 3.7), rng.normal(size=(5, 24))]).astype(xd)
    gain_np = rng.normal(size=24).astype(gd)
    bias_np = rng.normal(size=24).astype(bd)
    out_dtype = np.result_type(xd, gd, bd)
    w_np = rng.normal(size=(6, 24)).astype(out_dtype)
    x = K.Tensor(x_np, requires_grad=True)
    gain = K.Tensor(gain_np, requires_grad=True)
    bias = K.Tensor(bias_np, requires_grad=True)
    with K.Tape().active():
        y = K.layer_norm(x, gain, bias)
        K.backward(K.sum(K.mul(y, K.Tensor(w_np))))
    ref_y, ref_gx, ref_gg, ref_gb = _layer_norm_reference(x_np, gain_np,
                                                          bias_np, w_np)
    assert y.data.dtype == out_dtype
    assert _same_bytes(y.data, ref_y)
    # leaf gradients are accumulated onto 0.0 in the leaf's dtype
    assert _same_bytes(x.grad, (0.0 + ref_gx).astype(xd))
    assert _same_bytes(gain.grad, (0.0 + ref_gg).astype(gd))
    assert _same_bytes(bias.grad, (0.0 + ref_gb).astype(bd))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_matches_textbook_bytewise_and_keeps_dtype(dtype):
    rate = 0.3
    x_np = np.random.default_rng(5).normal(size=(9, 31)).astype(dtype)
    w_np = np.random.default_rng(6).normal(size=(9, 31)).astype(dtype)
    x = K.Tensor(x_np, requires_grad=True)
    with K.Tape().active():
        y = K.dropout(x, rate, np.random.default_rng(23), train_mode=True)
        K.backward(K.sum(K.mul(y, K.Tensor(w_np))))
    keep = np.random.default_rng(23).random(x_np.shape) >= rate
    factor = keep.astype(dtype) / (1.0 - rate)
    assert y.data.dtype == dtype
    assert _same_bytes(y.data, x_np * factor)
    assert _same_bytes(x.grad, 0.0 + w_np * factor)  # dropped: +0.0
