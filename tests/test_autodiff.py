"""Central finite-difference checks for every differentiable kernel op."""

import numpy as np
import pytest

from nadex import kernel as K

from helpers import check_grad

SEEDS = list(range(20))


def _p(rng, shape, lo=-2.0, hi=2.0):
    return K.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _readout(rng, out):
    """Fixed random linear functional -> scalar, to probe full Jacobians."""
    w = K.constant(rng.normal(size=out.data.shape))
    return K.sum(K.mul(out, w))


def _case_add(rng):
    a, b = _p(rng, (3, 4)), _p(rng, (1, 4))
    probe = np.random.default_rng(999)
    w = probe.normal(size=(3, 4))
    return {"a": a, "b": b}, lambda: K.sum(
        K.mul(K.add(a, b), K.constant(w)))


def _case_sub_mul(rng):
    a, b = _p(rng, (2, 5)), _p(rng, (2, 5))
    w = np.random.default_rng(998).normal(size=(2, 5))
    return {"a": a, "b": b}, lambda: K.sum(
        K.mul(K.mul(K.sub(a, b), b), K.constant(w)))


def _case_scale_add_scalar(rng):
    a = _p(rng, (4,))
    return {"a": a}, lambda: K.sum(K.add_scalar(K.scale(a, -1.7), 0.3))


def _case_matmul(rng):
    a, b = _p(rng, (3, 4)), _p(rng, (4, 2))
    w = np.random.default_rng(997).normal(size=(3, 2))
    return {"a": a, "b": b}, lambda: K.sum(K.mul(K.matmul(a, b), K.constant(w)))


def _case_matmul_batched(rng):
    a, b = _p(rng, (2, 3, 4)), _p(rng, (4, 2))
    w = np.random.default_rng(996).normal(size=(2, 3, 2))
    return {"a": a, "b": b}, lambda: K.sum(K.mul(K.matmul(a, b), K.constant(w)))


def _case_matmul_batched_both(rng):
    # batched right operand (as in attention), broadcast over axis 1
    a, b = _p(rng, (2, 2, 3, 4)), _p(rng, (2, 1, 4, 3))
    w = np.random.default_rng(986).normal(size=(2, 2, 3, 3))
    return {"a": a, "b": b}, lambda: K.sum(K.mul(K.matmul(a, b), K.constant(w)))


def _case_matmul_flat(rng, left_grad, weight_grad):
    # 4-d activations times a 2-d weight: the flattened single-GEMM path
    a = K.Tensor(rng.uniform(-2.0, 2.0, size=(2, 3, 4, 5)),
                 requires_grad=left_grad)
    b = K.Tensor(rng.uniform(-2.0, 2.0, size=(5, 2)), requires_grad=weight_grad)
    w = np.random.default_rng(985).normal(size=(2, 3, 4, 2))
    tensors = {k: v for k, v in (("a", a), ("b", b)) if v.requires_grad}
    return tensors, lambda: K.sum(K.mul(K.matmul(a, b), K.constant(w)))


def _case_sigmoid(rng):
    a = _p(rng, (6,))
    return {"a": a}, lambda: K.sum(K.sigmoid(a))


def _case_log(rng):
    a = K.Tensor(rng.uniform(0.3, 3.0, size=(5,)), requires_grad=True)
    return {"a": a}, lambda: K.sum(K.log(a))


def _case_relu(rng):
    vals = rng.uniform(0.2, 2.0, size=(8,)) * rng.choice([-1.0, 1.0], size=8)
    a = K.Tensor(vals, requires_grad=True)
    w = np.random.default_rng(995).normal(size=(8,))
    return {"a": a}, lambda: K.sum(K.mul(K.relu(a), K.constant(w)))


def _case_mean_sum(rng):
    a = _p(rng, (3, 4))
    return {"a": a}, lambda: K.add(
        K.mean(a), K.sum(K.mul(K.sum(a, axis=0), K.sum(a, axis=0))))


def _case_softmax(rng):
    a = _p(rng, (2, 5))
    w = np.random.default_rng(994).normal(size=(2, 5))
    return {"a": a}, lambda: K.sum(K.mul(K.softmax(a), K.constant(w)))


def _case_softmax_temperature(rng):
    a = _p(rng, (3, 4))
    w = np.random.default_rng(993).normal(size=(3, 4))
    return {"a": a}, lambda: K.sum(
        K.mul(K.softmax(a, temperature=0.5), K.constant(w)))


def _case_l2_normalize(rng):
    a = K.Tensor(rng.uniform(0.5, 2.0, size=(3, 4)) *
                 np.sign(rng.normal(size=(3, 4))), requires_grad=True)
    w = np.random.default_rng(992).normal(size=(3, 4))
    return {"a": a}, lambda: K.sum(K.mul(K.l2_normalize(a), K.constant(w)))


def _case_layer_norm(rng):
    a = _p(rng, (2, 6))
    gain = K.Tensor(rng.uniform(0.5, 1.5, size=(6,)), requires_grad=True)
    bias = K.Tensor(rng.normal(size=(6,)), requires_grad=True)
    w = np.random.default_rng(991).normal(size=(2, 6))
    return {"a": a, "gain": gain, "bias": bias}, lambda: K.sum(
        K.mul(K.layer_norm(a, gain, bias), K.constant(w)))


def _case_dropout(rng):
    a = _p(rng, (4, 4))
    w = np.random.default_rng(990).normal(size=(4, 4))

    def build():
        # identical rng per evaluation keeps the mask constant under FD
        return K.sum(K.mul(K.dropout(a, 0.4, np.random.default_rng(7), True),
                           K.constant(w)))

    return {"a": a}, build


def _case_embedding_gather(rng):
    table = _p(rng, (5, 3))
    ids = np.array([0, 2, 2, 4])
    w = np.random.default_rng(989).normal(size=(4, 3))
    return {"table": table}, lambda: K.sum(
        K.mul(K.embedding_gather(table, ids), K.constant(w)))


def _case_gather_rows_at(rng):
    a = _p(rng, (4, 6))
    cols = np.array([5, 0, 3, 3])
    return {"a": a}, lambda: K.sum(K.log(K.add_scalar(
        K.sigmoid(K.gather_rows_at(a, cols)), 1e-8)))


def _case_structural(rng):
    a = _p(rng, (2, 3, 4))
    w = np.random.default_rng(988).normal(size=(4, 6))

    def build():
        moved = K.transpose(a, (2, 0, 1))
        flat = K.reshape(moved, (4, 6))
        return K.sum(K.mul(flat, K.constant(w)))

    return {"a": a}, build


def _case_concat_take(rng):
    a, b = _p(rng, (2, 3)), _p(rng, (1, 3))
    w = np.random.default_rng(987).normal(size=(3,))

    def build():
        cat = K.concat([a, b], axis=0)
        return K.sum(K.mul(K.take(cat, 1, axis=0), K.constant(w)))

    return {"a": a, "b": b}, build


OP_CASES = [
    ("add_broadcast", _case_add),
    ("sub_mul", _case_sub_mul),
    ("scale_add_scalar", _case_scale_add_scalar),
    ("matmul", _case_matmul),
    ("matmul_batched", _case_matmul_batched),
    ("matmul_batched_both", _case_matmul_batched_both),
    ("matmul_flat_both", lambda rng: _case_matmul_flat(rng, True, True)),
    ("matmul_flat_weight_only", lambda rng: _case_matmul_flat(rng, False, True)),
    ("matmul_flat_left_only", lambda rng: _case_matmul_flat(rng, True, False)),
    ("sigmoid", _case_sigmoid),
    ("log", _case_log),
    ("relu", _case_relu),
    ("mean_sum", _case_mean_sum),
    ("softmax", _case_softmax),
    ("softmax_temperature", _case_softmax_temperature),
    ("l2_normalize", _case_l2_normalize),
    ("layer_norm", _case_layer_norm),
    ("dropout", _case_dropout),
    ("embedding_gather", _case_embedding_gather),
    ("gather_rows_at", _case_gather_rows_at),
    ("reshape_transpose", _case_structural),
    ("concat_take", _case_concat_take),
]


@pytest.mark.parametrize("name,make", OP_CASES, ids=[c[0] for c in OP_CASES])
@pytest.mark.parametrize("seed", SEEDS)
def test_gradient_matches_finite_differences(name, make, seed):
    rng = np.random.default_rng(seed)
    tensors, build = make(rng)

    def build_on_tape():
        tape = K.Tape()
        with tape.active():
            loss = build()
        return loss, tape

    def loss_fn():
        loss, tape = build_on_tape()
        tape.clear()
        return loss

    # analytic pass
    loss, tape = build_on_tape()
    with tape.active():
        K.backward(loss)
    grads = {k: (v.grad.copy() if v.grad is not None else None)
             for k, v in tensors.items()}
    coord_rng = np.random.default_rng(seed + 1000)
    for pname, t in tensors.items():
        g = grads[pname]
        assert g is not None, f"no gradient reached {pname}"
        flat, gflat = t.data.reshape(-1), g.reshape(-1)
        for idx in coord_rng.choice(flat.size, size=min(2, flat.size),
                                    replace=False):
            orig = flat[idx]
            flat[idx] = orig + 1e-5
            up = loss_fn().item()
            flat[idx] = orig - 1e-5
            down = loss_fn().item()
            flat[idx] = orig
            fd = (up - down) / 2e-5
            err = abs(gflat[idx] - fd) / max(1e-8, abs(gflat[idx]) + abs(fd))
            assert err <= 1e-4, (
                f"{name}/{pname}[{idx}] seed={seed}: "
                f"analytic={gflat[idx]:.8g} fd={fd:.8g} rel={err:.2g}")
        t.grad = None


def test_check_grad_helper_on_composite_chain():
    rng = np.random.default_rng(17)
    x = K.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = K.Tensor(rng.normal(size=(4, 4)), requires_grad=True)

    def build():
        h = K.relu(K.add_scalar(K.matmul(x, w), 0.3))
        p = K.softmax(h, temperature=0.7)
        return K.mean(K.log(K.add_scalar(p, 1e-8)))

    check_grad(build, {"x": x, "w": w}, seeds_checked=17)


def test_backward_leaves_grads_on_leaves_only():
    # h fans out into two products; its grad must be fully summed before the
    # tape releases it, and every tape output ends with grad None
    rng = np.random.default_rng(23)
    x = K.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = K.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    c1, c2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    with K.Tape().active():
        h = K.matmul(x, w)
        p1, p2 = K.mul(h, K.constant(c1)), K.mul(h, K.constant(c2))
        s1, s2 = K.sum(p1), K.sum(p2)
        loss = K.add(s1, s2)
        K.backward(loss)
    dh = c1 + c2
    assert np.allclose(x.grad, dh @ w.data.T, rtol=1e-12, atol=1e-12)
    assert np.allclose(w.grad, x.data.T @ dh, rtol=1e-12, atol=1e-12)
    for node in (h, p1, p2, s1, s2, loss):
        assert node.grad is None
