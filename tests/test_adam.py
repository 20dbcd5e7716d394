"""Adam optimizer: one-step oracle, decay behavior, determinism, aborts."""

import numpy as np
import pytest

from nadex.kernel import tensor as K
from nadex.errors import NumericsError
from nadex.kernel.optim import Adam


def _param(values):
    return K.Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def test_single_step_hand_oracle():
    # m = 0.1, v = 0.001; bias correction makes m_hat = v_hat = 1 exactly,
    # so the move is -lr / (1 + eps)
    w = _param([0.0, 5.0])
    opt = Adam({"w": w}, lr=1e-3)
    w.grad = np.array([1.0, 1.0])
    opt.step()
    expected_delta = -1e-3 / (1.0 + 1e-8)
    assert w.data[0] == pytest.approx(expected_delta, rel=1e-12)
    assert w.data[1] == pytest.approx(5.0 + expected_delta, rel=1e-12)
    assert w.data[0] == pytest.approx(-1e-3, abs=1e-8)


def test_matches_textbook_adam_bitwise_over_many_steps():
    rng = np.random.default_rng(2)
    n = 257  # odd size, not a block multiple
    lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
    theta = rng.normal(size=n)
    w = _param(theta.copy())
    opt = Adam({"w": w}, lr=lr)
    m, v = np.zeros(n), np.zeros(n)
    for step in range(1, 26):
        g = rng.normal(size=n)
        w.grad = g.copy()
        opt.step()
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**step)
        v_hat = v / (1.0 - beta2**step)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    state = opt.state_arrays()
    assert np.array_equal(w.data, theta)
    assert np.array_equal(state["adam.m.w"], m)
    assert np.array_equal(state["adam.v.w"], v)


def test_zero_gradient_fresh_state_leaves_parameters_unchanged():
    w = _param([1.0, -2.0, 3.5])
    before = w.data.copy()
    opt = Adam({"w": w}, lr=1e-3)
    w.grad = np.zeros(3)
    opt.step()
    assert np.array_equal(w.data, before)
    state = opt.state_arrays()
    assert not np.any(state["adam.m.w"])
    assert not np.any(state["adam.v.w"])


def test_zero_gradient_decays_warm_moments():
    w = _param([0.0])
    opt = Adam({"w": w}, lr=1e-3)
    w.grad = np.array([1.0])
    opt.step()
    m1 = opt.state_arrays()["adam.m.w"].copy()
    v1 = opt.state_arrays()["adam.v.w"].copy()
    w.grad = np.zeros(1)
    opt.step()
    state = opt.state_arrays()
    assert np.array_equal(state["adam.m.w"], 0.9 * m1)
    assert np.array_equal(state["adam.v.w"], 0.999 * v1)


def test_identical_parameters_stay_identical():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(4, 3))
    a, b = _param(vals.copy()), _param(vals.copy())
    opt = Adam({"a": a, "b": b}, lr=5e-3)
    for step_grad in rng.normal(size=(5, 4, 3)):
        a.grad = step_grad.copy()
        b.grad = step_grad.copy()
        opt.step()
        opt.zero_grad()
    assert np.array_equal(a.data, b.data)


def test_nan_gradient_aborts_naming_parameter():
    w = _param([1.0, 2.0])
    opt = Adam({"readout_weight": w}, lr=1e-3)
    g = np.array([0.0, np.nan])
    w.grad = g
    with pytest.raises(NumericsError) as exc:
        opt.step()
    assert "readout_weight" in str(exc.value)


def test_infinite_gradient_also_aborts():
    w = _param([1.0])
    opt = Adam({"w": w}, lr=1e-3)
    w.grad = np.array([np.inf])
    with pytest.raises(NumericsError):
        opt.step()


def test_missing_gradient_treated_as_zero():
    w = _param([2.0])
    u = _param([3.0])
    opt = Adam({"w": w, "u": u}, lr=1e-3)
    w.grad = np.array([1.0])
    u.grad = None
    opt.step()
    assert u.data[0] == 3.0
    assert w.data[0] != 2.0


def test_moment_shapes_congruent_with_parameters():
    w = _param(np.zeros((3, 5)))
    opt = Adam({"w": w})
    state = opt.state_arrays()
    assert state["adam.m.w"].shape == (3, 5)
    assert state["adam.v.w"].shape == (3, 5)


def test_state_roundtrip_resumes_identical_trajectory():
    rng = np.random.default_rng(1)
    grads = rng.normal(size=(6, 4))

    def fresh():
        w = _param(np.ones(4))
        return w, Adam({"w": w}, lr=2e-3)

    w_full, opt_full = fresh()
    for g in grads:
        w_full.grad = g.copy()
        opt_full.step()

    w_a, opt_a = fresh()
    for g in grads[:3]:
        w_a.grad = g.copy()
        opt_a.step()
    saved = {k: v.copy() for k, v in opt_a.state_arrays().items()}

    w_b = _param(w_a.data.copy())
    opt_b = Adam({"w": w_b}, lr=2e-3)
    opt_b.load_state_arrays(saved, step_count=3)
    for g in grads[3:]:
        w_b.grad = g.copy()
        opt_b.step()
    assert np.array_equal(w_b.data, w_full.data)


def test_zero_grad_clears_all_parameters():
    w, u = _param([1.0]), _param([2.0])
    opt = Adam({"w": w, "u": u})
    w.grad = np.array([1.0])
    u.grad = np.array([1.0])
    opt.zero_grad()
    assert w.grad is None and u.grad is None


def test_eps_damps_tiny_gradients_from_a_float32_step():
    # a float32 subnormal gradient reaches the float64 parameter through a
    # cast; eps = 1e-8 keeps Adam from normalizing it up to a full lr step,
    # and a zero gradient from the same pass leaves its entry unmoved
    tiny = np.finfo(np.float32).smallest_subnormal
    w = _param([0.5, 0.5, 0.5])
    opt = Adam({"w": w}, lr=1e-3)
    coef = np.array([0.0, tiny, 1.0], dtype=np.float32)
    with K.Tape().active():
        K.backward(K.sum(K.mul(K.cast(w, np.float32), K.Tensor(coef))))
    assert w.grad.dtype == np.float64 and w.grad[1] == tiny
    opt.step()
    delta = w.data - 0.5
    assert delta[0] == 0.0
    assert abs(delta[1]) < 1e-12
    assert delta[2] == pytest.approx(-1e-3, rel=1e-6)


def test_non_finite_gradient_leaves_all_state_unchanged():
    a, b = _param([1.0]), _param([2.0])
    opt = Adam({"a": a, "b": b}, lr=1e-3)
    a.grad, b.grad = np.array([0.5]), np.array([0.25])
    opt.step()  # warm moments, so a partial update would show
    params_before = [a.data.copy(), b.data.copy()]
    state_before = {k: v.copy() for k, v in opt.state_arrays().items()}
    a.grad, b.grad = np.array([1.0]), np.array([np.nan])
    with pytest.raises(NumericsError) as exc:
        opt.step()
    assert "'b'" in str(exc.value)
    assert opt.step_count == 1
    assert np.array_equal(a.data, params_before[0])
    assert np.array_equal(b.data, params_before[1])
    for name, arr in opt.state_arrays().items():
        assert np.array_equal(arr, state_before[name]), name
