"""Noise schedule arithmetic, forward perturbation, inference input."""

import numpy as np
import pytest
from scipy import stats

from nadex import diffusion as DF
from nadex.kernel import tensor as K
from nadex.errors import ConfigurationError


def T(x):
    return K.Tensor(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# schedule construction


def test_schedule_hand_oracle_bitwise():
    s = DF.build_schedule(m_steps=5, delta=1.0, alpha_min=0.1, alpha_max=0.5)
    assert np.array_equal(s.one_minus_alpha_bar,
                          np.array([0.1, 0.2, 0.3, 0.4, 0.5]))


def test_schedule_endpoints_exact_over_random_parameters():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(2, 80))
        a_min = float(rng.uniform(0.001, 0.4))
        a_max = float(rng.uniform(a_min, 0.95))
        delta = float(rng.uniform(0.05, min(1.0, 0.999 / a_max)))
        s = DF.build_schedule(m_steps=m, delta=delta, alpha_min=a_min,
                              alpha_max=a_max)
        assert s.one_minus_alpha_bar[0] == delta * a_min
        assert s.one_minus_alpha_bar[-1] == delta * a_max
        if a_max > a_min:
            assert np.all(np.diff(s.one_minus_alpha_bar) > 0.0)
        assert np.all(s.one_minus_alpha_bar > 0.0)
        assert np.all(s.one_minus_alpha_bar < 1.0)
        assert np.array_equal(s.alpha_bar, 1.0 - s.one_minus_alpha_bar)


def test_schedule_constant_when_bounds_equal():
    s = DF.build_schedule(m_steps=6, delta=0.8, alpha_min=0.25,
                          alpha_max=0.25)
    assert np.array_equal(s.one_minus_alpha_bar, np.full(6, 0.8 * 0.25))


def test_schedule_small_delta_shrinks_towards_identity():
    s = DF.build_schedule(m_steps=5, delta=1e-9, alpha_min=0.1,
                          alpha_max=0.5)
    assert np.all(s.one_minus_alpha_bar < 1e-9)
    assert np.all(s.alpha_bar > 1.0 - 1e-9)


@pytest.mark.parametrize("kwargs", [
    dict(m_steps=1),
    dict(alpha_min=0.0),
    dict(alpha_min=-0.1),
    dict(alpha_min=0.6, alpha_max=0.5),
    dict(delta=0.0),
    dict(delta=-1.0),
    dict(delta=1.2, alpha_max=0.9),   # delta*alpha_max >= 1
    dict(delta=2.0, alpha_max=0.5),   # exactly 1
])
def test_schedule_rejects_invalid_parameters(kwargs):
    base = dict(m_steps=5, delta=1.0, alpha_min=0.1, alpha_max=0.5)
    base.update(kwargs)
    with pytest.raises(ConfigurationError):
        DF.build_schedule(**base)


def test_schedule_terminal_error_names_the_problem():
    with pytest.raises(ConfigurationError) as exc:
        DF.build_schedule(m_steps=5, delta=1.5, alpha_min=0.1, alpha_max=0.7)
    assert "non-positive" in str(exc.value)


def test_schedule_step_bounds_checked():
    s = DF.build_schedule(m_steps=5, delta=1.0, alpha_min=0.1, alpha_max=0.5)
    with pytest.raises(IndexError):
        s.sqrt_alpha_bar(0)
    with pytest.raises(IndexError):
        s.sqrt_alpha_bar(6)
    assert s.sqrt_alpha_bar(1) == np.sqrt(0.9)
    assert s.sqrt_one_minus(5) == np.sqrt(0.5)


# ---------------------------------------------------------------------------
# forward diffusion


def test_diffuse_with_zero_noise_is_pure_scaling():
    s = DF.build_schedule(m_steps=5, delta=1.0, alpha_min=0.1, alpha_max=0.5)
    clean = np.random.default_rng(1).normal(size=(3, 4))
    out = DF.diffuse(T(clean), 3, s, np.zeros((3, 4)))
    assert np.array_equal(out.data, np.sqrt(0.7) * clean)


def test_diffuse_near_identity_at_tiny_delta():
    s = DF.build_schedule(m_steps=3, delta=1e-12, alpha_min=0.1,
                          alpha_max=0.5)
    clean = np.ones((2, 2))
    out = DF.diffuse(T(clean), 3, s, np.zeros((2, 2)))
    assert np.allclose(out.data, clean, rtol=0.0, atol=1e-12)


def test_forward_then_algebraic_inversion_recovers_clean():
    s = DF.build_schedule(m_steps=10, delta=1.0, alpha_min=0.01,
                          alpha_max=0.99)
    rng = np.random.default_rng(4)
    clean = rng.normal(size=(6, 8)) + 0.5
    for m in (1, 5, 10):
        eps = rng.standard_normal(clean.shape)
        rng.standard_normal(clean.shape)  # the negative branch's draw
        out = DF.diffuse(T(clean), m, s, eps)
        inverted = (out.data - s.sqrt_one_minus(m) * eps) / s.sqrt_alpha_bar(m)
        rel = np.abs(inverted - clean) / np.maximum(np.abs(clean), 1e-12)
        assert np.max(rel) <= 1e-10


def test_forward_rejects_out_of_range_step():
    s = DF.build_schedule(m_steps=3, delta=1.0, alpha_min=0.1, alpha_max=0.5)
    eps = np.random.default_rng(0).standard_normal((2, 2))
    with pytest.raises(IndexError):
        DF.diffuse(T(np.ones((2, 2))), 4, s, eps)
    with pytest.raises(IndexError):
        DF.diffuse(T(np.ones((2, 2))), 0, s, eps)


def test_monte_carlo_moments_at_three_steps():
    s = DF.build_schedule(m_steps=10, delta=1.0, alpha_min=0.05,
                          alpha_max=0.9)
    n, h = 10_000, 4
    base = np.array([1.2, -0.8, 2.0, 0.6])
    clean = np.tile(base, (n, 1))
    rng = np.random.default_rng(123)
    for m in (1, 5, 10):
        noise_var = s.one_minus_alpha_bar[m - 1]
        eps = rng.standard_normal(clean.shape)
        rng.standard_normal(clean.shape)  # the negative branch's draw
        draws = DF.diffuse(T(clean), m, s, eps).data
        target_mean = s.sqrt_alpha_bar(m) * base
        # per-coordinate mean: 3-sigma band of the estimator
        band = 3.0 * np.sqrt(noise_var) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - target_mean) <= band), \
            f"mean out of band at m={m}"
        # variance pooled over draws and coordinates: 2% of (1 - alpha_bar)
        resid = draws - target_mean
        pooled_var = resid.var()
        assert abs(pooled_var - noise_var) <= 0.02 * noise_var, \
            f"variance off at m={m}: {pooled_var} vs {noise_var}"


# ---------------------------------------------------------------------------
# step sampling


def test_sample_step_m1_always_one():
    rng = np.random.default_rng(0)
    assert all(DF.sample_step(rng, 1) == 1 for _ in range(50))


def test_sample_step_in_range_and_reproducible():
    draws_a = [DF.sample_step(np.random.default_rng(42), 7)
               for _ in range(1)]
    rng = np.random.default_rng(42)
    draws = [DF.sample_step(rng, 7) for _ in range(1000)]
    assert min(draws) >= 1 and max(draws) <= 7
    rng2 = np.random.default_rng(42)
    draws2 = [DF.sample_step(rng2, 7) for _ in range(1000)]
    assert draws == draws2
    assert draws_a[0] == draws[0]


def test_sample_step_uniformity_chi_squared():
    m = 10
    n = 100_000
    rng = np.random.default_rng(99)
    counts = np.bincount(
        [DF.sample_step(rng, m) for _ in range(n)], minlength=m + 1)[1:]
    expected = n / m
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p = stats.chi2.sf(chi2, df=m - 1)
    assert p > 0.01, f"chi2={chi2:.2f} p={p:.4f} counts={counts}"


# ---------------------------------------------------------------------------
# sequence assembly


def test_assemble_sequence_shapes_and_content():
    rng = np.random.default_rng(5)
    n, L, h = 3, 4, 6
    hist = rng.normal(size=(n, L, h))
    target = rng.normal(size=(n, h))
    rel = rng.normal(size=(n, L + 1, h))
    dt = rng.normal(size=(n, L + 1, h))
    out = DF.assemble_sequence(T(hist), T(target), T(rel), T(dt))
    assert out.data.shape == (n, L + 1, h)
    assert np.allclose(out.data[:, :L], hist + rel[:, :L] + dt[:, :L],
                       rtol=0.0, atol=1e-14)
    assert np.allclose(out.data[:, L], target + rel[:, L] + dt[:, L],
                       rtol=0.0, atol=1e-14)


def test_inference_input_pure_noise_slot():
    rng = np.random.default_rng(6)
    n, L, h = 2, 3, 4
    hist = rng.normal(size=(n, L, h))
    noise = rng.normal(size=(n, h))
    rel = np.zeros((n, L + 1, h))
    dt = np.zeros((n, L + 1, h))
    out = DF.make_inference_input(T(hist), noise, T(rel), T(dt))
    assert out.data.shape == (n, L + 1, h)
    assert np.array_equal(out.data[:, L], noise)


def test_inference_input_empty_history():
    n, h = 2, 4
    hist = np.zeros((n, 0, h))
    noise = np.random.default_rng(0).normal(size=(n, h))
    rel = np.random.default_rng(1).normal(size=(n, 1, h))
    dt = np.random.default_rng(2).normal(size=(n, 1, h))
    out = DF.make_inference_input(T(hist), noise, T(rel), T(dt))
    assert out.data.shape == (n, 1, h)
    assert np.allclose(out.data[:, 0], noise + rel[:, 0] + dt[:, 0],
                       rtol=0.0, atol=1e-14)
