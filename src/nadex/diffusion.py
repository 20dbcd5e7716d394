"""Linear cumulative noise schedule and Gaussian corruption of targets.

The schedule fixes, per step m in 1..M, how much clean signal survives
(alpha_bar) and how much noise replaces it (one_minus_alpha_bar), the
latter interpolating linearly from delta*alpha_min to delta*alpha_max.
Corruption draws o_m = sqrt(alpha_bar_m) * clean + sqrt(1 - alpha_bar_m) * eps.
At inference the target slot starts from a pure standard Gaussian draw and
is recovered in a single denoiser application at the top step M.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeMismatchError
from .kernel import tensor as T


@dataclass(frozen=True)
class NoiseSchedule:
    m_steps: int
    one_minus_alpha_bar: np.ndarray  # [M], index m-1
    alpha_bar: np.ndarray  # [M]

    def sqrt_alpha_bar(self, m):
        self.check_step(m)
        return float(np.sqrt(self.alpha_bar[m - 1]))

    def sqrt_one_minus(self, m):
        self.check_step(m)
        return float(np.sqrt(self.one_minus_alpha_bar[m - 1]))

    def check_step(self, m):
        if not 1 <= m <= self.m_steps:
            raise IndexError(f"diffusion step {m} outside [1, {self.m_steps}]")


def build_schedule(m_steps=50, delta=1.0, alpha_min=0.01, alpha_max=0.99):
    """Noise fractions interpolate linearly over m = 1..M.

    Entry m is delta * (alpha_min*(1-w) + alpha_max*w) with w = (m-1)/(M-1);
    this form makes both endpoints exactly delta*alpha_min and
    delta*alpha_max in floating point.
    """
    if m_steps < 2:
        raise ConfigurationError(f"schedule needs at least 2 steps, got {m_steps}")
    if not 0.0 < alpha_min <= alpha_max:
        raise ConfigurationError(
            f"need 0 < alpha_min <= alpha_max, got {alpha_min}, {alpha_max}"
        )
    if delta <= 0.0:
        raise ConfigurationError(f"delta must be positive, got {delta}")
    if delta * alpha_max >= 1.0:
        raise ConfigurationError(
            f"delta*alpha_max = {delta * alpha_max} >= 1: terminal signal "
            f"coefficient would be non-positive"
        )
    w = np.arange(m_steps, dtype=np.float64) / (m_steps - 1)
    noise = delta * (alpha_min * (1.0 - w) + alpha_max * w)
    if np.any(noise <= 0.0) or np.any(noise >= 1.0):
        raise ConfigurationError("schedule entries must lie strictly inside (0, 1)")
    if alpha_max > alpha_min and np.any(np.diff(noise) <= 0.0):
        raise ConfigurationError("schedule failed to increase strictly")
    return NoiseSchedule(
        m_steps=m_steps,
        one_minus_alpha_bar=noise,
        alpha_bar=1.0 - noise,
    )


def sample_step(rng, m_steps):
    """Uniform diffusion step in [1, M]."""
    if m_steps < 1:
        raise ConfigurationError(f"m_steps must be >= 1, got {m_steps}")
    return int(rng.integers(1, m_steps + 1))


def diffuse(clean, m, schedule, eps):
    """o_m = sqrt(alpha_bar_m)*clean + sqrt(1-alpha_bar_m)*eps, on tape."""
    schedule.check_step(m)
    if eps.shape != clean.shape:
        raise ShapeMismatchError(
            f"noise shape {eps.shape} does not match target shape {clean.shape}"
        )
    signal = T.scale(clean, schedule.sqrt_alpha_bar(m))
    noise = T.constant(schedule.sqrt_one_minus(m) * eps)
    return T.add(signal, noise)


def assemble_sequence(history_emb, target_emb, rel_emb, dt_emb):
    """Stack history positions plus the target slot and add conditioning.

    history_emb [N, L, h]; target_emb [N, h]; rel_emb and dt_emb [N, L+1, h]
    covering every slot (the last carries the query relation and the
    query-gap bin). Output [N, L+1, h].
    """
    n, length, h = history_emb.shape
    if rel_emb.shape != (n, length + 1, h) or dt_emb.shape != (n, length + 1, h):
        raise ShapeMismatchError(
            f"conditioning shapes {rel_emb.shape}, {dt_emb.shape} do not match "
            f"history {history_emb.shape} plus one target slot"
        )
    target_slot = T.reshape(target_emb, (n, 1, h))
    seq = T.concat([history_emb, target_slot], axis=1)
    return T.add(T.add(seq, rel_emb), dt_emb)


def make_inference_input(history_emb, target_noise, rel_emb, dt_emb):
    """Inference-time sequence: the target slot holds a pure Gaussian draw.

    `target_noise` [N, h] is drawn by the caller (rng ownership stays with
    the evaluation loop so repeat draws are reproducible).
    """
    return assemble_sequence(history_emb, T.constant(target_noise), rel_emb, dt_emb)
