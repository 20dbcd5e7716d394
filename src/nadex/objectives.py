"""Reconstruction and negative-cosine losses, their composite, and training.

Per batch: embed the histories, average the other golds into negative
prototypes, corrupt both the gold embeddings and the prototypes at one
shared noise step (independent draws), denoise both, score the positive
branch over all entities, and combine

    total = -(1 - lam) * log(sigmoid(-gamma * (L_r - L_neg) + eps)) + lam * L_r

so reconstruction is pushed down while the denoised negatives are pushed
away from their prototypes. lam = 1 bypasses the negative branch entirely
and returns the reconstruction node itself.
"""

import time
from dataclasses import dataclass

import numpy as np

from .denoiser import denoise, embed_batch, score_entities
from .diffusion import assemble_sequence, diffuse, sample_step
from .errors import ConfigurationError, NumericsError, ValidationError
from .kernel import tensor as T
from .negsample import negative_prototypes

EPS_NUM = 1e-8


@dataclass(frozen=True)
class LossConfig:
    lam: float = 0.5
    gamma: float = 1.0
    tau: float = 0.5
    mask_duplicate_golds: bool = False

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigurationError(f"lambda must be in [0, 1], got {self.lam}")
        if self.gamma <= 0.0:
            raise ConfigurationError(f"gamma must be positive, got {self.gamma}")
        if self.tau <= 0.0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class LossBreakdown:
    l_r: float
    l_neg: float
    l_total: float
    batch_size: int
    neg_applied: bool


def reconstruction_loss(probabilities, gold_ids):
    """Mean over the batch of -log(Y[i, gold_i] + 1e-8)."""
    picked = T.gather_rows_at(probabilities, gold_ids)
    return T.scale(T.mean(T.log(T.add_scalar(picked, EPS_NUM))), -1.0)


def negative_cosine_loss(clean_neg, denoised_neg, neg_applied):
    """Mean of (cos(o_neg, denoised_neg) - 1)^2 per row; 0 when inapplicable.

    Zero-norm rows normalize to zero, so their cosine is 0 and they
    contribute exactly 1.
    """
    if not neg_applied:
        return T.constant(np.zeros(()))
    cos = T.sum(
        T.mul(T.l2_normalize(clean_neg), T.l2_normalize(denoised_neg)), axis=-1
    )
    diff = T.add_scalar(cos, -1.0)
    return T.mean(T.mul(diff, diff))


def combined_loss(l_r, l_neg, config):
    """Composite objective; lam == 1 returns the reconstruction node itself
    so the collapse is bitwise."""
    if config.lam == 1.0:
        return l_r
    margin = T.add_scalar(T.scale(T.sub(l_r, l_neg), -config.gamma), EPS_NUM)
    push = T.scale(T.log(T.sigmoid(margin)), -(1.0 - config.lam))
    return T.add(push, T.scale(l_r, config.lam))


def compute_batch_loss(params, batch, schedule, loss_cfg, m, eps_pos, eps_neg,
                       train_mode=False, rng=None):
    """Full forward pipeline with explicit noise (deterministic given inputs).

    Returns (total, l_r, l_neg, neg_applied) with the first three on tape.
    """
    history_emb, rel_emb, dt_emb, key_mask, gold_emb = embed_batch(params, batch)
    neg_applied = False
    if loss_cfg.lam < 1.0:  # lam == 1 gives the negative branch zero weight
        neg = negative_prototypes(
            gold_emb,
            gold_ids=batch.golds,
            mask_duplicate_golds=loss_cfg.mask_duplicate_golds,
        )
        neg_applied = neg.valid

    o_m_pos = diffuse(gold_emb, m, schedule, eps_pos)
    seq_pos = assemble_sequence(history_emb, o_m_pos, rel_emb, dt_emb)
    denoised_pos = denoise(params, seq_pos, m, key_mask, train_mode, rng)
    probs = score_entities(denoised_pos, params.scoring_table(), loss_cfg.tau)
    l_r = reconstruction_loss(probs, batch.golds)

    if neg_applied:
        o_m_neg = diffuse(neg.prototypes, m, schedule, eps_neg)
        seq_neg = assemble_sequence(history_emb, o_m_neg, rel_emb, dt_emb)
        denoised_neg = denoise(params, seq_neg, m, key_mask, train_mode, rng)
        l_neg = negative_cosine_loss(neg.prototypes, denoised_neg, True)
    else:
        l_neg = negative_cosine_loss(None, None, False)

    total = combined_loss(l_r, l_neg, loss_cfg)
    return total, l_r, l_neg, neg_applied


def train_step(batch, params, schedule, optimizer, loss_cfg, rng):
    """One optimization step on one timestamp batch."""
    if batch.size < 1:
        raise ValidationError("empty batch")
    n = batch.size
    h = params.config.hidden
    m = sample_step(rng, schedule.m_steps)
    eps_pos = rng.standard_normal((n, h))
    eps_neg = rng.standard_normal((n, h))

    tape = T.Tape()
    with tape.active():
        total, l_r, l_neg, neg_applied = compute_batch_loss(
            params, batch, schedule, loss_cfg, m, eps_pos, eps_neg,
            train_mode=True, rng=rng,
        )
        breakdown = LossBreakdown(
            l_r=l_r.item(), l_neg=l_neg.item(), l_total=total.item(),
            batch_size=n, neg_applied=neg_applied,
        )
        for label, value in (("reconstruction loss", breakdown.l_r),
                             ("negative cosine loss", breakdown.l_neg),
                             ("total loss", breakdown.l_total)):
            if not np.isfinite(value):
                tape.clear()
                raise NumericsError(f"{label} is non-finite at t={batch.t}")
        T.backward(total)
    optimizer.step()
    optimizer.zero_grad()
    return breakdown


@dataclass(frozen=True)
class EpochSummary:
    mean_l_r: float
    mean_l_neg: float
    mean_l_total: float
    steps: int
    seconds: float

    def tsv(self, epoch):
        return (f"{epoch}\t{self.mean_l_r:.6f}\t{self.mean_l_neg:.6f}"
                f"\t{self.mean_l_total:.6f}\t{self.seconds:.2f}")


def train_epoch(batches, params, schedule, optimizer, loss_cfg, rng):
    """Run train_step over time-ordered batches; summarize mean losses."""
    if not batches:
        raise ValidationError("no training data")
    t0 = time.perf_counter()
    sums = np.zeros(3)
    for batch in batches:
        b = train_step(batch, params, schedule, optimizer, loss_cfg, rng)
        sums += (b.l_r, b.l_neg, b.l_total)
    n = len(batches)
    return EpochSummary(
        mean_l_r=sums[0] / n,
        mean_l_neg=sums[1] / n,
        mean_l_total=sums[2] / n,
        steps=n,
        seconds=time.perf_counter() - t0,
    )
