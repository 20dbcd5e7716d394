"""Losses and the training drivers: hand oracles, collapses, trend tests."""

import os
import subprocess
import sys

import numpy as np
import pytest

from nadex import data, denoiser, diffusion, objectives
from nadex.errors import NumericsError, ValidationError
from nadex.kernel import optim
from nadex.kernel import tensor as K
from nadex.objectives import (LossConfig, combined_loss, compute_batch_loss,
                              negative_cosine_loss, reconstruction_loss,
                              train_epoch, train_step)

from helpers import check_grad, random_batch, tiny_model


def T(x, grad=False):
    return K.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# reconstruction loss


def test_recon_uniform_two_entities_is_ln2():
    probs = T([[0.5, 0.5]])
    loss = reconstruction_loss(probs, np.array([0]))
    assert loss.item() == pytest.approx(np.log(2.0) - np.log1p(2e-8),
                                        abs=1e-9)
    assert loss.item() == pytest.approx(0.6931, abs=1e-4)


def test_recon_certain_gold_is_nearly_zero():
    probs = T([[1.0, 0.0]])
    loss = reconstruction_loss(probs, np.array([0]))
    assert loss.item() == -np.log(1.0 + 1e-8)


def test_recon_two_row_hand_arithmetic():
    probs = T([[0.5, 0.5], [0.25, 0.75]])
    loss = reconstruction_loss(probs, np.array([0, 0]))
    expected = (np.log(2.0) + np.log(4.0)) / 2.0
    assert loss.item() == pytest.approx(expected, abs=1e-7)
    assert loss.item() == pytest.approx(1.0397, abs=1e-4)


def test_recon_gold_out_of_range_rejected():
    probs = T([[0.5, 0.5]])
    with pytest.raises(Exception):
        reconstruction_loss(probs, np.array([2]))


# ---------------------------------------------------------------------------
# negative cosine loss


def test_cosine_identity_rows_zero_loss():
    rng = np.random.default_rng(0)
    e = rng.normal(size=(4, 6))
    loss = negative_cosine_loss(T(e), T(e.copy()))
    assert loss.item() == pytest.approx(0.0, abs=1e-24)


def test_cosine_orthogonal_rows_loss_one():
    a = T([[1.0, 0.0], [0.0, 2.0]])
    b = T([[0.0, 3.0], [5.0, 0.0]])
    loss = negative_cosine_loss(a, b)
    assert loss.item() == pytest.approx(1.0, abs=1e-12)


def test_cosine_antiparallel_rows_loss_four():
    a = T([[1.0, 1.0]])
    b = T([[-2.0, -2.0]])
    loss = negative_cosine_loss(a, b)
    assert loss.item() == pytest.approx(4.0, abs=1e-12)


def test_cosine_skipped_when_not_applied():
    # one row has no peers to average: the batch loss takes L_neg = 0
    cfg, vocab, params, sched = tiny_model()
    rng = np.random.default_rng(0)
    batch = random_batch(rng, 1, cfg.window, vocab.num_entities,
                         vocab.num_relations, cfg.dt_max)
    eps = rng.normal(size=(1, cfg.hidden))
    _, _, l_neg, neg_applied = compute_batch_loss(
        params, batch, sched, LossConfig(), 2, eps, eps)
    assert not neg_applied
    assert l_neg.item() == 0.0


def test_cosine_zero_norm_row_contributes_one():
    a = T([[0.0, 0.0], [1.0, 0.0]])
    b = T([[1.0, 1.0], [1.0, 0.0]])
    loss = negative_cosine_loss(a, b)
    # first row: cos forced to 0 by the zero-normalize fallback -> (0-1)^2
    assert loss.item() == pytest.approx(0.5, abs=1e-12)


def test_cosine_range_property():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        h = int(rng.integers(1, 9))
        a = rng.normal(size=(n, h)) * rng.choice([1e-3, 1.0, 1e3])
        b = rng.normal(size=(n, h))
        val = negative_cosine_loss(T(a), T(b)).item()
        assert 0.0 <= val <= 4.0 + 1e-12


# ---------------------------------------------------------------------------
# combined loss


def test_lambda_one_collapse_is_bitwise():
    l_r = T(0.87, grad=True)
    l_neg = T(0.12)
    out = combined_loss(l_r, l_neg, LossConfig(lam=1.0))
    assert out is l_r  # same tape node: both Eq-15 occurrences share it
    assert out.item() == l_r.item()


def test_lambda_zero_hand_value():
    l_r, l_neg = T(1.0), T(0.0)
    out = combined_loss(l_r, l_neg, LossConfig(lam=0.0, gamma=1.0))
    expected = float(np.log1p(np.exp(1.0 - 1e-8)))  # -log sigmoid(-1+eps)
    assert out.item() == pytest.approx(expected, abs=1e-12)
    assert out.item() == pytest.approx(1.3133, abs=1e-4)


def test_lambda_zero_balanced_losses_give_ln2():
    l_r, l_neg = T(0.73), T(0.73)
    out = combined_loss(l_r, l_neg, LossConfig(lam=0.0, gamma=2.5))
    assert out.item() == pytest.approx(np.log(2.0), abs=1e-7)


def test_combined_interpolates_between_branches():
    l_r, l_neg = T(0.8), T(0.3)
    push = combined_loss(l_r, l_neg, LossConfig(lam=0.0, gamma=1.0)).item()
    plain = combined_loss(l_r, l_neg, LossConfig(lam=1.0)).item()
    mid = combined_loss(l_r, l_neg, LossConfig(lam=0.4, gamma=1.0)).item()
    assert mid == pytest.approx(0.6 * push + 0.4 * plain, abs=1e-12)


def test_monotone_pressure_grid():
    # holding L_neg fixed, the composite strictly increases with L_r
    for lam in (0.0, 0.3, 0.7, 1.0):
        for gamma in (0.5, 1.0, 3.0):
            cfg = LossConfig(lam=lam, gamma=gamma)
            values = [combined_loss(T(lr), T(0.4), cfg).item()
                      for lr in np.linspace(0.0, 3.0, 13)]
            diffs = np.diff(values)
            assert np.all(diffs > 0.0), (lam, gamma, values)


def test_loss_config_validation():
    with pytest.raises(Exception):
        LossConfig(lam=-0.1)
    with pytest.raises(Exception):
        LossConfig(lam=1.1)
    with pytest.raises(Exception):
        LossConfig(gamma=0.0)
    with pytest.raises(Exception):
        LossConfig(tau=0.0)


def test_composite_gradient_three_entity_toy():
    # full pipeline gradient vs finite differences on a tiny instance
    for seed in range(3):
        cfg, vocab, params, sched = tiny_model(
            hidden=8, layers=1, heads=2, window=2, dt_max=4, m_steps=3,
            num_entities=3, num_relations_base=2, seed=seed)
        rng = np.random.default_rng(seed + 100)
        batch = random_batch(rng, 3, cfg.window, vocab.num_entities,
                             vocab.num_relations, cfg.dt_max)
        m = 2
        eps_pos = rng.normal(size=(3, cfg.hidden))
        eps_neg = rng.normal(size=(3, cfg.hidden))
        loss_cfg = LossConfig(lam=0.5, gamma=1.0, tau=0.5)

        def build():
            total, _, _, _ = compute_batch_loss(
                params, batch, sched, loss_cfg, m, eps_pos, eps_neg)
            return total

        check_grad(build, params.tensors, seeds_checked=seed, max_coords=2,
                   rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# train_step / train_epoch


def _stream_setup(lam=0.5, seed=0, hidden=16):
    cfg, vocab, params, sched = tiny_model(hidden=hidden, window=3,
                                           dt_max=8, m_steps=4, seed=seed)
    rng = np.random.default_rng(7)
    quads = sorted(
        (data.Quadruple(int(rng.integers(0, 5)), int(rng.integers(0, 2)),
                        int(rng.integers(0, 5)), int(t))
         for t in rng.integers(0, 12, size=30)),
        key=lambda q: q.t)
    aug = sorted(data.augment_inverse(quads, vocab), key=lambda q: q.t)
    samples = data.build_histories(aug, window=3, dt_max=8)
    batches = data.batch_by_timestamp(samples, b_max=16)
    opt = optim.Adam(params.tensors, lr=3e-3)
    return params, sched, batches, opt, LossConfig(lam=lam)


def test_train_step_returns_breakdown_and_updates():
    params, sched, batches, opt, loss_cfg = _stream_setup()
    before = params.tensors["entity_table"].data.copy()
    out = train_step(batches[0], params, sched, opt, loss_cfg,
                     np.random.default_rng(0))
    assert out.batch_size == batches[0].size
    assert out.l_r > 0.0
    assert 0.0 <= out.l_neg <= 4.0
    assert not np.array_equal(params.tensors["entity_table"].data, before)


def test_train_step_size_one_batch_skips_negatives():
    params, sched, _, opt, loss_cfg = _stream_setup()
    sample = data.build_histories([data.Quadruple(0, 0, 1, 3)],
                                  window=3, dt_max=8)[0]
    batch = data.batch_by_timestamp([sample], b_max=16)[0]
    assert batch.size == 1
    out = train_step(batch, params, sched, opt, loss_cfg,
                     np.random.default_rng(0))
    assert not out.neg_applied
    assert out.l_neg == 0.0
    # composite formula with L_neg = 0
    lam, gamma = loss_cfg.lam, loss_cfg.gamma
    sig = 1.0 / (1.0 + np.exp(gamma * out.l_r - 1e-8))
    expected = -(1.0 - lam) * np.log(sig) + lam * out.l_r
    assert out.l_total == pytest.approx(expected, rel=1e-10)


def test_lambda_one_skips_negative_branch_entirely():
    params, sched, batches, opt, _ = _stream_setup(lam=1.0)
    out = train_step(batches[2], params, sched, opt, LossConfig(lam=1.0),
                     np.random.default_rng(0))
    assert not out.neg_applied
    assert out.l_neg == 0.0
    assert out.l_total == out.l_r


def test_lambda_one_never_builds_negative_prototypes(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("negative_prototypes called at lambda 1")

    monkeypatch.setattr(objectives, "negative_prototypes", forbidden)
    params, sched, batches, opt, _ = _stream_setup(lam=1.0)
    assert batches[2].size > 1
    out = train_step(batches[2], params, sched, opt, LossConfig(lam=1.0),
                     np.random.default_rng(0))
    assert not out.neg_applied
    assert out.l_total == out.l_r


def test_train_step_determinism():
    runs = []
    for _ in range(2):
        params, sched, batches, opt, loss_cfg = _stream_setup(seed=3)
        rng = np.random.default_rng(11)
        runs.append([train_step(b, params, sched, opt, loss_cfg, rng)
                     for b in batches])
    for a, b in zip(*runs):
        assert a.l_r == b.l_r
        assert a.l_neg == b.l_neg
        assert a.l_total == b.l_total


_TRAIN_PROBE = """
import numpy as np
from nadex import data, denoiser, diffusion, objectives, synthetic
from nadex.kernel import optim

quads = synthetic.cyclic_tkg(num_entities=5, num_relations=2, num_timestamps=12)
vocab = data.build_vocabulary(quads)
aug = sorted(data.augment_inverse(quads, vocab), key=lambda q: q.t)
samples = data.build_histories(aug, window=3, dt_max=8)
batches = data.batch_by_timestamp(samples, b_max=16)
cfg = denoiser.DenoiserConfig(hidden=16, layers=1, heads=2, dropout=0.0,
                              window=3, dt_max=8, m_steps=4)
params = denoiser.init_params(cfg, vocab, seed=0)
sched = diffusion.build_schedule(m_steps=4)
opt = optim.Adam(params.tensors, lr=1e-3)
rng = np.random.default_rng(0)
losses = [objectives.train_step(b, params, sched, opt, objectives.LossConfig(),
                                rng).l_total for b in batches[:8]]
print(np.array(losses).tobytes().hex(),
      params.tensors["entity_table"].data.tobytes().hex())
"""


def test_training_trajectory_identical_across_processes():
    # fresh interpreters: nothing process-level (hash seeds, import-time
    # state) may leak into the loss trajectory or the trained entity table
    src = os.path.dirname(os.path.dirname(os.path.abspath(objectives.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    results = []
    for _ in range(2):
        out = subprocess.run([sys.executable, "-c", _TRAIN_PROBE], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        results.append(out.stdout)
    assert results[0] == results[1]


def test_nan_abort_names_component():
    params, sched, batches, opt, loss_cfg = _stream_setup()
    params.tensors["entity_table"].data[0, 0] = np.nan
    with pytest.raises(NumericsError) as exc:
        train_step(batches[0], params, sched, opt, loss_cfg,
                   np.random.default_rng(0))
    assert "loss" in str(exc.value)
    assert "t=" in str(exc.value)


def test_train_epoch_empty_is_error():
    params, sched, _, opt, loss_cfg = _stream_setup()
    with pytest.raises(ValidationError) as exc:
        train_epoch([], params, sched, opt, loss_cfg,
                    np.random.default_rng(0))
    assert "no training data" in str(exc.value)


def test_epoch_summary_mean_identity_and_tsv():
    params, sched, batches, opt, loss_cfg = _stream_setup()
    rng = np.random.default_rng(5)
    breakdowns = []
    orig_step = train_step

    # run manually to compare against the epoch aggregate
    params2, sched2, batches2, opt2, loss_cfg2 = _stream_setup()
    rng2 = np.random.default_rng(5)
    for b in batches2:
        breakdowns.append(orig_step(b, params2, sched2, opt2, loss_cfg2,
                                    rng2))

    summary = train_epoch(batches, params, sched, opt, loss_cfg, rng)
    assert summary.steps == len(batches)
    assert summary.mean_l_total == pytest.approx(
        np.mean([x.l_total for x in breakdowns]), rel=1e-12)
    assert summary.mean_l_r == pytest.approx(
        np.mean([x.l_r for x in breakdowns]), rel=1e-12)
    line = summary.tsv(epoch=3)
    fields = line.split("\t")
    assert fields[0] == "3"
    assert float(fields[1]) == pytest.approx(summary.mean_l_r, abs=5e-7)
    assert float(fields[3]) == pytest.approx(summary.mean_l_total, abs=5e-7)
    assert len(fields) == 5


def test_ten_epoch_trend_mostly_non_increasing():
    params, sched, batches, opt, loss_cfg = _stream_setup(hidden=24)
    rng = np.random.default_rng(2)
    totals = [train_epoch(batches, params, sched, opt, loss_cfg, rng
                          ).mean_l_total
              for _ in range(10)]
    drops = sum(1 for a, b in zip(totals, totals[1:]) if b <= a + 1e-12)
    assert drops >= 8, totals
