"""Acceptance gate: ten go/no-go checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict line;
without ``-s`` the lines surface only for failing checks.
"""

import os
import time

import numpy as np
import pytest

from nadex import checkpoint, data, diffusion, synthetic
from nadex.data import (augment_inverse, batch_by_timestamp, build_histories,
                        build_vocabulary, parse_quadruples)
from nadex.denoiser import DenoiserConfig, init_params
from nadex.diffusion import build_schedule, diffuse
from nadex.evaluation import (MetricReport, build_filter_index, evaluate,
                              filtered_rank)
from nadex.kernel import Adam, optim
from nadex.kernel import tensor as K
from nadex.negsample import negative_prototypes
from nadex.objectives import (LossConfig, combined_loss, compute_batch_loss,
                              negative_cosine_loss, reconstruction_loss,
                              train_epoch)

import test_autodiff
from helpers import check_grad, quick_train, random_batch, tiny_model


def _verdict(n, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {n:02d}] {status} — {label}{suffix}")
    assert ok, f"criterion {n}: {label}{suffix}"


def T(x):
    return K.Tensor(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_criterion_01_gradient_suite():
    start = time.perf_counter()
    for name, make in test_autodiff.OP_CASES:
        for seed in range(20):
            test_autodiff.test_gradient_matches_finite_differences(
                name, make, seed)
    # full composite loss on a 3-entity toy instance
    for seed in range(3):
        cfg, vocab, params, sched = tiny_model(
            hidden=8, layers=1, heads=2, window=2, dt_max=4, m_steps=3,
            num_entities=3, num_relations_base=2, seed=seed)
        rng = np.random.default_rng(seed + 100)
        batch = random_batch(rng, 3, cfg.window, vocab.num_entities,
                             vocab.num_relations, cfg.dt_max)
        eps_pos = rng.normal(size=(3, cfg.hidden))
        eps_neg = rng.normal(size=(3, cfg.hidden))
        loss_cfg = LossConfig(lam=0.5, gamma=1.0, tau=0.5)

        def build():
            total, _, _, _ = compute_batch_loss(
                params, batch, sched, loss_cfg, 2, eps_pos, eps_neg)
            return total

        check_grad(build, params.tensors, seeds_checked=seed, max_coords=2,
                   rng=np.random.default_rng(seed))
    elapsed = time.perf_counter() - start
    _verdict(1, "gradients match central differences at 1e-4",
             elapsed < 60.0,
             f"{len(test_autodiff.OP_CASES)} ops x 20 seeds + composite, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. schedule oracle


def test_criterion_02_schedule_oracle():
    sched = build_schedule(m_steps=5, delta=1.0, alpha_min=0.1, alpha_max=0.5)
    exact = np.array_equal(sched.one_minus_alpha_bar,
                           np.array([0.1, 0.2, 0.3, 0.4, 0.5]))

    rng = np.random.default_rng(2024)
    sweep_ok = True
    for _ in range(100):
        m = int(rng.integers(2, 61))
        lo = float(rng.uniform(0.001, 0.6))
        hi = float(rng.uniform(lo, 0.95))
        delta = float(rng.uniform(0.05, 0.999 / hi))
        s = build_schedule(m, delta, lo, hi)
        seq = s.one_minus_alpha_bar
        sweep_ok &= seq[0] == delta * lo and seq[-1] == delta * hi
        sweep_ok &= bool(np.all(seq > 0.0) and np.all(seq < 1.0))
        sweep_ok &= bool(np.all(np.diff(seq) > 0.0)) if hi > lo else True
        for step in (1, m):
            sweep_ok &= s.sqrt_alpha_bar(step) == np.sqrt(1.0 - seq[step - 1])
    _verdict(2, "noise schedule endpoints/monotonicity", exact and sweep_ok,
             "hand sequence bitwise + 100-point sweep")


# ---------------------------------------------------------------------------
# 3. negative prototypes


def test_criterion_03_negative_prototypes():
    rng = np.random.default_rng(33)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 9))
        e = rng.normal(size=(n, 12)) * 10.0 ** rng.integers(-2, 3)
        t = K.Tensor(e.copy(), requires_grad=True)
        out = negative_prototypes(t)
        if n == 1:
            ok &= (not out.valid) and np.all(out.prototypes.data == 0.0)
            continue
        keep = ~np.eye(n, dtype=bool)
        explicit = np.where(keep[:, :, None], e[None, :, :], 0.0
                            ).sum(axis=1) / (n - 1)
        ok &= np.array_equal(out.prototypes.data, explicit)

    # self-exclusion: perturbing row i never moves prototype i
    e = rng.normal(size=(6, 8))
    base = negative_prototypes(K.Tensor(e.copy())).prototypes.data
    for i in range(6):
        bumped = e.copy()
        bumped[i] += rng.normal(size=8) * 100.0
        moved = negative_prototypes(K.Tensor(bumped)).prototypes.data
        ok &= np.array_equal(moved[i], base[i])
        others = np.arange(6) != i
        ok &= not np.array_equal(moved[others], base[others])
    _verdict(3, "leave-one-out prototypes bitwise vs explicit construction",
             ok, "200 batches, N in [1, 8] + perturbation")


# ---------------------------------------------------------------------------
# 4. forward-process statistics


def test_criterion_04_forward_statistics():
    start = time.perf_counter()
    sched = build_schedule(m_steps=10, delta=1.0, alpha_min=0.05,
                           alpha_max=0.9)
    n, base = 10_000, np.array([1.2, -0.8, 2.0, 0.6])
    clean = np.tile(base, (n, 1))
    rng = np.random.default_rng(123)
    ok = True
    details = []
    for m in (1, 5, 10):
        noise_var = sched.one_minus_alpha_bar[m - 1]
        eps = rng.standard_normal(clean.shape)
        rng.standard_normal(clean.shape)  # the negative branch's draw
        draws = diffuse(T(clean), m, sched, eps).data
        target = sched.sqrt_alpha_bar(m) * base
        band = 3.0 * np.sqrt(noise_var) / np.sqrt(n)
        mean_dev = np.max(np.abs(draws.mean(axis=0) - target))
        var_err = abs((draws - target).var() - noise_var) / noise_var
        ok &= mean_dev <= band and var_err <= 0.02
        details.append(f"m={m}: var err {var_err * 100:.2f}%")
    elapsed = time.perf_counter() - start
    _verdict(4, "corruption moments match closed form",
             ok and elapsed < 30.0,
             "; ".join(details) + f", {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. loss identities


def test_criterion_05_loss_identities():
    l_r = K.Tensor(np.asarray(0.87), requires_grad=True)
    collapse = combined_loss(l_r, T(0.3), LossConfig(lam=1.0)) is l_r

    same = np.array([[1.0, 2.0], [3.0, -1.0]])
    cos0 = negative_cosine_loss(T(same), T(same * 2.0)).item()
    cos1 = negative_cosine_loss(T([[1.0, 0.0]]), T([[0.0, 5.0]])).item()
    cos4 = negative_cosine_loss(T([[1.0, 1.0]]), T([[-3.0, -3.0]])).item()
    hand = combined_loss(T(1.0), T(0.0), LossConfig(lam=0.0, gamma=1.0)).item()
    hand_ref = float(np.log1p(np.exp(1.0 - 1e-8)))  # = 1.3132616...
    ok = (collapse
          and abs(cos0 - 0.0) <= 1e-6
          and abs(cos1 - 1.0) <= 1e-6
          and abs(cos4 - 4.0) <= 1e-6
          and abs(hand - hand_ref) <= 1e-6)
    _verdict(5, "composite-loss identities",
             ok, f"collapse bitwise; cosine 0/1/4; hand value {hand:.4f}")


# ---------------------------------------------------------------------------
# 6. metric oracle


def test_criterion_06_metric_oracle():
    rep = MetricReport.from_ranks([1, 2, 4])
    ok = abs(rep.mrr - 7.0 / 12.0) <= 1e-9

    rng = np.random.default_rng(606)
    for _ in range(100):
        num_e = int(rng.integers(3, 11))
        n_facts = int(rng.integers(1, 31))
        facts = [data.Quadruple(int(rng.integers(num_e)),
                                int(rng.integers(3)),
                                int(rng.integers(num_e)),
                                int(rng.integers(12)))
                 for _ in range(n_facts)]
        index = build_filter_index(facts)
        ranks = []
        ref_ranks = []
        for q in facts:
            scores = np.round(rng.normal(size=num_e), 1)
            filt = index[(q.s, q.r, q.t)]
            ranks.append(filtered_rank(scores, q.o, filt))
            competitors = [e for e in range(num_e)
                           if e != q.o and e not in filt]
            ref_ranks.append(1 + sum(scores[e] >= scores[q.o]
                                     for e in competitors))
        ok &= ranks == ref_ranks
        got = MetricReport.from_ranks(ranks)
        # same mean statistic over the independently derived rank vector
        ok &= got.mrr == float(np.mean(1.0 / np.asarray(ref_ranks,
                                                        dtype=np.float64)))
        for k, val in ((1, got.hits1), (3, got.hits3), (10, got.hits10)):
            ok &= val == sum(r <= k for r in ref_ranks) / len(ref_ranks)
    _verdict(6, "filtered metrics equal exhaustive reference",
             ok, "100 random toy graphs, exact")


# ---------------------------------------------------------------------------
# 7. overfit run


def test_criterion_07_overfit_cyclic_stream():
    start = time.perf_counter()
    quads = synthetic.cyclic_tkg(5, 2, 60)
    train, valid, test = synthetic.split_chronological(quads)
    vocab = build_vocabulary(train, valid, test)
    aug = {k: augment_inverse(v, vocab) for k, v in
           (("train", train), ("valid", valid), ("test", test))}
    stream = sorted(aug["train"] + aug["valid"] + aug["test"],
                    key=lambda q: q.t)
    samples = build_histories(stream, window=4, dt_max=16)
    va_t = min(q.t for q in valid)
    te_t = min(q.t for q in test)
    trs = [s for s, q in zip(samples, stream) if q.t < va_t]
    tes = [s for s, q in zip(samples, stream) if q.t >= te_t]
    fi = build_filter_index(aug["train"], aug["valid"], aug["test"])

    cfg = DenoiserConfig(hidden=96, layers=2, heads=4, dropout=0.0,
                         window=4, dt_max=16, m_steps=10)
    params = init_params(cfg, vocab, seed=0)
    sched = build_schedule(10, 1.0, 0.01, 0.99)
    batches = batch_by_timestamp(trs, 512)
    epochs = 10
    steps = epochs * len(batches)
    quick_train(params, sched, batches, lr=5e-3, epochs=epochs, seed=0)
    report = evaluate(tes, params, sched, fi, tau=0.5, seed=7, k_repeats=4)
    elapsed = time.perf_counter() - start
    _verdict(7, "cyclic-stream overfit reaches MRR >= 0.95",
             report.mrr >= 0.95 and steps <= 500 and elapsed < 180.0,
             f"MRR {report.mrr:.4f} in {steps} steps, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. ablation direction


def _ablation_mrr(prepped, lam, seed):
    vocab, trs, tes, fi = prepped
    cfg = DenoiserConfig(hidden=64, layers=2, heads=4, dropout=0.0,
                         window=4, dt_max=16, m_steps=10)
    params = init_params(cfg, vocab, seed=seed)
    sched = build_schedule(10, 1.0, 0.01, 0.99)
    batches = batch_by_timestamp(trs, 512)
    quick_train(params, sched, batches, lr=3e-3, epochs=6, seed=seed, lam=lam)
    return evaluate(tes, params, sched, fi, tau=0.5, seed=7, k_repeats=2).mrr


def test_criterion_08_ablation_direction():
    start = time.perf_counter()
    quads = synthetic.noisy_tkg(seed=123, trap_rate=0.3)
    train, valid, test = synthetic.split_chronological(quads)
    vocab = build_vocabulary(train, valid, test)
    aug = {k: augment_inverse(v, vocab) for k, v in
           (("train", train), ("valid", valid), ("test", test))}
    stream = sorted(aug["train"] + aug["valid"] + aug["test"],
                    key=lambda q: q.t)
    samples = build_histories(stream, window=4, dt_max=16)
    va_t = min(q.t for q in valid)
    te_t = min(q.t for q in test)
    trs = [s for s, q in zip(samples, stream) if q.t < va_t]
    tes = [s for s, q in zip(samples, stream) if q.t >= te_t]
    fi = build_filter_index(aug["train"], aug["valid"], aug["test"])
    prepped = (vocab, trs, tes, fi)

    seeds = (0, 1, 2)
    full = [_ablation_mrr(prepped, 0.5, s) for s in seeds]
    ablated = [_ablation_mrr(prepped, 1.0, s) for s in seeds]
    mean_full, mean_abl = float(np.mean(full)), float(np.mean(ablated))
    elapsed = time.perf_counter() - start
    _verdict(8, "negative-alignment term helps on the trap stream",
             mean_full >= mean_abl,
             f"full {mean_full:.4f} vs disabled {mean_abl:.4f} over "
             f"{len(seeds)} seeds, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. scaled-data sanity


def _frequency_baseline_mrr(aug_train, eval_samples, fi, num_entities):
    counts = {}
    for q in aug_train:
        counts.setdefault((q.s, q.r), np.zeros(num_entities))[q.o] += 1
    empty = np.zeros(num_entities)
    ranks = [filtered_rank(counts.get((s.s, s.r), empty), s.o,
                           fi.get((s.s, s.r, s.t), ()))
             for s in eval_samples]
    return float(np.mean(1.0 / np.asarray(ranks)))


def _subsample_and_run(train, valid, test, keep_seed, lr, epochs):
    rng = np.random.default_rng(keep_seed)
    keep = rng.random(len(train)) < 0.05
    train_sub = [q for q, k in zip(train, keep) if k]
    vocab = build_vocabulary(train, valid, test)  # ids from the full files
    aug_tr = augment_inverse(train_sub, vocab)
    aug_va = augment_inverse(valid, vocab)
    aug_te = augment_inverse(test, vocab)
    stream = sorted(aug_tr + aug_va + aug_te, key=lambda q: q.t)
    samples = build_histories(stream, window=8, dt_max=32)
    va_t = min(q.t for q in valid)
    te_t = min(q.t for q in test)
    trs = [s for s, q in zip(samples, stream) if q.t < va_t]
    tes = [s for s, q in zip(samples, stream) if q.t >= te_t]
    fi = build_filter_index(aug_tr, aug_va, aug_te)
    base_mrr = _frequency_baseline_mrr(aug_tr, tes, fi, vocab.num_entities)

    cfg = DenoiserConfig(hidden=64, layers=2, heads=4, dropout=0.0,
                         window=8, dt_max=32, m_steps=10)
    params = init_params(cfg, vocab, seed=0)
    sched = build_schedule(10, 1.0, 0.01, 0.99)
    batches = batch_by_timestamp(trs, 512)
    quick_train(params, sched, batches, lr=lr, epochs=epochs, seed=0)
    rep = evaluate(tes, params, sched, fi, tau=0.5, seed=7, k_repeats=2)
    return rep.mrr, base_mrr


def test_criterion_09_scaled_data_surrogate():
    start = time.perf_counter()
    quads = synthetic.shift_tkg(10, 2, 120)
    train, valid, test = synthetic.split_chronological(quads)
    model_mrr, base_mrr = _subsample_and_run(train, valid, test,
                                             keep_seed=5, lr=3e-3, epochs=10)
    elapsed = time.perf_counter() - start
    _verdict(9, "5% drift-stream subsample beats frequency baseline",
             model_mrr > base_mrr and elapsed < 1800.0,
             f"model {model_mrr:.4f} vs baseline {base_mrr:.4f}, "
             f"{elapsed:.0f}s")


def _real_event_dir():
    cand = os.environ.get("NADEX_ICEWS14_DIR")
    if not cand:
        cand = os.path.join(os.path.dirname(__file__), "..", "data",
                            "ICEWS14")
    cand = os.path.abspath(cand)
    needed = [os.path.join(cand, f"{n}.txt") for n in
              ("train", "valid", "test")]
    return cand if all(os.path.isfile(p) for p in needed) else None


def test_criterion_09_scaled_data_real():
    dirpath = _real_event_dir()
    if dirpath is None:
        pytest.skip(
            "real event dataset not present (sandbox has no network; set "
            "NADEX_ICEWS14_DIR or place the files under data/ICEWS14); the "
            "surrogate variant of this check always runs")
    start = time.perf_counter()
    splits = [parse_quadruples(os.path.join(dirpath, f"{n}.txt"), 24)
              for n in ("train", "valid", "test")]
    model_mrr, base_mrr = _subsample_and_run(*splits, keep_seed=5,
                                             lr=1e-3, epochs=10)
    elapsed = time.perf_counter() - start
    _verdict(9, "5% real-event subsample beats frequency baseline",
             model_mrr > base_mrr and elapsed < 1800.0,
             f"model {model_mrr:.4f} vs baseline {base_mrr:.4f}, "
             f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. persistence


def test_criterion_10_persistence(tmp_path):
    quads = synthetic.cyclic_tkg(5, 2, 60)
    train, valid, test = synthetic.split_chronological(quads)
    vocab = build_vocabulary(train, valid, test)
    aug = {k: augment_inverse(v, vocab) for k, v in
           (("train", train), ("valid", valid), ("test", test))}
    stream = sorted(aug["train"] + aug["valid"] + aug["test"],
                    key=lambda q: q.t)
    samples = build_histories(stream, window=4, dt_max=16)
    va_t = min(q.t for q in valid)
    trs = [s for s, q in zip(samples, stream) if q.t < va_t]
    vas = [s for s, q in zip(samples, stream)
           if va_t <= q.t < min(q2.t for q2 in test)]
    fi = build_filter_index(aug["train"], aug["valid"], aug["test"])

    cfg = DenoiserConfig(hidden=48, layers=1, heads=2, dropout=0.0,
                         window=4, dt_max=16, m_steps=10)
    params = init_params(cfg, vocab, seed=0)
    sched = build_schedule(10, 1.0, 0.01, 0.99)
    opt = optim.Adam(params.tensors, lr=3e-3)
    loss_cfg = LossConfig(lam=0.5)
    rng = np.random.default_rng(0)
    batches = batch_by_timestamp(trs, 512)
    for _ in range(2):
        train_epoch(batches, params, sched, opt, loss_cfg, rng)

    before = evaluate(vas, params, sched, fi, tau=0.5, seed=11, k_repeats=2)
    path = tmp_path / "persist.ckpt"
    checkpoint.save(path, params, opt, "", vocab, 2, before.mrr, rng)

    fresh = init_params(cfg, vocab, seed=99)
    checkpoint.restore_params(checkpoint.load(path), fresh)
    after = evaluate(vas, fresh, sched, fi, tau=0.5, seed=11, k_repeats=2)
    ok = (after.mrr == before.mrr and after.hits1 == before.hits1
          and after.hits3 == before.hits3 and after.hits10 == before.hits10
          and np.array_equal(after.ranks, before.ranks))
    _verdict(10, "reloaded checkpoint reproduces metrics bitwise",
             ok, f"MRR {before.mrr:.6f} == {after.mrr:.6f}")
