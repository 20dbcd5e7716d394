"""Shared builders and numeric oracles for the test suite."""

import numpy as np

from nadex import data, denoiser, diffusion, objectives, synthetic
from nadex.kernel import optim


def rel_err(analytic, numeric):
    """Symmetric relative error used by every gradient check."""
    return abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))


def central_diff(f, arr, idx, h=1e-5):
    """Two-sided finite difference of scalar-valued f at arr[idx]."""
    orig = arr[idx]
    arr[idx] = orig + h
    up = f()
    arr[idx] = orig - h
    down = f()
    arr[idx] = orig
    return (up - down) / (2.0 * h)


def check_grad(build_loss, tensors, seeds_checked, max_coords=4, h=1e-5,
               tol=1e-4, rng=None):
    """Compare analytic grads of ``build_loss()`` against central differences.

    ``build_loss`` must rebuild the graph from the tensors' current ``data``
    each call and return the scalar loss Tensor; tape management happens
    here. A handful of coordinates per tensor are sampled; every sampled
    coordinate must satisfy ``tol`` under the symmetric relative error.
    """
    from nadex.kernel import tensor as K

    if rng is None:
        rng = np.random.default_rng(0)

    def loss_value():
        tape = K.Tape()
        with tape.active():
            out = build_loss()
        tape.clear()
        return out.item()

    with K.Tape().active():
        K.backward(build_loss())
    grads = {name: (t.grad.copy() if t.grad is not None else None)
             for name, t in tensors.items()}
    for name, t in tensors.items():
        g = grads[name]
        if g is None:
            continue
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        count = min(max_coords, flat.size)
        coords = rng.choice(flat.size, size=count, replace=False)
        for idx in coords:
            num = central_diff(lambda: loss_value(), flat, idx, h)
            if max(abs(float(gflat[idx])), abs(num)) < 1e-9:
                # below the central-difference noise floor (~ulp/h); both
                # sides are effectively zero, relative error is meaningless
                continue
            err = rel_err(float(gflat[idx]), num)
            assert err <= tol, (
                f"{name}[{idx}]: analytic={gflat[idx]:.8g} fd={num:.8g} "
                f"rel_err={err:.3g} (seed context {seeds_checked})")
    for t in tensors.values():
        t.grad = None


def tiny_model(hidden=16, layers=1, heads=2, window=3, dt_max=8, m_steps=4,
               num_entities=5, num_relations_base=2, seed=0, dropout=0.0):
    """Small untrained model + schedule for unit tests."""
    cfg = denoiser.DenoiserConfig(hidden=hidden, layers=layers, heads=heads,
                                  dropout=dropout, window=window,
                                  dt_max=dt_max, m_steps=m_steps)
    vocab = data.Vocabulary(num_entities=num_entities,
                            num_relations_base=num_relations_base)
    params = denoiser.init_params(cfg, vocab, seed=seed)
    sched = diffusion.build_schedule(m_steps=m_steps, delta=1.0,
                                     alpha_min=0.01, alpha_max=0.99)
    return cfg, vocab, params, sched


def random_batch(rng, size, window, num_entities, num_relations, dt_max, t=50):
    """Synthetic TimestampBatch with a random but valid history block."""
    n, L = size, window
    hist_len = rng.integers(0, L + 1, size=n)
    mask = np.zeros((n, L), dtype=bool)
    for i, k in enumerate(hist_len):
        if k:
            mask[i, L - k:] = True
    hist_o = np.where(mask, rng.integers(0, num_entities, size=(n, L)), 0)
    hist_r = np.where(mask, rng.integers(0, num_relations, size=(n, L)), 0)
    hist_dt = np.where(mask, rng.integers(1, dt_max + 1, size=(n, L)), 0)
    return data.TimestampBatch(
        t=t,
        subjects=rng.integers(0, num_entities, size=n).astype(np.int64),
        relations=rng.integers(0, num_relations, size=n).astype(np.int64),
        golds=rng.integers(0, num_entities, size=n).astype(np.int64),
        hist_objects=hist_o.astype(np.int64),
        hist_relations=hist_r.astype(np.int64),
        hist_dt=hist_dt.astype(np.int64),
        mask=mask,
    )


def cyclic_splits(num_entities=5, num_relations=2, num_timestamps=60,
                  window=4, dt_max=16):
    """Cyclic stream -> (vocab, train/valid/test samples, aug splits).

    Histories for all splits are built over the merged chronological stream
    so evaluation queries see every strictly earlier fact.
    """
    quads = synthetic.cyclic_tkg(num_entities, num_relations, num_timestamps)
    train, valid, test = synthetic.split_chronological(quads)
    vocab = data.build_vocabulary(train, valid, test)
    aug = {name: data.augment_inverse(split, vocab)
           for name, split in (("train", train), ("valid", valid),
                               ("test", test))}
    labeled = [(q, name) for name in ("train", "valid", "test")
               for q in aug[name]]
    labeled.sort(key=lambda pair: pair[0].t)
    stream = [q for q, _ in labeled]
    samples = data.build_histories(stream, window=window, dt_max=dt_max)
    per_split = {"train": [], "valid": [], "test": []}
    for smp, (_, name) in zip(samples, labeled):
        per_split[name].append(smp)
    return vocab, per_split, aug


def quick_train(params, sched, batches, lr, epochs, seed=0, lam=0.5,
                gamma=1.0, tau=0.5):
    """Run a few epochs; returns the list of EpochSummary rows."""
    opt = optim.Adam(params.tensors, lr=lr)
    loss_cfg = objectives.LossConfig(lam=lam, gamma=gamma, tau=tau)
    rng = np.random.default_rng(seed)
    return [objectives.train_epoch(batches, params, sched, opt, loss_cfg, rng)
            for _ in range(epochs)]
