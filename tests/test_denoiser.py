"""Transformer denoiser: init, masking, readout, scoring, capacity."""

import tracemalloc

import numpy as np
import pytest

from nadex import data, denoiser, diffusion, objectives
from nadex.errors import ConfigurationError, ContractError
from nadex.kernel import optim
from nadex.kernel import tensor as K

from helpers import random_batch, tiny_model


def _forward(params, cfg, batch, m=1, train_mode=False, rng=None):
    hist, rel, dt, key_mask, gold = denoiser.embed_batch(params, batch)
    noised = diffusion.make_inference_input(
        hist, np.zeros((batch.size, cfg.hidden)), rel, dt)
    return denoiser.denoise(params, noised, m, key_mask,
                            train_mode=train_mode, rng=rng)


# ---------------------------------------------------------------------------
# init


def test_init_deterministic_bitwise():
    cfg, vocab, params_a, _ = tiny_model(seed=11)
    _, _, params_b, _ = tiny_model(seed=11)
    assert sorted(params_a.tensors) == sorted(params_b.tensors)
    for name, t in params_a.tensors.items():
        assert np.array_equal(t.data, params_b.tensors[name].data), name


def test_init_seed_changes_parameters():
    _, _, params_a, _ = tiny_model(seed=0)
    _, _, params_b, _ = tiny_model(seed=1)
    assert not np.array_equal(params_a.tensors["entity_table"].data,
                              params_b.tensors["entity_table"].data)


def test_init_table_shapes_and_distributions():
    cfg, vocab, params, _ = tiny_model(hidden=32, num_entities=40,
                                       num_relations_base=7, window=5,
                                       dt_max=12, m_steps=9)
    t = params.tensors
    assert t["entity_table"].data.shape == (40, 32)
    assert t["relation_table"].data.shape == (14, 32)
    assert t["dt_table"].data.shape == (13, 32)        # bins 0..dt_max
    assert t["position_table"].data.shape == (6, 32)   # window + target slot
    assert t["step_table"].data.shape == (9, 32)
    # N(0, 0.02^2): the sample std of 1280 draws should sit near 0.02
    assert abs(t["entity_table"].data.std() - 0.02) < 0.004
    for name, tensor in t.items():
        assert tensor.requires_grad, name
        if name.endswith(".b1") or name.endswith(".b2") or \
                name.endswith(".bq") or name.endswith(".bk") or \
                name.endswith(".bv") or name.endswith(".bo"):
            assert not np.any(tensor.data), f"bias {name} not zero"


def test_parameter_count_stable():
    _, _, params_a, _ = tiny_model(seed=0)
    _, _, params_b, _ = tiny_model(seed=5)
    assert params_a.parameter_count() == params_b.parameter_count()
    assert params_a.parameter_count() == sum(
        t.data.size for t in params_a.tensors.values())


def test_config_validation():
    with pytest.raises(ConfigurationError):
        denoiser.DenoiserConfig(hidden=30, heads=4)  # not divisible
    with pytest.raises(ConfigurationError):
        denoiser.DenoiserConfig(hidden=0)
    with pytest.raises(ConfigurationError):
        denoiser.DenoiserConfig(dropout=1.0)
    cfg = denoiser.DenoiserConfig(hidden=16)
    assert cfg.ffn == 64  # 4h


def test_scoring_table_is_entity_table():
    _, _, params, _ = tiny_model()
    assert params.scoring_table() is params.tensors["entity_table"]


# ---------------------------------------------------------------------------
# denoise forward


def test_denoise_output_shape():
    cfg, vocab, params, _ = tiny_model()
    rng = np.random.default_rng(0)
    batch = random_batch(rng, 6, cfg.window, vocab.num_entities,
                         vocab.num_relations, cfg.dt_max)
    out = _forward(params, cfg, batch)
    assert out.data.shape == (6, cfg.hidden)


def test_padding_invariance_exact():
    cfg, vocab, params, _ = tiny_model(window=4)
    rng = np.random.default_rng(1)
    batch = random_batch(rng, 5, cfg.window, vocab.num_entities,
                         vocab.num_relations, cfg.dt_max)
    assert not batch.mask.all(), "need some padding to probe"
    base = _forward(params, cfg, batch).data.copy()
    # arbitrary junk in padded positions: different ids, different gaps
    junk_o = batch.hist_objects.copy()
    junk_r = batch.hist_relations.copy()
    junk_dt = batch.hist_dt.copy()
    pad = ~batch.mask
    junk_o[pad] = (junk_o[pad] + 1) % vocab.num_entities
    junk_r[pad] = (junk_r[pad] + 1) % vocab.num_relations
    junk_dt[pad] = (junk_dt[pad] + 3) % (cfg.dt_max + 1)
    tampered = data.TimestampBatch(
        t=batch.t, subjects=batch.subjects, relations=batch.relations,
        golds=batch.golds, hist_objects=junk_o, hist_relations=junk_r,
        hist_dt=junk_dt, mask=batch.mask)
    out = _forward(params, cfg, tampered).data
    assert np.array_equal(out, base)


def test_padding_invariance_exact_in_float32():
    cfg, vocab, params, _ = tiny_model(window=4)
    params32 = params.cast(np.float32)
    rng = np.random.default_rng(1)
    batch = random_batch(rng, 5, cfg.window, vocab.num_entities,
                         vocab.num_relations, cfg.dt_max)
    pad = ~batch.mask
    assert pad.any()

    def forward(hist_objects):
        tampered = data.TimestampBatch(
            t=batch.t, subjects=batch.subjects, relations=batch.relations,
            golds=batch.golds, hist_objects=hist_objects,
            hist_relations=batch.hist_relations, hist_dt=batch.hist_dt,
            mask=batch.mask)
        hist, rel, dt, key_mask, _ = denoiser.embed_batch(params32, tampered)
        noised = diffusion.make_inference_input(
            hist, np.zeros((batch.size, cfg.hidden), dtype=np.float32), rel, dt)
        return denoiser.denoise(params32, noised, 1, key_mask).data

    base = forward(batch.hist_objects)
    junk = batch.hist_objects.copy()
    junk[pad] = (junk[pad] + 1) % vocab.num_entities
    assert base.dtype == np.float32
    assert np.array_equal(forward(junk), base)


def test_padded_positions_get_exactly_zero_gradient():
    cfg, vocab, params, sched = tiny_model(window=4)
    rng = np.random.default_rng(2)
    batch = random_batch(rng, 4, cfg.window, vocab.num_entities,
                         vocab.num_relations, cfg.dt_max)
    pad_rows = ~batch.mask
    assert pad_rows.any()
    with K.Tape().active():
        hist, rel, dt, key_mask, gold = denoiser.embed_batch(params, batch)
        noised = diffusion.make_inference_input(
            hist, np.zeros((batch.size, cfg.hidden)), rel, dt)
        out = denoiser.denoise(params, noised, 1, key_mask)
        K.backward(K.sum(out))
    grad = params.tensors["dt_table"].grad
    assert grad is not None
    # bin 0 is only ever referenced by padded slots; the -1e30 key bias
    # underflows their attention weights to exactly zero
    padded_bins = set(batch.hist_dt[pad_rows].tolist())
    live_bins = set(batch.hist_dt[batch.mask].tolist()) | {0}
    for b in padded_bins - live_bins:
        assert not np.any(grad[b]), f"padded dt bin {b} leaked gradient"


def test_position_permutation_changes_output():
    cfg, vocab, params, _ = tiny_model(window=4)
    rng = np.random.default_rng(3)
    # fully real history so both positions are attended
    batch = random_batch(rng, 3, cfg.window, vocab.num_entities,
                         vocab.num_relations, cfg.dt_max)
    full = batch.mask.copy()
    full[:] = True
    hist_o = rng.integers(0, vocab.num_entities, size=batch.hist_objects.shape)
    hist_r = rng.integers(0, vocab.num_relations,
                          size=batch.hist_relations.shape)
    hist_dt = rng.integers(1, cfg.dt_max, size=batch.hist_dt.shape)
    base_batch = data.TimestampBatch(
        t=batch.t, subjects=batch.subjects, relations=batch.relations,
        golds=batch.golds, hist_objects=hist_o.astype(np.int64),
        hist_relations=hist_r.astype(np.int64),
        hist_dt=hist_dt.astype(np.int64), mask=full)
    swapped = data.TimestampBatch(
        t=batch.t, subjects=batch.subjects, relations=batch.relations,
        golds=batch.golds,
        hist_objects=base_batch.hist_objects[:, [1, 0, 2, 3]].copy(),
        hist_relations=base_batch.hist_relations[:, [1, 0, 2, 3]].copy(),
        hist_dt=base_batch.hist_dt[:, [1, 0, 2, 3]].copy(), mask=full)
    assert not np.array_equal(base_batch.hist_objects, swapped.hist_objects)
    a = _forward(params, cfg, base_batch).data
    b = _forward(params, cfg, swapped).data
    assert not np.array_equal(a, b)


def _reference_denoise(params, seq, m, padding_mask):
    """Eval-mode forward in plain numpy with every layer over all S slots,
    read out at slot S - 1 afterwards."""
    p = {name: t.data for name, t in params.tensors.items()}
    cfg = params.config
    n, s, h = seq.shape
    heads, dh = cfg.heads, h // cfg.heads

    def ln(x, pre):
        c = x - x.mean(axis=-1, keepdims=True)
        var = np.maximum((c**2).mean(axis=-1, keepdims=True),
                         K.LAYER_NORM_VAR_FLOOR)
        return c / np.sqrt(var) * p[f"{pre}.gain"] + p[f"{pre}.bias"]

    def split(x):
        return x.reshape(n, s, heads, dh).transpose(0, 2, 1, 3)

    x = seq + p["position_table"][:s] + p["step_table"][m - 1]
    bias = np.where(padding_mask, 0.0, K.MASK_NEG)[:, None, None, :]
    for i in range(cfg.layers):
        pre = f"layer{i}"
        xn = ln(x, f"{pre}.ln1")
        q, k, v = (split(xn @ p[f"{pre}.attn.w{c}"] + p[f"{pre}.attn.b{c}"])
                   for c in "qkv")
        logits = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh) + bias
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        ctx = (e / e.sum(axis=-1, keepdims=True)) @ v
        ctx = ctx.transpose(0, 2, 1, 3).reshape(n, s, h)
        x = x + ctx @ p[f"{pre}.attn.wo"] + p[f"{pre}.attn.bo"]
        inner = np.maximum(ln(x, f"{pre}.ln2") @ p[f"{pre}.ffn.w1"]
                           + p[f"{pre}.ffn.b1"], 0.0)
        x = x + inner @ p[f"{pre}.ffn.w2"] + p[f"{pre}.ffn.b2"]
    return ln(x[:, s - 1], "final_ln")


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_denoise_matches_full_slot_reference(layers):
    cfg, vocab, params, _ = tiny_model(layers=layers, window=8, seed=layers)
    rng = np.random.default_rng(20 + layers)
    batch = random_batch(rng, 7, cfg.window, vocab.num_entities,
                         vocab.num_relations, cfg.dt_max)
    assert not batch.mask.all(), "need padded rows"
    hist, rel, dt, key_mask, _ = denoiser.embed_batch(params, batch)
    noised = diffusion.make_inference_input(
        hist, rng.normal(size=(batch.size, cfg.hidden)), rel, dt)
    out = denoiser.denoise(params, noised, 3, key_mask).data
    ref = _reference_denoise(params, noised.data, 3, key_mask)
    assert out.dtype == np.float64 and out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_last_layer_runs_its_ffn_on_the_target_slot_only():
    # a full-slot layer tapes two [N*S, 4h] nodes (x @ w1 + b1, relu); the
    # last layer tapes none, its FFN runs on [N, h]
    counts = []
    for layers in (1, 2, 3):
        cfg, vocab, params, _ = tiny_model(layers=layers, window=8,
                                           dropout=0.2)
        rng = np.random.default_rng(30)
        batch = random_batch(rng, 4, cfg.window, vocab.num_entities,
                             vocab.num_relations, cfg.dt_max)
        wide = (batch.size * cfg.max_seq, cfg.ffn)
        tape = K.Tape()
        with tape.active():
            _forward(params, cfg, batch, train_mode=True, rng=rng)
        counts.append(sum(out.shape == wide for out, _ in tape._nodes))
    assert counts == [0, 2, 4]


def test_all_masked_target_slot_rejected():
    cfg, vocab, params, _ = tiny_model()
    rng = np.random.default_rng(4)
    batch = random_batch(rng, 2, cfg.window, vocab.num_entities,
                         vocab.num_relations, cfg.dt_max)
    hist, rel, dt, key_mask, gold = denoiser.embed_batch(params, batch)
    noised = diffusion.make_inference_input(
        hist, np.zeros((2, cfg.hidden)), rel, dt)
    bad_mask = key_mask.copy()
    bad_mask[0, -1] = False
    with pytest.raises(ContractError):
        denoiser.denoise(params, noised, 1, bad_mask)


def test_inference_forward_deterministic():
    cfg, vocab, params, _ = tiny_model(dropout=0.3)
    rng = np.random.default_rng(5)
    batch = random_batch(rng, 4, cfg.window, vocab.num_entities,
                         vocab.num_relations, cfg.dt_max)
    a = _forward(params, cfg, batch, train_mode=False).data
    b = _forward(params, cfg, batch, train_mode=False).data
    assert np.array_equal(a, b)


def test_train_mode_dropout_requires_rng_and_perturbs():
    cfg, vocab, params, _ = tiny_model(dropout=0.3)
    rng = np.random.default_rng(6)
    batch = random_batch(rng, 4, cfg.window, vocab.num_entities,
                         vocab.num_relations, cfg.dt_max)
    with pytest.raises(ConfigurationError):
        _forward(params, cfg, batch, train_mode=True, rng=None)
    a = _forward(params, cfg, batch, train_mode=True,
                 rng=np.random.default_rng(1)).data
    b = _forward(params, cfg, batch, train_mode=True,
                 rng=np.random.default_rng(2)).data
    assert not np.array_equal(a, b)


def test_step_embedding_enters_the_computation():
    cfg, vocab, params, _ = tiny_model(m_steps=6)
    rng = np.random.default_rng(7)
    batch = random_batch(rng, 3, cfg.window, vocab.num_entities,
                         vocab.num_relations, cfg.dt_max)
    a = _forward(params, cfg, batch, m=1).data
    b = _forward(params, cfg, batch, m=6).data
    assert not np.array_equal(a, b)


def test_gradient_connectivity_every_parameter():
    cfg, vocab, params, sched = tiny_model(window=3, m_steps=4)
    rng = np.random.default_rng(8)
    loss_cfg = objectives.LossConfig(lam=0.5, gamma=1.0, tau=0.5)
    reached = {name: False for name in params.tensors}
    for trial in range(6):
        batch = random_batch(rng, 5, cfg.window, vocab.num_entities,
                             vocab.num_relations, cfg.dt_max)
        m = int(rng.integers(1, sched.m_steps + 1))
        eps_pos = rng.normal(size=(5, cfg.hidden))
        eps_neg = rng.normal(size=(5, cfg.hidden))
        with K.Tape().active():
            total, _, _, _ = objectives.compute_batch_loss(
                params, batch, sched, loss_cfg, m, eps_pos, eps_neg)
            K.backward(total)
        for name, t in params.tensors.items():
            if t.grad is not None and np.any(t.grad):
                reached[name] = True
            t.grad = None
    missing = [n for n, hit in reached.items() if not hit]
    assert not missing, f"no gradient reached: {missing}"


# ---------------------------------------------------------------------------
# scoring


def test_score_two_orthonormal_entities():
    table = K.Tensor(np.eye(2))
    pred = K.Tensor(np.array([[1.0, 0.0]]))
    probs = denoiser.score_entities(pred, table, temperature=1.0).data
    expected = np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum()
    assert np.allclose(probs[0], expected, rtol=0.0, atol=1e-12)
    assert abs(probs[0, 0] - 0.731) < 5e-4
    assert abs(probs[0, 1] - 0.269) < 5e-4


def test_score_orthogonal_prediction_uniform():
    table = K.Tensor(np.eye(3)[:, :2] @ np.zeros((2, 4)) +
                     np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0],
                               [0, 0, 1.0, 0]]))
    pred = K.Tensor(np.array([[0.0, 0.0, 0.0, 5.0]]))
    probs = denoiser.score_entities(pred, table, temperature=1.0).data
    assert np.allclose(probs[0], np.full(3, 1.0 / 3.0), rtol=0.0, atol=1e-12)


def test_score_rows_sum_to_one():
    rng = np.random.default_rng(9)
    table = K.Tensor(rng.normal(size=(17, 6)))
    pred = K.Tensor(rng.normal(size=(5, 6)))
    probs = denoiser.score_entities(pred, table, temperature=0.5).data
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12


def test_score_rejects_nonpositive_temperature():
    table = K.Tensor(np.eye(2))
    pred = K.Tensor(np.ones((1, 2)))
    with pytest.raises(ConfigurationError):
        denoiser.score_entities(pred, table, temperature=0.0)


def test_temperature_sharpens_and_flattens():
    table = K.Tensor(np.eye(2))
    pred = K.Tensor(np.array([[1.0, 0.0]]))
    sharp = denoiser.score_entities(pred, table, temperature=0.1).data
    flat = denoiser.score_entities(pred, table, temperature=10.0).data
    assert sharp[0, 0] > 0.99
    assert abs(flat[0, 0] - 0.5) < 0.03


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("n", [1, 7, 256])
@pytest.mark.parametrize("h", [16, 200])
def test_score_logits_match_product_with_copied_transpose(monkeypatch, dtype,
                                                          rtol, n, h):
    """The logits equal ``d @ E.T`` with the transpose copied, to a rounding
    tolerance relative to the largest logit; probabilities sum to one."""
    rng = np.random.default_rng(31 + n + h)
    table = rng.normal(0.0, h ** -0.5, size=(300, h)).astype(dtype)
    pred = rng.normal(size=(n, h)).astype(dtype)
    seen = []
    softmax = K.softmax

    def spy(x, temperature=1.0, axis=-1):
        seen.append(x.data)
        return softmax(x, temperature=temperature, axis=axis)

    monkeypatch.setattr(K, "softmax", spy)
    with K.no_grad():
        probs = denoiser.score_entities(K.Tensor(pred), K.Tensor(table), 0.5).data
    (logits,) = seen
    reference = pred @ np.ascontiguousarray(table.T)
    assert logits.dtype == probs.dtype == dtype
    assert logits.shape == reference.shape == (n, 300)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(logits - reference)) <= rtol * scale
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= rtol


def test_score_allocates_less_than_half_the_table():
    """Scoring one row must not copy the ``[V, h]`` table (e.g. a transpose)."""
    rng = np.random.default_rng(5)
    table = K.Tensor(rng.normal(size=(2000, 200)))
    pred = K.Tensor(rng.normal(size=(1, 200)))
    limit = table.data.nbytes // 2
    with K.no_grad():
        tracemalloc.start()
        try:
            denoiser.score_entities(pred, table, temperature=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < limit, f"peak {peak} B, limit {limit} B"


# ---------------------------------------------------------------------------
# capacity


def test_overfit_twenty_facts_below_005_within_500_steps():
    # one fixed random 20-fact stream; the model must be able to memorize it
    rng = np.random.default_rng(0)
    quads = sorted(
        (data.Quadruple(int(rng.integers(0, 4)), int(rng.integers(0, 2)),
                        int(rng.integers(0, 4)), int(t))
         for t in rng.integers(0, 10, size=10)),
        key=lambda q: q.t)
    vocab = data.build_vocabulary(quads)
    aug = sorted(data.augment_inverse(quads, vocab), key=lambda q: q.t)
    assert len(aug) == 20
    samples = data.build_histories(aug, window=4, dt_max=16)
    batches = data.batch_by_timestamp(samples, b_max=32)
    cfg = denoiser.DenoiserConfig(hidden=32, layers=1, heads=2, dropout=0.0,
                                  window=4, dt_max=16, m_steps=4)
    params = denoiser.init_params(cfg, vocab, seed=0)
    sched = diffusion.build_schedule(m_steps=4, delta=1.0, alpha_min=0.01,
                                     alpha_max=0.5)
    opt = optim.Adam(params.tensors, lr=5e-3)
    loss_cfg = objectives.LossConfig(lam=1.0)  # pure reconstruction
    train_rng = np.random.default_rng(0)
    steps = 0
    reached = None
    while steps < 500:
        for b in batches:
            objectives.train_step(b, params, sched, opt, loss_cfg, train_rng)
            steps += 1
        # measure L_r at the lowest-noise step, dropout off
        total = 0.0
        count = 0
        for b in batches:
            with K.no_grad():
                _, l_r, _, _ = objectives.compute_batch_loss(
                    params, b, sched, loss_cfg, 1,
                    np.zeros((b.size, cfg.hidden)),
                    np.zeros((b.size, cfg.hidden)))
            total += l_r.item() * b.size
            count += b.size
        if total / count < 0.05:
            reached = steps
            break
    assert reached is not None, "reconstruction loss never dropped below 0.05"
    assert reached <= 500
