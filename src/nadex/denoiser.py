"""Transformer that recovers the clean target embedding from a noised slot.

Input sequences carry L history positions plus one target slot, already
conditioned with relation and time-gap embeddings. The encoder adds a
learned position embedding per slot and a step embedding (broadcast to all
slots) for the current noise level, runs pre-norm bidirectional
self-attention with padded positions masked out of the keys, and reads the
final-normed last position as the clean-target estimate. Candidates are
scored by dot products against the same entity table that embeds the
history and the gold targets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, ShapeMismatchError
from .kernel import tensor as T


@dataclass(frozen=True)
class DenoiserConfig:
    hidden: int = 200
    layers: int = 2
    heads: int = 4
    ffn_hidden: int = 0  # 0 means 4 * hidden
    dropout: float = 0.2
    window: int = 8  # history length L; sequences have L + 1 slots
    dt_max: int = 512
    m_steps: int = 50

    def __post_init__(self):
        if min(self.hidden, self.layers, self.heads, self.window,
               self.dt_max, self.m_steps) <= 0:
            raise ConfigurationError("all denoiser extents must be positive")
        if self.hidden % self.heads != 0:
            raise ConfigurationError(
                f"hidden={self.hidden} not divisible by heads={self.heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def ffn(self):
        return self.ffn_hidden if self.ffn_hidden > 0 else 4 * self.hidden

    @property
    def max_seq(self):
        return self.window + 1


class DenoiserParams:
    """Named trainable tensors; iteration order is creation order."""

    def __init__(self, config, num_entities, num_relations):
        self.config = config
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.tensors = {}

    def add(self, name, array):
        self.tensors[name] = T.Tensor(array, requires_grad=True)

    def __getitem__(self, name):
        return self.tensors[name]

    def parameter_count(self):
        return int(np.sum([t.size for t in self.tensors.values()]))

    def scoring_table(self):
        """Table the output scores against: the entity table itself, so
        input and output entity embeddings are tied."""
        return self.tensors["entity_table"]

    def check_finite(self):
        for name, t in self.tensors.items():
            if not np.all(np.isfinite(t.data)):
                raise ContractError(f"parameter '{name}' contains non-finite values")


def _xavier(rng, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(config, vocab, seed):
    """Embeddings ~ N(0, 0.02^2); linears Xavier-uniform; biases zero.

    The time-gap table has dt_max + 1 rows: bin 0 is the query slot's own
    gap, bins 1..dt_max are clamped history gaps.
    """
    rng = np.random.default_rng(seed)
    h = config.hidden
    p = DenoiserParams(config, vocab.num_entities, vocab.num_relations)

    def emb(rows):
        return rng.normal(0.0, 0.02, size=(rows, h))

    p.add("entity_table", emb(vocab.num_entities))
    p.add("relation_table", emb(vocab.num_relations))
    p.add("dt_table", emb(config.dt_max + 1))
    p.add("position_table", emb(config.max_seq))
    p.add("step_table", emb(config.m_steps))
    for i in range(config.layers):
        pre = f"layer{i}"
        for w in ("wq", "wk", "wv", "wo"):
            p.add(f"{pre}.attn.{w}", _xavier(rng, h, h))
        for b in ("bq", "bk", "bv", "bo"):
            p.add(f"{pre}.attn.{b}", np.zeros(h))
        p.add(f"{pre}.ln1.gain", np.ones(h))
        p.add(f"{pre}.ln1.bias", np.zeros(h))
        p.add(f"{pre}.ffn.w1", _xavier(rng, h, config.ffn))
        p.add(f"{pre}.ffn.b1", np.zeros(config.ffn))
        p.add(f"{pre}.ffn.w2", _xavier(rng, config.ffn, h))
        p.add(f"{pre}.ffn.b2", np.zeros(h))
        p.add(f"{pre}.ln2.gain", np.ones(h))
        p.add(f"{pre}.ln2.bias", np.zeros(h))
    p.add("final_ln.gain", np.ones(h))
    p.add("final_ln.bias", np.zeros(h))
    return p


def embed_batch(params, batch):
    """Gather all embeddings one timestamp batch needs.

    Returns (history_emb [N,L,h], rel_emb [N,L+1,h], dt_emb [N,L+1,h],
    key_mask [N,L+1] bool, gold_emb [N,h]). The target slot's mask entry is
    always True; its relation is the query relation and its gap bin is 0.
    """
    n = batch.size
    rel_ids = np.concatenate([batch.hist_relations, batch.relations[:, None]], axis=1)
    dt_ids = np.concatenate(
        [batch.hist_dt, np.zeros((n, 1), dtype=np.int64)], axis=1
    )
    key_mask = np.concatenate([batch.mask, np.ones((n, 1), dtype=bool)], axis=1)
    history_emb = T.embedding_gather(params["entity_table"], batch.hist_objects)
    rel_emb = T.embedding_gather(params["relation_table"], rel_ids)
    dt_emb = T.embedding_gather(params["dt_table"], dt_ids)
    gold_emb = T.embedding_gather(params["entity_table"], batch.golds)
    return history_emb, rel_emb, dt_emb, key_mask, gold_emb


def _split_heads(x, n, s, heads, dh):
    return T.transpose(T.reshape(x, (n, s, heads, dh)), (0, 2, 1, 3))


def denoise(params, input_seq, m, padding_mask, train_mode=False, rng=None):
    """Predict the clean target embedding from a conditioned noised sequence.

    ``padding_mask`` [N, S] marks attendable positions (the target slot must
    be True). Masked positions are excluded as attention keys, so the
    output is exactly independent of their content.
    """
    cfg = params.config
    n, s, h = input_seq.shape
    if h != cfg.hidden or s > cfg.max_seq:
        raise ShapeMismatchError(
            f"sequence shape {input_seq.shape} incompatible with hidden "
            f"{cfg.hidden}, max length {cfg.max_seq}"
        )
    if padding_mask.shape != (n, s):
        raise ShapeMismatchError(
            f"mask shape {padding_mask.shape} does not match sequence ({n}, {s})"
        )
    if not bool(padding_mask[:, -1].all()):
        raise ContractError("target slot masked out: nothing to denoise")
    if train_mode and cfg.dropout > 0.0 and rng is None:
        raise ConfigurationError("training-mode dropout needs an rng")
    heads, dh = cfg.heads, cfg.hidden // cfg.heads

    pos = T.embedding_gather(params["position_table"], np.arange(s))
    step = T.embedding_gather(params["step_table"], np.array([m - 1]))
    x = T.add(input_seq, T.reshape(pos, (1, s, h)))
    x = T.add(x, T.reshape(step, (1, 1, h)))

    key_bias = T.constant(
        np.where(padding_mask, 0.0, T.MASK_NEG)[:, None, None, :]
    )
    for i in range(cfg.layers):
        pre = f"layer{i}"
        xn = T.layer_norm(x, params[f"{pre}.ln1.gain"], params[f"{pre}.ln1.bias"])
        q = T.add(T.matmul(xn, params[f"{pre}.attn.wq"]), params[f"{pre}.attn.bq"])
        k = T.add(T.matmul(xn, params[f"{pre}.attn.wk"]), params[f"{pre}.attn.bk"])
        v = T.add(T.matmul(xn, params[f"{pre}.attn.wv"]), params[f"{pre}.attn.bv"])
        q = _split_heads(q, n, s, heads, dh)
        k = _split_heads(k, n, s, heads, dh)
        v = _split_heads(v, n, s, heads, dh)
        logits = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
        att = T.softmax(T.add(logits, key_bias), temperature=1.0, axis=-1)
        att = T.dropout(att, cfg.dropout, rng, train_mode)
        ctx = T.matmul(att, v)
        ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (n, s, h))
        ctx = T.add(T.matmul(ctx, params[f"{pre}.attn.wo"]), params[f"{pre}.attn.bo"])
        ctx = T.dropout(ctx, cfg.dropout, rng, train_mode)
        x = T.add(x, ctx)

        xn = T.layer_norm(x, params[f"{pre}.ln2.gain"], params[f"{pre}.ln2.bias"])
        inner = T.relu(T.add(T.matmul(xn, params[f"{pre}.ffn.w1"]),
                             params[f"{pre}.ffn.b1"]))
        ffn = T.add(T.matmul(inner, params[f"{pre}.ffn.w2"]), params[f"{pre}.ffn.b2"])
        ffn = T.dropout(ffn, cfg.dropout, rng, train_mode)
        x = T.add(x, ffn)

    read = T.take(x, s - 1, axis=1)
    return T.layer_norm(read, params["final_ln.gain"], params["final_ln.bias"])


def score_entities(denoised, entity_table, temperature):
    """Row-stochastic scores over all entities: softmax of dot products / tau."""
    if temperature <= 0.0:
        raise ConfigurationError(f"temperature must be positive, got {temperature}")
    logits = T.matmul(denoised, T.transpose(entity_table, (1, 0)))
    return T.softmax(logits, temperature=temperature, axis=-1)
