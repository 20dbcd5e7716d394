"""Rank every entity for each query under time-aware filtering.

Scores come from a single-shot denoise of a pure-noise target slot: the
estimate's dot products against the entity table order the candidates.
Filtering removes, per query (s, r, t), every other entity known to answer
that same key in any split, and ties count against the gold entity.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import stack_samples
from .denoiser import denoise, embed_batch
from .diffusion import make_inference_input
from .errors import ValidationError
from .kernel import tensor as T


def build_filter_index(*augmented_splits):
    """Exhaustive (s, r, t) -> set of gold objects over the given splits."""
    index = {}
    for split in augmented_splits:
        for q in split:
            index.setdefault((q.s, q.r, q.t), set()).add(q.o)
    return index


def training_triples(augmented_train):
    """The (s, r, o) combinations seen in training; queries outside this
    set form the unseen subset."""
    return {(q.s, q.r, q.o) for q in augmented_train}


def filtered_rank(scores, gold, filter_set):
    """1-based rank of the gold entity, pessimistic on ties, with every
    other known-true answer removed from the competition."""
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    num_entities = scores.shape[0]
    if not 0 <= gold < num_entities:
        raise ValidationError(f"gold id {gold} outside entity range {num_entities}")
    live = np.ones(num_entities, dtype=bool)
    for e in filter_set:
        live[e] = False
    live[gold] = False
    return 1 + int(np.count_nonzero(live & (scores >= scores[gold])))


@dataclass(frozen=True)
class MetricReport:
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    query_count: int
    ranks: np.ndarray
    unseen: Optional["MetricReport"] = None

    @staticmethod
    def from_ranks(ranks, unseen=None):
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size == 0:
            raise ValidationError("cannot build a report from zero queries")
        inv = 1.0 / ranks
        return MetricReport(
            mrr=float(inv.mean()),
            hits1=float((ranks <= 1).mean()),
            hits3=float((ranks <= 3).mean()),
            hits10=float((ranks <= 10).mean()),
            query_count=int(ranks.size),
            ranks=ranks,
            unseen=unseen,
        )

    def rows(self):
        """``(name, value, query count)`` per metric, the unseen subset's
        rows after the full set's."""
        n = self.query_count
        yield from (("mrr", self.mrr, n), ("hits1", self.hits1, n),
                    ("hits3", self.hits3, n), ("hits10", self.hits10, n))
        if self.unseen is not None:
            for name, value, count in self.unseen.rows():
                yield f"unseen_{name}", value, count

    def to_tsv(self):
        return "".join(f"{name}\t{value!r}\t{count}\n"
                       for name, value, count in self.rows())

    def format_table(self):
        lines = [f"{'metric':<14}{'value':>10}  queries={self.query_count}"]
        for name, value, _ in self.rows():
            lines.append(f"{name:<14}{value:>10.4f}")
        return "\n".join(lines)


def _score_chunk(params, schedule, chunk, noise_draws):
    """Average raw entity scores over the supplied noise draws."""
    with T.no_grad():
        hist, rel, dt, mask, _ = embed_batch(params, chunk)
        table = params.scoring_table().data
        acc = None
        for eps in noise_draws:
            seq = make_inference_input(hist, eps, rel, dt)
            est = denoise(params, seq, schedule.m_steps, mask, train_mode=False)
            scores = est.data @ table.T
            acc = scores if acc is None else acc + scores
        return acc / len(noise_draws)


def evaluate(samples, params, schedule, filter_index, tau, seed, k_repeats=1,
             train_triples=None, chunk_size=256, workers=0):
    """Filtered MRR and Hits@{1,3,10} over a query list.

    Deterministic for a fixed seed: target-slot noise is drawn up front in
    chunk order, so the worker count cannot change any score. ``tau`` does
    not reorder candidates (softmax is monotone in the dot products), so
    ranks are computed on the raw scores. With k_repeats > 1, scores are
    averaged over that many independent draws before ranking. When
    ``train_triples`` is given, queries whose (s, r, o) never occurs there
    are additionally reported as the unseen subset.
    """
    if not samples:
        raise ValidationError("no evaluation queries supplied")
    if k_repeats < 1:
        raise ValidationError(f"k_repeats must be >= 1, got {k_repeats}")
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    if tau <= 0.0:
        raise ValidationError(f"tau must be positive, got {tau}")
    rng = np.random.default_rng(seed)
    h = params.config.hidden
    chunks = []
    for start in range(0, len(samples), chunk_size):
        part = samples[start : start + chunk_size]
        draws = [rng.standard_normal((len(part), h)) for _ in range(k_repeats)]
        chunks.append((stack_samples(part), draws))

    def run(entry):
        chunk, draws = entry
        return _score_chunk(params, schedule, chunk, draws)

    if workers > 0:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            scored = list(pool.map(run, chunks))
    else:
        scored = [run(entry) for entry in chunks]

    ranks = np.empty(len(samples), dtype=np.int64)
    pos = 0
    for (chunk, _), scores in zip(chunks, scored):
        for row in range(chunk.size):
            q = samples[pos]
            filt = filter_index.get((q.s, q.r, q.t), ())
            ranks[pos] = filtered_rank(scores[row], q.o, filt)
            pos += 1

    unseen_report = None
    if train_triples is not None:
        flags = np.array(
            [(s.s, s.r, s.o) not in train_triples for s in samples], dtype=bool
        )
        if flags.any():
            unseen_report = MetricReport.from_ranks(ranks[flags])
    return MetricReport.from_ranks(ranks, unseen=unseen_report)
