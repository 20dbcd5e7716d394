"""Ranking, filtering, and metric aggregation against exhaustive oracles."""

import numpy as np
import pytest

from nadex import data, evaluation
from nadex.errors import ValidationError
from nadex.evaluation import (MetricReport, build_filter_index,
                              evaluate, filtered_rank, training_triples)

from helpers import cyclic_splits, quick_train, tiny_model


# ---------------------------------------------------------------------------
# filtered_rank


def test_rank_counts_single_higher_score():
    assert filtered_rank(np.array([0.9, 0.1, 0.5]), 2, set()) == 2


def test_rank_after_removing_the_competitor():
    assert filtered_rank(np.array([0.9, 0.1, 0.5]), 2, {0}) == 1


def test_all_equal_scores_rank_pessimistically():
    assert filtered_rank(np.ones(5), 3, set()) == 5


def test_gold_inside_filter_set_is_exempt():
    # the gold id itself may appear in the filter set; it still competes
    assert filtered_rank(np.array([0.9, 0.1, 0.5]), 2, {0, 2}) == 1
    assert filtered_rank(np.array([0.9, 0.1, 0.5]), 2, {2}) == 2


def test_rank_gold_out_of_range():
    with pytest.raises(ValidationError):
        filtered_rank(np.ones(4), 4, set())
    with pytest.raises(ValidationError):
        filtered_rank(np.ones(4), -1, set())


def _brute_rank(scores, gold, filter_set):
    rank = 1
    for e, sc in enumerate(scores):
        if e == gold or (e in filter_set):
            continue
        if sc >= scores[gold]:
            rank += 1
    return rank


def test_rank_properties_and_oracle_equivalence():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        # quantize so exact ties actually occur
        scores = np.round(rng.normal(size=n), 1)
        gold = int(rng.integers(0, n))
        filt = set(int(x) for x in
                   rng.choice(n, size=int(rng.integers(0, n)), replace=False))
        rank = filtered_rank(scores, gold, filt)
        assert rank == _brute_rank(scores, gold, filt)
        assert rank <= filtered_rank(scores, gold, set())  # never hurts
        assert 1 <= rank <= n - len(filt - {gold})


# ---------------------------------------------------------------------------
# filter index and unseen triples


def test_filter_index_singleton_and_merge():
    q1 = data.Quadruple(1, 0, 4, 3)
    q2 = data.Quadruple(1, 0, 2, 3)
    q3 = data.Quadruple(0, 1, 2, 5)
    idx = build_filter_index([q1, q2], [q3])
    assert idx[(1, 0, 3)] == {4, 2}
    assert idx[(0, 1, 5)] == {2}
    assert len(idx) == 2


def test_filter_index_contains_every_gold():
    vocab, per_split, aug = cyclic_splits()
    idx = build_filter_index(aug["train"], aug["valid"], aug["test"])
    for split in aug.values():
        for q in split:
            assert q.o in idx[(q.s, q.r, q.t)]


def test_training_triples_membership():
    trips = training_triples([data.Quadruple(1, 0, 4, 3),
                              data.Quadruple(1, 0, 4, 9)])
    assert trips == {(1, 0, 4)}


# ---------------------------------------------------------------------------
# MetricReport


def test_mrr_hand_arithmetic():
    rep = MetricReport.from_ranks([1, 2, 4])
    assert rep.mrr == pytest.approx(7.0 / 12.0, abs=1e-9)
    assert rep.hits1 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.hits3 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rep.hits10 == 1.0
    assert rep.query_count == 3


def test_metric_ordering_property():
    rng = np.random.default_rng(9)
    for _ in range(30):
        ranks = rng.integers(1, 40, size=int(rng.integers(1, 25)))
        rep = MetricReport.from_ranks(ranks)
        assert 0.0 <= rep.hits1 <= rep.hits3 <= rep.hits10 <= 1.0
        assert 0.0 < rep.mrr <= 1.0
        assert rep.mrr == pytest.approx(np.mean(1.0 / ranks), rel=1e-12)


def test_empty_ranks_rejected():
    with pytest.raises(ValidationError):
        MetricReport.from_ranks([])


def test_tsv_roundtrip_exact():
    rep = MetricReport.from_ranks([1, 2, 4, 7, 13],
                                  unseen=MetricReport.from_ranks([2, 7]))
    # repr keeps every bit, so each value reads back as the same float
    assert rep.to_tsv() == (
        "mrr\t0.39395604395604394\t5\n"
        "hits1\t0.2\t5\n"
        "hits3\t0.4\t5\n"
        "hits10\t0.8\t5\n"
        "unseen_mrr\t0.3214285714285714\t2\n"
        "unseen_hits1\t0.0\t2\n"
        "unseen_hits3\t0.5\t2\n"
        "unseen_hits10\t1.0\t2\n"
    )
    assert rep.mrr == 0.39395604395604394
    assert rep.unseen.mrr == 0.3214285714285714


def test_format_table_mentions_query_count():
    rep = MetricReport.from_ranks([1, 2])
    table = rep.format_table()
    assert "queries=2" in table
    assert "mrr" in table and "hits10" in table


# ---------------------------------------------------------------------------
# end-to-end evaluate


@pytest.fixture(scope="module")
def trained_setup():
    cfg, _, params, sched = tiny_model(hidden=32, window=4, dt_max=16,
                                       m_steps=4, num_entities=5,
                                       num_relations_base=2, seed=0)
    vocab, per_split, aug = cyclic_splits(window=4, dt_max=16)
    batches = data.batch_by_timestamp(per_split["train"], b_max=64)
    quick_train(params, sched, batches, lr=5e-3, epochs=2)
    idx = build_filter_index(aug["train"], aug["valid"], aug["test"])
    return params, sched, per_split, aug, idx


def test_evaluate_small_entity_count_hits10_is_one(trained_setup):
    params, sched, per_split, aug, idx = trained_setup
    rep = evaluate(per_split["valid"], params, sched, idx, tau=0.5, seed=3)
    assert rep.hits10 == 1.0  # only 5 candidate entities exist
    assert rep.query_count == len(per_split["valid"])
    assert np.all(rep.ranks >= 1) and np.all(rep.ranks <= 5)


def test_evaluate_seeded_determinism(trained_setup):
    params, sched, per_split, aug, idx = trained_setup
    a = evaluate(per_split["valid"], params, sched, idx, tau=0.5, seed=11,
                 k_repeats=3)
    b = evaluate(per_split["valid"], params, sched, idx, tau=0.5, seed=11,
                 k_repeats=3)
    assert a.mrr == b.mrr
    assert np.array_equal(a.ranks, b.ranks)
    c = evaluate(per_split["valid"], params, sched, idx, tau=0.5, seed=12,
                 k_repeats=3)
    assert not np.array_equal(a.ranks, c.ranks)


def test_evaluate_worker_count_does_not_change_ranks(trained_setup):
    params, sched, per_split, aug, idx = trained_setup
    kw = dict(tau=0.5, seed=5, k_repeats=2, chunk_size=16)
    serial = evaluate(per_split["test"], params, sched, idx, **kw)
    pooled = evaluate(per_split["test"], params, sched, idx, workers=3, **kw)
    assert np.array_equal(serial.ranks, pooled.ranks)
    assert serial.mrr == pooled.mrr


def test_evaluate_unseen_subset(trained_setup):
    params, sched, per_split, aug, idx = trained_setup
    # on the cyclic stream every test triple also occurs in training
    rep = evaluate(per_split["test"], params, sched, idx, tau=0.5, seed=0,
                   train_triples=training_triples(aug["train"]))
    assert rep.unseen is None
    # without the odd subjects' training facts, some test queries are unseen
    trips = training_triples([q for q in aug["train"] if q.s % 2 == 0])
    rep = evaluate(per_split["test"], params, sched, idx, tau=0.5, seed=0,
                   train_triples=trips)
    flags = np.array([(s.s, s.r, s.o) not in trips for s in per_split["test"]])
    assert 0 < flags.sum() < flags.size
    assert rep.unseen.query_count == flags.sum()
    assert np.array_equal(rep.unseen.ranks, rep.ranks[flags])
    assert rep.unseen.mrr == pytest.approx(np.mean(1.0 / rep.ranks[flags]),
                                           rel=1e-12)


def test_evaluate_argument_validation(trained_setup):
    params, sched, per_split, aug, idx = trained_setup
    with pytest.raises(ValidationError):
        evaluate([], params, sched, idx, tau=0.5, seed=0)
    with pytest.raises(ValidationError):
        evaluate(per_split["valid"], params, sched, idx, tau=0.5, seed=0,
                 k_repeats=0)
    with pytest.raises(ValidationError):
        evaluate(per_split["valid"], params, sched, idx, tau=0.0, seed=0)
    with pytest.raises(ValidationError):
        evaluate(per_split["valid"], params, sched, idx, tau=0.5, seed=0,
                 chunk_size=0)


def test_filtering_never_hurts_end_to_end(trained_setup):
    params, sched, per_split, aug, idx = trained_setup
    filtered = evaluate(per_split["valid"], params, sched, idx,
                        tau=0.5, seed=2)
    raw = evaluate(per_split["valid"], params, sched, {}, tau=0.5, seed=2)
    assert np.all(filtered.ranks <= raw.ranks)
    assert filtered.mrr >= raw.mrr
