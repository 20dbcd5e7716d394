"""Quadruple parsing, inverse augmentation, history windows, batching."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nadex import data
from nadex.errors import ConfigurationError, ParseError, ValidationError


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


# ---------------------------------------------------------------------------
# parse_quadruples


def test_parse_divides_by_granularity(tmp_path):
    p = write_lines(tmp_path / "train.txt", ["5\t3\t10\t24"])
    quads = data.parse_quadruples(p, time_granularity=24)
    assert quads == [data.Quadruple(5, 3, 10, 1)]


def test_parse_ignores_trailing_columns_and_blank_lines(tmp_path):
    p = write_lines(tmp_path / "train.txt",
                    ["1\t0\t2\t48\textra\tmore", "", "3\t1\t4\t72"])
    quads = data.parse_quadruples(p, time_granularity=24)
    assert quads == [data.Quadruple(1, 0, 2, 2), data.Quadruple(3, 1, 4, 3)]


def test_parse_empty_file_gives_empty_list(tmp_path):
    p = write_lines(tmp_path / "train.txt", [])
    assert data.parse_quadruples(p, time_granularity=24) == []


def test_parse_malformed_line_reports_line_number(tmp_path):
    p = write_lines(tmp_path / "train.txt", ["1\t0\t2\t0", "7\tbroken\t1\t0"])
    with pytest.raises(ParseError) as exc:
        data.parse_quadruples(p, time_granularity=1)
    assert "line 2" in str(exc.value)


def test_parse_too_few_fields_reports_line_number(tmp_path):
    p = write_lines(tmp_path / "train.txt", ["1\t0\t2"])
    with pytest.raises(ParseError) as exc:
        data.parse_quadruples(p, time_granularity=1)
    assert "line 1" in str(exc.value)


def test_parse_negative_id_is_validation_error(tmp_path):
    p = write_lines(tmp_path / "train.txt", ["-1\t0\t2\t0"])
    with pytest.raises(ValidationError):
        data.parse_quadruples(p, time_granularity=1)


@pytest.mark.parametrize("line", [
    f"{2**63}\t0\t2\t0", f"1\t{2**63}\t2\t0", f"1\t0\t{2**63}\t0",
    f"1\t0\t2\t{2**63}",
], ids=["s", "r", "o", "t"])
def test_parse_past_int64_is_validation_error_naming_the_line(tmp_path, line):
    p = write_lines(tmp_path / "train.txt", ["1\t0\t2\t0", line])
    with pytest.raises(ValidationError) as exc:
        data.parse_quadruples(p, time_granularity=1)
    assert "train.txt line 2" in str(exc.value)


def test_parse_bounds_the_ordinal_not_the_raw_timestamp(tmp_path):
    p = write_lines(tmp_path / "train.txt", [f"{2**63 - 1}\t0\t2\t{2**63}"])
    assert data.parse_quadruples(p, time_granularity=2) == [
        data.Quadruple(2**63 - 1, 0, 2, 2**62)]


def test_parse_rejects_nonpositive_granularity(tmp_path):
    p = write_lines(tmp_path / "train.txt", ["1\t0\t2\t0"])
    with pytest.raises(ConfigurationError):
        data.parse_quadruples(p, time_granularity=0)


def test_roundtrip_write_then_parse_identical(tmp_path):
    rng = np.random.default_rng(0)
    quads = [data.Quadruple(int(rng.integers(0, 50)), int(rng.integers(0, 10)),
                            int(rng.integers(0, 50)), int(t))
             for t in sorted(rng.integers(0, 30, size=40))]
    p = str(tmp_path / "out.txt")
    data.write_quadruples(p, quads, time_granularity=24)
    back = data.parse_quadruples(p, time_granularity=24)
    assert back == quads


# ---------------------------------------------------------------------------
# vocabulary + augmentation


def test_vocabulary_from_union_of_splits():
    a = [data.Quadruple(0, 0, 1, 0)]
    b = [data.Quadruple(5, 2, 3, 4)]
    vocab = data.build_vocabulary(a, b)
    assert vocab.num_entities == 6
    assert vocab.num_relations_base == 3
    assert vocab.num_relations == 6


def test_vocabulary_requires_some_facts():
    with pytest.raises(ValidationError):
        data.build_vocabulary([], [])


def test_augment_adds_inverse_with_offset_230():
    vocab = data.Vocabulary(num_entities=11, num_relations_base=230)
    out = data.augment_inverse([data.Quadruple(5, 3, 10, 1)], vocab)
    assert out == [data.Quadruple(5, 3, 10, 1), data.Quadruple(10, 233, 5, 1)]


def test_augment_empty_is_empty():
    vocab = data.Vocabulary(num_entities=2, num_relations_base=1)
    assert data.augment_inverse([], vocab) == []


def test_augment_twice_rejected():
    vocab = data.Vocabulary(num_entities=11, num_relations_base=4)
    once = data.augment_inverse([data.Quadruple(5, 3, 10, 1)], vocab)
    with pytest.raises(ValidationError):
        data.augment_inverse(once, vocab)


def test_inverse_symmetry_property():
    rng = np.random.default_rng(6)
    quads = [data.Quadruple(int(rng.integers(0, 20)), int(rng.integers(0, 5)),
                            int(rng.integers(0, 20)), int(rng.integers(0, 9)))
             for _ in range(60)]
    vocab = data.build_vocabulary(quads)
    base = vocab.num_relations_base
    out = data.augment_inverse(quads, vocab)
    originals, inverses = out[:len(quads)], out[len(quads):]
    assert originals == quads
    for q, inv in zip(quads, inverses):
        assert (inv.o, inv.r - base, inv.s, inv.t) == (q.s, q.r, q.o, q.t)


# ---------------------------------------------------------------------------
# build_histories


def test_histories_hand_enumerated_toy_stream():
    # subject 2's fourth fact sees its three earlier facts, most recent last
    quads = [
        data.Quadruple(2, 0, 4, 0),
        data.Quadruple(2, 1, 3, 2),
        data.Quadruple(2, 0, 1, 5),
        data.Quadruple(2, 1, 0, 9),
    ]
    samples = data.build_histories(quads, window=8, dt_max=512)
    last = samples[-1]
    assert (last.s, last.r, last.o, last.t) == (2, 1, 0, 9)
    assert int(last.mask.sum()) == 3
    assert list(last.mask) == [False] * 5 + [True] * 3
    assert list(last.hist_objects[5:]) == [4, 3, 1]
    assert list(last.hist_relations[5:]) == [0, 1, 0]
    assert list(last.hist_dt[5:]) == [9, 7, 4]


def test_history_first_fact_fully_padded():
    samples = data.build_histories([data.Quadruple(0, 0, 1, 3)],
                                   window=4, dt_max=16)
    assert len(samples) == 1
    assert int(samples[0].mask.sum()) == 0
    assert not samples[0].mask.any()


def test_history_window_keeps_most_recent():
    quads = [data.Quadruple(1, 0, k % 3, k) for k in range(100)]
    quads.append(data.Quadruple(1, 0, 0, 100))
    samples = data.build_histories(quads, window=32, dt_max=512)
    last = samples[-1]
    assert int(last.mask.sum()) == 32
    assert list(last.hist_objects) == [k % 3 for k in range(68, 100)]
    assert list(last.hist_dt) == [100 - k for k in range(68, 100)]


def test_history_dt_clamped_to_dt_max():
    quads = [data.Quadruple(0, 0, 1, 0), data.Quadruple(0, 0, 2, 40)]
    samples = data.build_histories(quads, window=2, dt_max=8)
    assert samples[1].hist_dt[-1] == 8


def test_histories_same_timestamp_facts_do_not_leak():
    quads = [
        data.Quadruple(0, 0, 1, 5),
        data.Quadruple(0, 1, 2, 5),
        data.Quadruple(0, 0, 3, 6),
    ]
    samples = data.build_histories(quads, window=4, dt_max=16)
    assert int(samples[0].mask.sum()) == 0
    assert int(samples[1].mask.sum()) == 0
    assert int(samples[2].mask.sum()) == 2


def test_histories_require_sorted_input():
    quads = [data.Quadruple(0, 0, 1, 5), data.Quadruple(0, 0, 1, 4)]
    with pytest.raises(ValidationError):
        data.build_histories(quads, window=4, dt_max=16)


def test_histories_reject_bad_window_or_dt_max():
    quads = [data.Quadruple(0, 0, 1, 0)]
    with pytest.raises(ConfigurationError):
        data.build_histories(quads, window=0, dt_max=16)
    with pytest.raises(ConfigurationError):
        data.build_histories(quads, window=4, dt_max=0)


def brute_force_history(quads, idx, window, dt_max):
    """O(N^2) rescan: all strictly earlier same-subject facts, last `window`."""
    q = quads[idx]
    prior = [p for p in quads[:_first_at_time(quads, q.t)] if p.s == q.s]
    prior = prior[-window:]
    return ([p.o for p in prior], [p.r for p in prior],
            [min(q.t - p.t, dt_max) for p in prior])


def _first_at_time(quads, t):
    for i, p in enumerate(quads):
        if p.t >= t:
            return i
    return len(quads)


def test_histories_match_quadratic_rescan_oracle():
    rng = np.random.default_rng(8)
    for trial in range(30):
        n = int(rng.integers(1, 51))
        ts = np.sort(rng.integers(0, 12, size=n))
        quads = [data.Quadruple(int(rng.integers(0, 4)),
                                int(rng.integers(0, 3)),
                                int(rng.integers(0, 4)), int(t))
                 for t in ts]
        window = int(rng.integers(1, 7))
        dt_max = int(rng.integers(1, 15))
        samples = data.build_histories(quads, window=window, dt_max=dt_max)
        assert len(samples) == n
        for i, smp in enumerate(samples):
            o_ref, r_ref, dt_ref = brute_force_history(quads, i, window,
                                                       dt_max)
            k = int(smp.mask.sum())
            assert k == len(o_ref), f"trial {trial} sample {i}"
            assert list(smp.hist_objects[window - k:]) == o_ref
            assert list(smp.hist_relations[window - k:]) == r_ref
            assert list(smp.hist_dt[window - k:]) == dt_ref
            assert not smp.mask[:window - k].any()
            assert smp.mask[window - k:].all()


@st.composite
def sorted_streams(draw):
    """Time-sorted streams over up to 30 subjects and a few timestamps, so
    same-(s, t) runs are common."""
    num_subjects = draw(st.integers(1, 30))
    num_times = draw(st.integers(1, 6))
    facts = draw(st.lists(st.tuples(
        st.integers(0, num_subjects - 1), st.integers(0, 3),
        st.integers(0, 29), st.integers(0, num_times - 1)), max_size=80))
    return [data.Quadruple(*f) for f in sorted(facts, key=lambda f: f[3])]


def _q(rows):
    return [data.Quadruple(*row) for row in rows]


@settings(max_examples=150, deadline=None, database=None)
@given(quads=sorted_streams(), window=st.integers(1, 6),
       dt_max=st.integers(1, 10))
@example(quads=[], window=3, dt_max=4)
@example(quads=_q([(i % 3, i % 2, i, 5) for i in range(7)]), window=2,
         dt_max=4)  # a single timestamp
@example(quads=_q([(i % 4, 0, i, i // 3) for i in range(20)]), window=1,
         dt_max=3)
@example(quads=_q([(0, i % 2, i, 1 + i // 5) for i in range(11)]),
         window=2, dt_max=9)  # same-(s, t) runs of 5 under a window of 2
@example(quads=_q([(i % 24, i % 3, i % 7, i // 24) for i in range(96)]),
         window=3, dt_max=2)  # 24 subjects
def test_histories_match_oracle_on_generated_streams(quads, window, dt_max):
    samples = data.build_histories(quads, window=window, dt_max=dt_max)
    assert len(samples) == len(quads)
    for i, (q, smp) in enumerate(zip(quads, samples)):
        fields = (smp.s, smp.r, smp.o, smp.t)
        assert fields == tuple(q)
        assert all(type(v) is int for v in fields)
        for arr in (smp.hist_objects, smp.hist_relations, smp.hist_dt):
            assert arr.dtype == np.int64 and arr.shape == (window,)
        assert smp.mask.dtype == np.bool_ and smp.mask.shape == (window,)
        o_ref, r_ref, dt_ref = brute_force_history(quads, i, window, dt_max)
        pad = window - len(o_ref)
        assert smp.hist_objects.tolist() == [0] * pad + o_ref
        assert smp.hist_relations.tolist() == [0] * pad + r_ref
        assert smp.hist_dt.tolist() == [0] * pad + dt_ref
        assert smp.mask.tolist() == [False] * pad + [True] * len(o_ref)


@settings(max_examples=100, deadline=None, database=None)
@given(splits=st.lists(sorted_streams(), max_size=3))
@example(splits=[_q([(2**40, 3, 7, 2**33)]), _q([(1, 2**35, 2**41, 0)])])
def test_vocabulary_matches_loop_reference(splits):
    facts = [q for split in splits for q in split]
    if not facts:
        with pytest.raises(ValidationError):
            data.build_vocabulary(*splits)
        return
    vocab = data.build_vocabulary(*splits)
    assert vocab.num_entities == max(max(q.s, q.o) for q in facts) + 1
    assert vocab.num_relations_base == max(q.r for q in facts) + 1
    assert all(type(v) is int for v in (vocab.num_entities,
                                        vocab.num_relations_base))


def test_no_leakage_property():
    rng = np.random.default_rng(10)
    ts = np.sort(rng.integers(0, 20, size=200))
    quads = [data.Quadruple(int(rng.integers(0, 6)), int(rng.integers(0, 4)),
                            int(rng.integers(0, 6)), int(t)) for t in ts]
    samples = data.build_histories(quads, window=5, dt_max=32)
    for smp in samples:
        gaps = smp.hist_dt[smp.mask]
        assert np.all(gaps >= 1), "history fact at or after its query time"


# ---------------------------------------------------------------------------
# batching


def _dummy_samples(counts_by_t):
    out = []
    for t, n in counts_by_t.items():
        for _ in range(n):
            out.append(data.build_histories(
                [data.Quadruple(0, 0, 1, t)], window=2, dt_max=4)[0])
    return out


def test_batch_single_group_of_five():
    batches = data.batch_by_timestamp(_dummy_samples({7: 5}), b_max=512)
    assert len(batches) == 1
    assert batches[0].t == 7
    assert batches[0].size == 5


def test_batch_thousand_splits_512_488():
    batches = data.batch_by_timestamp(_dummy_samples({3: 1000}), b_max=512)
    assert [b.size for b in batches] == [512, 488]
    assert all(b.t == 3 for b in batches)


def test_batch_of_one_still_emitted():
    batches = data.batch_by_timestamp(_dummy_samples({1: 1, 2: 3}), b_max=512)
    assert [b.size for b in batches] == [1, 3]


def test_batch_rejects_small_b_max():
    with pytest.raises(ConfigurationError):
        data.batch_by_timestamp(_dummy_samples({1: 4}), b_max=1)


def test_batches_ascend_by_timestamp():
    samples = _dummy_samples({9: 2, 4: 3, 6: 1})
    batches = data.batch_by_timestamp(samples, b_max=512)
    assert [b.t for b in batches] == [4, 6, 9]


def test_batch_arrays_align_with_samples():
    quads = [data.Quadruple(i % 3, i % 2, (i + 1) % 3, i // 2)
             for i in range(12)]
    samples = data.build_histories(quads, window=3, dt_max=8)
    batches = data.batch_by_timestamp(samples, b_max=4)
    flat = [(int(b.subjects[i]), int(b.relations[i]), int(b.golds[i]), b.t)
            for b in batches for i in range(b.size)]
    assert flat == [(q.s, q.r, q.o, q.t) for q in quads]


# ---------------------------------------------------------------------------
# labels


def test_read_id_labels_takes_last_field(tmp_path):
    p = write_lines(tmp_path / "entity2id.txt",
                    ["Alpha Centauri\t0", "Beta\twith\ttabs\t1"])
    labels = data.read_id_labels(p)
    assert labels[0] == "Alpha Centauri"
    assert labels[1] == "Beta\twith\ttabs"
