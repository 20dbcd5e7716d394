"""Quadruple files, vocabularies, inverse augmentation, histories, batching.

Event files are tab-separated integer lines: subject, relation, object, raw
timestamp (extra trailing columns ignored). Raw timestamps are divided by a
dataset granularity (ICEWS: 24, GDELT: 15) to get consecutive ordinals.
Object queries are folded into subject queries by inverse augmentation, so
every downstream component only ever predicts the object slot.
"""

import os
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    ParseError,
    ValidationError,
)

INT64_MAX = 2**63 - 1  # ids and ordinals are stored as int64


class Quadruple(NamedTuple):
    s: int
    r: int
    o: int
    t: int


@dataclass(frozen=True)
class Vocabulary:
    num_entities: int
    num_relations_base: int

    @property
    def num_relations(self):
        """Relation count after inverse augmentation."""
        return 2 * self.num_relations_base


class HistorySample(NamedTuple):
    """A query and its window: read-only row views of shared blocks (see
    build_histories)."""

    s: int
    r: int
    o: int
    t: int
    hist_objects: np.ndarray  # [L] int64, left-padded with 0
    hist_relations: np.ndarray  # [L] int64
    hist_dt: np.ndarray  # [L] int64, min(t - t_i, dt_max); pad slots 0
    mask: np.ndarray  # [L] bool, True at real history positions


@dataclass(frozen=True)
class TimestampBatch:
    """All samples querying one timestamp (or a contiguous chunk of them)."""

    t: int
    subjects: np.ndarray  # [N]
    relations: np.ndarray  # [N]
    golds: np.ndarray  # [N]
    hist_objects: np.ndarray  # [N, L]
    hist_relations: np.ndarray  # [N, L]
    hist_dt: np.ndarray  # [N, L]
    mask: np.ndarray  # [N, L] bool

    @property
    def size(self):
        return int(self.golds.shape[0])


def _numbered_lines(path):
    """Yield ``(lineno, line)``, 1-based, from a UTF-8 text file; bytes that
    are not UTF-8 raise ParseError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as err:
            raise ParseError(f"{os.path.basename(path)}: not UTF-8 text "
                             f"({err.reason})") from None


def parse_quadruples(path, time_granularity):
    """Read one split file into a list of Quadruples.

    Timestamps become raw_t // granularity. Blank lines are skipped; any
    other malformed or out-of-int64 line raises with its 1-based number.
    """
    if time_granularity < 1:
        raise ConfigurationError(
            f"time granularity must be a positive integer, got {time_granularity}"
        )
    name = os.path.basename(path)
    quads = []
    for lineno, line in _numbered_lines(path):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split("\t")
        if len(fields) < 4:
            raise ParseError(f"{name} line {lineno}: expected >= 4 "
                             f"tab-separated fields, got {len(fields)}")
        try:
            s, r, o, raw_t = (int(fields[i]) for i in range(4))
        except ValueError:
            raise ParseError(f"{name} line {lineno}: non-integer field "
                             f"in {stripped!r}") from None
        t = raw_t // time_granularity  # negative exactly when raw_t is
        if min(s, r, o, t) < 0 or max(s, r, o, t) > INT64_MAX:
            raise ValidationError(f"{name} line {lineno}: id or timestamp "
                                  f"outside [0, 2^63) in {stripped!r}")
        quads.append(Quadruple(s, r, o, t))
    return quads


def write_quadruples(path, quads, time_granularity):
    """Inverse of parse_quadruples (timestamps re-expanded by granularity)."""
    with open(path, "w", encoding="utf-8") as fh:
        for q in quads:
            fh.write(f"{q.s}\t{q.r}\t{q.o}\t{q.t * time_granularity}\n")


def _fact_array(*splits):
    """The splits' quadruples, in order, as ``[N, 4]`` int64 (s, r, o, t) rows."""
    count = 4 * sum(len(split) for split in splits)
    return np.fromiter(chain.from_iterable(chain.from_iterable(splits)),
                       dtype=np.int64, count=count).reshape(-1, 4)


def build_vocabulary(*splits):
    """Size entity/relation spaces from the union of all supplied splits.

    Counts are max id + 1, so ids are assumed dense from 0. Call on
    UN-augmented quadruples.
    """
    facts = _fact_array(*splits)
    if not len(facts):
        raise ValidationError("cannot build a vocabulary from empty splits")
    return Vocabulary(num_entities=int(facts[:, [0, 2]].max()) + 1,
                      num_relations_base=int(facts[:, 1].max()) + 1)


def read_id_labels(path):
    """Load optional "name\\tid" label files into an id -> name dict."""
    name = os.path.basename(path)
    labels = {}
    for lineno, line in _numbered_lines(path):
        stripped = line.rstrip("\n")
        if not stripped.strip():
            continue
        parts = stripped.split("\t")
        if len(parts) < 2:
            raise ParseError(f"{name} line {lineno}: expected "
                             f"'name\\tid', got {stripped!r}")
        try:
            labels[int(parts[-1])] = "\t".join(parts[:-1])
        except ValueError:
            raise ParseError(f"{name} line {lineno}: id field is not "
                             f"an integer in {stripped!r}") from None
    return labels


def augment_inverse(quads, vocab):
    """Append (o, r + |R_base|, s, t) for every (s, r, o, t).

    Output is originals followed by inverses in input order (2N total).
    """
    base = vocab.num_relations_base
    for q in quads:
        if q.r >= base:
            raise ValidationError(
                f"relation id {q.r} >= |R_base|={base}: input already augmented"
            )
    inverses = [Quadruple(q.o, q.r + base, q.s, q.t) for q in quads]
    return list(quads) + inverses


def build_histories(quads, window, dt_max):
    """One HistorySample per quadruple: the subject's most recent `window`
    strictly-earlier facts, left-padded.

    Facts sharing the query's own timestamp never enter its history, so
    samples leak nothing from their own snapshot. Empty histories are kept
    fully padded rather than dropped.

    The samples' arrays are row views of four shared ``[N, window]`` blocks:
    do not write to them in place, and note that a sample kept alive keeps
    its whole block alive.
    """
    if window <= 0:
        raise ConfigurationError(f"history window must be positive, got {window}")
    if dt_max <= 0:
        raise ConfigurationError(f"dt_max must be positive, got {dt_max}")
    facts = _fact_array(quads)
    if np.any(facts[1:, 3] < facts[:-1, 3]):
        raise ValidationError("quadruples must be sorted by timestamp")

    # each subject's facts in stream order; a fact's history is the `window`
    # facts before its own (s, t) run, back to its subject's first fact
    order = np.argsort(facts[:, 0], kind="stable")
    s, r, o, t = facts[order].T
    pos = np.arange(len(facts))
    new_subject = np.diff(s, prepend=s[:1]) != 0
    new_run = new_subject | (np.diff(t, prepend=t[:1]) != 0)
    subject_start = np.maximum.accumulate(np.where(new_subject, pos, 0))
    run_start = np.maximum.accumulate(np.where(new_run, pos, 0))
    idx = run_start[:, None] + np.arange(-window, 0)
    pad = idx < subject_start[:, None]
    idx[pad] = 0
    blocks = [o[idx], r[idx], np.minimum(t[:, None] - t[idx], dt_max)]
    for block in blocks:
        block[pad] = 0
    back = np.argsort(order)  # sorted rows back to stream order
    blocks = [block[back] for block in blocks + [~pad]]
    return [HistorySample(*q, *rows) for q, rows in zip(quads, zip(*blocks))]


def batch_by_timestamp(samples, b_max=512):
    """Group samples by query time (ascending), chunking groups at b_max."""
    if b_max < 2:
        raise ConfigurationError(
            f"b_max must be >= 2 so batches can carry negatives, got {b_max}"
        )
    by_time = {}
    for s in samples:
        by_time.setdefault(s.t, []).append(s)
    batches = []
    for t in sorted(by_time):
        group = by_time[t]
        for start in range(0, len(group), b_max):
            batches.append(stack_samples(group[start : start + b_max]))
    return batches


def stack_samples(samples):
    """Stack N HistorySamples into one TimestampBatch stamped with the
    first sample's time."""
    return TimestampBatch(
        t=samples[0].t,
        subjects=np.array([s.s for s in samples], dtype=np.int64),
        relations=np.array([s.r for s in samples], dtype=np.int64),
        golds=np.array([s.o for s in samples], dtype=np.int64),
        hist_objects=np.stack([s.hist_objects for s in samples]),
        hist_relations=np.stack([s.hist_relations for s in samples]),
        hist_dt=np.stack([s.hist_dt for s in samples]),
        mask=np.stack([s.mask for s in samples]),
    )


def sample_to_batch(sample):
    """Wrap one HistorySample as a size-1 TimestampBatch (prediction path)."""
    return stack_samples([sample])
