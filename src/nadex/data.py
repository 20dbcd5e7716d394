"""Quadruple files, vocabularies, inverse augmentation, histories, batching.

Event files are tab-separated integer lines: subject, relation, object, raw
timestamp (extra trailing columns ignored). Raw timestamps are divided by a
dataset granularity (ICEWS: 24, GDELT: 15) to get consecutive ordinals.
Object queries are folded into subject queries by inverse augmentation, so
every downstream component only ever predicts the object slot.
"""

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    ParseError,
    ValidationError,
)


class Quadruple(NamedTuple):
    s: int
    r: int
    o: int
    t: int


@dataclass(frozen=True)
class Vocabulary:
    num_entities: int
    num_relations_base: int
    max_time: int

    @property
    def num_relations(self):
        """Relation count after inverse augmentation."""
        return 2 * self.num_relations_base


@dataclass(frozen=True)
class HistorySample:
    s: int
    r: int
    o: int
    t: int
    hist_objects: np.ndarray  # [L] int64, left-padded with 0
    hist_relations: np.ndarray  # [L] int64
    hist_dt: np.ndarray  # [L] int64, min(t - t_i, dt_max); pad slots 0
    mask: np.ndarray  # [L] bool, True at real history positions

    @property
    def history_length(self):
        return int(self.mask.sum())


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


def parse_quadruples(path, time_granularity):
    """Read one split file into a list of Quadruples.

    Timestamps become raw_t // granularity. Blank lines are skipped;
    anything else malformed raises with its 1-based line number.
    """
    if time_granularity < 1:
        raise ConfigurationError(
            f"time granularity must be a positive integer, got {time_granularity}"
        )
    quads = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            fields = stripped.split("\t")
            if len(fields) < 4:
                raise ParseError(
                    f"{os.path.basename(path)} line {lineno}: expected >= 4 "
                    f"tab-separated fields, got {len(fields)}"
                )
            try:
                s, r, o, raw_t = (int(fields[i]) for i in range(4))
            except ValueError:
                raise ParseError(
                    f"{os.path.basename(path)} line {lineno}: non-integer field "
                    f"in {stripped!r}"
                ) from None
            if s < 0 or r < 0 or o < 0 or raw_t < 0:
                raise ValidationError(
                    f"{os.path.basename(path)} line {lineno}: negative id or "
                    f"timestamp in {stripped!r}"
                )
            quads.append(Quadruple(s, r, o, raw_t // time_granularity))
    return quads


def write_quadruples(path, quads, time_granularity):
    """Inverse of parse_quadruples (timestamps re-expanded by granularity)."""
    with open(path, "w", encoding="utf-8") as fh:
        for q in quads:
            fh.write(f"{q.s}\t{q.r}\t{q.o}\t{q.t * time_granularity}\n")


def build_vocabulary(*splits):
    """Size entity/relation spaces from the union of all supplied splits.

    Counts are max id + 1, so ids are assumed dense from 0. Call on
    UN-augmented quadruples.
    """
    max_e = -1
    max_r = -1
    max_t = 0
    total = 0
    for split in splits:
        for q in split:
            if q.s > max_e:
                max_e = q.s
            if q.o > max_e:
                max_e = q.o
            if q.r > max_r:
                max_r = q.r
            if q.t > max_t:
                max_t = q.t
            total += 1
    if total == 0:
        raise ValidationError("cannot build a vocabulary from empty splits")
    return Vocabulary(
        num_entities=max_e + 1,
        num_relations_base=max_r + 1,
        max_time=max_t,
    )


def read_id_labels(path):
    """Load optional "name\\tid" label files into an id -> name dict."""
    labels = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.rstrip("\n")
            if not stripped.strip():
                continue
            parts = stripped.split("\t")
            if len(parts) < 2:
                raise ParseError(
                    f"{os.path.basename(path)} line {lineno}: expected "
                    f"'name\\tid', got {stripped!r}"
                )
            try:
                labels[int(parts[-1])] = "\t".join(parts[:-1])
            except ValueError:
                raise ParseError(
                    f"{os.path.basename(path)} line {lineno}: id field is not "
                    f"an integer in {stripped!r}"
                ) from None
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
    """
    if window <= 0:
        raise ConfigurationError(f"history window must be positive, got {window}")
    if dt_max <= 0:
        raise ConfigurationError(f"dt_max must be positive, got {dt_max}")
    for a, b in zip(quads, quads[1:]):
        if b.t < a.t:
            raise ValidationError("quadruples must be sorted by timestamp")

    streams = {}  # subject -> list of (o, r, t), time-ascending
    samples = []
    i = 0
    n = len(quads)
    while i < n:
        j = i
        t = quads[i].t
        while j < n and quads[j].t == t:
            j += 1
        for q in quads[i:j]:
            past = streams.get(q.s, ())
            recent = past[-window:] if len(past) > window else past
            k = len(recent)
            ho = np.zeros(window, dtype=np.int64)
            hr = np.zeros(window, dtype=np.int64)
            hd = np.zeros(window, dtype=np.int64)
            mask = np.zeros(window, dtype=bool)
            for pos, (po, pr, pt) in enumerate(recent):
                slot = window - k + pos
                ho[slot] = po
                hr[slot] = pr
                hd[slot] = min(t - pt, dt_max)
                mask[slot] = True
            samples.append(
                HistorySample(
                    s=q.s, r=q.r, o=q.o, t=q.t,
                    hist_objects=ho, hist_relations=hr, hist_dt=hd, mask=mask,
                )
            )
        for q in quads[i:j]:
            streams.setdefault(q.s, []).append((q.o, q.r, q.t))
        i = j
    return samples


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
    return TimestampBatch(
        t=sample.t,
        subjects=np.array([sample.s], dtype=np.int64),
        relations=np.array([sample.r], dtype=np.int64),
        golds=np.array([sample.o], dtype=np.int64),
        hist_objects=sample.hist_objects[None, :],
        hist_relations=sample.hist_relations[None, :],
        hist_dt=sample.hist_dt[None, :],
        mask=sample.mask[None, :],
    )
