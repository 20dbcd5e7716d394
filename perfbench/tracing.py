"""Spans recorded around nadex's public functions, from outside the package.

A traced call replaces a module or class attribute with a wrapper for the
duration of a ``with tracer.installed():`` block and puts the original
back afterwards. Each wrapper appends one span (name, start, end, parent
index, work) to an in-memory list; ``work`` is a count derived from the
call's arguments (matmul FLOPs, tape length, filter-set size), never from
a timer. Self time and per-step sums are derived from the list afterwards.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from nadex import checkpoint, cli, data, evaluation, objectives
from nadex.kernel import optim
from nadex.kernel import tensor as T


def _matmul_flops(a, b, *_):
    """Forward FLOPs of ``a @ b`` from the operand shapes."""
    batch = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
    return 2 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1]


def _tape_nodes(*_):
    tape = T.active_tape()
    return len(tape) if tape is not None else 0


def _filter_size(scores, gold, filter_set):
    return len(filter_set)


# (owner, attribute, span name, work-from-arguments). The owner is the
# module the caller looks the name up in, so the wrapper is what runs.
TARGETS = (
    (objectives, "train_step", "objectives.train_step", None),
    (objectives, "embed_batch", "objectives.embed_batch", None),
    (objectives, "negative_prototypes", "objectives.negative_prototypes", None),
    (objectives, "diffuse", "objectives.diffuse", None),
    (objectives, "assemble_sequence", "objectives.assemble_sequence", None),
    (objectives, "denoise", "objectives.denoise", None),
    (objectives, "score_entities", "objectives.score_entities", None),
    (objectives, "reconstruction_loss", "objectives.reconstruction_loss", None),
    (objectives, "negative_cosine_loss", "objectives.negative_cosine_loss", None),
    (objectives, "combined_loss", "objectives.combined_loss", None),
    (T, "backward", "kernel.tensor.backward", _tape_nodes),
    (T, "matmul", "kernel.tensor.matmul", _matmul_flops),
    (optim.Adam, "step", "kernel.optim.Adam.step", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "embed_batch", "evaluation.embed_batch", None),
    (evaluation, "make_inference_input", "evaluation.make_inference_input", None),
    (evaluation, "denoise", "evaluation.denoise", None),
    (evaluation, "filtered_rank", "evaluation.filtered_rank", _filter_size),
    (evaluation, "build_filter_index", "evaluation.build_filter_index", None),
    (data, "build_histories", "data.build_histories", None),
    (data, "batch_by_timestamp", "data.batch_by_timestamp", None),
    (checkpoint, "save", "checkpoint.save", None),
    (checkpoint, "load", "checkpoint.load", None),
    (cli, "embed_batch", "cli.embed_batch", None),
    (cli, "make_inference_input", "cli.make_inference_input", None),
    (cli, "denoise", "cli.denoise", None),
    (cli, "score_entities", "cli.score_entities", None),
)

NAME, START, END, PARENT, WORK = range(5)


class Tracer:
    """In-memory span list plus the wrappers that fill it."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _wrap(self, name, fn, work):
        def traced(*args, **kwargs):
            with self.span(name, work(*args, **kwargs) if work else 0):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, work in TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, work))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def span(self, name, work=0):
        """Record one span around the block; the innermost open span is its
        parent."""
        span = [name, time.perf_counter(), None,
                self._open[-1] if self._open else -1, work]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            self._open.pop()
            span[END] = time.perf_counter()

    def indices(self, name):
        return [i for i, s in enumerate(self.spans) if s[NAME] == name]

    def durations(self, name):
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def subtree(self, root):
        """Spans under ``root``: recorded after it, started before it ended
        (one thread, so spans nest)."""
        end = self.spans[root][END]
        out = []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][START] >= end:
                break
            out.append(self.spans[i])
        return out

    def breakdown(self, root):
        """For one span: per-name total seconds, call counts and work over
        its subtree, plus its self time (duration minus the time its direct
        children cover)."""
        total, calls, work = {}, {}, {}
        children = 0.0
        for s in self.subtree(root):
            d = s[END] - s[START]
            total[s[NAME]] = total.get(s[NAME], 0.0) + d
            calls[s[NAME]] = calls.get(s[NAME], 0) + 1
            work[s[NAME]] = work.get(s[NAME], 0) + s[WORK]
            if s[PARENT] == root:
                children += d
        r = self.spans[root]
        return {"total": total, "calls": calls, "work": work,
                "self": r[END] - r[START] - children,
                "duration": r[END] - r[START]}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"],
                       "spans": self.spans}, fh)
