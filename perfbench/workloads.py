"""Workload definitions.

Each workload fixes the input stream and the model and loss configuration.
Every workload runs every operation (training steps, checkpoint saves,
evaluation calls and single-query predictions) with the same shares of the
measured seconds, so every end-to-end metric is measured everywhere.
"""

from dataclasses import dataclass, replace

import numpy as np

from nadex import synthetic


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shift_args: tuple  # (entities, relations, timestamps) for shift_tkg
    model: dict  # DenoiserConfig fields
    lam: float
    b_max: int
    eval_queries: int = 1024

    def quadruples(self, seed):
        """shift_tkg is a pure function of its sizes; the seed permutes the
        facts inside each timestamp, which changes batch contents and the
        sampled eval/predict queries but no extent."""
        quads = synthetic.shift_tkg(*self.shift_args)
        rng = np.random.default_rng(seed)
        order = np.lexsort((rng.random(len(quads)), [q.t for q in quads]))
        return [quads[i] for i in order]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train_paper",
            why="reference config at paper width: the step is bound by "
                "batched small GEMMs in matmul forward and backward, with "
                "both loss branches live",
            shift_args=(2000, 4, 6),
            model=dict(hidden=200, layers=2, heads=4, window=8, dt_max=64,
                       m_steps=50, dropout=0.2),
            lam=0.5, b_max=256,
            eval_queries=512,
        ),
        Workload(
            name="train_narrow",
            why="tiny GEMMs with lambda 1: the step is bound by per-op "
                "Python and tape overhead plus Adam's per-tensor loop, and "
                "the negative branch never runs",
            shift_args=(200, 2, 40),
            model=dict(hidden=32, layers=2, heads=2, window=4, dt_max=64,
                       m_steps=10, dropout=0.0),
            lam=1.0, b_max=32,
        ),
    )
}


def tiny(workload):
    """The same workload at a size that runs in about a second (for tests)."""
    model = dict(workload.model, hidden=16, heads=2, window=4, m_steps=5)
    return replace(workload, shift_args=(30, 2, 8), model=model, b_max=16,
                   eval_queries=64)
