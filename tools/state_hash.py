"""Hash the trained state and the eval ranks of perfbench's workloads.

    python3 tools/state_hash.py [WORKLOAD ...]

Run from the repository root; the package is imported from ``src/`` and the
workloads and set-up from ``perfbench/``. For each workload (default: all),
from the seed-3 stream:

  1. ``harness.set_up(w, split_chronological(w.quadruples(3)), 3)``
  2. ``train_step`` on batch 0, then on ``spread_order`` batches 0-12
  3. state: sha256 over every parameter's, then every
     ``optimizer.state_arrays()`` entry's, name and bytes
  4. ranks: sha256 of the int64 ranks ``evaluate`` gives (tau 0.5, seed 3)
     on ``harness.pick(per_split["test"], w.eval_queries, default_rng([3, 1]))``

It prints one line per workload: name, the first 16 hex digits of both
hashes, and the BLAS thread count. A change that claims to keep every
result bitwise must keep both hashes. They hold at one thread count only,
since BLAS splits its sums by thread, so compare hashes taken at the same
count.
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import run  # noqa: E402  (perfbench's entry; it imports no numpy)

run.cap_blas_threads()

import numpy as np  # noqa: E402

import harness  # noqa: E402
import provenance  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from nadex import diffusion, evaluation, objectives, synthetic  # noqa: E402

SEED = 3
STEPS = 13  # after the batch-0 step


def digest(chunks):
    """The first 16 hex digits of the sha256 over ``chunks`` (bytes)."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def hashes(workload):
    """(state hash, ranks hash) of ``workload`` after the recipe's steps."""
    ready = harness.set_up(workload,
                           synthetic.split_chronological(workload.quadruples(SEED)),
                           SEED)
    params, optimizer = ready.params, ready.optimizer
    schedule = diffusion.build_schedule(workload.model["m_steps"])
    loss_cfg = objectives.LossConfig(lam=workload.lam)
    order = harness.spread_order(len(ready.batches))
    for b in [0] + [order(i) for i in range(STEPS)]:
        objectives.train_step(ready.batches[b], params, schedule, optimizer,
                              loss_cfg, ready.rng)
    named = [(name, t.data) for name, t in params.tensors.items()]
    named += optimizer.state_arrays().items()
    state = digest(b for name, a in named for b in (name.encode(), a.tobytes()))
    queries = harness.pick(ready.per_split["test"], workload.eval_queries,
                           np.random.default_rng([SEED, 1]))
    report = evaluation.evaluate(queries, params, schedule, ready.filter_index,
                                 tau=0.5, seed=SEED)
    return state, digest([np.asarray(report.ranks, dtype=np.int64).tobytes()])


def main(argv):
    names = argv or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    threads = provenance.collect(ROOT)["blas_threads"]
    print("# workload\tstate\tranks\tblas_threads")
    for name in names:
        state, ranks = hashes(WORKLOADS[name])
        print(f"{name}\t{state}\t{ranks}\t{threads}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
