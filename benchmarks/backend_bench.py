"""Time the numba and numpy variants of each hot kernel, plus a train step.

The four kernels in ``nadex.accel`` each ship a jitted and a pure-numpy
implementation producing bitwise-identical results; this script reports
wall-clock medians for both so the speedup of keeping numba installed is
visible. The optional end-to-end row re-launches the interpreter with
``NADEX_NO_NUMBA=1`` because the backend is frozen at import time.

Usage:
    python benchmarks/backend_bench.py [--repeats 30] [--train-step]
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from nadex import accel


def _median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def bench_kernels(repeats):
    rng = np.random.default_rng(0)
    rows = []

    ids = rng.integers(0, 500, size=4096)
    grad_rows = rng.normal(size=(4096, 200))
    out = np.zeros((500, 200))
    rows.append((
        "scatter_add_rows [4096x200 -> 500]",
        _median_ms(lambda: accel.scatter_add_rows_jit(out, ids, grad_rows), repeats)
        if accel.NUMBA_ENABLED else None,
        _median_ms(lambda: accel.scatter_add_rows_numpy(out, ids, grad_rows), repeats),
    ))

    n = 500 * 200
    theta = rng.normal(size=n)
    g = rng.normal(size=n)
    m = np.zeros(n)
    v = np.zeros(n)
    c1, c2 = 1.0 - 0.9**5, 1.0 - 0.999**5
    rows.append((
        "adam_update [100k params]",
        _median_ms(lambda: accel.adam_update_jit(theta, g, m, v,
                                                 1e-3, 0.9, 0.999, 1e-8, c1, c2),
                   repeats)
        if accel.NUMBA_ENABLED else None,
        _median_ms(lambda: accel.adam_update_numpy(theta, g, m, v,
                                                   1e-3, 0.9, 0.999, 1e-8, c1, c2),
                   repeats),
    ))

    scores = rng.normal(size=7000)
    excluded = rng.random(7000) < 0.01
    rows.append((
        "filtered_rank [7000 entities]",
        _median_ms(lambda: accel.filtered_rank_jit(scores, 42, excluded), repeats)
        if accel.NUMBA_ENABLED else None,
        _median_ms(lambda: accel.filtered_rank_numpy(scores, 42, excluded.copy()),
                   repeats),
    ))

    emb = rng.normal(size=(128, 200))
    rows.append((
        "exclusive_row_means [128x200]",
        _median_ms(lambda: accel.exclusive_row_means_jit(emb), repeats)
        if accel.NUMBA_ENABLED else None,
        _median_ms(lambda: accel.exclusive_row_means_numpy(emb), repeats),
    ))
    return rows


_TRAIN_SNIPPET = """
import time
import numpy as np
from nadex import accel, config, data, denoiser, diffusion, objectives, synthetic
from nadex.kernel import optim

quads = synthetic.cyclic_tkg(num_entities=20, num_relations=3, num_timestamps=30)
vocab = data.build_vocabulary(quads)
aug = sorted(data.augment_inverse(quads, vocab), key=lambda q: q.t)
samples = data.build_histories(aug, window=8, dt_max=32)
batches = data.batch_by_timestamp(samples, b_max=64)
cfg = denoiser.DenoiserConfig(hidden=64, layers=2, heads=4, dropout=0.0,
                              window=8, dt_max=32, m_steps=10)
params = denoiser.init_params(cfg, vocab, seed=0)
sched = diffusion.build_schedule(m_steps=10)
opt = optim.Adam(params.tensors, lr=1e-3)
loss_cfg = objectives.LossConfig()
rng = np.random.default_rng(0)
for b in batches[:3]:
    objectives.train_step(b, params, sched, opt, loss_cfg, rng)
t0 = time.perf_counter()
steps = 0
for b in batches:
    objectives.train_step(b, params, sched, opt, loss_cfg, rng)
    steps += 1
print(f"{accel.BACKEND}: {(time.perf_counter() - t0) / steps * 1e3:.2f} ms/step"
      f" ({steps} steps)")
"""


def bench_train_step():
    sys.stdout.flush()
    for env_flag in ("0", "1"):
        env = dict(os.environ, NADEX_NO_NUMBA=env_flag)
        subprocess.run([sys.executable, "-c", _TRAIN_SNIPPET], env=env, check=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=30,
                    help="timed repetitions per kernel (median reported)")
    ap.add_argument("--train-step", action="store_true",
                    help="also time a full train step under each backend "
                         "(spawns two subprocesses)")
    args = ap.parse_args(argv)

    accel.warmup()
    print(f"active backend: {accel.BACKEND} "
          f"(numba importable: {accel._NUMBA_IMPORTED})")
    print(f"{'kernel':<38} {'numba ms':>10} {'numpy ms':>10} {'speedup':>8}")
    for name, jit_ms, np_ms in bench_kernels(args.repeats):
        if jit_ms is None:
            print(f"{name:<38} {'n/a':>10} {np_ms:>10.4f} {'n/a':>8}")
        else:
            print(f"{name:<38} {jit_ms:>10.4f} {np_ms:>10.4f} "
                  f"{np_ms / jit_ms:>7.1f}x")

    if args.train_step:
        print()
        bench_train_step()
    return 0


if __name__ == "__main__":
    sys.exit(main())
