"""One benchmark run: set up a workload, drive nadex through its public
functions for a fixed number of seconds, check every output, report metrics.

A run is a closed loop on one thread: each call starts when the previous
one has returned. Its phases, in order:

  setup     raw quadruples -> ready to run, once here and once more after
            each round (``set_up_again``)
  warm-up   one training step, then evaluation chunks for ``warmup_s``
  rounds    ROUNDS times, a slice of each timed operation:
              train    ``objectives.train_step``, consecutive steps spread
                       over the epoch (see ``spread_order``)
              save     ``checkpoint.save`` of the full state (parameters,
                       Adam moments and RNG)
              eval     ``evaluation.evaluate`` over a fixed query list
              predict  one query at N=1 the way ``nadex predict`` runs it
  load      ``checkpoint.load`` of the last save, compared bitwise

setup_s is the median of the 1 + ROUNDS set-ups.

Each operation gets the same share of ``--seconds`` on every workload
(SHARES).

With a tracer, every second call of each phase runs with the tracer's
wrappers installed; the untraced calls in between give the overhead.
"""

import gc
import math
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from nadex import checkpoint, cli, config, data, denoiser, diffusion, evaluation
from nadex import objectives, synthetic
from nadex.errors import NadexError
from nadex.kernel import Adam
from nadex.kernel import tensor as T

SPLITS = ("train", "valid", "test")
EVAL_CHUNK = 256  # RunConfig defaults: eval_chunk 256, eval_k 1, workers 0
TOP_K = 10
PREDICT_QUERIES = 256  # predict cycles through this many test queries
CHECKED_PREDICTS = 32
CHECKED_RANKS = 8
ROUNDS = 6
SHARES = {"train": 0.72, "save": 0.04, "eval": 0.12, "predict": 0.12}
MIN_CALLS = {"train": 3, "save": 9, "eval": 3, "predict": 50}
# untimed work before the first timed call: on a 2-vCPU VM the first
# second or so of 2-thread BLAS work in a fresh process ran up to 3x slower
WARMUP_S = 2.0

E2E_UNITS = {
    "setup_s": "s",
    "train_step_ms.p50": "ms",
    "train_step_ms.p90": "ms",
    "train_samples_per_s": "1/s",
    "ckpt_save_ms": "ms",
    "eval_queries_per_s": "1/s",
    "predict_ms.p50": "ms",
    "predict_ms.p95": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "kernel.tensor.matmul_fwd_ms": "ms",
    "kernel.tensor.matmul_calls": "count",
    "kernel.tensor.matmul_gflop": "GFLOP",
    "kernel.tensor.backward_ms": "ms",
    "kernel.tensor.tape_nodes": "count",
    "denoiser.embed_batch_ms": "ms",
    "denoiser.denoise_ms": "ms",
    "denoiser.denoise_calls": "count",
    "denoiser.score_entities_ms": "ms",
    "diffusion.corrupt_ms": "ms",
    "negsample.prototypes_ms": "ms",
    "negsample.calls": "count",
    "negsample.applied_share": "ratio",
    "objectives.loss_ms": "ms",
    "objectives.step_self_ms": "ms",
    "objectives.train_step_ms": "ms",
    "kernel.optim.adam_step_ms": "ms",
    "evaluation.filtered_rank_us": "us",
    "evaluation.rank_share": "ratio",
    "evaluation.filter_set_mean": "count",
    "evaluation.denoise_ms": "ms",
    "denoiser.predict_score_ms": "ms",
    "data.build_histories_s": "s",
    "data.batch_by_timestamp_s": "s",
    "evaluation.build_filter_index_s": "s",
    "data.history_fill": "ratio",
    "data.step_history_fill": "ratio",
    "data.batch_fill": "ratio",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "B",
    "trace.step_overhead_ms": "ms",
    "trace.eval_overhead_ms": "ms",
    "trace.predict_overhead_ms": "ms",
}

# Direct children of objectives.train_step, grouped into the per-layer
# metric each one feeds; with step_self_ms they add up to the step.
STEP_PARTS = {
    "denoiser.embed_batch_ms": ("objectives.embed_batch",),
    "negsample.prototypes_ms": ("objectives.negative_prototypes",),
    "diffusion.corrupt_ms": ("objectives.diffuse", "objectives.assemble_sequence"),
    "denoiser.denoise_ms": ("objectives.denoise",),
    "denoiser.score_entities_ms": ("objectives.score_entities",),
    "objectives.loss_ms": ("objectives.reconstruction_loss",
                           "objectives.negative_cosine_loss",
                           "objectives.combined_loss"),
    "kernel.tensor.backward_ms": ("kernel.tensor.backward",),
    "kernel.optim.adam_step_ms": ("kernel.optim.Adam.step",),
}


class Tally:
    """Attempted and failed operations; a failed output check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def call(self, what, fn, *args, **kwargs):
        """Run one operation; return (ok, result). A NadexError or OSError
        is recorded as a failed attempt; success is left to the caller's
        output check."""
        try:
            return True, fn(*args, **kwargs)
        except (NadexError, OSError) as err:
            self.record(False, f"{what}: {type(err).__name__}: {err}")
            return False, None


@dataclass
class Ready:
    """Everything a run needs once set-up is done."""

    vocab: object
    samples: list  # every HistorySample, in stream order
    per_split: dict
    batches: list
    filter_index: dict
    params: object
    optimizer: object
    rng: object


def model_config(workload):
    return denoiser.DenoiserConfig(**workload.model)


def config_text(workload):
    return config.RunConfig(lam=workload.lam, b_max=workload.b_max,
                            **workload.model).to_text()


def init_model(workload, vocab, seed):
    params = denoiser.init_params(model_config(workload), vocab, seed)
    return params, Adam(params.tensors)


def set_up(workload, splits, seed):
    """Raw quadruples to ready-to-run: the work setup_s times.

    Follows ``nadex train``: vocabulary, inverse augmentation, histories
    over the merged stream, timestamp batches, filter index and parameter
    init.
    """
    vocab = data.build_vocabulary(*splits)
    aug, labeled = {}, []
    for idx, (name, quads) in enumerate(zip(SPLITS, splits)):
        aug[name] = data.augment_inverse(quads, vocab)
        labeled += [(q, idx) for q in aug[name]]
    labeled.sort(key=lambda pair: pair[0].t)
    cfg = model_config(workload)
    samples = data.build_histories([q for q, _ in labeled], cfg.window,
                                   cfg.dt_max)
    per_split = {name: [] for name in SPLITS}
    for sample, (_, idx) in zip(samples, labeled):
        per_split[SPLITS[idx]].append(sample)
    batches = data.batch_by_timestamp(per_split["train"], workload.b_max)
    filter_index = evaluation.build_filter_index(*aug.values())
    params, optimizer = init_model(workload, vocab, seed)
    return Ready(vocab, samples, per_split, batches, filter_index, params,
                 optimizer, np.random.default_rng(seed))


class Phase:
    """One kind of operation, called in slices spread over the run.

    ``op(i)`` returns the seconds of its timed region, or None if it
    failed. With a tracer, odd calls run with the wrappers installed.
    """

    def __init__(self, op, tracer):
        self.op = op
        self.tracer = tracer
        self.times = {False: [], True: []}  # traced -> [(i, seconds)]
        self.calls = 0
        self.busy = 0.0  # wall seconds spent in this phase so far
        self.rounds = []  # untraced (i, seconds) pairs per round

    def run_until(self, busy, min_calls):
        """Call ``op`` until the phase has been busy ``busy`` seconds in
        total and has made ``min_calls`` calls."""
        while self.busy < busy or self.calls < min_calls:
            i = self.calls
            traced = self.tracer is not None and i % 2 == 1
            t0 = time.perf_counter()
            with self.tracer.installed() if traced else nullcontext():
                seconds = self.op(i)
            self.busy += time.perf_counter() - t0
            self.calls += 1
            if seconds is not None:
                self.times[traced].append((i, seconds))

    def end_round(self):
        done = sum(len(r) for r in self.rounds)
        self.rounds.append(self.times[False][done:])

    def seconds(self, traced=False):
        return [s for _, s in self.times[traced]]


def brute_force_rank(scores, gold, filter_set):
    """Filtered rank by counting, one entity at a time (the oracle)."""
    gold_score = scores[gold]
    rank = 1
    for e, score in enumerate(scores.tolist()):
        if e != gold and e not in filter_set and score >= gold_score:
            rank += 1
    return rank


def chunk_batch(samples):
    """Stack samples into one TimestampBatch, as evaluation does per chunk."""
    return data.TimestampBatch(
        t=samples[0].t,
        subjects=np.array([s.s for s in samples], dtype=np.int64),
        relations=np.array([s.r for s in samples], dtype=np.int64),
        golds=np.array([s.o for s in samples], dtype=np.int64),
        hist_objects=np.stack([s.hist_objects for s in samples]),
        hist_relations=np.stack([s.hist_relations for s in samples]),
        hist_dt=np.stack([s.hist_dt for s in samples]),
        mask=np.stack([s.mask for s in samples]),
    )


def check_ranks(report, queries, params, filter_index, schedule, seed):
    """Recompute the first chunk's scores with the public functions and
    compare a sample of ranks against the brute-force oracle.

    On shift_tkg every filter set is the gold alone, so each sampled row is
    also ranked by ``evaluation.filtered_rank`` against a wide filter set
    (the row's filter set, the top-scoring entities and the other sampled
    golds), which a rank that ignored its filter set would get wrong."""
    chunk = queries[:EVAL_CHUNK]
    hidden = params.config.hidden
    noise = np.random.default_rng(seed).standard_normal((len(chunk), hidden))
    with T.no_grad():
        hist, rel, dt, mask, _ = denoiser.embed_batch(params, chunk_batch(chunk))
        seq = diffusion.make_inference_input(hist, noise, rel, dt)
        est = denoiser.denoise(params, seq, schedule.m_steps, mask)
    scores = est.data @ params.scoring_table().data.T
    rows = np.linspace(0, len(chunk) - 1, num=min(CHECKED_RANKS, len(chunk)))
    rows = sorted({int(r) for r in rows})
    golds = {chunk[row].o for row in rows}
    for row in rows:
        q = chunk[row]
        filt = filter_index.get((q.s, q.r, q.t), set())
        if brute_force_rank(scores[row], q.o, filt) != report.ranks[row]:
            return False
        top = np.argsort(-scores[row], kind="stable")[:CHECKED_RANKS]
        wide = set(filt) | golds | set(top.tolist())
        if (evaluation.filtered_rank(scores[row], q.o, wide)
                != brute_force_rank(scores[row], q.o, wide)):
            return False
    return True


def same_state(loaded, params, optimizer, rng):
    """Bitwise equality of a loaded checkpoint with the live state."""
    arrays = {name: t.data for name, t in params.tensors.items()}
    arrays.update(optimizer.state_arrays())
    if set(loaded["arrays"]) != set(arrays):
        return False
    for name, arr in arrays.items():
        got = loaded["arrays"][name]
        if got.shape != arr.shape or got.tobytes() != arr.tobytes():
            return False
    return (loaded["adam_steps"] == optimizer.step_count
            and loaded["rng_state"] == rng.bit_generator.state)


def pick(samples, count, rng):
    """A seeded, time-ordered subset of ``samples``."""
    if len(samples) <= count:
        return list(samples)
    idx = np.sort(rng.choice(len(samples), size=count, replace=False))
    return [samples[i] for i in idx]


def median_ms(values):
    return statistics.median(values) * 1e3


def spread_order(count, parts=10):
    """The batch index of timed training step i (the warm-up step takes
    batch 0): a stride of about count/parts, coprime with ``count``, so
    that a run's few steps sample every timestamp of the epoch, histories
    included, rather than the first one, and every batch comes up once in
    ``count`` steps."""
    stride = max(1, count // parts)
    while math.gcd(stride, count) != 1:
        stride += 1
    return lambda i: (1 + i * stride) % count


def run(workload, seed, seconds, tracer, workdir, log=print,
        warmup_s=WARMUP_S):
    """Run one workload; return (metrics, tally). ``metrics`` maps a metric
    name to its value: end-to-end metrics untraced, per-layer with a
    tracer."""
    tally = Tally()
    splits = synthetic.split_chronological(workload.quadruples(seed))
    ckpt_path = os.path.join(workdir, f"{workload.name}-{seed}-{os.getpid()}.ckpt")
    try:
        return _run(workload, seed, seconds, tracer, splits, ckpt_path,
                    tally, log, warmup_s), tally
    finally:
        if os.path.exists(ckpt_path):
            os.remove(ckpt_path)


def snapshot(params, workload, vocab):
    """A copy of the parameters that later training steps do not touch."""
    frozen = denoiser.init_params(model_config(workload), vocab, 0)
    for name, t in frozen.tensors.items():
        t.data = params[name].data.copy()
    return frozen


def _run(workload, seed, seconds, tracer, splits, ckpt_path, tally, log,
         warmup_s):
    loss_cfg = objectives.LossConfig(lam=workload.lam)
    schedule = diffusion.build_schedule(workload.model["m_steps"])
    text = config_text(workload)

    # --- setup ---------------------------------------------------------
    setup_times = []

    def timed_set_up():
        gc.collect()
        with tracer.installed() if tracer else nullcontext():
            t0 = time.perf_counter()
            fresh = set_up(workload, splits, seed)
            setup_times.append(time.perf_counter() - t0)
        return fresh

    ready = timed_set_up()
    params, optimizer, rng = ready.params, ready.optimizer, ready.rng
    batches = ready.batches
    pick_rng = np.random.default_rng([seed, 1])
    eval_queries = pick(ready.per_split["test"], workload.eval_queries, pick_rng)
    predict_queries = pick(ready.per_split["test"], PREDICT_QUERIES, pick_rng)
    entities = ready.vocab.num_entities
    hidden = params.config.hidden

    # --- warm-up: the step on batch 0 (its losses are fixed by the seed),
    # then one eval chunk until the workload's warm-up time has passed ----
    warm_start = time.perf_counter()
    ok, first = tally.call("warm-up step", objectives.train_step, batches[0],
                           params, schedule, optimizer, loss_cfg, rng)
    if ok:
        log(f"# first step losses: L_r={first.l_r!r} L_neg={first.l_neg!r} "
            f"L_total={first.l_total!r}")
    # eval and predict score this copy, so their results depend on the
    # seed only, not on how many training steps fit in the budget
    frozen = snapshot(params, workload, ready.vocab)
    while True:
        tally.call("warm-up evaluate", evaluation.evaluate,
                   eval_queries[:EVAL_CHUNK], frozen, schedule,
                   ready.filter_index, tau=loss_cfg.tau, seed=seed)
        if time.perf_counter() - warm_start >= warmup_s:
            break

    # --- the four timed operations ---------------------------------------
    step_info = {}
    step_batch = spread_order(len(batches))

    def step_once(i):
        batch = batches[step_batch(i)]
        t0 = time.perf_counter()
        ok, out = tally.call(f"train step {i}", objectives.train_step, batch,
                             params, schedule, optimizer, loss_cfg, rng)
        elapsed = time.perf_counter() - t0
        if not ok:
            return None
        finite = all(np.isfinite((out.l_r, out.l_neg, out.l_total)))
        tally.record(finite, f"train step {i}: non-finite loss")
        step_info[i] = out
        return elapsed

    def save_once(i):
        t0 = time.perf_counter()
        ok, _ = tally.call(f"save {i}", checkpoint.save, ckpt_path, params,
                           optimizer, text, ready.vocab, 1, 0.0, rng)
        elapsed = time.perf_counter() - t0
        if not ok:
            return None
        tally.record(True, "")
        return elapsed

    eval_state = {}

    def evaluate_once(i):
        t0 = time.perf_counter()
        ok, report = tally.call(f"evaluate {i}", evaluation.evaluate,
                                eval_queries, frozen, schedule,
                                ready.filter_index, tau=loss_cfg.tau,
                                seed=seed, k_repeats=1,
                                chunk_size=EVAL_CHUNK, workers=0)
        elapsed = time.perf_counter() - t0
        if not ok:
            return None
        if "ranks" not in eval_state:
            eval_state["ranks"] = report.ranks
            eval_state["mrr"] = report.mrr
            ok = check_ranks(report, eval_queries, frozen, ready.filter_index,
                             schedule, seed)
        else:
            ok = np.array_equal(report.ranks, eval_state["ranks"])
        tally.record(ok, f"evaluate {i}: ranks disagree with the oracle")
        return elapsed

    predict_rng = np.random.default_rng([seed, 2])

    def predict_once(i):
        sample = predict_queries[i % len(predict_queries)]
        noise = predict_rng.standard_normal((1, hidden))
        t0 = time.perf_counter()
        try:
            with T.no_grad():
                batch = cli.sample_to_batch(sample)
                hist, rel, dt, key_mask, _ = cli.embed_batch(frozen, batch)
                seq = cli.make_inference_input(hist, noise, rel, dt)
                est = cli.denoise(frozen, seq, schedule.m_steps, key_mask)
                probs = cli.score_entities(est, frozen.scoring_table(),
                                           loss_cfg.tau).data[0]
            top = np.argsort(-probs, kind="stable")[:TOP_K]
        except NadexError as err:
            tally.record(False, f"predict {i}: {type(err).__name__}: {err}")
            return None
        elapsed = time.perf_counter() - t0
        ok = True
        if i < CHECKED_PREDICTS:
            # the scores are a softmax whose best entity is the best dot
            # product with the entity table, and top-10 is their stable order
            logits = est.data[0] @ frozen.scoring_table().data.T
            oracle = np.lexsort((np.arange(entities), -probs))[:TOP_K]
            ok = (bool(np.all(np.isfinite(probs)))
                  and abs(probs.sum() - 1.0) <= 1e-9
                  and logits[top[0]] >= logits.max() - 1e-9
                  and np.array_equal(top, oracle))
        tally.record(ok, f"predict {i}: scores are not a softmax of the "
                         f"entity dot products or top-{TOP_K} is not their "
                         f"stable order")
        return elapsed

    train = Phase(step_once, tracer)
    saves = Phase(save_once, tracer)
    evals = Phase(evaluate_once, tracer)
    predicts = Phase(predict_once, tracer)

    # Rounds interleave the operations so that each metric samples the
    # whole run, not one stretch of it: on a shared 2-vCPU VM the speed
    # drifted by 10-20% over tens of seconds. Budgets are cumulative, so a long
    # step in one round is paid back in the next.
    phases = {"train": train, "save": saves, "eval": evals,
              "predict": predicts}
    for k in range(1, ROUNDS + 1):
        for name, phase in phases.items():
            phase.run_until(seconds * SHARES[name] * k / ROUNDS,
                            math.ceil(MIN_CALLS[name] * k / ROUNDS))
            phase.end_round()
        # set-up is repeated across the run for the same reason. The seed
        # fixes its result, so the rebuilt data replaces the run's data
        # (dropped first, so that one copy counts towards peak_rss_mb);
        # the trained state stays.
        ready = batches = None
        ready = replace(timed_set_up(), params=params, optimizer=optimizer,
                        rng=rng)
        batches = ready.batches

    log(f"# eval MRR over {len(eval_queries)} queries: "
        f"{eval_state.get('mrr')!r}")
    step_fill = float(np.mean([batches[step_batch(i)].mask.mean()
                               for i in step_info]))
    log(f"# history fill of the timed steps' batches: {step_fill:.4f}")
    if step_info:
        last = step_info[max(step_info)]
        log(f"# last step losses after {len(step_info) + 1} steps: "
            f"L_r={last.l_r!r} L_neg={last.l_neg!r} L_total={last.l_total!r}")

    saves.run_until(0.0, saves.calls + 1)  # the live state, for the load
    with tracer.installed() if tracer else nullcontext():
        ok, loaded = tally.call("load", checkpoint.load, ckpt_path)
    tally.record(ok and same_state(loaded, params, optimizer, rng),
                 "save -> load does not reproduce the state bitwise")
    ckpt_bytes = sum(a.nbytes for a in loaded["arrays"].values()) if ok else 0

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        steps = train.seconds()
        throughput = [
            sum(batches[step_batch(i)].size for i, _ in r)
            / sum(s for _, s in r)
            for r in train.rounds if r]
        latencies = predicts.seconds()
        log(f"# samples: setup {len(setup_times)}, train steps {len(steps)}, "
            f"saves {saves.calls}, eval calls {evals.calls}, "
            f"predicts {len(latencies)}")
        return {
            "setup_s": statistics.median(setup_times),
            "train_step_ms.p50": median_ms(steps),
            "train_step_ms.p90": float(np.percentile(steps, 90)) * 1e3,
            "train_samples_per_s": statistics.median(throughput),
            "ckpt_save_ms": median_ms(saves.seconds()),
            "eval_queries_per_s": statistics.median(
                len(eval_queries) / s for s in evals.seconds()),
            "predict_ms.p50": median_ms(latencies),
            # per round, so that a burst of contention in one round does not
            # set the tail of the whole run
            "predict_ms.p95": statistics.median(
                np.percentile([s for _, s in r], 95) for r in predicts.rounds
                if r) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }

    return layer_metrics(tracer, ready, workload, eval_queries, train,
                         step_info, step_fill, evals, predicts, ckpt_bytes,
                         log)


def layer_metrics(tracer, ready, workload, eval_queries, train, step_info,
                  step_fill, evals, predicts, ckpt_bytes, log):
    steps = [tracer.breakdown(i)
             for i in tracer.indices("objectives.train_step")]
    first = steps[0]

    def per_step(*names):
        return median_ms([sum(s["total"].get(n, 0.0) for n in names)
                          for s in steps])

    def first_calls(name):
        return first["calls"].get(name, 0)

    def overhead_ms(phase):
        return median_ms(phase.seconds(True)) - median_ms(phase.seconds())

    ranks = tracer.durations("evaluation.filtered_rank")
    evaluate_spans = tracer.durations("evaluation.evaluate")
    out = {name: per_step(*parts) for name, parts in STEP_PARTS.items()}
    out.update({
        "kernel.tensor.matmul_fwd_ms": per_step("kernel.tensor.matmul"),
        "kernel.tensor.matmul_calls": first_calls("kernel.tensor.matmul"),
        "kernel.tensor.matmul_gflop": first["work"].get(
            "kernel.tensor.matmul", 0) / 1e9,
        "kernel.tensor.tape_nodes": first["work"].get("kernel.tensor.backward", 0),
        "denoiser.denoise_calls": first_calls("objectives.denoise"),
        "negsample.calls": first_calls("objectives.negative_prototypes"),
        "negsample.applied_share": float(np.mean(
            [step_info[i].neg_applied for i, _ in train.times[True]])),
        "objectives.step_self_ms": median_ms([s["self"] for s in steps]),
        "objectives.train_step_ms": median_ms([s["duration"] for s in steps]),
        "evaluation.filtered_rank_us": statistics.median(ranks) * 1e6,
        "evaluation.rank_share": sum(ranks) / sum(evaluate_spans),
        "evaluation.filter_set_mean": float(np.mean(
            [len(ready.filter_index.get((q.s, q.r, q.t), ()))
             for q in eval_queries])),
        "evaluation.denoise_ms": median_ms(tracer.durations("evaluation.denoise")),
        "denoiser.predict_score_ms": median_ms(tracer.durations("cli.score_entities")),
        "data.build_histories_s": statistics.median(
            tracer.durations("data.build_histories")),
        "data.batch_by_timestamp_s": statistics.median(
            tracer.durations("data.batch_by_timestamp")),
        "evaluation.build_filter_index_s": statistics.median(
            tracer.durations("evaluation.build_filter_index")),
        "data.history_fill": float(np.mean([s.mask.mean() for s in ready.samples])),
        "data.step_history_fill": step_fill,
        "data.batch_fill": float(np.mean([b.size for b in ready.batches])
                                 / workload.b_max),
        "checkpoint.save_ms": median_ms(tracer.durations("checkpoint.save")),
        "checkpoint.load_ms": median_ms(tracer.durations("checkpoint.load")),
        "checkpoint.bytes": ckpt_bytes,
        "trace.step_overhead_ms": overhead_ms(train),
        "trace.eval_overhead_ms": overhead_ms(evals),
        "trace.predict_overhead_ms": overhead_ms(predicts),
    })
    gap = max(abs(sum(s["total"].get(n, 0.0) for parts in STEP_PARTS.values()
                      for n in parts) + s["self"] - s["duration"])
              for s in steps)
    log(f"# traced steps {len(steps)}: direct children + self time match the "
        f"step time within {gap * 1e3:.3g} ms; the medians add up to "
        f"{sum(out[k] for k in STEP_PARTS) + out['objectives.step_self_ms']:.4g}"
        f" ms against a median traced step of "
        f"{out['objectives.train_step_ms']:.4g} ms")
    return out
