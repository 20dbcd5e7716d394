"""Command-line entry points: train, eval, predict, inspect-schedule.

Every failure path prints a single machine-parsable line to stderr,
``error: <ErrorClass>: <message>``, and exits nonzero: 2 for config or
data problems, 3 for checkpoint version mismatches, 4 for unknown ids,
1 for anything else.
"""

import argparse
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from .config import SEED_ENV_VAR, finalize, load_config, parse_config_text
from .data import (
    Quadruple,
    augment_inverse,
    batch_by_timestamp,
    build_histories,
    build_vocabulary,
    parse_quadruples,
    read_id_labels,
    sample_to_batch,
)
from .denoiser import denoise, embed_batch, init_params, score_entities
from .diffusion import make_inference_input
from .errors import (
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigurationError,
    NadexError,
    ParseError,
    UnknownIdError,
    ValidationError,
)
from .evaluation import build_filter_index, evaluate, training_triples
from .kernel import Adam
from .kernel import tensor as T
from .objectives import train_epoch


def _split_path(cfg, name):
    return os.path.join(cfg.data_dir, f"{name}.txt")


def _load_splits(cfg):
    """Parse all three splits, derive the vocabulary, augment inverses, and
    build histories over the merged chronological stream."""
    raw = {}
    for name in ("train", "valid", "test"):
        path = _split_path(cfg, name)
        if not os.path.isfile(path):
            raise ConfigurationError(f"{name} split not found: {path}")
        raw[name] = parse_quadruples(path, cfg.granularity)
    if not raw["train"]:
        raise ValidationError(f"train split is empty: {_split_path(cfg, 'train')}")
    vocab = build_vocabulary(raw["train"], raw["valid"], raw["test"])
    aug = {name: augment_inverse(quads, vocab) for name, quads in raw.items()}

    labeled = []
    for idx, name in enumerate(("train", "valid", "test")):
        labeled += [(q, idx) for q in aug[name]]
    labeled.sort(key=lambda pair: pair[0].t)
    stream = [q for q, _ in labeled]
    samples = build_histories(stream, cfg.window, cfg.dt_max)
    per_split = {"train": [], "valid": [], "test": []}
    names = ("train", "valid", "test")
    for sample, (_, idx) in zip(samples, labeled):
        per_split[names[idx]].append(sample)
    return raw, aug, vocab, per_split, stream


def _eval_split(cfg, split_samples, params, schedule, filter_index,
                train_triples, seed, k_repeats):
    return evaluate(
        split_samples, params, schedule, filter_index, tau=cfg.tau,
        seed=seed, k_repeats=k_repeats, train_triples=train_triples,
        chunk_size=cfg.eval_chunk, workers=cfg.workers,
    )


def cmd_train(args):
    cfg = load_config(args.config, args.set)
    if args.data_dir:
        cfg.data_dir = args.data_dir
        cfg.validate()
    _, aug, vocab, per_split, _ = _load_splits(cfg)
    schedule = cfg.schedule()
    params = init_params(cfg.denoiser_config(), vocab, cfg.seed)
    optimizer = Adam(params.tensors, lr=cfg.lr)
    batches = batch_by_timestamp(per_split["train"], cfg.b_max)
    filter_index = build_filter_index(aug["train"], aug["valid"], aug["test"])
    train_triples = training_triples(aug["train"])
    rng = np.random.default_rng(cfg.seed)
    loss_cfg = cfg.loss_config()

    print(f"# entities={vocab.num_entities} relations={vocab.num_relations} "
          f"train_batches={len(batches)} parameters={params.parameter_count()}")
    print("# epoch\tL_r\tL_neg\tL_total\tseconds")
    best_mrr = -1.0
    best_epoch = 0
    for epoch in range(1, cfg.epochs + 1):
        summary = train_epoch(batches, params, schedule, optimizer, loss_cfg, rng)
        print(summary.tsv(epoch), flush=True)
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            report = _eval_split(cfg, per_split["valid"], params, schedule,
                                 filter_index, None, cfg.seed, cfg.eval_k)
            print(f"valid\t{epoch}\t{report.mrr:.6f}\t{report.hits1:.6f}"
                  f"\t{report.hits3:.6f}\t{report.hits10:.6f}", flush=True)
            if report.mrr > best_mrr:
                best_mrr = report.mrr
                best_epoch = epoch
                ckpt.save(cfg.checkpoint, params, optimizer, cfg.to_text(),
                          vocab, epoch, best_mrr, rng)
    print(f"best\t{best_epoch}\t{best_mrr:.6f}\t{cfg.checkpoint}")
    return 0


def _load_checkpoint(args):
    loaded = ckpt.load(args.checkpoint)
    cfg = parse_config_text(loaded["config_text"])
    if getattr(args, "data_dir", None):
        cfg.data_dir = args.data_dir
    finalize(cfg, getattr(args, "set", ()) or ())
    vocab = loaded["vocab"]
    params = init_params(cfg.denoiser_config(), vocab, seed=0)
    ckpt.restore_params(loaded, params)
    return loaded, cfg, vocab, params


def _check_flag(name, value, minimum):
    """Reject a command-line value below its minimum; None means unset."""
    if value is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")


def cmd_eval(args):
    _check_flag("--k", args.k, 1)
    _check_flag("--seed", args.seed, 0)
    loaded, cfg, vocab, params = _load_checkpoint(args)
    _, aug, vocab2, per_split, _ = _load_splits(cfg)
    if (vocab2.num_entities > vocab.num_entities
            or vocab2.num_relations_base > vocab.num_relations_base):
        raise ValidationError(
            f"split vocabulary ({vocab2.num_entities} entities, "
            f"{vocab2.num_relations_base} relations) exceeds the checkpoint's"
        )
    schedule = cfg.schedule()
    filter_index = build_filter_index(aug["train"], aug["valid"], aug["test"])
    train_triples = training_triples(aug["train"])
    samples = per_split[args.split]
    if args.unseen_only:
        samples = [s for s in samples if (s.s, s.r, s.o) not in train_triples]
        if not samples:
            raise ValidationError(f"unseen subset of '{args.split}' is empty")
        train_triples = None  # subset already restricted
    seed = cfg.seed if args.seed is None else args.seed
    k_repeats = cfg.eval_k if args.k is None else args.k
    report = _eval_split(cfg, samples, params, schedule, filter_index,
                         train_triples, seed, k_repeats)
    print(report.format_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_tsv())
        print(f"# wrote {args.out}")
    return 0


def cmd_predict(args):
    _check_flag("--top-k", args.top_k, 1)
    _check_flag("--seed", args.seed, 0)
    loaded, cfg, vocab, params = _load_checkpoint(args)
    if not 0 <= args.subject < vocab.num_entities:
        raise UnknownIdError(
            f"subject {args.subject} outside entity vocabulary "
            f"[0, {vocab.num_entities})"
        )
    if not 0 <= args.relation < vocab.num_relations:
        raise UnknownIdError(
            f"relation {args.relation} outside augmented relation vocabulary "
            f"[0, {vocab.num_relations})"
        )
    _, _, _, _, stream = _load_splits(cfg)
    past = [q for q in stream if q.s == args.subject and q.t < args.time]
    query = Quadruple(args.subject, args.relation, 0, args.time)
    sample = build_histories(past[-cfg.window :] + [query], cfg.window,
                             cfg.dt_max)[-1]
    batch = sample_to_batch(sample)
    schedule = cfg.schedule()
    rng = np.random.default_rng(cfg.seed if args.seed is None else args.seed)
    with T.no_grad():
        hist, rel, dt, key_mask, _ = embed_batch(params, batch)
        noise = rng.standard_normal((1, cfg.hidden))
        seq = make_inference_input(hist, noise, rel, dt)
        est = denoise(params, seq, schedule.m_steps, key_mask)
        probs = score_entities(est, params.scoring_table(), cfg.tau).data[0]
    top_k = min(args.top_k, vocab.num_entities)
    order = np.argsort(-probs, kind="stable")[:top_k]
    labels = {}
    label_path = os.path.join(cfg.data_dir, "entity2id.txt")
    if os.path.isfile(label_path):
        labels = read_id_labels(label_path)
    print("# rank\tentity\tprobability\tlabel")
    for rank, ent in enumerate(order, start=1):
        name = labels.get(int(ent), "")
        print(f"{rank}\t{int(ent)}\t{probs[ent]:.6g}\t{name}")
    return 0


def cmd_inspect_schedule(args):
    cfg = load_config(args.config, args.set)
    schedule = cfg.schedule()
    print("# m\tone_minus_alpha_bar\tsqrt_alpha_bar")
    for m in range(1, schedule.m_steps + 1):
        print(f"{m}\t{schedule.one_minus_alpha_bar[m - 1]:.12g}"
              f"\t{schedule.sqrt_alpha_bar(m):.12g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nadex",
        description="Diffusion-based temporal knowledge graph extrapolation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p_train = sub.add_parser("train", help="train a model and keep the best "
                                           "validation checkpoint")
    common(p_train)
    p_train.add_argument("--data-dir", default=None,
                         help="directory with train/valid/test.txt")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=("valid", "test"), default="test")
    p_eval.add_argument("--unseen-only", action="store_true",
                        help="restrict to queries whose (s, r, o) never "
                             "occurs in training")
    p_eval.add_argument("--k", type=int, default=None,
                        help="noise draws averaged per query")
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--out", default=None, help="write tab-separated report")
    p_eval.add_argument("--data-dir", default=None)
    p_eval.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_eval.set_defaults(fn=cmd_eval)

    p_pred = sub.add_parser("predict", help="rank objects for one query")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--subject", type=int, required=True)
    p_pred.add_argument("--relation", type=int, required=True)
    p_pred.add_argument("--time", type=int, required=True,
                        help="query timestamp ordinal (post-granularity)")
    p_pred.add_argument("--top-k", type=int, default=10)
    p_pred.add_argument("--seed", type=int, default=None)
    p_pred.add_argument("--data-dir", default=None)
    p_pred.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_pred.set_defaults(fn=cmd_predict)

    p_sched = sub.add_parser("inspect-schedule",
                             help="print the noise schedule as TSV")
    common(p_sched)
    p_sched.set_defaults(fn=cmd_inspect_schedule)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CheckpointVersionError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except UnknownIdError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4
    except (ConfigurationError, ParseError, ValidationError,
            CheckpointFormatError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except NadexError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
