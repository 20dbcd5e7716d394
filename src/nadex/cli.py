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
from .config import finalize, load_config, parse_config_text
from .data import (
    INT64_MAX,
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
from .evaluation import build_filter_index, check_finite, evaluate, training_triples
from .kernel import Adam
from .kernel import tensor as T
from .objectives import train_epoch


SPLITS = ("train", "valid", "test")

# the first entry that matches wins, so a subclass precedes its base
EXIT_CODES = (
    (CheckpointVersionError, 3),
    (UnknownIdError, 4),
    ((ConfigurationError, ParseError, ValidationError, CheckpointFormatError,
      OSError), 2),
    (NadexError, 1),
)


def _split_path(cfg, name):
    return os.path.join(cfg.data_dir, f"{name}.txt")


def _parse_splits(cfg, vocab=None):
    """Parse and validate the splits into ``(vocab, {name: quads})``.

    ``vocab`` defaults to the splits' own. A checkpoint's keeps the inverse
    relation ids the model was trained with; splits exceeding it are rejected.
    """
    raw = {}
    for name in SPLITS:
        path = _split_path(cfg, name)
        if not os.path.isfile(path):
            raise ConfigurationError(f"{name} split not found: {path}")
        raw[name] = parse_quadruples(path, cfg.granularity)
    if not raw["train"]:
        raise ValidationError(f"train split is empty: {_split_path(cfg, 'train')}")
    found = build_vocabulary(*raw.values())
    if vocab is None:
        vocab = found
    elif (found.num_entities > vocab.num_entities
            or found.num_relations_base > vocab.num_relations_base):
        raise ValidationError(
            f"split vocabulary ({found.num_entities} entities, "
            f"{found.num_relations_base} relations) exceeds the checkpoint's"
        )
    return vocab, raw


def _read_splits(cfg, vocab=None):
    """``_parse_splits`` with every split inverse-augmented."""
    vocab, raw = _parse_splits(cfg, vocab)
    return vocab, {name: augment_inverse(quads, vocab) for name, quads in raw.items()}


def _split_histories(cfg, aug):
    """Histories over the merged chronological stream, regrouped by split."""
    labeled = sorted(((q, name) for name in SPLITS for q in aug[name]),
                     key=lambda pair: pair[0].t)
    samples = build_histories([q for q, _ in labeled], cfg.window, cfg.dt_max)
    per_split = {name: [] for name in SPLITS}
    for sample, (_, name) in zip(samples, labeled):
        per_split[name].append(sample)
    return per_split


def _eval_split(cfg, split_samples, params, schedule, filter_index,
                train_triples=None):
    return evaluate(
        split_samples, params, schedule, filter_index, tau=cfg.tau,
        seed=cfg.seed, k_repeats=cfg.eval_k, train_triples=train_triples,
        workers=cfg.workers,
    )


def cmd_train(args):
    cfg = load_config(args.config, args.set)
    # a path train cannot write fails now, not after the first epoch
    if (not cfg.checkpoint or os.path.isdir(cfg.checkpoint)
            or not os.path.isdir(os.path.dirname(cfg.checkpoint) or ".")):
        raise ConfigurationError(f"checkpoint is not a file path in an "
                                 f"existing directory: {cfg.checkpoint!r}")
    vocab, aug = _read_splits(cfg)
    # every epoch ends in validation, so an empty split fails before the first
    if not aug["valid"]:
        raise ValidationError(f"valid split is empty: {_split_path(cfg, 'valid')}")
    per_split = _split_histories(cfg, aug)
    schedule = cfg.schedule()
    params = init_params(cfg.denoiser_config(), vocab, cfg.seed)
    optimizer = Adam(params.tensors, lr=cfg.lr)
    batches = batch_by_timestamp(per_split["train"], cfg.b_max)
    filter_index = build_filter_index(aug["train"], aug["valid"], aug["test"])
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
        report = _eval_split(cfg, per_split["valid"], params, schedule, filter_index)
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
    cfg = finalize(parse_config_text(loaded["config_text"]), args.set)
    params = init_params(cfg.denoiser_config(), loaded["vocab"], seed=0)
    ckpt.restore_params(loaded, params)
    return cfg, loaded["vocab"], params


def cmd_eval(args):
    cfg, vocab, params = _load_checkpoint(args)
    _, aug = _read_splits(cfg, vocab)
    schedule = cfg.schedule()
    filter_index = build_filter_index(aug["train"], aug["valid"], aug["test"])
    train_triples = training_triples(aug["train"])
    samples = _split_histories(cfg, aug)[args.split]
    report = _eval_split(cfg, samples, params, schedule, filter_index, train_triples)
    print(report.format_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_tsv())
        print(f"# wrote {args.out}")
    return 0


def cmd_predict(args):
    if args.top_k < 1:
        raise ValidationError(f"--top-k must be >= 1, got {args.top_k}")
    if args.time > INT64_MAX:
        raise ValidationError(f"--time must be < 2^63, got {args.time}")
    cfg, vocab, params = _load_checkpoint(args)
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
    _, raw = _parse_splits(cfg, vocab)
    # the subject's facts in the augmented stream's order, from augmenting
    # only the facts that name it; the stable sort keeps that order among
    # equal timestamps
    past = []
    for name in SPLITS:
        named = [q for q in raw[name] if args.subject in (q.s, q.o)]
        past += [q for q in augment_inverse(named, vocab)
                 if q.s == args.subject and q.t < args.time]
    past.sort(key=lambda q: q.t)
    query = Quadruple(args.subject, args.relation, 0, args.time)
    sample = build_histories(past[-cfg.window :] + [query], cfg.window,
                             cfg.dt_max)[-1]
    batch = sample_to_batch(sample)
    schedule = cfg.schedule()
    rng = np.random.default_rng(cfg.seed)
    with T.no_grad():
        hist, rel, dt, key_mask, _ = embed_batch(params, batch)
        noise = rng.standard_normal((1, cfg.hidden))
        seq = make_inference_input(hist, noise, rel, dt)
        est = denoise(params, seq, schedule.m_steps, key_mask)
        probs = score_entities(est, params.scoring_table(), cfg.tau).data[0]
    check_finite(probs[None], [query])
    order = np.argsort(-probs, kind="stable")[:args.top_k]
    label_path = os.path.join(cfg.data_dir, "entity2id.txt")
    labels = read_id_labels(label_path) if os.path.isfile(label_path) else {}
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

    def add_command(name, fn, help, config=False):
        """A subcommand whose settings come from its config text, then --set."""
        p = sub.add_parser(name, help=help)
        if config:
            p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.set_defaults(fn=fn)
        return p

    add_command("train", cmd_train,
                "train a model and keep the best validation checkpoint",
                config=True)

    p_eval = add_command("eval", cmd_eval, "evaluate a checkpoint on a split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=("valid", "test"), default="test")
    p_eval.add_argument("--out", default=None, help="write tab-separated report")

    p_pred = add_command("predict", cmd_predict, "rank objects for one query")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--subject", type=int, required=True)
    p_pred.add_argument("--relation", type=int, required=True)
    p_pred.add_argument("--time", type=int, required=True,
                        help="query timestamp ordinal (post-granularity)")
    p_pred.add_argument("--top-k", type=int, default=10)

    add_command("inspect-schedule", cmd_inspect_schedule,
                "print the noise schedule as TSV", config=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NadexError, OSError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(err, kinds))


if __name__ == "__main__":
    sys.exit(main())
