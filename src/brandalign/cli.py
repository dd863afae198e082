"""Command-line interface: gen / train / align / eval / repro.

Exit codes: 0 success, 1 runtime failure, 2 usage error,
3 ordering-assertion failure in repro.
"""

import argparse
import json
import sys
import warnings

from . import align as align_mod
from . import model, repro, synth
from .evaluate import (cross_brand_evaluate, evaluate as evaluate_sessions,
                       write_jsonl, write_metrics)
from .data import (DataError, load_catalog, load_mapping, load_sessions,
                   split_sessions, split_sizes)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a UsageError, not usage and SystemExit."""

    def error(self, message):
        raise UsageError(message)


def _parse_ratios(text: str) -> tuple[float, float, float]:
    try:
        ratios = tuple(map(float, text.split(":")))
        if len(ratios) != 3:
            raise ValueError
        split_sizes(0, ratios)  # its rule: finite, nonnegative, positive sum
    except ValueError:
        raise UsageError(f"--ratios must be train:val:test numbers, finite, "
                         f"nonnegative and with a positive sum, got {text!r}") from None
    return ratios


# flag -> config field; each flag takes its type and default from the field
TRAIN_FLAGS = {"--dim": "d", "--sub-dim": "sub_dim", "--window": "window",
               "--n-neg": "n_neg", "--lr": "learning_rate", "--epochs": "epochs",
               "--l2": "l2_weight", "--lambda": "lam", "--reg-variant": "reg_variant",
               "--optimizer": "optimizer", "--eval-every": "eval_every"}
GEN_FLAGS = {"--markets": "n_markets", "--hotels-per-market": "hotels_per_market",
             "--latent-dim": "latent_dim", "--amenity-dim": "d_a_in",
             "--geo-dim": "d_g_in", "--sessions": "n_sessions_per_brand",
             "--bias": "brand_bias_strength", "--overlap": "overlap_fraction",
             "--seed": "seed"}
_HELP = {"--dim": "final embedding dim",
         "--sub-dim": "dim of each feature sub-embedding",
         "--lambda": "cross-brand regularizer strength"}


def _add_config_flags(p: argparse.ArgumentParser, cls, flags):
    defaults = cls()
    for flag, name in flags.items():
        value = getattr(defaults, name)
        p.add_argument(flag, dest=name, type=type(value), default=value,
                       help=_HELP.get(flag))


def _config(cls, args, flags, **extra):
    """cls built from the flags' fields and extra; an invalid one is a usage error."""
    try:
        cfg = cls(**{name: getattr(args, name) for name in flags.values()}, **extra)
        cfg.validate()
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def cmd_gen(args) -> int:
    cfg = _config(synth.WorldConfig, args, GEN_FLAGS,
                  session_length=(args.min_len, args.max_len),
                  brands=tuple(args.brands))
    world, _ = synth.write_world(cfg, args.out_dir)
    print(f"wrote world ({len(world.catalog)} hotels, "
          f"{cfg.n_sessions_per_brand} sessions/brand) to {args.out_dir}")
    return 0


def _load_mapping(path, purpose: str, catalog=None):
    """The mapping at path, refused when it holds no pair to put to purpose."""
    mapping = load_mapping(path, target_catalog=catalog)
    if not mapping:
        raise DataError(f"{path}: mapping holds no hotel pair to {purpose}")
    return mapping


def _load_split(args, catalog, ratios):
    sessions = load_sessions(args.sessions, catalog, args.brand)
    if args.split == "none":
        return sessions
    train_s, val_s, test_s = split_sessions(sessions, ratios, args.seed)
    return {"train": train_s, "val": val_s, "test": test_s}[args.split]


def cmd_train(args) -> int:
    ratios = _parse_ratios(args.ratios)
    cfg = _config(model.TrainConfig, args, TRAIN_FLAGS, seed=args.seed)
    if cfg.lam > 0 and (args.source_embeddings is None or args.mapping is None):
        raise UsageError("--lambda > 0 requires --source-embeddings and --mapping")

    catalog = load_catalog(args.catalog)
    sessions = load_sessions(args.sessions, catalog, args.brand)
    train_s, val_s, test_s = split_sessions(sessions, ratios, args.seed)
    source_space = mapping = None
    if cfg.lam > 0:
        source_space = model.read_embeddings(args.source_embeddings)
        if source_space.dim != cfg.d:
            raise DataError(f"{args.source_embeddings}:1: source embedding dim "
                            f"{source_space.dim} != --dim {cfg.d}")
        mapping = _load_mapping(args.mapping, "regularize", catalog)

    curve_rows = []
    curve_sink = None
    if args.curve_file:
        curve_sink = repro._curve_sink(test_s, catalog, args.seed, curve_rows)
    params = model.train(train_s, catalog, cfg, source_space=source_space,
                         mapping=mapping, curve_sink=curve_sink)
    space = model.export_embeddings(params, catalog, brand=args.brand)
    model.write_embeddings(space, args.out)
    if args.curve_file:
        write_jsonl(curve_rows, args.curve_file)
    print(f"final train loss (mean per pair, last epoch): {params.epoch_losses[-1]:.6f}")
    print(f"wrote {len(space.ids)} embeddings (dim {space.dim}) to {args.out}")
    return 0


def cmd_align(args) -> int:
    source = model.read_embeddings(args.source_emb)
    target = model.read_embeddings(args.target_emb)
    mapping = _load_mapping(args.mapping, "align")
    try:
        s_mat, t_mat, ids, excluded = align_mod.common_rows(source, target, mapping)
    except ValueError as exc:  # no mapped pair is in both files
        raise DataError(f"{args.source_emb}, {args.target_emb}: {exc}") from None
    if args.method == "lp":
        proj = align_mod.fit_linear_projection(s_mat, t_mat)
    else:
        proj = align_mod.fit_procrustes(s_mat, t_mat)
        import numpy as np
        ortho_err = float(np.max(np.abs(proj.w.T @ proj.w - np.eye(proj.w.shape[1]))))
        print(f"orthogonality check: max |W^T W - I| = {ortho_err:.3e}")
    align_mod.write_projection(proj, args.out)
    print(f"fit {proj.kind} projection on {len(ids)} common rows "
          f"({excluded} excluded); residual {proj.fit_residual:.6g}")
    return 0


def cmd_eval(args) -> int:
    ratios = _parse_ratios(args.ratios)
    ks = tuple(args.k) if args.k else (10, 100)
    if min(ks) < 1:
        raise UsageError(f"--k must be >= 1, got {min(ks)}")
    if not 0 <= args.missing_threshold <= 1:
        raise UsageError(f"--missing-threshold must be in [0, 1], "
                         f"got {args.missing_threshold}")
    if args.cross_brand and not args.mapping:
        raise UsageError("--cross-brand requires --mapping")
    catalog = load_catalog(args.catalog)
    sessions = _load_split(args, catalog, ratios)
    space = model.read_embeddings(args.embeddings)
    if args.apply_projection:
        proj = align_mod.read_projection(args.apply_projection)
        try:
            space = align_mod.apply_projection(space, proj)
        except ValueError as exc:
            raise DataError(f"{args.apply_projection}: {exc}") from None
    metadata = {"embeddings": args.embeddings, "mode": args.mode,
                "pool": args.pool, "seed": args.seed, "split": args.split}
    if args.cross_brand:
        mapping = _load_mapping(args.mapping, "evaluate across brands", catalog)
        report = cross_brand_evaluate(
            sessions, space, mapping, catalog, mode=args.mode, ks=ks,
            metadata=metadata, pool=args.pool)
        key = next(iter(report.rows))
        n_events = report.rows[key]["n_events"]
        skipped = report.metadata["skipped_events"]
        if skipped > args.missing_threshold * (skipped + n_events):
            print(f"error: {skipped} of {skipped + n_events} queries lack "
                  f"embeddings (threshold {args.missing_threshold})",
                  file=sys.stderr)
            return 1
    else:
        try:
            report = evaluate_sessions(sessions, space, catalog, mode=args.mode,
                                       ks=ks, metadata=metadata, pool=args.pool)
        except DataError as exc:  # a query hotel the file lacks
            raise DataError(f"{args.embeddings}: {exc}") from None
    write_metrics(report, args.out)
    setting = "cross_brand" if args.cross_brand else "in_brand"
    for k in ks:
        cell = report.rows[(k, args.mode, setting)]
        print(f"{setting} {args.mode} k={k}: hits={cell['hits']:.4f} "
              f"mrr={cell['mrr']:.4f} (n={cell['n_events']})")
    return 0


def cmd_repro(args) -> int:
    result = repro.run_repro(args.out_dir, seed=args.seed, quick=args.quick)
    for row in result.report_rows:
        print(json.dumps(row, sort_keys=True))
    if result.violations:
        for v in result.violations:
            print(f"ORDERING VIOLATION: {v}", file=sys.stderr)
        return 3
    print("all ordering assertions passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="brandalign",
        description="Train, align, and evaluate cross-brand session embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic two-brand world")
    p.add_argument("--out-dir", default="world")
    _add_config_flags(p, synth.WorldConfig, GEN_FLAGS)
    world = synth.WorldConfig()
    p.add_argument("--min-len", type=int, default=world.session_length[0])
    p.add_argument("--max-len", type=int, default=world.session_length[1])
    p.add_argument("--brands", nargs=2, default=world.brands)
    p.set_defaults(func=cmd_gen)

    # the input flags train and eval share; --seed also drives the split
    inputs = _Parser(add_help=False)
    for flag in ("--catalog", "--sessions", "--brand"):
        inputs.add_argument(flag, required=True)
    inputs.add_argument("--ratios", default="8:1:1")
    inputs.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("train", parents=[inputs],
                       help="train one brand's embedding model")
    p.add_argument("--out", required=True, help="embedding file to write")
    p.add_argument("--source-embeddings", help="frozen source space (regularized run)")
    p.add_argument("--mapping", help="source->target hotel mapping (tsv)")
    p.add_argument("--curve-file", help="write learning-curve checkpoints here")
    _add_config_flags(p, model.TrainConfig, TRAIN_FLAGS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("align", help="fit a projection between two spaces")
    p.add_argument("--source-emb", required=True)
    p.add_argument("--target-emb", required=True)
    p.add_argument("--mapping", required=True)
    p.add_argument("--method", choices=("lp", "procrustes"), default="lp")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("eval", parents=[inputs], help="hits@k / MRR@k evaluation")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", default="metrics.jsonl")
    p.add_argument("--mode", choices=("cosine", "model"), default="cosine")
    p.add_argument("--k", type=int, action="append")
    p.add_argument("--pool", choices=("market", "global"), default="market")
    p.add_argument("--cross-brand", action="store_true")
    p.add_argument("--mapping")
    p.add_argument("--apply-projection")
    p.add_argument("--split", choices=("none", "train", "val", "test"),
                   default="none")
    p.add_argument("--missing-threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("repro", help="run the full reference experiment")
    p.add_argument("--out-dir", default="repro-out")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--quick", action="store_true",
                   help="small world, finishes in under a minute")
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv=None) -> int:
    saved = warnings.formatwarning  # a warning is one stderr line, like an error
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ValueError, OSError, model.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # a size past memory, such as gen --sessions 10**12
        print(f"error: {args.command}: out of memory", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = saved


if __name__ == "__main__":
    sys.exit(main())
