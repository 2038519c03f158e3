"""Command-line interface.

Every subcommand is a reproducible experiment step: identical flags and
seeds produce identical outputs, and runs that write files leave a
``manifest.json`` (resolved configuration, seeds, package version) beside
them.  Exit codes: 0 success, 1 usage error, 2 data/format error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    PRUNE_THRESHOLD,
    compare_representations,
    low_correlation_features,
    pearson_matrix,
)
from .dataset import (
    CONFIDENCE_THRESHOLD,
    TEST_FRACTION,
    CollectionProtocol,
    HumanFrame,
    collect,
    ingest_openface_csv,
    load_dataset,
    parse_openface_lines,
    save_dataset,
    split,
)
from .default_head import load_default_head
from .errors import HeadLearnError
from .features import FEATURE_KINDS
from .learn import DEFAULT_EPOCHS
from .retarget import (
    EMOTIONS,
    FILL_MODES,
    REGRESSORS,
    calibrate_human,
    evaluate_pipeline,
    express,
    facs_target,
    fit_pipeline,
    load_model,
    retarget_frame,
    save_model,
    stream,
)
from .simulator import CHANNELS, HeadConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with status 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_manifest(out_dir: Path, args: argparse.Namespace, extra: dict | None = None) -> None:
    resolved = {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and not k.startswith("_")
    }
    manifest = {
        "tool": "headlearn",
        "version": __version__,
        "argv": sys.argv[1:],
        "resolved": resolved,
    }
    if extra:
        manifest.update(extra)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _command_line(cmd) -> str:
    return ",".join(str(cmd.values[ch]) for ch in CHANNELS)


# -- subcommands --------------------------------------------------------------


def cmd_gen_head(args) -> int:
    from .default_head import build_default_head

    out = Path(args.out)
    build_default_head().save(out)
    print(f"wrote default head config to {out}")
    return EXIT_OK


def cmd_collect(args) -> int:
    head = HeadConfig.load(args.head) if args.head else load_default_head()
    protocol = CollectionProtocol(
        n_target_frames=args.frames,
        neutral_fraction=args.neutral,
        interp_steps=args.interp,
        au_window=args.window,
        rng_seed=args.seed,
    )
    d = collect(head, protocol)
    out = Path(args.out)
    save_dataset(d, out)
    _write_manifest(out, args, {"head_config_sha256": head.sha256()})
    counts = d.meta["recorded_frames"]
    print(
        f"collected {len(d)} target rows "
        f"({counts['neutral']} neutral / {counts['target']} target / "
        f"{counts['interp']} interp frames recorded) -> {out}"
    )
    return EXIT_OK


def cmd_fit(args) -> int:
    d = load_dataset(args.dataset)
    train, test = split(d, args.test_fraction, args.seed)
    model = fit_pipeline(
        train,
        args.kind,
        regressor=args.regressor,
        ridge_lambda=args.ridge_lambda,
        pca_k=args.pca_k,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.json")
    per_channel = evaluate_pipeline(model, test)
    metrics = {
        "test_rmse_per_channel": {str(ch): float(v) for ch, v in zip(CHANNELS, per_channel)},
        "test_rmse_mean": float(np.mean(per_channel)),
        "pca_k": model.pca.k,
        "pruned_aus": list(model.pruned_aus or []),
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, args)
    print(f"fit {args.kind}+{args.regressor}: mean test RMSE {metrics['test_rmse_mean']:.3f}")
    print(f"model -> {out / 'model.json'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    d = load_dataset(args.dataset)
    model = load_model(args.model)
    if args.test_fraction:
        _, part = split(d, args.test_fraction, args.seed)
    else:
        part = d
    per_channel = evaluate_pipeline(model, part)
    for ch, v in zip(CHANNELS, per_channel):
        print(f"actuator {ch}: RMSE {v:.3f}")
    print(f"mean: {float(np.mean(per_channel)):.3f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        metrics = {
            "rmse_per_channel": {str(ch): float(v) for ch, v in zip(CHANNELS, per_channel)},
            "rmse_mean": float(np.mean(per_channel)),
        }
        (out / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
        _write_manifest(out, args)
    return EXIT_OK


def cmd_compare(args) -> int:
    d = load_dataset(args.dataset)
    report = compare_representations(
        d, args.seed, test_fraction=args.test_fraction, epochs=args.epochs
    )
    print(report.to_text())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report.to_csv(out / "comparison.csv")
        (out / "comparison.txt").write_text(report.to_text() + "\n")
        _write_manifest(out, args, {"distance_pca_dim": report.distance_pca_dim})
    return EXIT_OK


def cmd_correlate(args) -> int:
    d = load_dataset(args.dataset)
    corr = pearson_matrix(d.commands, d.aus)
    pruned = low_correlation_features(corr, args.threshold)
    print(corr.to_text())
    print(f"\nAUs under |r| < {args.threshold}: {pruned or 'none'}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        corr.to_csv(out / "correlations.csv")
        (out / "pruned_aus.json").write_text(json.dumps(pruned) + "\n")
        _write_manifest(out, args)
    return EXIT_OK


def cmd_facs(args) -> int:
    model = load_model(args.model)
    if model.au_stats_full is None:
        raise HeadLearnError("model carries no per-AU training stats; fit on AU features")
    target = facs_target(args.emotion, model.au_stats_full, args.fill)
    command = express(model, target)
    print(_command_line(command))
    return EXIT_OK


def cmd_calibrate_human(args) -> int:
    model = load_model(args.model)
    frames = ingest_openface_csv(args.csv, confidence_threshold=args.threshold)
    if not frames:
        raise HeadLearnError(f"no confident frames in {args.csv}")
    model = calibrate_human(model, frames)
    save_model(model, args.out)
    print(f"calibrated on {len(frames)} frames -> {args.out}")
    return EXIT_OK


def cmd_retarget(args) -> int:
    model = load_model(args.model)
    frames = ingest_openface_csv(args.csv, confidence_threshold=args.threshold)
    rows = retarget_frame(model, HumanFrame.stack(frames)).tolist() if frames else []
    lines = [f"{f.timestamp}," + ",".join(map(str, row)) for f, row in zip(frames, rows)]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "commands.csv").write_text(
            "timestamp," + ",".join(f"a{ch}" for ch in CHANNELS) + "\n" + text
        )
        _write_manifest(out, args)
        print(f"retargeted {len(lines)} frames -> {out / 'commands.csv'}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_stream(args) -> int:
    model = load_model(args.model)
    source = open(args.csv, newline="") if args.csv else contextlib.nullcontext(sys.stdin)
    with source as fh:
        # rows are parsed as they arrive; low-confidence rows stay in the
        # stream so hold-last can fill them
        frames, stamped = itertools.tee(
            parse_openface_lines(fh, confidence_threshold=0.0, source=args.csv or "<stdin>")
        )
        commands = stream(
            model, frames, smoothing_window=args.window, confidence_threshold=args.threshold
        )
        for frame, command in zip(stamped, commands):
            sys.stdout.write(f"{frame.timestamp}," + _command_line(command) + "\n")
            sys.stdout.flush()
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="headlearn", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"headlearn {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    sp = sub.add_parser("gen-head", help="write the default head config as JSON")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen_head)

    sp = sub.add_parser("collect", help="record a simulated dataset")
    sp.add_argument("--head", help="head config JSON (default: built-in)")
    sp.add_argument("--frames", type=int, default=500)
    sp.add_argument("--neutral", type=float, default=0.75)
    sp.add_argument("--interp", type=int, default=4)
    sp.add_argument("--window", type=int, default=7)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_collect)

    sp = sub.add_parser("fit", help="train a retargeting pipeline")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--kind", choices=FEATURE_KINDS, required=True)
    sp.add_argument("--regressor", choices=REGRESSORS, default="ols")
    sp.add_argument("--ridge-lambda", type=float, default=1.0)
    sp.add_argument("--pca-k", type=int, help="override the per-kind default")
    sp.add_argument("--test-fraction", type=float, default=TEST_FRACTION)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("evaluate", help="evaluate a model on a dataset")
    sp.add_argument("--model", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--test-fraction", type=float, default=TEST_FRACTION,
                    help="evaluate on this seeded test split; 0 evaluates all rows")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("compare", help="four-way representation comparison table")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--test-fraction", type=float, default=TEST_FRACTION)
    sp.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("correlate", help="actuator-by-AU Pearson correlation matrix")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--threshold", type=float, default=PRUNE_THRESHOLD)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_correlate)

    sp = sub.add_parser("facs", help="emotion expression command from FACS AU targets")
    sp.add_argument("emotion", choices=sorted(EMOTIONS))
    sp.add_argument("--model", required=True)
    sp.add_argument("--fill", choices=FILL_MODES, default="min")
    sp.set_defaults(func=cmd_facs)

    sp = sub.add_parser("calibrate-human", help="fit human MinMax stats from a recording")
    sp.add_argument("--model", required=True)
    sp.add_argument("--csv", required=True, help="OpenFace 2.0 CSV of the actor")
    sp.add_argument("--threshold", type=float, default=CONFIDENCE_THRESHOLD)
    sp.add_argument("--out", required=True, help="path for the calibrated model JSON")
    sp.set_defaults(func=cmd_calibrate_human)

    sp = sub.add_parser("retarget", help="batch-map an OpenFace CSV onto commands")
    sp.add_argument("--model", required=True)
    sp.add_argument("--csv", required=True)
    sp.add_argument("--threshold", type=float, default=CONFIDENCE_THRESHOLD)
    sp.add_argument("--out", help="output directory (default: print to stdout)")
    sp.set_defaults(func=cmd_retarget)

    sp = sub.add_parser("stream", help="stream commands for OpenFace CSV rows")
    sp.add_argument("--model", required=True)
    sp.add_argument("--csv", help="input CSV (default: stdin)")
    sp.add_argument("--window", type=int, default=1, help="trailing smoothing window")
    sp.add_argument("--threshold", type=float, default=CONFIDENCE_THRESHOLD)
    sp.set_defaults(func=cmd_stream)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (HeadLearnError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"headlearn: error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
