"""Command-line interface.

Every subcommand is a reproducible experiment step: identical flags and
seeds produce identical outputs, and runs that write files leave a
``manifest.json`` (resolved configuration, seeds, package version) beside
them.  Exit codes: 0 success, 1 usage error, 2 data/format error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
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
    open_utf8,
    parse_openface_lines,
    save_dataset,
    split,
)
from .default_head import load_default_head
from .errors import HeadLearnError, OpenFaceFormatError
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
    """argparse variant whose usage failures exit with status 1, and which
    reads ``-inf``, ``-infinity`` and ``-nan`` (any case) as values, as it
    reads ``-1``: argparse's own negative-number pattern takes digits only,
    and reads ``--threshold -inf`` as an option without its value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            rf"{self._negative_number_matcher.pattern}|(?i:^-(?:inf|infinity|nan)$)"
        )

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_out(args: argparse.Namespace, files: dict, extra: dict | None = None) -> Path:
    """Make the ``--out`` directory and write ``files`` into it (name -> text,
    or -> a saver called with ``out / name``; "." is the directory itself),
    then ``manifest.json``: the argv ``main`` parsed, resolved flags and
    ``extra``."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if callable(content):
            content(out / name)
        else:
            (out / name).write_text(content)
    resolved = {k: v for k, v in vars(args).items() if k not in ("func", "argv")}
    manifest = {"tool": "headlearn", "version": __version__, "argv": args.argv,
                "resolved": resolved, **(extra or {})}
    (out / "manifest.json").write_text(_json(manifest))
    return out


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
    out = _write_out(
        args, {".": functools.partial(save_dataset, d)}, {"head_config_sha256": head.sha256()}
    )
    counts = d.record.recorded_frames
    print(
        f"collected {len(d)} target rows "
        f"({counts.neutral} neutral / {counts.target} target / "
        f"{counts.interp} interp frames recorded) -> {out}"
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
    per_channel = evaluate_pipeline(model, test)
    metrics = {
        "test_rmse_per_channel": {str(ch): float(v) for ch, v in zip(CHANNELS, per_channel)},
        "test_rmse_mean": float(np.mean(per_channel)),
        "pca_k": model.pca.k,
        "pruned_aus": list(model.pruned_aus or []),
    }
    out = _write_out(
        args, {"model.json": functools.partial(save_model, model), "metrics.json": _json(metrics)}
    )
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
        metrics = {
            "rmse_per_channel": {str(ch): float(v) for ch, v in zip(CHANNELS, per_channel)},
            "rmse_mean": float(np.mean(per_channel)),
        }
        _write_out(args, {"metrics.json": _json(metrics)})
    return EXIT_OK


def cmd_compare(args) -> int:
    d = load_dataset(args.dataset)
    report = compare_representations(
        d, args.seed, test_fraction=args.test_fraction, epochs=args.epochs
    )
    print(report.to_text())
    if args.out:
        files = {"comparison.csv": report.to_csv_text(), "comparison.txt": report.to_text() + "\n"}
        _write_out(args, files, {"distance_pca_dim": report.distance_pca_dim})
    return EXIT_OK


def cmd_correlate(args) -> int:
    d = load_dataset(args.dataset)
    corr = pearson_matrix(d.commands, d.aus)
    pruned = low_correlation_features(corr, args.threshold)
    print(corr.to_text())
    print(f"\nAUs under |r| < {args.threshold}: {pruned or 'none'}")
    if args.out:
        _write_out(args, {
            "correlations.csv": corr.to_csv_text(), "pruned_aus.json": json.dumps(pruned) + "\n"
        })
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
        header = "timestamp," + ",".join(f"a{ch}" for ch in CHANNELS) + "\n"
        out = _write_out(args, {"commands.csv": header + text})
        print(f"retargeted {len(lines)} frames -> {out / 'commands.csv'}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_stream(args) -> int:
    model = load_model(args.model)
    source = (open_utf8(args.csv, OpenFaceFormatError) if args.csv
              else contextlib.nullcontext(sys.stdin))
    with source as fh:
        # rows are parsed as they arrive; every row stays in the stream, so
        # hold-last fills the low-confidence ones and each row gets a line
        frames, stamped = itertools.tee(
            parse_openface_lines(fh, confidence_threshold=-math.inf, source=args.csv or "<stdin>")
        )
        commands = stream(
            model, frames, smoothing_window=args.window, confidence_threshold=args.threshold
        )
        try:
            for frame, command in zip(stamped, commands):
                sys.stdout.write(f"{frame.timestamp}," + _command_line(command) + "\n")
                sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout (``stream ... | head``): end quietly,
            # with stdout on devnull for the interpreter's flush at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an int of ``low`` or more (numpy's generators take
    no negative seed; a window averages at least one frame; a recording
    holds at least one target and no negative count of interpolation steps;
    a PCA keeps at least one component, and an MLP trains at least one
    epoch)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _float_where(*checks):
    """An argparse type: a float for which each ``(ok, words)`` check holds
    in turn, the first that fails named by its ``words`` (a NaN threshold
    would keep or hold every row, a negative pruning threshold is no
    correlation size, a NaN or infinite ridge lambda gives NaN weights, a
    test split needs rows on both sides, and neutral frames cannot make up
    the whole recording)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        for ok, words in checks:
            if not ok(value):
                raise argparse.ArgumentTypeError(f"must be {words}, got {value}")
        return value

    return parse


_A_NUMBER = (lambda v: v == v, "a number")
_threshold = _float_where(_A_NUMBER)
_prune_threshold = _float_where(_A_NUMBER, (lambda v: v >= 0, ">= 0"))
_ridge_lambda = _float_where((lambda v: 0 <= v < math.inf, "finite and >= 0"))
_fraction = _float_where((lambda v: 0 < v < 1, "in (0, 1)"))
_fraction_or_zero = _float_where((lambda v: 0 <= v < 1, "in [0, 1)"))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="headlearn", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"headlearn {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    sp = sub.add_parser("gen-head", help="write the default head config as JSON")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen_head)

    sp = sub.add_parser("collect", help="record a simulated dataset")
    sp.add_argument("--head", help="head config JSON (default: built-in)")
    sp.add_argument("--frames", type=_int_at_least(1), default=500)
    sp.add_argument("--neutral", type=_fraction_or_zero, default=0.75)
    sp.add_argument("--interp", type=_int_at_least(0), default=4)
    sp.add_argument("--window", type=_int_at_least(1), default=7)
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_collect)

    sp = sub.add_parser("fit", help="train a retargeting pipeline")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--kind", choices=FEATURE_KINDS, required=True)
    sp.add_argument("--regressor", choices=REGRESSORS, default="ols")
    sp.add_argument("--ridge-lambda", type=_ridge_lambda, default=1.0)
    sp.add_argument("--pca-k", type=_int_at_least(1), help="override the per-kind default")
    sp.add_argument("--test-fraction", type=_fraction, default=TEST_FRACTION)
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("evaluate", help="evaluate a model on a dataset")
    sp.add_argument("--model", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--test-fraction", type=_fraction_or_zero, default=TEST_FRACTION,
                    help="evaluate on this seeded test split; 0 evaluates all rows")
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("compare", help="four-way representation comparison table")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--test-fraction", type=_fraction, default=TEST_FRACTION)
    sp.add_argument("--epochs", type=_int_at_least(1), default=DEFAULT_EPOCHS)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("correlate", help="actuator-by-AU Pearson correlation matrix")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--threshold", type=_prune_threshold, default=PRUNE_THRESHOLD)
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
    sp.add_argument("--threshold", type=_threshold, default=CONFIDENCE_THRESHOLD)
    sp.add_argument("--out", required=True, help="path for the calibrated model JSON")
    sp.set_defaults(func=cmd_calibrate_human)

    sp = sub.add_parser("retarget", help="batch-map an OpenFace CSV onto commands")
    sp.add_argument("--model", required=True)
    sp.add_argument("--csv", required=True)
    sp.add_argument("--threshold", type=_threshold, default=CONFIDENCE_THRESHOLD)
    sp.add_argument("--out", help="output directory (default: print to stdout)")
    sp.set_defaults(func=cmd_retarget)

    sp = sub.add_parser("stream", help="stream commands for OpenFace CSV rows")
    sp.add_argument("--model", required=True)
    sp.add_argument("--csv", help="input CSV (default: stdin)")
    sp.add_argument("--window", type=_int_at_least(1), default=1, help="trailing smoothing window")
    sp.add_argument("--threshold", type=_threshold, default=CONFIDENCE_THRESHOLD)
    sp.set_defaults(func=cmd_stream)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    args.argv = argv
    try:
        return args.func(args)
    except (HeadLearnError, ValueError, OSError) as e:
        print(f"headlearn: error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
