"""Command line interface: train, predict, evaluate, tokenize.

This is a thin shell over the library; every piece of behavior lives in the
corpus/preprocess/features/classifiers/evaluation/pipeline modules.

Exit codes: 0 success; 1 corpus, flag or training errors; 2 malformed command
line (argparse) or an unreadable model file; 3 when predict finished but some
input lines were not valid UTF-8 (those lines print ERR and are skipped).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .classifiers import KINDS
from .corpus import Corpus, CorpusError, load_corpus, stratified_kfold, Label
from .evaluation import reference_grid, format_table, run_grid, write_csv
from .pipeline import (
    REPRESENTATIONS,
    FittedPipeline,
    ModelFileError,
    PipelineConfig,
    _normalize_all,
    fit_segmentation,
)
from .preprocess import EntityRuleSet

__all__ = ["main", "run", "build_parser"]


# (field, flag, help) for each PipelineConfig field, by --help group. Defaults
# and types come from PipelineConfig(), choices from KINDS and REPRESENTATIONS.
_MODEL_FLAGS = (
    ("classifier", "--clf", "classifier kind"),
    ("representation", "--rep", "feature representation"),
    ("min_df", "--min-df", "drop terms seen in fewer than this many training messages"),
    ("length_feature", "--length-feature", "append the message length, in units of 160 characters, as one extra feature"),
    (
        "preprocess",
        "--preprocess",
        "entity tagging plus collocation segmentation (--no-preprocess: split raw text on whitespace)",
    ),
    ("seed", "--seed", "seed for every random choice"),
    ("alpha", "--alpha", "nb additive smoothing"),
    ("reg_lambda", "--lambda", "svm/lr L2 regularization strength"),
    ("epochs", "--epochs", "svm/lr passes over the data"),
    ("max_depth", "--max-depth", "dt depth cutoff"),
    ("k", "--k", "knn neighbor count"),
)
_PREPROCESSING_FLAGS = (
    ("discount", "--delta", "discount subtracted from each pair count in the collocation score"),
    ("colloc_threshold", "--colloc-threshold", "minimum discounted score for a pair to merge"),
    ("min_count", "--min-count", "drop pairs seen fewer than this many times"),
    ("passes", "--passes", "segmentation passes; more than one can join words of 3+ syllables"),
    ("nfc", "--nfc", "apply NFC normalization to message text before any other step"),
)
_CHOICES = {"classifier": KINDS, "representation": REPRESENTATIONS}


def _add_flags(group, rows) -> None:
    defaults = PipelineConfig()
    for name, flag, text in rows:
        default = getattr(defaults, name)
        if type(default) is bool:
            # --no-<flag> only where the default is on, so --nfc stays one flag
            kwargs = {"action": argparse.BooleanOptionalAction if default else "store_true"}
        else:
            kwargs = {"type": type(default), "choices": _CHOICES.get(name)}
        arg = group.add_argument(flag, dest=name, default=default, help=text, **kwargs)
        if "%(default)" not in arg.help:  # BooleanOptionalAction adds it on Python 3.10
            arg.help += " (default: %(default)s)"


def _add_config_flags(parser: argparse.ArgumentParser, with_classifier: bool = True) -> None:
    if with_classifier:
        _add_flags(parser.add_argument_group("model"), _MODEL_FLAGS)
    prep = parser.add_argument_group("preprocessing")
    _add_flags(prep, _PREPROCESSING_FLAGS)
    prep.add_argument("--rules", metavar="PATH", help="entity rules file overriding the built-in one")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The config the flags describe; fields without a flag keep their default."""
    return PipelineConfig(
        **{f.name: getattr(args, f.name) for f in fields(PipelineConfig) if hasattr(args, f.name)}
    )


def _inputs(args: argparse.Namespace) -> tuple[PipelineConfig, EntityRuleSet | None, Corpus]:
    """The checked config, then the rules and the corpus the flags name."""
    config = _config_from_args(args)
    config.validate()
    rules = EntityRuleSet.from_file(args.rules) if args.rules is not None else None
    return config, rules, load_corpus(args.corpus)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vnspam",
        description="Content-based spam filter for Vietnamese SMS.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model on a labeled corpus and write a model file")
    p_train.add_argument("corpus", help="TSV corpus: <label><TAB><text>, labels spam/ham")
    p_train.add_argument("-o", "--out", default="model.json", help="model file to write (default: model.json)")
    _add_config_flags(p_train)

    p_predict = sub.add_parser(
        "predict", help="read one message per line on stdin, write <label><TAB><score> per line"
    )
    p_predict.add_argument("model", help="model file written by train")

    p_eval = sub.add_parser("evaluate", help="stratified k-fold evaluation of one or more configurations")
    p_eval.add_argument("corpus", help="TSV corpus to evaluate on")
    p_eval.add_argument("--folds", type=int, default=5, help="number of folds (default: 5)")
    p_eval.add_argument(
        "--grid",
        choices=["paper"],
        help="run the built-in comparison grid instead of a single configuration",
    )
    p_eval.add_argument("--csv", metavar="PATH", help="also write per-fold rates as CSV")
    p_eval.add_argument("--jobs", type=int, default=1, help="worker processes across configurations (default: 1)")
    _add_config_flags(p_eval)

    p_tok = sub.add_parser("tokenize", help="print each message's normalized token stream")
    p_tok.add_argument("corpus", help="TSV corpus to tokenize")
    p_tok.add_argument(
        "--show-merges",
        action="store_true",
        help="list the merged collocations with their scores instead of the token streams",
    )
    _add_config_flags(p_tok, with_classifier=False)

    return parser


def cmd_train(args: argparse.Namespace) -> int:
    if not args.out:  # "" names no file; refuse it before the fit, not after
        raise ValueError("-o/--out needs a file path, got ''")
    config, rules, corpus = _inputs(args)
    fitted = FittedPipeline.fit(corpus.messages, config, rules)
    fitted.save(args.out)

    counts = corpus.counts
    print(
        f"corpus: {len(corpus)} messages "
        f"({counts[Label.SPAM]} spam, {counts[Label.LEGITIMATE]} ham)"
    )
    if config.classifier == "baseline":
        print("model: rule baseline (no trainable state)")
    else:
        stats = fitted.stats
        print(
            f"vocabulary: {stats.raw_terms} raw terms -> "
            f"{stats.preprocessed_terms} after preprocessing -> "
            f"{stats.selected_terms} after df >= {config.min_df}"
        )
        print(
            f"model: {config.classifier} on {config.representation} "
            f"(preprocessing {'on' if config.preprocess else 'off'}, "
            f"length feature {'on' if config.length_feature else 'off'}, "
            f"seed {config.seed})"
        )
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace, stdin=None) -> int:
    fitted = FittedPipeline.load(args.model)
    stream = stdin if stdin is not None else sys.stdin.buffer
    had_bad_lines = False
    out = sys.stdout
    for raw in stream:
        if raw.endswith(b"\n"):
            raw = raw[:-1]
        if raw.endswith(b"\r"):
            raw = raw[:-1]
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            out.write("ERR\n")
            had_bad_lines = True
            continue
        pred = fitted.predict_text(text)
        out.write(f"{pred.label.token}\t{pred.score!r}\n")
    out.flush()
    return 3 if had_bad_lines else 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.folds < 2:
        raise ValueError(f"--folds must be at least 2, got {args.folds}")
    if args.csv == "":
        raise ValueError("--csv needs a file path, got ''")
    base, rules, corpus = _inputs(args)
    folds = stratified_kfold(corpus, args.folds, seed=args.seed)
    configs = reference_grid(base) if args.grid == "paper" else [base]
    reports = run_grid(corpus, folds, configs, rules, jobs=args.jobs)
    sys.stdout.write(format_table(reports))
    if args.csv is not None:
        write_csv(reports, args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_tokenize(args: argparse.Namespace) -> int:
    config, rules, corpus = _inputs(args)
    streams = [n.tokens for n in _normalize_all(corpus.messages, config, rules)]
    models, streams = fit_segmentation(streams, config)
    if args.show_merges:
        for cm in models:
            for (a, b), score in cm.merges_by_score():
                print(f"{a} {b}\t{score!r}")
    else:
        for stream in streams:
            print(" ".join(stream))
    return 0


def main(argv=None, stdin=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command == "predict":
            return cmd_predict(args, stdin=stdin)
        if args.command == "evaluate":
            return cmd_evaluate(args)
        return cmd_tokenize(args)
    except ModelFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head): die quietly, and keep the
        # interpreter's exit-time stdout flush from failing a second time
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError, AttributeError):
            pass
        return 1
    except (CorpusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
