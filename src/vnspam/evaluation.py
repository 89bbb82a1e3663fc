"""Confusion rates and the stratified k-fold evaluation harness."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import astuple, dataclass, replace
from functools import partial
from pathlib import Path

from .classifiers import _running_sum, epoch_orders, predict, rule_baseline
from .corpus import Corpus, FoldAssignment, Label, _require_labels
from .pipeline import PipelineConfig, _fit_rows, _nfc, _normalize_all
from .preprocess import EntityRuleSet

__all__ = [
    "ConfusionCounts",
    "Rates",
    "FoldOutcome",
    "EvalReport",
    "rates",
    "confusion",
    "cross_validate",
    "evaluate_baseline",
    "run_grid",
    "reference_grid",
    "format_table",
    "write_csv",
]


@dataclass(frozen=True)
class ConfusionCounts:
    """Gold class sizes plus the two error counts of a binary run."""

    spam_total: int
    legit_total: int
    spam_as_legit: int  # missed spam
    legit_as_spam: int  # false alarms

    def __post_init__(self):
        if self.spam_total < 0 or self.legit_total < 0:
            raise ValueError("class totals must be non-negative")
        if not 0 <= self.spam_as_legit <= self.spam_total:
            raise ValueError(
                f"spam_as_legit={self.spam_as_legit} out of range for "
                f"spam_total={self.spam_total}"
            )
        if not 0 <= self.legit_as_spam <= self.legit_total:
            raise ValueError(
                f"legit_as_spam={self.legit_as_spam} out of range for "
                f"legit_total={self.legit_total}"
            )

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.spam_total + other.spam_total,
            self.legit_total + other.legit_total,
            self.spam_as_legit + other.spam_as_legit,
            self.legit_as_spam + other.legit_as_spam,
        )


@dataclass(frozen=True)
class Rates:
    tpr: float
    tnr: float
    fpr: float
    fnr: float


def rates(counts: ConfusionCounts) -> Rates:
    """Error rates: fpr over legitimate messages, fnr over spam.

    Both classes must be non-empty; an empty class is an error, never a NaN.
    """
    if counts.spam_total < 1:
        raise ValueError("rates are undefined without spam messages")
    if counts.legit_total < 1:
        raise ValueError("rates are undefined without legitimate messages")
    fpr = counts.legit_as_spam / counts.legit_total
    fnr = counts.spam_as_legit / counts.spam_total
    return Rates(tpr=1.0 - fnr, tnr=1.0 - fpr, fpr=fpr, fnr=fnr)


def confusion(gold_labels, predicted_labels) -> ConfusionCounts:
    gold = list(gold_labels)
    predicted = list(predicted_labels)
    if len(gold) != len(predicted):
        raise ValueError(f"{len(gold)} gold labels but {len(predicted)} predictions")
    spam_total = legit_total = spam_as_legit = legit_as_spam = 0
    for i, (g, p) in enumerate(zip(gold, predicted)):
        if g is Label.SPAM:
            spam_total += 1
            if p is Label.LEGITIMATE:
                spam_as_legit += 1
        elif g is Label.LEGITIMATE:
            legit_total += 1
            if p is Label.SPAM:
                legit_as_spam += 1
        else:
            raise ValueError(f"gold label {i} is {g!r}, not a Label")
    return ConfusionCounts(spam_total, legit_total, spam_as_legit, legit_as_spam)


@dataclass(frozen=True)
class FoldOutcome:
    fold: str  # "0".."k-1", or "all" for a whole-corpus run
    counts: ConfusionCounts
    rates: Rates


@dataclass(frozen=True)
class EvalReport:
    """Per-fold outcomes plus their macro average and the pooled counts."""

    config_name: str
    per_fold: tuple[FoldOutcome, ...]
    averaged: Rates
    pooled_counts: ConfusionCounts
    pooled: Rates


def _average(outcomes) -> Rates:
    n = len(outcomes)
    return Rates(
        tpr=_running_sum(o.rates.tpr for o in outcomes) / n,
        tnr=_running_sum(o.rates.tnr for o in outcomes) / n,
        fpr=_running_sum(o.rates.fpr for o in outcomes) / n,
        fnr=_running_sum(o.rates.fnr for o in outcomes) / n,
    )


def _report(config_name: str, outcomes: list[FoldOutcome]) -> EvalReport:
    pooled_counts = outcomes[0].counts
    for o in outcomes[1:]:
        pooled_counts = pooled_counts + o.counts
    return EvalReport(
        config_name=config_name,
        per_fold=tuple(outcomes),
        averaged=_average(outcomes),
        pooled_counts=pooled_counts,
        pooled=rates(pooled_counts),
    )


def cross_validate(
    corpus: Corpus,
    folds: FoldAssignment,
    config: PipelineConfig | None = None,
    rules: EntityRuleSet | None = None,
    plan: _Plan | None = None,
) -> EvalReport:
    """Fit on k-1 folds and score the held-out fold, for every fold.

    All fitted state (collocations, vocabulary, classifier) comes from the
    training folds only. Every held-out fold must contain both classes so its
    rates are defined; all are checked before the first fit. Folds are fitted
    and scored by the stages of ``FittedPipeline.fit`` and ``predict_text``.
    Each message is normalized once, and each segment fit with its segmented
    streams, vocabulary and svm/lr visiting order is built once for all the
    folds that read it. ``plan`` may carry the fold split and these when the
    caller shares them across configurations, as ``run_grid`` does. The rule
    baseline has nothing to fit: each message is scored once.
    """
    config = config or PipelineConfig()
    config.validate()
    folds.validate()
    plan = plan or _Plan(corpus, folds, [] if config.classifier == "baseline" else [config])
    if config.classifier == "baseline":  # the rule reads only the (NFC) text
        scored = [rule_baseline(_nfc(m.text, config)).label for m in corpus.messages]
    else:
        rows = plan.get(_normalize_key(config), lambda: _normalize_all(corpus.messages, config, rules))

    outcomes = []
    for f, (test, training, gold, labels) in enumerate(plan.folds):
        if config.classifier == "baseline":
            predicted = [scored[i] for i in test]
        else:
            predicted = _fit_fold(f, training, labels, test, rows, config, rules, plan)
        counts = confusion(gold, predicted)
        outcomes.append(FoldOutcome(fold=str(f), counts=counts, rates=rates(counts)))
    return _report(config.name, outcomes)


def _fit_fold(fold, training, labels, test, normalized, config, rules, plan) -> list[Label]:
    """Fit on the ``training`` rows and label the ``test`` rows. Not inlined
    into the fold loop: a loop variable would keep each fold's model alive
    while the next fold fits, which raises the grid's peak memory."""
    rows = [normalized[i] for i in training]
    fitted = _fit_rows(rows, labels, config, rules, plan.stages(config, fold, len(training)))
    return [predict(fitted.model, fitted._vector(normalized[i])).label for i in test]


def _normalize_key(config: PipelineConfig) -> tuple:
    return ("normalize", config.preprocess, config.nfc)


def _stage_keys(config: PipelineConfig, fold: int, n_train: int) -> dict:
    """The ``{stage: key}`` of one fold fit: each key holds the fold and every
    config field its stage reads. A stage with nothing to share has key None."""
    c = config
    fit = (fold, c.preprocess, c.nfc, c.discount, c.min_count, c.colloc_threshold, c.passes)
    return {
        "segment": ("segment", *fit) if c.preprocess else None,
        "vocabulary": ("vocabulary", *fit, c.min_df),
        "orders": ("orders", c.seed, n_train, c.epochs) if c.classifier in ("svm", "lr") else None,
    }


class _Plan:
    """One run's fold split, and the stage outputs its (config, fold) fits share.

    Before any fit it checks the folds against the corpus, splits it into
    ``folds`` and counts the readers of each key. ``get`` builds an entry on
    its first read, keeps it while readers remain and drops it after the last
    one, so an entry with one reader is never kept. Training data cannot leak
    across folds: every entry fitted on training rows has the fold in its key.
    """

    def __init__(self, corpus: Corpus, folds: FoldAssignment, configs):
        _require_labels(corpus, "evaluate")
        if set(folds.fold_of) != {m.id for m in corpus.messages}:
            raise ValueError("fold assignment does not cover exactly this corpus")
        if folds.k < 2:
            raise ValueError("need at least two folds")
        self.folds = []  # per fold: held-out and training row indices, and their labels
        for f in range(folds.k):
            test, training = [], []
            for i, m in enumerate(corpus.messages):
                (test if folds.fold_of[m.id] == f else training).append(i)
            gold = [corpus.messages[i].label for i in test]
            if Label.SPAM not in gold or Label.LEGITIMATE not in gold:
                raise ValueError(f"fold {f} does not contain both classes")
            self.folds.append((test, training, gold, [corpus.messages[i].label for i in training]))
        self.readers: Counter = Counter()
        self.kept: dict = {}
        for cfg in configs:
            self.readers[_normalize_key(cfg)] += 1
            for f, (_, training, _, _) in enumerate(self.folds):
                keys = _stage_keys(cfg, f, len(training)).values()
                self.readers.update(k for k in keys if k is not None)

    def get(self, key, build):
        left = self.readers.pop(key, 1) - 1
        value = self.kept.pop(key) if key in self.kept else build()
        if left > 0:
            self.readers[key] = left
            self.kept[key] = value
        return value

    def stages(self, config: PipelineConfig, fold: int, n_train: int):
        """The ``plan`` of ``pipeline._fit_rows`` for one fold fit; it also
        materializes the visiting orders, which only sharing makes worth it."""
        keys = _stage_keys(config, fold, n_train)

        def plan(stage, build):
            key = keys[stage]
            if key is not None and stage == "orders":
                build = lambda: list(map(tuple, epoch_orders(*key[1:])))  # noqa: E731
            return build() if key is None else self.get(key, build)

        return plan


def evaluate_baseline(corpus: Corpus, config: PipelineConfig | None = None) -> EvalReport:
    """Score the untrained rule on the whole corpus (it has nothing to fit)."""
    config = config or PipelineConfig(classifier="baseline")
    if config.classifier != "baseline":
        raise ValueError("evaluate_baseline only handles the baseline classifier")
    _require_labels(corpus, "evaluate")
    config.validate()
    gold = [m.label for m in corpus.messages]
    if Label.SPAM not in gold or Label.LEGITIMATE not in gold:
        raise ValueError("corpus does not contain both classes")
    predicted = [rule_baseline(_nfc(m.text, config)).label for m in corpus.messages]
    counts = confusion(gold, predicted)
    outcome = FoldOutcome(fold="all", counts=counts, rates=rates(counts))
    return _report(config.name, [outcome])


def run_grid(
    corpus: Corpus,
    folds: FoldAssignment,
    configs,
    rules: EntityRuleSet | None = None,
    jobs: int = 1,
) -> list[EvalReport]:
    """Evaluate each configuration; baseline entries run whole-corpus.

    One plan over the trained configurations builds each normalize pass
    (NFC, entity tagging), each fold's segment fit and vocabulary, and each
    svm/lr visiting order once for every configuration that reads it, and
    drops it after the last one. With jobs > 1 the configurations are split
    into at most ``jobs`` contiguous chunks, and each worker process runs this
    grid on one chunk. Results keep the grid order either way, and an error
    is the first failing configuration's.
    """
    configs = list(configs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    folds.validate()
    for cfg in configs:  # a bad config fails the grid before any fit or pool
        cfg.validate()
    n = min(jobs, len(configs))
    if n > 1:
        from concurrent.futures import ProcessPoolExecutor  # not at the top: loads multiprocessing
        bounds = [len(configs) * i // n for i in range(n + 1)]
        chunks = [configs[a:b] for a, b in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=n) as pool:
            done = pool.map(partial(run_grid, corpus, folds, rules=rules), chunks)
            return [report for chunk in done for report in chunk]
    plan = _Plan(corpus, folds, [cfg for cfg in configs if cfg.classifier != "baseline"])
    return [
        evaluate_baseline(corpus, cfg) if cfg.classifier == "baseline"
        else cross_validate(corpus, folds, cfg, rules, plan)
        for cfg in configs
    ]


def reference_grid(base: PipelineConfig | None = None) -> list[PipelineConfig]:
    """The built-in comparison grid.

    One entry per question: the rule baseline, preprocessing off vs on, bag
    of words vs tf-idf, each of the five classifiers, and the final tuned
    configuration (document-frequency cutoff plus length feature).
    """
    base = base or PipelineConfig()
    plain = replace(
        base, representation="bow", preprocess=True, min_df=1, length_feature=False
    )
    return [
        replace(plain, classifier="baseline"),
        replace(plain, classifier="svm", preprocess=False),
        replace(plain, classifier="svm"),
        replace(plain, classifier="svm", representation="tfidf"),
        replace(plain, classifier="nb"),
        replace(plain, classifier="lr"),
        replace(plain, classifier="dt"),
        replace(plain, classifier="knn"),
        replace(plain, classifier="svm", min_df=3, length_feature=True),
    ]


def format_table(reports) -> str:
    """Aligned text table of fold-averaged rates, in percent."""
    reports = list(reports)
    if not reports:
        return "(no configurations)\n"
    header = ("config", "tpr", "tnr", "fpr", "fnr", "folds")
    rows = [header]
    for r in reports:
        percents = [f"{100 * x:.2f}%" for x in astuple(r.averaged)]
        rows.append((r.config_name, *percents, str(len(r.per_fold))))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(header))]
        lines.append("  ".join(cells).rstrip())
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def write_csv(reports, path: str | Path) -> None:
    """Machine-readable rates: one row per fold plus one averaged row each."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "fold", "tpr", "tnr", "fpr", "fnr"])
        for r in reports:
            for fold, rt in [(o.fold, o.rates) for o in r.per_fold] + [("avg", r.averaged)]:
                writer.writerow([r.config_name, fold] + [repr(x) for x in astuple(rt)])
