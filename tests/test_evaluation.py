"""Confusion accounting and the cross-validation harness."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vnspam import (
    ConfusionCounts,
    Corpus,
    FittedPipeline,
    FoldAssignment,
    Label,
    Message,
    PipelineConfig,
    Rates,
    confusion,
    cross_validate,
    evaluate_baseline,
    format_table,
    rates,
    reference_grid,
    run_grid,
    stratified_kfold,
    write_csv,
)
from vnspam.evaluation import FoldOutcome, _report
from vnspam.preprocess import EntityRule, EntityRuleSet

import oracles
from conftest import synth_corpus

FAST = PipelineConfig(
    classifier="svm", min_df=1, length_feature=False, epochs=5
)


def tiny_corpus():
    return Corpus(
        [
            Message(0, "[QC] khuyen mai", Label.SPAM),
            Message(1, "trung thuong lon", Label.SPAM),
            Message(2, "an com chua", Label.LEGITIMATE),
            Message(3, "mai gap nhe", Label.LEGITIMATE),
        ]
    )


# -- counts and rates ---------------------------------------------------------


def test_counts_validate_ranges():
    ConfusionCounts(3, 4, 3, 0)
    with pytest.raises(ValueError, match="non-negative"):
        ConfusionCounts(-1, 4, 0, 0)
    with pytest.raises(ValueError, match="spam_as_legit"):
        ConfusionCounts(3, 4, 4, 0)
    with pytest.raises(ValueError, match="legit_as_spam"):
        ConfusionCounts(3, 4, 0, 5)


def test_counts_add_componentwise():
    total = ConfusionCounts(3, 4, 1, 2) + ConfusionCounts(5, 6, 0, 3)
    assert total == ConfusionCounts(8, 10, 1, 5)


def test_rates_hand_case():
    r = rates(ConfusionCounts(10, 20, 1, 0))
    assert r == Rates(tpr=0.9, tnr=1.0, fpr=0.0, fnr=0.1)


def test_rates_match_exact_oracle():
    rng = random.Random(3)
    for _ in range(200):
        st = rng.randint(1, 500)
        lt = rng.randint(1, 500)
        counts = ConfusionCounts(st, lt, rng.randint(0, st), rng.randint(0, lt))
        got = rates(counts)
        tpr, tnr, fpr, fnr = oracles.exact_rates(
            counts.spam_total, counts.legit_total,
            counts.spam_as_legit, counts.legit_as_spam,
        )
        assert oracles.rel_close(got.fpr, float(fpr))
        assert oracles.rel_close(got.fnr, float(fnr))
        assert oracles.rel_close(got.tpr, float(tpr))
        assert oracles.rel_close(got.tnr, float(tnr))
        assert got.tpr + got.fnr == pytest.approx(1.0, abs=1e-12)
        assert got.tnr + got.fpr == pytest.approx(1.0, abs=1e-12)


def test_rates_invert_back_to_counts():
    rng = random.Random(4)
    for _ in range(200):
        st = rng.randint(1, 300)
        lt = rng.randint(1, 300)
        counts = ConfusionCounts(st, lt, rng.randint(0, st), rng.randint(0, lt))
        r = rates(counts)
        assert round(r.fnr * st) == counts.spam_as_legit
        assert round(r.fpr * lt) == counts.legit_as_spam


def test_rates_refuse_empty_classes():
    with pytest.raises(ValueError, match="without spam"):
        rates(ConfusionCounts(0, 5, 0, 0))
    with pytest.raises(ValueError, match="without legitimate"):
        rates(ConfusionCounts(5, 0, 0, 0))


def test_confusion_tallies_errors():
    gold = [Label.SPAM, Label.SPAM, Label.LEGITIMATE, Label.LEGITIMATE]
    pred = [Label.SPAM, Label.LEGITIMATE, Label.SPAM, Label.LEGITIMATE]
    assert confusion(gold, pred) == ConfusionCounts(2, 2, 1, 1)


def test_confusion_rejects_length_mismatch():
    with pytest.raises(ValueError, match="predictions"):
        confusion([Label.SPAM], [])


def test_unlabeled_gold_message_is_an_error_not_a_false_alarm():
    with pytest.raises(ValueError, match="gold label 1 is None, not a Label"):
        confusion([Label.SPAM, None], [Label.SPAM, Label.SPAM])
    labeled = synth_corpus(40, seed=3)
    corpus = Corpus([*labeled.messages, Message(999, "[QC] mua ngay", None)])
    named = r"cannot evaluate unlabeled messages \(ids \[999\]\)"
    with pytest.raises(ValueError, match=named):
        evaluate_baseline(corpus)
    folds = stratified_kfold(labeled, k=5)
    folds = FoldAssignment(k=5, fold_of={**folds.fold_of, 999: 0})
    with pytest.raises(ValueError, match=named):
        cross_validate(corpus, folds, PipelineConfig(classifier="baseline"))


@pytest.mark.parametrize("fold", [0, 4])
def test_unlabeled_messages_are_named_by_id_on_every_path(fold):
    # in fold 0 the message is only scored, in fold 4 it is also trained on
    labeled = synth_corpus(40, seed=3)
    corpus = Corpus([*labeled.messages, Message(999, "[QC] mua ngay", None)])
    folds = stratified_kfold(labeled, k=5)
    folds = FoldAssignment(k=5, fold_of={**folds.fold_of, 999: fold})
    named = r"unlabeled messages \(ids \[999\]\)"
    with pytest.raises(ValueError, match="cannot fold " + named):
        stratified_kfold(corpus, k=5)
    fast = PipelineConfig(min_df=1, epochs=2)
    with pytest.raises(ValueError, match="cannot evaluate " + named):
        cross_validate(corpus, folds, fast)
    for configs, jobs in [([fast], 1), (reference_grid(fast), 1), (reference_grid(fast)[1:], 2)]:
        with pytest.raises(ValueError, match="cannot evaluate " + named):
            run_grid(corpus, folds, configs, jobs=jobs)


# -- cross validation -----------------------------------------------------------


def test_cross_validate_is_deterministic(small_corpus):
    folds = stratified_kfold(small_corpus, k=3)
    a = cross_validate(small_corpus, folds, FAST)
    b = cross_validate(small_corpus, folds, FAST)
    assert a == b
    assert a.config_name == "svm-bow"
    assert len(a.per_fold) == 3
    assert [o.fold for o in a.per_fold] == ["0", "1", "2"]


def test_cross_validate_counts_cover_corpus(small_corpus):
    folds = stratified_kfold(small_corpus, k=3)
    report = cross_validate(small_corpus, folds, FAST)
    sizes = folds.fold_sizes()
    for o, size in zip(report.per_fold, sizes):
        assert o.counts.spam_total + o.counts.legit_total == size
    pooled = report.pooled_counts
    assert pooled.spam_total + pooled.legit_total == len(small_corpus.messages)


def test_cross_validate_average_brackets_folds(small_corpus):
    folds = stratified_kfold(small_corpus, k=3)
    report = cross_validate(small_corpus, folds, FAST)
    for field in ("tpr", "tnr", "fpr", "fnr"):
        vals = [getattr(o.rates, field) for o in report.per_fold]
        avg = getattr(report.averaged, field)
        assert min(vals) <= avg <= max(vals)
        assert avg == pytest.approx(sum(vals) / len(vals))


def test_cross_validate_rejects_foreign_folds(small_corpus):
    other = synth_corpus(40, seed=5)
    folds = stratified_kfold(other, k=2)
    with pytest.raises(ValueError, match="cover exactly"):
        cross_validate(small_corpus, folds, FAST)


def test_cross_validate_rejects_single_fold():
    corpus = tiny_corpus()
    folds = FoldAssignment(k=1, fold_of={m.id: 0 for m in corpus.messages})
    with pytest.raises(ValueError, match="two folds"):
        cross_validate(corpus, folds, FAST)


def test_cross_validate_rejects_one_class_fold():
    corpus = tiny_corpus()
    folds = FoldAssignment(k=2, fold_of={0: 0, 1: 0, 2: 1, 3: 1})
    with pytest.raises(ValueError, match="both classes"):
        cross_validate(corpus, folds, FAST)


@pytest.mark.parametrize("run", ["cross_validate", "grid", "baseline-grid"])
def test_every_fold_is_checked_before_any_fold_fits(run, monkeypatch):
    from vnspam import evaluation

    fits = []
    real = evaluation._fit_rows

    def counting(*args):
        fits.append(1)
        return real(*args)

    monkeypatch.setattr(evaluation, "_fit_rows", counting)
    corpus = synth_corpus(40, seed=3)
    ham = [m.id for m in corpus.messages if m.label is Label.LEGITIMATE]
    # fold 0 holds every spam message and half the ham, fold 1 ham only
    fold_of = {m.id: 0 if m.label is Label.SPAM else ham.index(m.id) % 2 for m in corpus.messages}
    folds = FoldAssignment(k=2, fold_of=fold_of)
    configs = reference_grid(PipelineConfig(epochs=2))
    with pytest.raises(ValueError, match="^fold 1 does not contain both classes$"):
        if run == "cross_validate":
            cross_validate(corpus, folds, FAST)
        else:
            run_grid(corpus, folds, configs[:1] if run == "baseline-grid" else configs)
    assert fits == []


@pytest.mark.parametrize("bad", [-1, 7, 1.0])
def test_fold_ids_edited_after_construction_are_rejected(bad):
    corpus = synth_corpus(60, seed=3)
    folds = stratified_kfold(corpus, k=5)
    folds.fold_of[0] = bad
    match = rf"message 0 has fold id {bad!r}, not an int in range\(5\)"
    with pytest.raises(ValueError, match=match):
        cross_validate(corpus, folds, FAST)
    with pytest.raises(ValueError, match=match):
        run_grid(corpus, folds, [FAST])


# -- baseline and grid ------------------------------------------------------------


def test_baseline_runs_on_whole_corpus():
    corpus = synth_corpus(120, seed=7, tag_spam=True)
    report = evaluate_baseline(corpus)
    assert report.config_name == "baseline"
    assert len(report.per_fold) == 1
    assert report.per_fold[0].fold == "all"
    assert report.averaged == report.per_fold[0].rates
    total = report.pooled_counts.spam_total + report.pooled_counts.legit_total
    assert total == 120


@pytest.mark.parametrize("nfc", [False, True])
def test_baseline_scores_without_a_pipeline_or_rules(nfc, monkeypatch):
    from dataclasses import replace

    corpus = _decomposed(synth_corpus(150, seed=5, tag_spam=True))
    cfg = replace(PipelineConfig(nfc=nfc), classifier="baseline")
    want = _unshared_baseline(corpus, cfg)
    assert want != _unshared_baseline(corpus, replace(cfg, nfc=not nfc))

    def fail(*args, **kwargs):
        raise AssertionError("the baseline rule needs no pipeline")

    monkeypatch.setattr(FittedPipeline, "fit", classmethod(fail))
    monkeypatch.setattr(FittedPipeline, "predict_text", fail)
    monkeypatch.setattr(EntityRuleSet, "default", classmethod(fail))
    assert evaluate_baseline(corpus, cfg) == want


def test_baseline_runner_rejects_bad_configs_and_empty_corpora(small_corpus):
    from dataclasses import replace

    with pytest.raises(ValueError, match="min-df"):
        evaluate_baseline(small_corpus, PipelineConfig(classifier="baseline", min_df=0))
    with pytest.raises(ValueError, match="both classes"):
        evaluate_baseline(Corpus([]))
    legit = Corpus([m for m in small_corpus.messages if m.label is Label.LEGITIMATE])
    with pytest.raises(ValueError, match="both classes"):
        evaluate_baseline(legit, replace(PipelineConfig(), classifier="baseline"))


def test_baseline_runner_rejects_trained_kinds(small_corpus):
    with pytest.raises(ValueError, match="baseline"):
        evaluate_baseline(small_corpus, FAST)


def test_run_grid_keeps_config_order(small_corpus):
    folds = stratified_kfold(small_corpus, k=2)
    from dataclasses import replace

    grid = [
        replace(FAST, classifier="baseline"),
        replace(FAST, classifier="nb"),
        FAST,
    ]
    reports = run_grid(small_corpus, folds, grid)
    assert [r.config_name for r in reports] == ["baseline", "nb-bow", "svm-bow"]
    assert len(reports[0].per_fold) == 1  # whole corpus
    assert len(reports[1].per_fold) == 2


def test_run_grid_parallel_matches_serial():
    corpus = synth_corpus(80, seed=9)
    folds = stratified_kfold(corpus, k=2)
    from dataclasses import replace

    grid = [replace(FAST, classifier="nb"), FAST]
    serial = run_grid(corpus, folds, grid, jobs=1)
    parallel = run_grid(corpus, folds, grid, jobs=2)
    assert serial == parallel


@pytest.fixture
def serial_pool(monkeypatch):
    """Under fork, ProcessPoolExecutor starts all max_workers processes up
    front, so a fake pool records the count and the tasks, and maps in this
    process. Returns the list of pools started."""
    import concurrent.futures

    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers, self.tasks = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            self.tasks = list(tasks)
            return map(fn, self.tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return pools


def test_run_grid_starts_at_most_one_worker_per_config(small_corpus, serial_pool):
    from dataclasses import replace

    folds = stratified_kfold(small_corpus, k=2)
    grid = [replace(FAST, classifier="nb"), FAST]
    reports = run_grid(small_corpus, folds, grid, jobs=64)
    assert [pool.max_workers for pool in serial_pool] == [2]
    assert reports == run_grid(small_corpus, folds, grid, jobs=1)


def test_run_grid_runs_the_serial_grid_on_contiguous_chunks(serial_pool, monkeypatch):
    from vnspam import evaluation

    plans = []

    class RecordingPlan(evaluation._Plan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(evaluation, "_Plan", RecordingPlan)
    corpus = synth_corpus(90, seed=4)
    folds = stratified_kfold(corpus, k=3)
    grid = reference_grid(PipelineConfig(epochs=2))
    pooled = run_grid(corpus, folds, grid, jobs=4)
    [pool] = serial_pool
    assert pool.max_workers == 4
    assert [len(chunk) for chunk in pool.tasks] == [2, 2, 2, 3]
    assert [cfg for chunk in pool.tasks for cfg in chunk] == grid
    assert len(plans) == 4  # one per chunk, each of which holds a trained config
    assert all(p.kept == {} and not p.readers for p in plans)
    assert pooled == run_grid(corpus, folds, grid, jobs=1)
    assert [r.config_name for r in pooled] == [c.name for c in grid]


def test_run_grid_pooled_raises_the_first_failing_config_in_grid_order():
    from dataclasses import replace

    corpus = synth_corpus(60, seed=3)
    folds = stratified_kfold(corpus, k=2)
    # nb (5th) rejects alpha=0 before dt (7th) rejects max_depth=0, and the
    # two land in different chunks with jobs=4
    grid = reference_grid(replace(PipelineConfig(epochs=2), alpha=0, max_depth=0))
    with pytest.raises(ValueError) as serial:
        run_grid(corpus, folds, grid, jobs=1)
    with pytest.raises(ValueError) as pooled:
        run_grid(corpus, folds, grid, jobs=4)
    assert "alpha" in str(serial.value)
    assert str(pooled.value) == str(serial.value)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_grid_checks_every_config_before_it_evaluates_any(jobs, serial_pool, monkeypatch):
    from dataclasses import replace

    from vnspam import evaluation

    def fail(*args, **kwargs):
        raise AssertionError("evaluated before the last config was checked")

    for name in ("_normalize_all", "_fit_rows", "evaluate_baseline"):
        monkeypatch.setattr(evaluation, name, fail)
    corpus = synth_corpus(60, seed=3)
    folds = stratified_kfold(corpus, k=2)
    grid = reference_grid(PipelineConfig(epochs=2))
    grid[-1] = replace(grid[-1], reg_lambda=0.0)
    with pytest.raises(ValueError, match="lambda must be > 0, got 0.0"):
        run_grid(corpus, folds, grid, jobs=jobs)
    assert serial_pool == []  # no worker pool was started either


def test_each_fold_model_is_freed_before_the_next_fold_fits(small_corpus, monkeypatch):
    import weakref

    from vnspam import evaluation

    real = evaluation._fit_rows
    previous = []

    def recording(*args):
        # the last model must be dead before this fit starts
        assert all(ref() is None for ref in previous)
        fitted = real(*args)
        previous.append(weakref.ref(fitted))
        return fitted

    monkeypatch.setattr(evaluation, "_fit_rows", recording)
    folds = stratified_kfold(small_corpus, k=5)
    cross_validate(small_corpus, folds, FAST)
    assert len(previous) == 5
    previous.clear()
    run_grid(small_corpus, folds, reference_grid(PipelineConfig(epochs=2)))
    assert len(previous) == 8 * 5


def test_run_grid_rejects_bad_jobs(small_corpus):
    folds = stratified_kfold(small_corpus, k=2)
    with pytest.raises(ValueError, match="jobs"):
        run_grid(small_corpus, folds, [FAST], jobs=0)


def test_reference_grid_names():
    names = [cfg.name for cfg in reference_grid()]
    assert names == [
        "baseline",
        "svm-bow-raw",
        "svm-bow",
        "svm-tfidf",
        "nb-bow",
        "lr-bow",
        "dt-bow",
        "knn-bow",
        "svm-bow-df3-len",
    ]


def test_reference_grid_inherits_base_knobs():
    base = PipelineConfig(epochs=7, seed=123)
    grid = reference_grid(base)
    assert all(cfg.epochs == 7 and cfg.seed == 123 for cfg in grid)
    assert grid[1].preprocess is False
    assert all(cfg.preprocess for cfg in grid[2:])


# -- rendering ---------------------------------------------------------------------


def fake_report(name, counts_list):
    return _report(name, [FoldOutcome(str(i), c, rates(c)) for i, c in enumerate(counts_list)])


def test_fold_average_is_a_left_to_right_running_total():
    # 0.1 + 0.2 + 0.3 in fold order is 0.6000000000000001; a compensated sum
    # (sum() from Python 3.12 on) gives 0.6, and a mean of 0.19999999999999998.
    counts = ConfusionCounts(10, 10, 0, 0)
    outcomes = [
        FoldOutcome(str(i), counts, Rates(tpr=x, tnr=1.0, fpr=0.0, fnr=1.0 - x))
        for i, x in enumerate((0.1, 0.2, 0.3))
    ]
    assert _report("nb-bow", outcomes).averaged.tpr == 0.20000000000000004


def test_format_table_shows_percent_rates():
    report = fake_report("svm-bow", [ConfusionCounts(10, 20, 1, 0)])
    text = format_table([report])
    lines = text.splitlines()
    assert lines[0].split() == ["config", "tpr", "tnr", "fpr", "fnr", "folds"]
    assert "svm-bow" in lines[2]
    assert "90.00%" in lines[2]
    assert "100.00%" in lines[2]
    assert text.endswith("\n")


def test_format_table_empty():
    assert format_table([]) == "(no configurations)\n"


def test_write_csv_one_row_per_fold_plus_average(tmp_path):
    report = fake_report(
        "nb-bow", [ConfusionCounts(5, 5, 1, 0), ConfusionCounts(5, 5, 0, 1)]
    )
    path = tmp_path / "rates.csv"
    write_csv([report], path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "config,fold,tpr,tnr,fpr,fnr"
    assert len(lines) == 1 + 2 + 1
    first = lines[1].split(",")
    assert first[:2] == ["nb-bow", "0"]
    assert float(first[2]) == report.per_fold[0].rates.tpr
    assert lines[3].split(",")[1] == "avg"


# -- one normalize pass per run, against fitting every fold from raw text -----------


def _unshared_cross_validate(corpus, folds, cfg, rules=None):
    """cross_validate with no shared work: FittedPipeline.fit on the raw
    training messages of every fold, then predict_text on each held-out
    message."""
    outcomes = []
    for f in range(folds.k):
        test = [m for m in corpus.messages if folds.fold_of[m.id] == f]
        training = [m for m in corpus.messages if folds.fold_of[m.id] != f]
        fitted = FittedPipeline.fit(training, cfg, rules)
        predicted = [fitted.predict_text(m.text).label for m in test]
        counts = confusion([m.label for m in test], predicted)
        outcomes.append(FoldOutcome(fold=str(f), counts=counts, rates=rates(counts)))
    return _report(cfg.name, outcomes)


def _unshared_baseline(corpus, cfg):
    """evaluate_baseline through a fitted pipeline: FittedPipeline.fit on the
    whole corpus, then predict_text on each message."""
    fitted = FittedPipeline.fit(corpus.messages, cfg)
    predicted = [fitted.predict_text(m.text).label for m in corpus.messages]
    counts = confusion([m.label for m in corpus.messages], predicted)
    return _report(cfg.name, [FoldOutcome(fold="all", counts=counts, rates=rates(counts))])


def _unshared_grid(corpus, folds, configs, rules=None):
    """The evaluation loop with no shared work, config by config."""
    return [
        _unshared_baseline(corpus, cfg)
        if cfg.classifier == "baseline"
        else _unshared_cross_validate(corpus, folds, cfg, rules)
        for cfg in configs
    ]


@st.composite
def uneven_folds(draw):
    """A corpus and a hand-made fold assignment of 2 to 6 folds: each fold
    gets one message of each class, and every other message any fold."""
    corpus = synth_corpus(draw(st.integers(30, 48)), seed=draw(st.integers(0, 9)), spam_ratio=0.4)
    k = draw(st.integers(2, 6))
    fold_of = {}
    for label in Label:
        ids = [m.id for m in corpus.messages if m.label is label]
        assume(len(ids) >= k)
        rest = draw(st.lists(st.integers(0, k - 1), min_size=len(ids) - k, max_size=len(ids) - k))
        fold_of.update(zip(ids, [*range(k), *rest]))
    return corpus, FoldAssignment(k=k, fold_of=fold_of)


_EPOCHS_2_GRID = reference_grid(PipelineConfig(epochs=2))


@settings(max_examples=15, deadline=None)
@given(
    case=uneven_folds(),
    configs=st.lists(st.sampled_from(_EPOCHS_2_GRID), min_size=1, max_size=3),
)
def test_shared_runs_match_the_unshared_loop_on_uneven_folds(case, configs):
    corpus, folds = case
    unshared = [_unshared_cross_validate(corpus, folds, cfg) for cfg in configs]
    assert [cross_validate(corpus, folds, cfg) for cfg in configs] == unshared
    assert run_grid(corpus, folds, configs, jobs=1) == _unshared_grid(corpus, folds, configs)


def _decomposed(corpus):
    """Every third message spells "a" as "a" plus a combining grave accent,
    which splits words unless NFC composes it first, and opens with "[QC"
    plus a combining cedilla "]", an ad tag only until NFC composes "Ç"."""
    return Corpus(
        [
            Message(m.id, "[QC\u0327] " + m.text.replace("a", "a\u0300"), m.label)
            if m.id % 3 == 0 else m
            for m in corpus.messages
        ]
    )


@pytest.mark.parametrize(
    "case", ["jobs1", "jobs2", "jobs4", "nfc", "rules", "passes2", "min_df", "seed_epochs"]
)
def test_run_grid_matches_unshared_loop(case, tmp_path):
    from dataclasses import replace

    corpus = synth_corpus(150, seed=5)
    base = PipelineConfig(epochs=3)
    rules = None
    if case == "nfc":
        corpus = _decomposed(corpus)
        base = replace(base, nfc=True)
    if case == "rules":
        path = tmp_path / "rules.tsv"
        # folds every word starting a-m into one token, which changes the rates
        path.write_text("link\twww\\.\\S+\nnumber\t\\b[a-m]\\w*\n", encoding="utf-8")
        rules = EntityRuleSet.from_file(path)
    folds = stratified_kfold(corpus, k=5)
    configs = reference_grid(base)
    if case == "passes2":
        # loose enough that the second pass changes dt's rates
        loose = replace(base, passes=2, min_count=2, discount=1.0, colloc_threshold=1e-5)
        configs = reference_grid(loose)
        configs.append(replace(configs[6], passes=1))
    if case == "min_df":
        # one segment fit per fold, three vocabularies
        plain = replace(base, min_df=1, length_feature=False)
        configs = [
            replace(plain, classifier="nb"),
            replace(plain, min_df=2),
            replace(plain, classifier="nb", min_df=4),
            replace(plain, min_df=2, representation="tfidf"),
        ]
    if case == "seed_epochs":
        # svm orders shared by seed, lr orders kept apart by epochs; one svm
        # epoch at this lambda makes the rates depend on the order
        svm = replace(base, epochs=1, reg_lambda=1e-2)
        configs = [
            replace(svm, seed=1),
            replace(svm, seed=2),
            replace(svm, seed=1, length_feature=False),
            replace(base, classifier="lr", epochs=2),
            replace(base, classifier="lr"),
        ]
    jobs = {"jobs2": 2, "jobs4": 4}.get(case, 1)
    write_csv(run_grid(corpus, folds, configs, rules, jobs=jobs), tmp_path / "shared.csv")
    write_csv(_unshared_grid(corpus, folds, configs, rules), tmp_path / "unshared.csv")
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "unshared.csv").read_bytes()


def _entity_corpus():
    """Spam and ham that only entity tagging tells apart: every message holds
    a number no other message holds, a phone number in spam and a short one in ham."""
    return Corpus(
        [Message(i, f"goi 09{i:08d} nhe", Label.SPAM) for i in range(0, 40, 2)]
        + [Message(i, f"goi {100 + i} nhe", Label.LEGITIMATE) for i in range(1, 40, 2)]
    )


@pytest.mark.parametrize("run", ["cross_validate", "jobs1", "jobs2"])
def test_an_empty_rule_set_tags_nothing(run, tmp_path):
    corpus = _entity_corpus()
    folds = stratified_kfold(corpus, k=4)
    configs = reference_grid(PipelineConfig(epochs=3))

    def rates_csv(rules) -> bytes:
        if run == "cross_validate":
            reports = [cross_validate(corpus, folds, configs[2], rules)]
        else:
            reports = run_grid(corpus, folds, configs, rules, jobs=int(run[-1]))
        write_csv(reports, tmp_path / "rates.csv")
        return (tmp_path / "rates.csv").read_bytes()

    # a rule that matches none of these texts tags nothing too
    untagged = rates_csv(EntityRuleSet([EntityRule("number", "x")]))
    assert rates_csv(EntityRuleSet([])) == untagged
    # None means the built-in rules
    assert rates_csv(None) == rates_csv(EntityRuleSet.default()) != untagged


def test_evaluation_tags_each_message_once_per_run(small_corpus, monkeypatch):
    from dataclasses import replace

    import vnspam.pipeline

    calls = []
    real = vnspam.pipeline.tag_entities

    def counting(text, rules=None):
        calls.append(text)
        return real(text, rules)

    monkeypatch.setattr(vnspam.pipeline, "tag_entities", counting)
    folds = stratified_kfold(small_corpus, k=5)
    run_grid(small_corpus, folds, reference_grid(replace(PipelineConfig(), epochs=2)))
    assert len(calls) == len(small_corpus)
    calls.clear()
    cross_validate(small_corpus, folds, FAST)
    assert len(calls) == len(small_corpus)
    calls.clear()  # the baseline rule reads only the NFC text
    cross_validate(small_corpus, folds, replace(FAST, classifier="baseline"))
    assert calls == []


def test_cross_validate_baseline_matches_unshared_loop(monkeypatch):
    from dataclasses import replace

    from vnspam import evaluation

    corpus = _decomposed(synth_corpus(150, seed=5, tag_spam=True))
    folds = stratified_kfold(corpus, k=3)
    cfg = replace(PipelineConfig(nfc=True), classifier="baseline")
    want = _unshared_cross_validate(corpus, folds, cfg)

    def fail(*args, **kwargs):
        raise AssertionError("the baseline rule needs no pipeline")

    monkeypatch.setattr(evaluation, "_fit_rows", fail)
    monkeypatch.setattr(evaluation, "_normalize_all", fail)
    monkeypatch.setattr(EntityRuleSet, "default", classmethod(fail))
    report = cross_validate(corpus, folds, cfg)
    assert report == want
    assert len(report.per_fold) == 3


def test_run_grid_builds_each_shared_stage_once_and_keeps_nothing(monkeypatch):
    from collections import Counter
    from dataclasses import replace

    from vnspam import classifiers, evaluation, pipeline

    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    plans = []

    class RecordingPlan(evaluation._Plan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    segment = counting("segment", pipeline.fit_segmentation)
    vocabulary = counting("vocabulary", pipeline.build_vocabulary)
    orders = counting("orders", classifiers.epoch_orders)
    monkeypatch.setattr(pipeline, "fit_segmentation", segment)
    monkeypatch.setattr(pipeline, "build_vocabulary", vocabulary)
    monkeypatch.setattr(pipeline, "segment", counting("segment calls", pipeline.segment))
    monkeypatch.setattr(evaluation, "epoch_orders", orders)
    monkeypatch.setattr(classifiers, "epoch_orders", orders)
    monkeypatch.setattr(evaluation, "_Plan", RecordingPlan)
    corpus = synth_corpus(203, seed=11)
    folds = stratified_kfold(corpus, k=5)
    sizes = {len(corpus) - n for n in folds.fold_sizes()}
    assert len(sizes) > 1  # so the orders key must tell training sizes apart
    configs = reference_grid(PipelineConfig(epochs=2))
    run_grid(corpus, folds, configs)
    segmenting = sum(c.preprocess and c.classifier != "baseline" for c in configs)
    # each fold's training streams once, in its segment fit; then each
    # held-out message once per configuration that segments
    segment_calls = (folds.k - 1) * len(corpus) + segmenting * len(corpus)
    assert segment_calls == 2233
    assert calls == {
        "segment": 5, "vocabulary": 15, "orders": len(sizes), "segment calls": segment_calls
    }
    assert len(plans) == 1
    assert plans[0].kept == {} and not plans[0].readers
