"""End-to-end command line behavior, run in-process via main()."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnspam import (
    Corpus,
    FittedPipeline,
    Hyperparams,
    Label,
    Message,
    ModelFileError,
    PipelineConfig,
    save_corpus,
)
from vnspam.classifiers import KINDS
from vnspam.cli import _config_from_args, build_parser, main
from vnspam.pipeline import FitStats
from vnspam.preprocess import ENTITY_GROUPS

from conftest import synth_corpus

import oracles


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.tsv"
    save_corpus(synth_corpus(60, seed=3), path)
    return path

FAST_FLAGS = ["--min-df", "1", "--no-length-feature", "--epochs", "5"]


def train_model(tmp_path, corpus_path, extra=()):
    model = tmp_path / "model.json"
    rc = main(["train", str(corpus_path), "-o", str(model), *FAST_FLAGS, *extra])
    assert rc == 0
    return model


# -- train ---------------------------------------------------------------------


def test_train_reports_and_writes(tmp_path, corpus_path, capsys):
    model = train_model(tmp_path, corpus_path)
    out = capsys.readouterr().out
    assert "corpus: 60 messages" in out
    assert "vocabulary:" in out
    assert "model: svm on bow" in out
    assert f"wrote {model}" in out
    assert model.exists()


def test_train_baseline_has_no_state_line(tmp_path, corpus_path, capsys):
    train_model(tmp_path, corpus_path, extra=["--clf", "baseline"])
    out = capsys.readouterr().out
    assert "rule baseline" in out
    assert "vocabulary:" not in out


def test_train_rejects_bad_corpus(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("spam no tab here\n", encoding="utf-8")
    rc = main(["train", str(bad), "-o", str(tmp_path / "m.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_rejects_bad_hyperparams(tmp_path, corpus_path, capsys):
    rc = main(
        ["train", str(corpus_path), "-o", str(tmp_path / "m.json"), "--clf", "knn", "--k", "0"]
    )
    assert rc == 1
    assert "k must be" in capsys.readouterr().err


def test_train_into_a_missing_directory_names_the_target(tmp_path, corpus_path, capsys):
    target = tmp_path / "no" / "such" / "m.json"
    rc = main(["train", str(corpus_path), "-o", str(target), *FAST_FLAGS])
    assert rc == 1
    err = capsys.readouterr().err
    # the temp file was never made, so the message names only the file asked for
    assert err.startswith(f"error: cannot write model file {target}: ") and ".tmp" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.tsv"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--delta", "--colloc-threshold", "--alpha", "--lambda"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_non_finite_config_float_fails_before_fitting(command, flag, value, tmp_path, corpus_path, capsys):
    model = tmp_path / "m.json"
    argv = [command, str(corpus_path), flag, value]
    rc = main(argv + (["-o", str(model)] if command == "train" else ["--folds", "2"]))
    assert rc == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "must be a finite number" in err
    assert out == "" and not model.exists()


def test_rules_file_not_utf8_names_the_file(tmp_path, corpus_path, capsys):
    rules = tmp_path / "rules.tsv"
    rules.write_bytes(b"\xff\n")
    rc = main(["tokenize", str(corpus_path), "--rules", str(rules)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(rules) in err


def test_rules_file_refuses_a_rule_that_can_match_the_empty_string(tmp_path, corpus_path, capsys):
    rules = tmp_path / "rules.tsv"
    rules.write_text("number\t\\d*\n", encoding="utf-8")
    rc = main(["tokenize", str(corpus_path), "--rules", str(rules)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {rules}:1: ") and "empty string" in err


@pytest.mark.parametrize("rules", ["", "missing.tsv"], ids=["empty-path", "missing"])
@pytest.mark.parametrize("command", ["train", "evaluate", "tokenize"])
def test_an_unreadable_rules_path_is_an_error_naming_it(command, rules, tmp_path, corpus_path, capsys):
    # "" names no file: it is not a request for the built-in rules, and reads as "."
    model = tmp_path / "model.json"
    flags = {"train": ["-o", str(model)], "evaluate": ["--folds", "2"]}
    rc = main([command, str(corpus_path), "--rules", rules, *flags.get(command, [])])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read rules file {rules!r}: ")
    assert not model.exists()


@pytest.mark.parametrize("alpha", ["1e308", "5e-324"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_nb_smoothing_with_no_finite_log_is_an_error_naming_alpha(command, alpha, tmp_path, capsys):
    # alpha * n_slots overflows, or an unseen term's (0 + alpha) / denom rounds to 0.0
    corpus = tmp_path / "c.tsv"
    save_corpus(synth_corpus(300, seed=3), corpus)
    model = tmp_path / "model.json"
    flags = ["-o", str(model)] if command == "train" else ["--folds", "2"]
    rc = main([command, str(corpus), "--clf", "nb", "--alpha", alpha, "--min-df", "1", *flags])
    assert rc == 1
    out, err = capsys.readouterr()
    too = "large" if alpha == "1e308" else "small"
    assert out == "" and err.startswith(f"error: nb smoothing alpha {float(alpha)!r} is too {too}: ")
    assert not model.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["train", "CORPUS", "-o", ""], "-o/--out needs a file path, got ''"),
        (["evaluate", "CORPUS", "--csv", ""], "--csv needs a file path, got ''"),
    ],
    ids=["train-out", "evaluate-csv"],
)
def test_an_empty_output_path_is_refused_before_any_work(argv, message, corpus_path, capsys, monkeypatch):
    from vnspam import cli

    def boom(*args, **kwargs):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr(cli, "load_corpus", boom)
    rc = main([str(corpus_path) if a == "CORPUS" else a for a in argv])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,rc,what",
    [
        (["predict", ""], 2, "model"),
        (["tokenize", ""], 1, "corpus"),
        (["train", "", "-o", "m.json"], 1, "corpus"),
        (["evaluate", ""], 1, "corpus"),
    ],
    ids=["predict", "tokenize", "train", "evaluate"],
)
def test_an_empty_input_path_is_named_as_given(argv, rc, what, tmp_path, capsys, monkeypatch):
    # "" reads ".", a directory; the error names "", not "."
    monkeypatch.chdir(tmp_path)
    assert main(argv, stdin=io.BytesIO(b"")) == rc
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read {what} file '': ") and "." not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "evaluate", "tokenize"])
def test_a_comment_only_rules_file_tags_nothing(command, tmp_path, capsys, monkeypatch):
    from vnspam import pipeline

    rules = tmp_path / "rules.tsv"
    rules.write_text("# no rules, so no entity tagging\n\n", encoding="utf-8")
    corpus = tmp_path / "c.tsv"
    corpus.write_text("spam\tGoi 0912345678 ngay 20/10\nham\tan com chua :)\n" * 2, encoding="utf-8")
    tagged = []
    real = pipeline.tag_entities

    def spy(text, rules=None):
        tagged.append(real(text, rules))
        return tagged[-1]

    monkeypatch.setattr(pipeline, "tag_entities", spy)
    model = tmp_path / "model.json"
    flags = {"train": ["-o", str(model), "--min-df", "1"], "evaluate": ["--folds", "2", "--min-df", "1"]}
    assert main([command, str(corpus), "--rules", str(rules), *flags.get(command, [])]) == 0
    assert set(tagged) == {"goi 0912345678 ngay 20 10", "an com chua"}
    out = capsys.readouterr().out
    if command == "train":
        assert json.loads(model.read_text(encoding="utf-8"))["entity_rules"] == []
        assert FittedPipeline.load(model).tokens("Goi 0912345678 ngay 20/10") == "goi 0912345678 ngay 20 10".split()
    if command == "tokenize":
        assert out == "goi 0912345678 ngay 20 10\nan com chua\n" * 2


def test_unknown_flag_is_usage_error(corpus_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", str(corpus_path), "--frobnicate"])
    assert exc.value.code == 2


# -- flags and PipelineConfig --------------------------------------------------


def parsed_config(argv):
    return _config_from_args(build_parser().parse_args(argv))


@pytest.mark.parametrize("command", ["train", "evaluate", "tokenize"])
def test_no_flags_give_the_config_defaults(command):
    assert parsed_config([command, "corpus.tsv"]) == PipelineConfig()


# (flags, field, value): one non-default value for every PipelineConfig field
FLAG_VALUES = [
    (["--clf", "knn"], "classifier", "knn"),
    (["--rep", "tfidf"], "representation", "tfidf"),
    (["--no-preprocess"], "preprocess", False),
    (["--min-df", "2"], "min_df", 2),
    (["--no-length-feature"], "length_feature", False),
    (["--seed", "7"], "seed", 7),
    (["--delta", "2"], "discount", 2.0),
    (["--colloc-threshold", "0.5"], "colloc_threshold", 0.5),
    (["--min-count", "4"], "min_count", 4),
    (["--passes", "3"], "passes", 3),
    (["--nfc"], "nfc", True),
    (["--alpha", "0.5"], "alpha", 0.5),
    (["--lambda", "0.01"], "reg_lambda", 0.01),
    (["--epochs", "9"], "epochs", 9),
    (["--max-depth", "6"], "max_depth", 6),
    (["--k", "3"], "k", 3),
]


def test_flag_values_cover_every_config_field():
    assert sorted(name for _, name, _ in FLAG_VALUES) == sorted(f.name for f in fields(PipelineConfig))


@pytest.mark.parametrize("flags,name,value", FLAG_VALUES, ids=[f[0] for f, _, _ in FLAG_VALUES])
def test_each_flag_sets_its_config_field(flags, name, value):
    config = parsed_config(["train", "corpus.tsv", *flags])
    assert config == replace(PipelineConfig(), **{name: value})
    assert type(getattr(config, name)) is type(value)


def test_nfc_has_no_negative_flag(corpus_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", str(corpus_path), "--no-nfc"])
    assert exc.value.code == 2


def test_config_hyperparams_default_to_hyperparams_defaults():
    config_defaults = {f.name: f.default for f in fields(PipelineConfig)}
    for f in fields(Hyperparams):
        assert config_defaults[f.name] == f.default, f.name


def test_help_shows_every_config_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # keep each flag's help on one line
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    out = capsys.readouterr().out
    for f in fields(PipelineConfig):
        assert f"(default: {getattr(PipelineConfig(), f.name)})" in out, f.name


# -- predict -------------------------------------------------------------------


def test_predict_agrees_with_library(tmp_path, corpus_path, capsys):
    model = train_model(tmp_path, corpus_path)
    capsys.readouterr()
    texts = [
        "khuyen mai trung thuong goi 0912345678",
        "an com chua ban oi",
        "[QC] nap the ngay www.shop.vn",
    ]
    stdin = io.BytesIO("".join(t + "\n" for t in texts).encode("utf-8"))
    rc = main(["predict", str(model)], stdin=stdin)
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    fitted = FittedPipeline.load(model)
    assert len(lines) == len(texts)
    for line, text in zip(lines, texts):
        label, score = line.split("\t")
        pred = fitted.predict_text(text)
        assert label == pred.label.token
        assert float(score) == pred.score


def test_predict_baseline_scores(tmp_path, corpus_path, capsys):
    model = train_model(tmp_path, corpus_path, extra=["--clf", "baseline"])
    capsys.readouterr()
    stdin = io.BytesIO(b"[QC] trung thuong ngay\nhom nay hop luc 3h\n")
    rc = main(["predict", str(model)], stdin=stdin)
    assert rc == 0
    assert capsys.readouterr().out == "spam\t1.0\nham\t0.0\n"


def _alternating_lengths(n):
    """Messages "a", "aa", "aaa", ... whose labels alternate with their length:
    a tree that separates them has depth about 3n/4."""
    labs = (Label.LEGITIMATE, Label.SPAM)
    return Corpus(Message(i, "a" * (i + 1), labs[i % 2]) for i in range(n))


def _dt_depth(params):
    nodes = params["nodes"]
    deepest, stack = 0, [(params["root"], 0)]
    while stack:
        j, depth = stack.pop()
        deepest = max(deepest, depth)
        if "feature" in nodes[j]:
            stack += [(nodes[j]["left"], depth + 1), (nodes[j]["right"], depth + 1)]
    return deepest


def test_dt_deeper_than_the_recursion_limit_trains_and_predicts(tmp_path, capsys):
    corpus = _alternating_lengths(1500)
    texts = [m.text for m in corpus.messages]
    save_corpus(corpus, tmp_path / "corpus.tsv")
    model = tmp_path / "model.json"
    argv = ["train", str(tmp_path / "corpus.tsv"), "--clf", "dt", "--max-depth", "100000", "--min-df", "1"]
    assert main(argv + ["-o", str(model)]) == 0
    capsys.readouterr()
    assert main(["predict", str(model)], stdin=io.BytesIO("\n".join(texts).encode())) == 0
    lines = capsys.readouterr().out.splitlines()

    fitted = FittedPipeline.fit(corpus.messages, PipelineConfig(classifier="dt", max_depth=100000, min_df=1))
    assert _dt_depth(fitted.model.params) == 1122 > sys.getrecursionlimit()
    fitted.save(tmp_path / "api.json")
    assert (tmp_path / "api.json").read_bytes() == model.read_bytes()
    loaded = FittedPipeline.load(model)
    preds = [loaded.predict_text(t) for t in texts]
    assert [p.label for p in preds] == [m.label for m in corpus.messages]
    assert lines == [f"{p.label.token}\t{p.score!r}" for p in preds]

    # the plain oracle recurses once a level, so it needs a higher limit
    vectors = [fitted.vector(t) for t in texts]
    flags = [m.label is Label.SPAM for m in corpus.messages]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:
        plain = oracles.train_dt_plain(vectors, flags, 100000)
    finally:
        sys.setrecursionlimit(limit)
    assert repr(fitted.model.params) == repr(plain)


def test_predict_empty_stdin(tmp_path, corpus_path, capsys):
    model = train_model(tmp_path, corpus_path)
    capsys.readouterr()
    rc = main(["predict", str(model)], stdin=io.BytesIO(b""))
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_predict_strips_crlf(tmp_path, corpus_path, capsys):
    model = train_model(tmp_path, corpus_path)
    capsys.readouterr()
    main(["predict", str(model)], stdin=io.BytesIO(b"an com chua\n"))
    plain = capsys.readouterr().out
    main(["predict", str(model)], stdin=io.BytesIO(b"an com chua\r\n"))
    assert capsys.readouterr().out == plain


def test_predict_skips_undecodable_lines(tmp_path, corpus_path, capsys):
    model = train_model(tmp_path, corpus_path)
    capsys.readouterr()
    stdin = io.BytesIO(b"an com chua\n\xff\xfe broken\nkhuyen mai\n")
    rc = main(["predict", str(model)], stdin=stdin)
    assert rc == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1] == "ERR"
    assert lines[0] != "ERR" and lines[2] != "ERR"


def test_predict_missing_model(tmp_path, capsys):
    rc = main(["predict", str(tmp_path / "nope.json")], stdin=io.BytesIO(b""))
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_predict_corrupt_model(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("{broken", encoding="utf-8")
    rc = main(["predict", str(path)], stdin=io.BytesIO(b""))
    assert rc == 2


def _cut(key, n):
    def mutate(params):
        params[key] = params[key][:n]

    return mutate


def _set(key, value):
    def mutate(params):
        params[key] = value

    return mutate


def _dt_root_loops(params):
    # predict used to follow this edge forever
    params["nodes"][params["root"]]["left"] = params["root"]


def _dt_split_at_first_node(params):
    # node 0 is the first leaf train() wrote; as a split its children come after it
    params["nodes"][0] = {"feature": 0, "threshold": 0.5, "left": 1, "right": 1}


def _knn_row_index(value):
    def mutate(params):
        params["rows"][0][0][0] = value

    return mutate


def _dt_node(which, **keys):
    def mutate(params):
        node = next(n for n in params["nodes"] if ("feature" in n) == (which == "split"))
        node.update(keys)

    return mutate


# (kind, edit of the saved params, the error it gives): a learned dict or dt
# node holding a key train() never writes
EXTRA_KEYS = {
    "nb-prior-extra-key": (
        "nb", lambda p: p["log_prior"].update(junk=1.0), "nb log_prior must have exactly the keys"
    ),
    "nb-likelihood-extra-key": (
        "nb", lambda p: p["log_likelihood"].update(junk=[0.0]), "nb log_likelihood must have exactly the keys"
    ),
    "dt-split-extra-key": ("dt", _dt_node("split", junk=1), r"dt node \d+ is malformed"),
    "dt-leaf-extra-key": ("dt", _dt_node("leaf", junk=1), r"dt node \d+ is malformed"),
    "dt-leaf-with-feature": ("dt", _dt_node("leaf", feature=0), r"dt node \d+ is malformed"),
}

# (kind, edit of the saved params); each breaks one rule the loader checks
BAD_PARAMS = {
    "nb-likelihood-cut": ("nb", lambda p: p["log_likelihood"]["spam"].pop()),
    "svm-weights-cut": ("svm", _cut("weights", 3)),
    "lr-weights-long": ("lr", lambda p: p["weights"].append(0.5)),
    "knn-labels-cut": ("knn", _cut("labels", 3)),
    "knn-norms-cut": ("knn", _cut("norms", -1)),
    "knn-row-index-high": ("knn", _knn_row_index(10**6)),
    "knn-row-index-negative": ("knn", _knn_row_index(-1)),
    "knn-bad-label": ("knn", lambda p: p["labels"].__setitem__(0, "maybe")),
    "knn-k-zero": ("knn", _set("k", 0)),
    "dt-root-out-of-range": ("dt", lambda p: p.update(root=len(p["nodes"]))),
    "dt-root-loops-to-itself": ("dt", _dt_root_loops),
    "dt-child-above-parent": ("dt", _dt_split_at_first_node),
    "svm-nan-weight": ("svm", lambda p: p["weights"].__setitem__(0, float("nan"))),
    "nb-infinite-prior": ("nb", lambda p: p["log_prior"].update(ham=float("-inf"))),
    "lr-overflowing-bias": ("lr", _set("bias", "1e999")),
    "svm-integer-bias-beyond-float": ("svm", _set("bias", 10**400)),
}


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    base = tmp_path_factory.mktemp("models")
    corpus = base / "corpus.tsv"
    save_corpus(synth_corpus(60, seed=3), corpus)
    paths = {}
    for kind in ("nb", "svm", "lr", "dt", "knn"):
        paths[kind] = base / f"{kind}.json"
        assert main(["train", str(corpus), "-o", str(paths[kind]), "--clf", kind, *FAST_FLAGS]) == 0
    return paths


@pytest.mark.parametrize("case", sorted(BAD_PARAMS))
def test_predict_rejects_bad_model_params(case, saved_models, tmp_path, capsys):
    kind, mutate = BAD_PARAMS[case]
    doc = json.loads(saved_models[kind].read_text(encoding="utf-8"))
    mutate(doc["model"]["params"])
    path = tmp_path / "bad.json"
    # "1e999" stands for a number literal too large for a float
    path.write_text(json.dumps(doc).replace('"1e999"', "1e999"), encoding="utf-8")
    capsys.readouterr()
    rc = main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai goi ngay\n"))
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("case", sorted(EXTRA_KEYS))
def test_learned_dicts_and_dt_nodes_hold_only_the_keys_train_writes(case, saved_models, tmp_path, capsys):
    kind, mutate, message = EXTRA_KEYS[case]
    doc = json.loads(saved_models[kind].read_text(encoding="utf-8"))
    mutate(doc["model"]["params"])
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError, match=f"^model file {re.escape(str(path))} is malformed: {message}"):
        FittedPipeline.load(path)
    capsys.readouterr()
    assert main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: model file {path} is malformed: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "field,value", [("nfc", "no"), ("min_df", 2.5), ("epochs", True), ("alpha", True)]
)
def test_predict_rejects_mistyped_config_field(field, value, saved_models, tmp_path, capsys):
    doc = json.loads(saved_models["svm"].read_text(encoding="utf-8"))
    doc["config"][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError, match=f"{field} must be of type"):
        FittedPipeline.load(path)
    capsys.readouterr()
    assert main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


# (edit of a saved svm model file, the count it then stores, the count it must)
COLLOCATION_COUNTS = {
    "passes-above-stored": (lambda doc: doc["config"].update(passes=3), 1, 3),
    "none-stored-with-preprocessing": (lambda doc: doc.update(collocations=[]), 0, 1),
    "stored-without-preprocessing": (lambda doc: doc["config"].update(preprocess=False), 1, 0),
}


@pytest.mark.parametrize("case", sorted(COLLOCATION_COUNTS))
def test_predict_rejects_a_collocation_count_other_than_passes(case, saved_models, tmp_path, capsys):
    mutate, stored, expected = COLLOCATION_COUNTS[case]
    doc = json.loads(saved_models["svm"].read_text(encoding="utf-8"))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError, match=f"{stored} collocation models stored, expected {expected}"):
        FittedPipeline.load(path)
    capsys.readouterr()
    assert main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    assert capsys.readouterr().err.startswith(f"error: model file {path} is malformed: ")


@pytest.mark.parametrize("owner", ["collocation", "config"])
def test_predict_rejects_an_integer_discount_beyond_float(
    owner, tmp_path, corpus_path, capsys, monkeypatch
):
    # with --min-count 1 the model stores bigrams, which load scores with the discount
    model = train_model(tmp_path, corpus_path, extra=["--min-count", "1"])
    doc = json.loads(model.read_text(encoding="utf-8"))
    assert doc["collocations"][0]["bigram_counts"]
    (doc["collocations"][0] if owner == "collocation" else doc["config"])["discount"] = 10**400
    (tmp_path / "bad.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["predict", "bad.json"], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model file bad.json is malformed: ")
    # the value is named by its size, not by its 401 digits
    assert len(err) < 200
    if owner == "config":
        assert "discount must be a finite number, got an integer of 1329 bits" in err


# (edit of a stored collocation model, the message's end after the first bigram it names)
BAD_COLLOCATION_COUNTS = {
    "bigram-below-min-count": (
        lambda cd: cd["bigram_counts"][0].__setitem__(2, cd["min_count"] - 1),
        "stored with count 0 < min_count",
    ),
    "bigram-without-unigram": (
        lambda cd: cd["unigram_counts"].pop(cd["bigram_counts"][0][0]),
        "references missing unigram count",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_COLLOCATION_COUNTS))
def test_predict_rejects_a_stored_bigram_its_collocation_model_refuses(
    case, tmp_path, corpus_path, capsys
):
    mutate, message = BAD_COLLOCATION_COUNTS[case]
    model = train_model(tmp_path, corpus_path, extra=["--min-count", "1"])
    doc = json.loads(model.read_text(encoding="utf-8"))
    cd = doc["collocations"][0]
    a, b, _ = cd["bigram_counts"][0]
    mutate(cd)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    assert capsys.readouterr().err == f"error: model file {path} is malformed: bigram {(a, b)!r} {message}\n"


# (count to store, side it replaces: the first bigram's left token or the bigram itself)
BAD_COUNT_CASES = {
    "unigram-zero": (0, "unigram"),  # the merge score used to divide by it
    "unigram-negative": (-3, "unigram"),  # it used to flip the merge score's sign
    "unigram-float": (1.5, "unigram"),
    "bigram-true": (True, "bigram"),
    "bigram-float": (1.0, "bigram"),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNT_CASES))
def test_predict_rejects_a_collocation_count_that_is_no_count(case, tmp_path, corpus_path, capsys):
    count, side = BAD_COUNT_CASES[case]
    model = train_model(tmp_path, corpus_path, extra=["--min-count", "1"])
    FittedPipeline.load(model)  # the file save wrote loads
    doc = json.loads(model.read_text(encoding="utf-8"))
    cd = doc["collocations"][0]
    a, b, _ = cd["bigram_counts"][0]
    if side == "unigram":
        cd["unigram_counts"][a] = count
        message = f"unigram count of {a!r} must be an integer >= 1"
    else:
        cd["bigram_counts"][0][2] = count
        message = f"bigram {(a, b)!r} count must be an integer >= 1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError, match="must be an integer >= 1$"):
        FittedPipeline.load(path)
    capsys.readouterr()
    assert main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    assert capsys.readouterr().err == f"error: model file {path} is malformed: {message}\n"


@pytest.mark.parametrize("case", ["num-docs", "doc-freq"])
def test_load_refuses_a_vocabulary_count_stored_as_a_float(case, saved_models, tmp_path, capsys):
    # a float num_docs used to load: stats.messages, derived from it, may be an int
    doc = json.loads(saved_models["svm"].read_text(encoding="utf-8"))
    vocab = doc["vocabulary"]
    if case == "num-docs":
        vocab["num_docs"] = float(vocab["num_docs"])
        message = "num_docs must be an integer, got float"
    else:
        term = vocab["terms"][0]
        vocab["doc_freq"][term] = float(vocab["doc_freq"][term])
        message = f"term {term!r} has document frequency of type float"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    assert capsys.readouterr().err == f"error: model file {path} is malformed: {message}\n"


def test_predict_rejects_a_model_file_that_is_not_utf8(saved_models, tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(saved_models["svm"].read_bytes().replace(b'"svm"', b'"svm\xff"', 1))
    with pytest.raises(ModelFileError) as exc:
        FittedPipeline.load(path)
    assert str(exc.value).startswith(f"model file {path} is not valid UTF-8: ")
    capsys.readouterr()
    assert main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    assert capsys.readouterr().err.startswith(f"error: model file {path} is not valid UTF-8: ")


# a value other than the config's for each parameter a stored collocation model carries
COLLOCATION_PARAMETERS = {"discount": 7.0, "min_count": 9, "threshold": 2e-4}


@pytest.mark.parametrize("field", sorted(COLLOCATION_PARAMETERS))
def test_predict_rejects_collocation_parameters_other_than_the_config(
    field, saved_models, tmp_path, capsys
):
    # load derives each collocation model's parameters from the config
    doc = json.loads(saved_models["svm"].read_text(encoding="utf-8"))
    doc["collocations"][0][field] = COLLOCATION_PARAMETERS[field]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError, match="stored collocations does not match what the config"):
        FittedPipeline.load(path)
    capsys.readouterr()
    assert main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    assert capsys.readouterr().err.startswith(f"error: model file {path} is malformed: ")


def _as_float(owner, key):
    def mutate(doc):
        section = reduce(getitem, owner, doc)
        section[key] = float(section[key])

    return mutate


def _double_norms(doc):
    norms = doc["model"]["params"]["norms"]
    norms[:] = [2 * x for x in norms]


# (kind, edit of a saved model file, the section it leaves unequal to what load derives)
UNDERIVED = {
    "knn-k": ("knn", lambda doc: doc["model"]["params"].update(k=7), "model"),
    "knn-norm-negative": ("knn", lambda doc: doc["model"]["params"]["norms"].__setitem__(0, -1.0), "model"),
    "knn-norms-doubled": ("knn", _double_norms, "model"),
    "nb-alpha": ("nb", lambda doc: doc["model"]["params"].update(alpha=99.0), "model"),
    "selected-terms": ("svm", lambda doc: doc["stats"].update(selected_terms=-1), "stats"),
    "extra-unigram": ("svm", lambda doc: doc["collocations"][0]["unigram_counts"].update(zzzz=1), "collocations"),
    "unknown-top-level-key": ("svm", lambda doc: doc.update(comment="hand-edited"), "comment"),
    # equal to the derived value under ==, in another JSON type
    "format-version-true": ("svm", lambda doc: doc.update(format_version=True), "format_version"),
    "nb-alpha-true": ("nb", lambda doc: doc["model"]["params"].update(alpha=True), "model"),
    "knn-k-float": ("knn", _as_float(("model", "params"), "k"), "model"),
    "n-slots-float": ("svm", _as_float(("model",), "n_slots"), "model"),
    "messages-float": ("svm", _as_float(("stats",), "messages"), "stats"),
    "min-count-float": ("svm", _as_float(("collocations", 0), "min_count"), "collocations"),
}


@pytest.mark.parametrize("case", sorted(UNDERIVED))
def test_predict_rejects_stored_values_that_load_does_not_derive(case, saved_models, tmp_path, capsys):
    kind, mutate, section = UNDERIVED[case]
    doc = json.loads(saved_models[kind].read_text(encoding="utf-8"))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError, match=f"stored {section} does not match what the config"):
        FittedPipeline.load(path)
    capsys.readouterr()
    assert main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    assert capsys.readouterr().err.startswith(f"error: model file {path} is malformed: ")


@pytest.mark.parametrize("length", [False, True])
def test_load_refuses_has_length_stored_as_an_integer(length, tmp_path, corpus_path):
    model = train_model(tmp_path, corpus_path, ["--length-feature"] if length else [])
    doc = json.loads(model.read_text(encoding="utf-8"))
    assert doc["model"]["has_length"] is length
    doc["model"]["has_length"] = int(length)  # equal to the bool under ==
    model.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError, match="stored model does not match"):
        FittedPipeline.load(model)


def test_load_takes_an_int_for_a_derived_float(saved_models, tmp_path):
    # version 1 files store an integral float such as the discount 5.0 as 5
    doc = json.loads(saved_models["svm"].read_text(encoding="utf-8"))
    assert doc["collocations"][0]["discount"] == 5.0
    doc["collocations"][0]["discount"] = 5
    path = tmp_path / "v1-style.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = FittedPipeline.load(path)
    original = FittedPipeline.load(saved_models["svm"])
    assert [loaded.predict_text(text) for text in PROBES] == [original.predict_text(text) for text in PROBES]


# (kind, stat, its least value): the stats fit counts and no stored value derives
FREE_STATS = [("svm", "raw_terms", 0), ("svm", "preprocessed_terms", 0), ("baseline", "messages", 1)]


@pytest.mark.parametrize("value", ["many", -5, True, 2.0, None])  # None: one below the least
@pytest.mark.parametrize("kind,stat,low", FREE_STATS)
def test_load_refuses_a_free_stat_that_is_no_count(kind, stat, low, value, stdin_models, tmp_path, capsys):
    doc = json.loads(stdin_models[kind].read_text(encoding="utf-8"))
    path = tmp_path / "stats.json"
    doc["stats"][stat] = low
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert FittedPipeline.load(path).stats == FitStats(**doc["stats"])
    doc["stats"][stat] = low - 1 if value is None else value
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    assert capsys.readouterr().err == (
        f"error: model file {path} is malformed: stats {stat} must be an integer >= {low}\n"
    )


@pytest.mark.parametrize("field,value", [("spam_fraction", 7.0), ("spam_fraction", -0.5), ("samples", -4), ("samples", 2.0)])
def test_dt_leaf_out_of_range_fails_to_load(field, value, saved_models, tmp_path, capsys):
    doc = json.loads(saved_models["dt"].read_text(encoding="utf-8"))
    leaf = doc["model"]["params"]["nodes"][0]  # train() appends a leaf first
    assert "spam_fraction" in leaf
    leaf[field] = value
    path = tmp_path / "leaf.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    assert capsys.readouterr().err == f"error: model file {path} is malformed: dt node 0 is malformed\n"


def test_predict_refuses_a_model_rule_that_can_match_the_empty_string(
    saved_models, tmp_path, capsys
):
    doc = json.loads(saved_models["svm"].read_text(encoding="utf-8"))
    doc["entity_rules"].append(["number", "\\d*"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "empty string" in err


def _json_paths(node, path=()):
    """The key path of every value below a JSON document's root."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


# Key paths of a model file's leaves, "*" standing for any key or index. Load
# reads the free ones as they are (format_version is checked on its own) and
# derives the others again from them and the config. Of the stats, a trained
# model stores two free ones and the rule baseline one.
FREE_LEAVES = [
    ("format_version",), ("config", "*"), ("entity_rules", "*", "*"),
    ("collocations", "*", "unigram_counts", "*"), ("collocations", "*", "bigram_counts", "*", "*"),
    ("vocabulary", "terms", "*"), ("vocabulary", "doc_freq", "*"), ("vocabulary", "num_docs"),
    ("model", "params", "log_prior", "*"), ("model", "params", "log_likelihood", "*", "*"),
    ("model", "params", "weights", "*"), ("model", "params", "bias"),
    ("model", "params", "nodes", "*", "*"), ("model", "params", "root"),
    ("model", "params", "rows", "*", "*", "*"), ("model", "params", "labels", "*"),
]
DERIVED_LEAVES = [
    ("collocations", "*", "discount"), ("collocations", "*", "min_count"), ("collocations", "*", "threshold"),
    ("vocabulary",), ("model", "kind"), ("model", "n_slots"), ("model", "has_length"),
    ("model", "vocab_fingerprint"), ("model", "params", "alpha"), ("model", "params", "k"),
    ("model", "params", "norms", "*"),
]


def _listed(path, patterns) -> bool:
    return any(
        len(pattern) == len(path) and all(p in ("*", key) for p, key in zip(pattern, path))
        for pattern in patterns
    )


def _unequal(value):
    """A value that differs from ``value`` under ==, not only in type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return value + "x" if isinstance(value, str) else {}


@pytest.mark.parametrize("kind", ["baseline", "nb", "svm", "lr", "dt", "knn"])
def test_every_model_file_leaf_is_free_or_derived_and_load_checks_the_derived(
    kind, saved_models, stdin_models, tmp_path
):
    doc = json.loads((stdin_models if kind == "baseline" else saved_models)[kind].read_text(encoding="utf-8"))
    stats = ("messages",) if kind == "baseline" else ("raw_terms", "preprocessed_terms")
    free = FREE_LEAVES + [("stats", name) for name in stats]
    derived = DERIVED_LEAVES + [("stats", name) for name in doc["stats"] if name not in stats]
    leaves = [p for p in _json_paths(doc) if not isinstance(reduce(getitem, p, doc), (dict, list))]
    assert [p for p in leaves if _listed(p, free) == _listed(p, derived)] == []
    path = tmp_path / "edited.json"
    checked = [p for p in leaves if _listed(p, derived)]
    assert checked
    for leaf in checked:
        edited = json.loads(json.dumps(doc))
        *parents, key = leaf
        owner = reduce(getitem, parents, edited)
        owner[key] = _unequal(owner[key])
        path.write_text(json.dumps(edited), encoding="utf-8")
        with pytest.raises(ModelFileError, match=f"stored {leaf[0]} does not match what the config"):
            FittedPipeline.load(path)


# one value of each JSON type, so every value can be given another type, and
# an integer no float can hold
RETYPES = (None, True, 0, 1.5, "x", [], {}, 10**400)
PROBES = (
    "khuyen mai goi ngay 0912345678",
    "an com chua ban oi",
    "[QC] nap the ngay www.shop.vn 50k",
    "!!!",
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_model_file_fails_cleanly_or_predicts(data, saved_models):
    kind = data.draw(st.sampled_from(sorted(saved_models)), label="kind")
    doc = json.loads(saved_models[kind].read_text(encoding="utf-8"))
    *parents, key = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
    owner = reduce(getitem, parents, doc)
    value = owner[key]
    how = data.draw(st.sampled_from(["delete", "retype", "truncate"]), label="how")
    if how == "delete":
        del owner[key]
    elif how == "truncate" and isinstance(value, (str, list, dict)) and value:
        n = data.draw(st.integers(0, len(value) - 1), label="keep")
        owner[key] = dict(list(value.items())[:n]) if isinstance(value, dict) else value[:n]
    else:
        owner[key] = data.draw(st.sampled_from([r for r in RETYPES if type(r) is not type(value)]))
    path = saved_models[kind].parent / "fuzzed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        fitted = FittedPipeline.load(path)
    except ModelFileError:
        return
    for text in PROBES:
        pred = fitted.predict_text(text)
        assert isinstance(pred.label, Label) and math.isfinite(pred.score)


def test_dt_child_not_below_its_split_fails_to_load(saved_models, tmp_path, capsys):
    doc = json.loads(saved_models["dt"].read_text(encoding="utf-8"))
    nodes = doc["model"]["params"]["nodes"]
    splits = [j for j, node in enumerate(nodes) if "feature" in node]
    assert splits
    path = tmp_path / "loop.json"
    for j in splits:
        for side in ("left", "right"):
            for child in {j, len(nodes) - 1}:  # itself, and the last node
                edited = json.loads(json.dumps(doc))
                edited["model"]["params"]["nodes"][j][side] = child
                path.write_text(json.dumps(edited), encoding="utf-8")
                with pytest.raises(ModelFileError, match=f"dt node {j} is malformed"):
                    FittedPipeline.load(path)
    capsys.readouterr()
    assert main(["predict", str(path)], stdin=io.BytesIO(b"khuyen mai\n")) == 2
    assert capsys.readouterr().err.startswith("error: ")


# -- fuzzed predict stdin --------------------------------------------------------

# CR, NUL, NEL (U+0085), LINE SEPARATOR, a UTF-8-encoded lone surrogate,
# invalid and cut-off UTF-8, and pieces the tagger and models react to.
_STDIN_PIECES = st.sampled_from([
    b"\r", b"\r\n", b"\n", b"\x00", "\u0085".encode(), "\u2028".encode(), b"\xed\xa0\x80",
    b"\xff", b"\xc3", b"\xe1\xba", "khuyến mãi".encode(), b"[QC] 50k", b"0912345678",
    b" ", b"\t", b"<phone>", b"www.shop.vn",
])
_STDIN = st.one_of(
    st.lists(st.one_of(_STDIN_PIECES, st.binary(max_size=6)), max_size=12).map(b"".join),
    st.binary(max_size=40),
)


@pytest.fixture(scope="module")
def stdin_models(saved_models):
    folder = saved_models["svm"].parent
    baseline = folder / "baseline.json"
    assert main(["train", str(folder / "corpus.tsv"), "-o", str(baseline), "--clf", "baseline"]) == 0
    return {"baseline": baseline, "svm": saved_models["svm"], "knn": saved_models["knn"], "dt": saved_models["dt"]}


@settings(max_examples=200, deadline=None)
@given(raw=_STDIN, kind=st.sampled_from(["baseline", "svm", "knn", "dt"]))
def test_fuzzed_predict_stdin_answers_every_line(raw, kind, stdin_models):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(["predict", str(stdin_models[kind])], stdin=io.BytesIO(raw))
    lines = out.getvalue().split("\n")
    assert lines.pop() == ""
    assert len(lines) == len(raw.split(b"\n")) - (1 if raw.endswith(b"\n") or not raw else 0)
    assert rc == (3 if "ERR" in lines else 0)
    for line in lines:
        if line != "ERR":
            label, score = line.split("\t")
            assert label in ("spam", "ham") and math.isfinite(float(score))


# -- fuzzed corpus and rule files ------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _assert_exits_cleanly(argv):
    """main(argv) exits 0, or 1 with an error line; an exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == 0 or (rc == 1 and err.getvalue().startswith("error: ")), (rc, err.getvalue())


_WORDS = st.sampled_from(["khuyen mai 0912345678", "an com chua :)", "[QC] 50k www.shop.vn", "20/10"])
_TSV_LINE = st.one_of(
    st.tuples(
        st.sampled_from(["spam", "ham", "SPAM", " ham", "x", ""]),
        st.sampled_from(["\t", "", "\t\t", " "]),
        st.one_of(_WORDS, st.text(max_size=12)),
    ).map("".join),
    st.text(max_size=12),
)
_TSV_BYTES = st.one_of(
    st.lists(_TSV_LINE, max_size=8).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.binary(max_size=40),
)


@settings(max_examples=150, deadline=None)
@given(raw=_TSV_BYTES, command=st.sampled_from(["train", "tokenize"]), kind=st.sampled_from(KINDS))
def test_fuzzed_corpus_fails_cleanly(raw, command, kind, fuzz_dir):
    corpus = fuzz_dir / "corpus.tsv"
    corpus.write_bytes(raw)
    argv = [command, str(corpus)]
    if command == "train":
        argv += ["-o", str(fuzz_dir / "m.json"), "--clf", kind, "--min-df", "1", "--epochs", "2"]
    _assert_exits_cleanly(argv)


# short regex pieces; the corpus texts stay short so no pattern can backtrack for long
_PATTERN = st.one_of(
    st.lists(
        st.sampled_from(
            ["a", "\\d", "+", "*", "(", ")", "[", "]", "|", "?", "{2}", "{99999999999}",
             "^", "$", ".", "\\b", "\\", "\x00", "(?i)", "(?<=a+)", "(" * 600]
        ),
        max_size=6,
    ).map("".join),
    st.text(max_size=8),
)
_RULE_LINE = st.one_of(
    st.tuples(
        st.sampled_from([*ENTITY_GROUPS, "phone ", "bogus", ""]),
        st.sampled_from(["\t", "", " "]),
        _PATTERN,
    ).map("".join),
    st.sampled_from(["# comment", "", "   "]),
    st.text(max_size=10),
)
_RULE_BYTES = st.one_of(
    st.lists(_RULE_LINE, max_size=5).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.binary(max_size=20),
)


@settings(max_examples=150, deadline=None)
@given(raw=_RULE_BYTES, command=st.sampled_from(["train", "tokenize"]))
def test_fuzzed_rules_file_fails_cleanly(raw, command, fuzz_dir):
    corpus = fuzz_dir / "short.tsv"
    corpus.write_text("spam\tgoi 0912345678 aa\nham\tan com 20/10\nspam\t[QC] 50k a.vn\n", encoding="utf-8")
    rules = fuzz_dir / "rules.tsv"
    rules.write_bytes(raw)
    argv = [command, str(corpus), "--rules", str(rules)]
    if command == "train":
        argv += ["-o", str(fuzz_dir / "m.json"), "--min-df", "1", "--epochs", "2"]
    _assert_exits_cleanly(argv)


# -- evaluate ------------------------------------------------------------------


def test_evaluate_single_config(tmp_path, corpus_path, capsys):
    csv_path = tmp_path / "rates.csv"
    rc = main(
        ["evaluate", str(corpus_path), "--folds", "2", *FAST_FLAGS, "--csv", str(csv_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["config", "tpr", "tnr", "fpr", "fnr", "folds"]
    assert any(line.startswith("svm-bow") for line in lines)
    assert f"wrote {csv_path}" in out
    csv_lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(csv_lines) == 1 + 2 + 1  # header, one row per fold, average


def test_evaluate_rejects_single_fold(corpus_path, capsys):
    rc = main(["evaluate", str(corpus_path), "--folds", "1"])
    assert rc == 1
    assert "--folds" in capsys.readouterr().err


@pytest.mark.parametrize("folds", [10**19, 10**12], ids=["past-index-size", "terabytes"])
def test_evaluate_with_more_folds_than_a_class_has_messages_is_an_error(folds, corpus_path, capsys):
    # each class is counted before any list of k items is made
    rc = main(["evaluate", str(corpus_path), "--folds", str(folds)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: class 'spam' has ") and f"fewer than k={folds}" in err
    assert "Traceback" not in err


def test_evaluate_grid(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    save_corpus(synth_corpus(80, seed=9), corpus)
    csv_path = tmp_path / "grid.csv"
    rc = main(
        [
            "evaluate", str(corpus), "--grid", "paper", "--folds", "2",
            "--epochs", "3", "--csv", str(csv_path),
        ]
    )
    assert rc == 0
    table = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in table[2:11]]
    assert names == [
        "baseline", "svm-bow-raw", "svm-bow", "svm-tfidf", "nb-bow",
        "lr-bow", "dt-bow", "knn-bow", "svm-bow-df3-len",
    ]
    csv_lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(csv_lines) == 1 + 8 * (2 + 1) + 2  # trainables get folds+avg, baseline all+avg


# -- tokenize ------------------------------------------------------------------


def test_tokenize_streams(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text(
        "spam\tGoi 0912345678 ngay 20/10\nham\tan com chua :)\n", encoding="utf-8"
    )
    rc = main(["tokenize", str(corpus)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "goi <phone> ngay <date>\nan com chua <emoticon>\n"


def test_tokenize_show_merges(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("spam\tkhuyen mai\n" * 12, encoding="utf-8")
    rc = main(["tokenize", str(corpus), "--show-merges"])
    assert rc == 0
    out = capsys.readouterr().out
    score = (12 - 5.0) / (12 * 12)
    assert out == f"khuyen mai\t{score!r}\n"


def test_tokenize_rejects_zero_passes(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("spam\tkhuyen mai\n", encoding="utf-8")
    rc = main(["tokenize", str(corpus), "--passes", "0"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_tokenize_closed_pipe_is_quiet(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("spam\tkhuyen mai lon\n" * 4, encoding="utf-8")

    class ClosedPipe(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    rc = main(["tokenize", str(corpus)])
    assert rc == 1
    assert capsys.readouterr().err == ""


def test_module_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "vnspam", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "train" in proc.stdout and "predict" in proc.stdout


def test_module_entrypoint_reports_a_missing_model_file(tmp_path):
    missing = tmp_path / "missing.json"
    proc = subprocess.run(
        [sys.executable, "-m", "vnspam", "predict", str(missing)],
        capture_output=True, text=True, stdin=subprocess.DEVNULL,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot read model file {missing}: ")
    assert proc.stdout == ""


def test_module_entrypoint_exits_with_the_command_status(tmp_path, monkeypatch, capsys):
    import runpy

    monkeypatch.setattr(sys, "argv", ["vnspam", "predict", str(tmp_path / "missing.json")])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("vnspam", run_name="__main__")
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: cannot read model file ")


def test_cli_import_loads_no_process_pool():
    # Only `evaluate --jobs` above 1 needs the pool; the modules that `site`
    # loaded before the import do not count.
    from pathlib import Path

    import vnspam

    code = (
        "import sys; before = set(sys.modules); import vnspam.cli; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    src = str(Path(vnspam.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
