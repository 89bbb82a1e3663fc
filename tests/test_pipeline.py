"""Fit/persist plumbing: config validation, fitting, canonical model files."""

import enum
import json
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vnspam import (
    Corpus,
    FittedPipeline,
    Label,
    Message,
    ModelFileError,
    PipelineConfig,
    predict,
)
from vnspam import classifiers, pipeline, preprocess
from vnspam.features import FeatureVector
from vnspam.preprocess import ENTITY_GROUPS, EntityRuleSet

from conftest import synth_corpus

import oracles

FAST = PipelineConfig(min_df=1, length_feature=False, epochs=5)


# -- config --------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(classifier="forest"), "unknown classifier"),
        (dict(representation="hash"), "unknown representation"),
        (dict(min_df=0), "min-df"),
        (dict(passes=0), "passes"),
        (dict(discount=-1.0), "discount"),
        (dict(colloc_threshold=0.0), "threshold"),
        (dict(min_count=0), "min-count"),
        (dict(classifier="nb", alpha=0.0), "alpha"),
        (dict(classifier="knn", k=0), "k must"),
        (dict(classifier="nb", reg_lambda=float("nan")), "reg_lambda must be a finite"),
        (dict(classifier="svm", alpha=float("inf")), "alpha must be a finite"),
        (dict(nfc="no"), "nfc must be of type bool, got 'no'"),
        (dict(length_feature=1), "length_feature must be of type bool"),
        (dict(min_df=2.5), "min_df must be of type int, got 2.5"),
        (dict(epochs=True), "epochs must be of type int, got True"),
        (dict(alpha=True), "alpha must be of type float, got True"),
        (dict(discount="5"), "discount must be of type float"),
        (dict(classifier=["svm"]), "classifier must be of type str"),
        (dict(discount=10**400), "discount must be a finite"),
        (dict(colloc_threshold=-(10**400)), "colloc_threshold must be a finite"),
    ],
)
def test_config_validate_rejects(kwargs, needle):
    with pytest.raises(ValueError, match=needle):
        PipelineConfig(**kwargs).validate()


def test_config_validate_takes_an_int_for_a_float_field():
    PipelineConfig(discount=5, alpha=1, reg_lambda=1).validate()


def test_config_names():
    assert PipelineConfig().name == "svm-bow-df3-len"
    assert PipelineConfig(classifier="baseline").name == "baseline"
    assert FAST.name == "svm-bow"
    assert PipelineConfig(preprocess=False, min_df=1, length_feature=False).name == "svm-bow-raw"
    assert PipelineConfig(classifier="nb", representation="tfidf", min_df=1,
                          length_feature=False).name == "nb-tfidf"


# -- fitting -------------------------------------------------------------------


def test_fit_records_stats(small_corpus):
    fitted = FittedPipeline.fit(small_corpus.messages, FAST)
    stats = fitted.stats
    assert stats.messages == len(small_corpus.messages)
    assert stats.raw_terms > 0
    assert stats.selected_terms == len(fitted.vocab)
    assert stats.selected_terms <= stats.preprocessed_terms


def test_fit_rejects_empty_and_unlabeled():
    with pytest.raises(ValueError, match="empty corpus"):
        FittedPipeline.fit([], FAST)
    msgs = [Message(0, "an com chua", Label.LEGITIMATE), Message(1, "khuyen mai")]
    with pytest.raises(ValueError, match="unlabeled"):
        FittedPipeline.fit(msgs, FAST)


def test_fit_refuses_a_label_that_is_not_a_label():
    msgs = [
        Message(0, "khuyen mai goi ngay", Label.SPAM),
        Message(1, "qua tang mien phi", "spam"),
        Message(2, "an com chua", Label.LEGITIMATE),
    ]
    with pytest.raises(ValueError, match="label 1 is 'spam', not a Label"):
        FittedPipeline.fit(msgs, FAST)


def test_baseline_fit_has_no_feature_space(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the rule baseline fits no stage")

    monkeypatch.setattr(pipeline, "tag_entities", fail)
    monkeypatch.setattr(pipeline, "_fit_rows", fail)
    msgs = [Message(0, "[QC] khuyen mai"), Message(1, "an com chua")]
    fitted = FittedPipeline.fit(msgs, PipelineConfig(classifier="baseline"))
    assert fitted.stats == pipeline.FitStats(2, 0, 0, 0)
    assert fitted.vocab is None
    assert fitted.collocations == []
    with pytest.raises(ValueError, match="feature space"):
        fitted.vector("x")
    assert fitted.predict_text("[QC] abc").label is Label.SPAM
    assert fitted.predict_text("abc").label is Label.LEGITIMATE


def test_no_preprocess_splits_verbatim(small_corpus):
    cfg = PipelineConfig(preprocess=False, min_df=1, length_feature=False, epochs=5)
    fitted = FittedPipeline.fit(small_corpus.messages, cfg)
    assert fitted.tokens("Goi 0912345678 NGAY!") == ["Goi", "0912345678", "NGAY!"]


def test_preprocess_tokens_are_tagged_and_segmented(small_corpus):
    fitted = FittedPipeline.fit(small_corpus.messages, FAST)
    toks = fitted.tokens("Goi 0912345678 ngay 20/10")
    assert "<phone>" in " ".join(toks)
    assert "<date>" in " ".join(toks)


@pytest.mark.parametrize("empty", [True, False], ids=["empty", "none"])
def test_fit_keeps_an_empty_rule_set_and_none_means_the_built_in_rules(empty, small_corpus, tmp_path):
    fitted = FittedPipeline.fit(small_corpus.messages, FAST, EntityRuleSet([]) if empty else None)
    want = [] if empty else list(EntityRuleSet.default())
    tokens = "goi 0912345678 ngay 20 10" if empty else "goi <phone> ngay <date>"
    fitted.save(tmp_path / "m.json")
    for p in (fitted, FittedPipeline.load(tmp_path / "m.json")):
        assert list(p.rules) == want
        assert p.tokens("Goi 0912345678 ngay 20/10") == tokens.split()
        assert any(term.startswith("<") for term in p.vocab.terms) != empty


def test_fit_segmentation_keeps_one_str_per_distinct_token():
    # segment builds each merged token per occurrence; evaluation keeps
    # the segmented streams, so they must hold one copy of each token
    streams = [["khuyen", "mai", "soan", "tin", "ngay"] for _ in range(30)]
    streams += [["mai", "tin", "khuyen"] for _ in range(30)]
    models, out = pipeline.fit_segmentation(streams, PipelineConfig(min_count=2, passes=2))
    assert out[0] == ["khuyen_mai_soan_tin", "ngay"] and out[-1] == ["mai_tin_khuyen"]
    tokens = [t for s in out for t in s]
    assert len({id(t) for t in tokens}) == len(set(tokens)) == 3


def test_fit_rows_keep_one_str_per_distinct_token(monkeypatch):
    # fit keeps the normalized rows until it has featurized them
    tokens = []
    real = pipeline._fit_rows

    def capture(rows, *args):
        tokens.extend(t for n in rows for t in n.tokens)
        return real(rows, *args)

    monkeypatch.setattr(pipeline, "_fit_rows", capture)
    FittedPipeline.fit(synth_corpus(60, seed=3).messages, FAST)
    assert len(tokens) > 3 * len(set(tokens))
    assert len({id(t) for t in tokens}) == len(set(tokens))


def test_fit_evaluate_and_tokenize_normalize_in_the_one_pass(monkeypatch, tmp_path, capsys):
    from vnspam import cli, cross_validate, evaluation, save_corpus, stratified_kfold

    passes, calls = [], []
    real_all, real_one = pipeline._normalize_all, pipeline.normalize

    def counting_one(*args):
        calls.append(args[0])
        return real_one(*args)

    def counting_all(messages, *args):
        passes.append(len(messages))
        return real_all(messages, *args)

    monkeypatch.setattr(pipeline, "normalize", counting_one)
    for module in (pipeline, evaluation, cli):
        monkeypatch.setattr(module, "_normalize_all", counting_all)
    corpus = synth_corpus(60, seed=3)
    FittedPipeline.fit(corpus.messages, FAST)
    cross_validate(corpus, stratified_kfold(corpus, k=3), FAST)
    save_corpus(corpus, tmp_path / "corpus.tsv")
    assert cli.main(["tokenize", str(tmp_path / "corpus.tsv")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 60
    # one pass each, and every normalize call inside one of them
    assert passes == [60, 60, 60]
    assert len(calls) == 180


def test_nfc_folds_decomposed_input():
    msgs = [
        Message(0, "khuyen mai ve xem phim", Label.SPAM),
        Message(1, "toi nay an com nhe", Label.LEGITIMATE),
        Message(2, "mai hop som", Label.LEGITIMATE),
        Message(3, "trung thuong lon", Label.SPAM),
    ]
    plain = FittedPipeline.fit(msgs, FAST)
    folded = FittedPipeline.fit(msgs, PipelineConfig(
        min_df=1, length_feature=False, epochs=5, nfc=True))
    composed = "vé xem phim"
    decomposed = "vé xem phim"
    assert folded.tokens(decomposed) == folded.tokens(composed) == ["vé", "xem", "phim"]
    # without folding the combining mark is stripped as punctuation
    assert plain.tokens(decomposed)[0] == "ve"


def test_multiple_passes_stack_collocation_models(small_corpus):
    cfg = PipelineConfig(min_df=1, length_feature=False, epochs=5,
                         passes=2, min_count=3)
    fitted = FittedPipeline.fit(small_corpus.messages, cfg)
    assert len(fitted.collocations) == 2


def test_predict_text_agrees_with_vector_path(small_corpus):
    fitted = FittedPipeline.fit(small_corpus.messages, FAST)
    for text in ("khuyen mai trung thuong 0912345678", "an com chua ban oi"):
        via_text = fitted.predict_text(text)
        via_vec = predict(fitted.model, fitted.vector(text))
        assert via_text == via_vec


# -- persistence ------------------------------------------------------------------


def fit_small(config=FAST):
    return FittedPipeline.fit(synth_corpus(60, seed=3).messages, config)


def test_save_load_save_is_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    fitted = fit_small()
    fitted.save(a)
    FittedPipeline.load(a).save(b)
    assert a.read_bytes() == b.read_bytes()


def test_training_twice_writes_identical_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    fit_small().save(a)
    fit_small().save(b)
    assert a.read_bytes() == b.read_bytes()


def test_loaded_pipeline_predicts_identically(tmp_path):
    path = tmp_path / "m.json"
    fitted = fit_small()
    fitted.save(path)
    loaded = FittedPipeline.load(path)
    for m in synth_corpus(30, seed=21).messages:
        assert loaded.predict_text(m.text) == fitted.predict_text(m.text)


def test_save_leaves_no_temp_files(tmp_path):
    fit_small().save(tmp_path / "m.json")
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), {1, 2}, float("-inf"), object(), "a\ud800b", {1: 0}],
    ids=["nan", "inf", "set", "-inf", "object", "lone-surrogate", "int-key"],
)
def test_failed_save_keeps_the_old_file(tmp_path, bad):
    path = tmp_path / "m.json"
    fitted = fit_small()
    fitted.save(path)
    before = path.read_bytes()
    # "model" sorts after "collocations", "config" and "entity_rules", so
    # the writer has already streamed part of the file when it meets the bad value
    fitted.model.params["zz"] = bad
    with pytest.raises(ModelFileError) as exc:
        fitted.save(path)
    if isinstance(bad, dict):  # json.dumps would write the key 1 as "1"
        assert "keys must be str, not int" in str(exc.value)
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]
    assert path.read_bytes() == before


def test_knn_save_streams_instead_of_holding_the_file(tmp_path):
    path = tmp_path / "knn.json"
    fitted = FittedPipeline.fit(synth_corpus(1500, seed=5).messages, PipelineConfig(classifier="knn"))
    tracemalloc.start()
    try:
        fitted.save(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_knn_copies_and_a_reload_predict_and_save_alike(tmp_path):
    # The fitted rows share one list per distinct entry; pickle and deepcopy
    # keep that sharing, and a loaded file holds one list per entry.
    import copy
    import pickle

    fitted = FittedPipeline.fit(synth_corpus(200, seed=3).messages, PipelineConfig(classifier="knn"))
    path = tmp_path / "knn.json"
    fitted.save(path)
    copies = [pickle.loads(pickle.dumps(fitted)), copy.deepcopy(fitted), FittedPipeline.load(path)]
    entries = [len({id(e) for row in c.model.params["rows"] for e in row}) for c in [fitted, *copies]]
    assert entries[0] == entries[1] == entries[2] < entries[3]
    texts = [m.text for m in synth_corpus(40, seed=21).messages]
    want = [fitted.predict_text(t) for t in texts]
    for i, other in enumerate(copies):
        assert [other.predict_text(t) for t in texts] == want
        other.save(tmp_path / f"{i}.json")
        assert (tmp_path / f"{i}.json").read_bytes() == path.read_bytes()


def test_an_empty_path_is_named_as_given(tmp_path, monkeypatch):
    # "" reads and writes ".", but the messages name the path the caller gave
    from vnspam import CorpusError, load_corpus

    monkeypatch.chdir(tmp_path)
    with pytest.raises(ModelFileError, match=r"^cannot read model file '': [^.]*$"):
        FittedPipeline.load("")
    with pytest.raises(CorpusError, match=r"^cannot read corpus file '': [^.]*$"):
        load_corpus("")
    with pytest.raises(OSError, match=r"^cannot write model file '': [^.]*$"):
        fit_small().save("")
    assert list(tmp_path.iterdir()) == []


def test_load_missing_file(tmp_path):
    with pytest.raises(ModelFileError, match="cannot read"):
        FittedPipeline.load(tmp_path / "nope.json")


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFileError, match="not valid JSON"):
        FittedPipeline.load(path)


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ModelFileError, match="JSON object"):
        FittedPipeline.load(path)


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "m.json"
    fit_small().save(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["format_version"] = 99
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError, match="format version"):
        FittedPipeline.load(path)


def test_load_rejects_missing_sections(tmp_path):
    path = tmp_path / "m.json"
    fit_small().save(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["model"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError, match="malformed"):
        FittedPipeline.load(path)


def test_load_rejects_tampered_vocabulary(tmp_path):
    path = tmp_path / "m.json"
    fit_small().save(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    terms = doc["vocabulary"]["terms"]
    df = doc["vocabulary"]["doc_freq"]
    df["zzzz"] = df.pop(terms[0])
    terms[0] = "zzzz"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError, match="stored model does not match what the config"):
        FittedPipeline.load(path)


# -- model file text ----------------------------------------------------------------


def test_save_writes_sorted_keys_and_round_trip_floats(tmp_path):
    fitted = fit_small()
    # -0.0 keeps its sign, 5.0 stays a float and 1/3 needs all of its digits
    fitted.model.params["weights"][:3] = [-0.0, 5.0, 1.0 / 3.0]
    fitted.model.params["bias"] = -0.0
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    fitted.save(a)
    text = a.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    assert '"bias": -0.0,\n' in text
    assert '"weights": [\n    -0.0,\n    5.0,\n    0.3333333333333333,\n' in text
    key_lists = []

    def record_keys(pairs):
        key_lists.append([k for k, _ in pairs])
        return dict(pairs)

    json.loads(text, object_pairs_hook=record_keys)
    assert key_lists and all(keys == sorted(keys) for keys in key_lists)
    loaded = FittedPipeline.load(a)
    assert loaded.model.params["weights"][:3] == [-0.0, 5.0, 1.0 / 3.0]
    assert [type(w) for w in loaded.model.params["weights"][:3]] == [float] * 3
    assert str(loaded.model.params["bias"]) == "-0.0"
    loaded.save(b)
    assert a.read_bytes() == b.read_bytes()


def _written(doc) -> str:
    pieces = []
    pipeline._write_json(doc, 0, pieces.append)
    return "".join(pieces)


def _dumps(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False, allow_nan=False)


_EDGE_FLOATS = [-0.0, 0.0, 1e16, -1e16, 5e-324, sys.float_info.max, -sys.float_info.max, 1 / 3]
_EDGE_CHARS = ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\U0001f600", "\ud800", "é"]
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_FLOATS),
    st.text(st.one_of(st.sampled_from(_EDGE_CHARS), st.characters()), max_size=12),
)
json_keys = st.text(st.one_of(st.sampled_from(_EDGE_CHARS), st.characters()), max_size=6)


class _Count(enum.IntEnum):  # json spells a subclass of a scalar type as its base type
    ONE = 1


class _Tag(str):
    pass


@st.composite
def json_docs(draw):
    """JSON values with empty and nested containers, tuples among the lists,
    wrapped in up to eight more lists or one-key dicts, so nesting reaches 6."""
    doc = draw(
        st.recursive(
            json_scalars,
            lambda inner: st.lists(inner, max_size=5)
            | st.lists(inner, max_size=3).map(tuple)
            | st.dictionaries(json_keys, inner, max_size=5),
            max_leaves=30,
        )
    )
    for key in draw(st.lists(st.none() | json_keys, max_size=8)):
        doc = [doc] if key is None else {key: doc}
    return doc


@settings(max_examples=500, deadline=None)
@given(json_docs())
@example([[[[[[[[], {}]]]]]], {"": {}, "a": [{}, []]}])
@example({"b": _EDGE_FLOATS, "a": [-(2**100), 2**64, -1, 0], "\u2028\"\\": "\x00\ud800\U0001f600"})
@example([True, False, None, 1, 1.0, "1"])
@example({_Tag("k"): [_Count.ONE, _Tag('"t"'), 0.5]})
def test_writer_spells_what_json_dumps_gives(doc):
    assert _written(doc) == _dumps(doc)


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), float("-inf"), {1, 2}, object(), b"x", [1, {"a": float("nan")}]],
    ids=["nan", "inf", "-inf", "set", "object", "bytes", "nested-nan"],
)
def test_writer_refuses_what_json_dumps_refuses(bad):
    with pytest.raises(Exception) as want:
        _dumps(bad)
    with pytest.raises(want.type):
        _written(bad)


def test_writer_streams_long_runs_in_pieces():
    doc = {"terms": [f"t{i}" for i in range(5000)], "df": {f"t{i}": i for i in range(5000)}}
    pieces = []
    pipeline._write_json(doc, 0, pieces.append)
    assert "".join(pieces) == _dumps(doc)
    assert max(map(len, pieces)) < len(_dumps(doc)) / 20


V1 = Path(__file__).with_name("data") / "v1"


@pytest.mark.parametrize("kind", ["nb", "svm", "lr", "dt", "knn"])
def test_files_from_the_old_writer_still_load_and_predict(kind, tmp_path):
    """``data/v1`` holds files from the writer that came before ``json``'s format:
    floats as ``.17g`` and integral floats as bare ints. Each fixture was fitted
    on ``synth_corpus(40, seed=3, tag_spam=True)`` (bow, ``min_df=1``,
    ``min_count=2``, ``epochs=3``); its ``.tsv`` holds ``label<TAB>repr(score)``
    for each line of ``held_out.txt``, as the loading code of that time gave them."""
    held_out = (V1 / "held_out.txt").read_text(encoding="utf-8").split("\n")[:-1]
    loaded = FittedPipeline.load(V1 / f"{kind}.json")
    lines = [f"{p.label.token}\t{p.score!r}\n" for p in map(loaded.predict_text, held_out)]
    assert "".join(lines) == (V1 / f"{kind}.tsv").read_text(encoding="utf-8")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    loaded.save(a)
    FittedPipeline.load(a).save(b)
    assert a.read_bytes() == b.read_bytes()


# -- fast fit path against the plain loops, end to end --------------------------


def _tag_entities_per_char(text, rules=None):
    compiled = [(r.group, r.regex) for r in (EntityRuleSet.default() if rules is None else rules)]
    return oracles.tag_entities_per_char(text, compiled, ENTITY_GROUPS)


def _train_linear_plain(vectors, spam_flags, n_slots, hp, loss, orders):
    assert orders is None  # FittedPipeline.fit leaves the visiting orders to the learner
    return oracles.train_linear_plain(vectors, spam_flags, n_slots, hp, loss)


def test_fast_fit_path_writes_the_plain_loops_bytes(tmp_path, monkeypatch):
    messages = synth_corpus(300, seed=17, tag_spam=True).messages
    configs = [
        PipelineConfig(classifier=kind, representation=rep, length_feature=length)
        for kind in ("nb", "svm", "lr", "dt", "knn")
        for rep in ("bow", "tfidf")
        for length in (True, False)
    ]

    def save_all(prefix):
        paths = []
        for config in configs:
            path = tmp_path / f"{prefix}-{config.name}.json"
            FittedPipeline.fit(messages, config).save(path)
            paths.append(path)
        return paths

    shipped = save_all("shipped")
    monkeypatch.setattr(classifiers, "_train_linear", _train_linear_plain)
    monkeypatch.setattr(classifiers, "_train_dt", oracles.train_dt_plain)
    monkeypatch.setattr(preprocess, "tag_entities", _tag_entities_per_char)
    monkeypatch.setattr(pipeline, "tag_entities", _tag_entities_per_char)
    plain = save_all("plain")
    for a, b in zip(shipped, plain):
        assert a.read_bytes() == b.read_bytes(), a.name


@pytest.mark.parametrize("kind", ["nb", "svm", "lr", "dt", "knn"])
@pytest.mark.parametrize("rep", ["bow", "tfidf"])
def test_each_scored_message_builds_one_feature_vector(kind, rep, monkeypatch):
    fitted = FittedPipeline.fit(
        synth_corpus(120, seed=3).messages,
        PipelineConfig(classifier=kind, representation=rep, min_df=1, epochs=2),
    )
    assert fitted.config.length_feature
    built = []
    of = FeatureVector._of  # the vectorizers build every row through it

    def counting(cls, *fields):
        built.append(of(*fields))
        return built[-1]

    monkeypatch.setattr(FeatureVector, "_of", classmethod(counting))
    texts = [m.text for m in synth_corpus(30, seed=4).messages] + ["", "zzz qqq"]
    for text in texts:
        fitted.predict_text(text)
    assert len(built) == len(texts)
    assert all(v.has_length for v in built)
