"""Corpus loading, saving and stratified fold assignment."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnspam import (
    Corpus,
    CorpusError,
    FoldAssignment,
    Label,
    Message,
    load_corpus,
    save_corpus,
    stratified_kfold,
)
from vnspam.corpus import _text_fault

from conftest import synth_corpus


def write(tmp_path, content, name="corpus.tsv"):
    p = tmp_path / name
    p.write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
    return p


def test_load_basic(tmp_path):
    p = write(tmp_path, "spam\tKM lon\nham\tve chua\n")
    corpus = load_corpus(p)
    assert len(corpus) == 2
    assert corpus[0] == Message(id=0, text="KM lon", label=Label.SPAM)
    assert corpus[1] == Message(id=1, text="ve chua", label=Label.LEGITIMATE)
    assert corpus.counts == {Label.SPAM: 1, Label.LEGITIMATE: 1}


def test_load_skips_blank_lines_and_keeps_order(tmp_path):
    p = write(tmp_path, "\nspam\ta\n\n\nham\tb\nham\tc\n\n")
    corpus = load_corpus(p)
    assert [m.text for m in corpus] == ["a", "b", "c"]
    assert [m.id for m in corpus] == [0, 1, 2]


def test_text_may_contain_tabs(tmp_path):
    p = write(tmp_path, "spam\ta\tb\tc\n")
    corpus = load_corpus(p)
    assert corpus[0].text == "a\tb\tc"


def test_missing_tab_reports_line_number(tmp_path):
    p = write(tmp_path, "spam\tok\njunk line\n")
    with pytest.raises(CorpusError, match=r":2:"):
        load_corpus(p)


def test_unknown_label_rejected(tmp_path):
    p = write(tmp_path, "Spam\tcase matters\n")
    with pytest.raises(CorpusError, match="unknown label"):
        load_corpus(p)


def test_empty_text_rejected(tmp_path):
    p = write(tmp_path, "spam\t   \n")
    with pytest.raises(CorpusError, match="empty message"):
        load_corpus(p)


def test_invalid_utf8_rejected(tmp_path):
    p = write(tmp_path, b"spam\tabc\xff\n")
    with pytest.raises(CorpusError, match="UTF-8"):
        load_corpus(p)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CorpusError, match="cannot read"):
        load_corpus(tmp_path / "nope.tsv")


def test_crlf_endings_accepted(tmp_path):
    p = write(tmp_path, "spam\thello\r\nham\tworld\r\n")
    corpus = load_corpus(p)
    assert [m.text for m in corpus] == ["hello", "world"]


def test_stray_line_separator_rejected(tmp_path):
    p = write(tmp_path, "spam\ta b\n")
    with pytest.raises(CorpusError, match="line-break"):
        load_corpus(p)


def test_line_break_error_names_the_first_in_text_order(tmp_path):
    # \u2029 comes after \x0b in the forbidden set but first in the text
    p = write(tmp_path, "ham\tok\nspam\ta\u2029b\x0bc\n")
    with pytest.raises(CorpusError) as exc:
        load_corpus(p)
    assert str(exc.value) == f"{p}:2: line-break character '\\u2029' inside message text"


def test_every_character_that_splits_a_line_is_refused_by_name():
    # the refused characters are exactly those str.splitlines breaks at
    for code in range(0x10000):
        text = f"a{chr(code)}b"
        breaks = len(text.splitlines()) > 1
        fault = _text_fault(text)
        assert fault == (f"line-break character {chr(code)!r} inside message text" if breaks else None)


def test_label_tokens_are_exact():
    assert Label.from_token("spam") is Label.SPAM
    assert Label.from_token("ham") is Label.LEGITIMATE
    for token in ("Spam", "legitimate", "", "spam "):
        with pytest.raises(ValueError) as exc:
            Label.from_token(token)
        assert str(exc.value) == f"unknown label token {token!r} (expected 'spam' or 'ham')"


def test_save_load_round_trip(tmp_path):
    corpus = synth_corpus(60, seed=3)
    p = tmp_path / "rt.tsv"
    save_corpus(corpus, p)
    again = load_corpus(p)
    assert again.messages == corpus.messages
    # and the file itself is byte-stable across a second pass
    save_corpus(again, tmp_path / "rt2.tsv")
    assert (tmp_path / "rt.tsv").read_bytes() == (tmp_path / "rt2.tsv").read_bytes()


def test_save_refuses_unlabeled(tmp_path):
    corpus = Corpus([Message(id=0, text="x", label=None)])
    with pytest.raises(CorpusError, match="no label"):
        save_corpus(corpus, tmp_path / "x.tsv")


@pytest.mark.parametrize(
    "text,fault",
    [
        ("a\nb", "line-break character '\\n' inside message text"),
        ("   ", "empty message text"),
        ("a\rb", "line-break character '\\r' inside message text"),
        ("x\u2028y", "line-break character '\\u2028' inside message text"),
        ("x\ud800y", "text is not valid UTF-8: surrogates not allowed"),
    ],
)
def test_save_refuses_a_text_load_cannot_read_back_and_writes_nothing(text, fault, tmp_path):
    p = write(tmp_path, "ham\tkeep me\n")
    corpus = Corpus([Message(0, "ok", Label.SPAM), Message(7, text, Label.LEGITIMATE)])
    with pytest.raises(CorpusError) as exc:
        save_corpus(corpus, p)
    assert str(exc.value) == f"message 7: {fault}"
    assert p.read_bytes() == b"ham\tkeep me\n"


# texts load_corpus mostly reads back, and texts of line breaks, blanks and lone surrogates
_TEXTS = st.text(st.characters(codec="utf-8"), min_size=1, max_size=8) | st.text(
    st.characters(codec="utf-8") | st.sampled_from("\n\r\t \x0b\x85\u2028\ud800"), max_size=8
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_TEXTS, st.sampled_from(Label)), max_size=3))
def test_save_refuses_exactly_what_load_cannot_read_back(rows, tmp_path_factory):
    p = tmp_path_factory.getbasetemp() / "round-trip.tsv"
    p.write_bytes(b"old")
    corpus = Corpus(Message(i, text, label) for i, (text, label) in enumerate(rows))
    try:
        save_corpus(corpus, p)
    except CorpusError:
        assert p.read_bytes() == b"old"
        # the lines it refused to write do not load back as this corpus
        raw = "".join(f"{label.token}\t{text}\n" for text, label in rows)
        p.write_bytes(raw.encode("utf-8", "surrogatepass"))
        try:
            loaded = load_corpus(p).messages
        except CorpusError:
            loaded = None
        assert loaded != corpus.messages
    else:
        assert load_corpus(p).messages == corpus.messages


def test_duplicate_ids_rejected():
    with pytest.raises(CorpusError, match="duplicate"):
        Corpus([Message(0, "a", Label.SPAM), Message(0, "b", Label.SPAM)])


@pytest.mark.parametrize("bad", ["spam", 1, True])
def test_a_label_that_is_not_a_label_is_a_corpus_error(bad):
    with pytest.raises(CorpusError, match=re.escape(f"message 0 has label {bad!r}, not a Label")):
        Corpus([Message(0, "a", bad)])


def test_class_counts_skips_unlabeled():
    corpus = Corpus([
        Message(0, "a", Label.SPAM),
        Message(1, "b", None),
        Message(2, "c", Label.LEGITIMATE),
    ])
    assert corpus.counts == {Label.SPAM: 1, Label.LEGITIMATE: 1}


# -- stratified folds -------------------------------------------------------


def fold_class_counts(corpus, folds):
    per = {Label.SPAM: [0] * folds.k, Label.LEGITIMATE: [0] * folds.k}
    by_id = {m.id: m.label for m in corpus}
    for mid, f in folds.fold_of.items():
        per[by_id[mid]][f] += 1
    return per


def test_folds_cover_and_partition(small_corpus):
    folds = stratified_kfold(small_corpus, 5, seed=1)
    assert set(folds.fold_of) == {m.id for m in small_corpus}
    assert set(folds.fold_of.values()) <= set(range(5))
    assert sum(folds.fold_sizes()) == len(small_corpus)
    seen = set()
    for f in range(5):
        ids = {i for i, g in folds.fold_of.items() if g == f}
        assert not ids & seen
        seen |= ids


def test_folds_balance_within_one(small_corpus):
    folds = stratified_kfold(small_corpus, 5, seed=2)
    per = fold_class_counts(small_corpus, folds)
    for counts in per.values():
        assert max(counts) - min(counts) <= 1
    sizes = folds.fold_sizes()
    assert max(sizes) - min(sizes) <= 1


def test_folds_deterministic(small_corpus):
    a = stratified_kfold(small_corpus, 5, seed=42)
    b = stratified_kfold(small_corpus, 5, seed=42)
    assert a == b
    c = stratified_kfold(small_corpus, 5, seed=43)
    assert a != c


def test_folds_validate_k_and_labels():
    corpus = synth_corpus(30, seed=4)
    with pytest.raises(ValueError, match="at least 2"):
        stratified_kfold(corpus, 1)
    unlabeled = Corpus([Message(0, "a", Label.SPAM), Message(1, "b", None)])
    with pytest.raises(ValueError, match="unlabeled"):
        stratified_kfold(unlabeled, 2)


def test_folds_require_k_members_per_class():
    msgs = [Message(i, f"m{i}", Label.LEGITIMATE) for i in range(10)]
    msgs.append(Message(10, "s", Label.SPAM))
    with pytest.raises(ValueError, match="fewer than"):
        stratified_kfold(Corpus(msgs), 3)


@pytest.mark.parametrize("k", [10**19, 10**12], ids=["past-index-size", "terabytes"])
def test_folds_count_each_class_before_sizing_anything_by_k(k):
    # [0] * 10**19 raises OverflowError and [0] * 10**12 asks for terabytes
    with pytest.raises(ValueError, match=rf"class 'spam' has 10 messages, fewer than k={k}$"):
        stratified_kfold(synth_corpus(30, seed=4), k)


def test_fold_balance_on_awkward_sizes():
    """Remainders in both classes must not pile onto the same fold."""
    rng = random.Random(0)
    for trial in range(20):
        n = rng.randint(40, 90)
        corpus = synth_corpus(n, seed=trial, spam_ratio=rng.uniform(0.2, 0.5))
        k = rng.choice([3, 4, 5])
        if min(corpus.counts.values()) < k:
            continue
        folds = stratified_kfold(corpus, k, seed=trial)
        per = fold_class_counts(corpus, folds)
        for counts in per.values():
            assert max(counts) - min(counts) <= 1
        sizes = folds.fold_sizes()
        assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("bad", [-1, 5, 7, 1.0, True, None])
def test_fold_assignment_rejects_fold_ids_outside_range_k(bad):
    fold_of = dict(stratified_kfold(synth_corpus(60, seed=3), k=5).fold_of)
    assert FoldAssignment(k=5, fold_of=dict(fold_of)).fold_sizes() == [12] * 5
    fold_of[0] = bad
    with pytest.raises(ValueError, match=rf"message 0 has fold id {bad!r}, not an int in range\(5\)"):
        FoldAssignment(k=5, fold_of=fold_of)
