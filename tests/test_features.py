"""Vocabulary building and sparse vectorization."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnspam import Label, PipelineConfig, train
from vnspam.features import (
    SMS_CAPACITY,
    FeatureVector,
    Vocabulary,
    append_length,
    build_vocabulary,
    vectorize_bow,
    vectorize_tfidf,
)
from vnspam.pipeline import _featurize

import oracles


def random_docs(rng, n_docs=None, alphabet="abcdefgh"):
    n_docs = n_docs or rng.randint(1, 12)
    return [
        [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        for _ in range(n_docs)
    ]


# -- vocabulary ---------------------------------------------------------------


def test_vocabulary_first_occurrence_order():
    vocab = build_vocabulary([["a", "b"], ["a"], ["a", "c"]], min_df=1)
    assert vocab.terms == ("a", "b", "c")
    assert vocab.doc_freq == {"a": 3, "b": 1, "c": 1}
    assert vocab.num_docs == 3


def test_vocabulary_min_df_filters():
    vocab = build_vocabulary([["a", "b"], ["a"], ["a", "c"]], min_df=2)
    assert vocab.terms == ("a",)


def test_doc_freq_counts_documents_not_tokens():
    vocab = build_vocabulary([["a", "a", "a"], ["b"]], min_df=1)
    assert vocab.doc_freq["a"] == 1


def test_vocabulary_rejects_bad_inputs():
    with pytest.raises(ValueError, match="empty"):
        build_vocabulary([])
    with pytest.raises(ValueError, match="min_df"):
        build_vocabulary([["a"]], min_df=0)
    with pytest.raises(ValueError, match="document frequency"):
        Vocabulary(["a"], {"a": 5}, num_docs=3)
    with pytest.raises(ValueError, match="match terms"):
        Vocabulary(["a"], {"a": 1, "b": 1}, num_docs=3)
    with pytest.raises(ValueError, match="^vocabulary needs at least one fitting document$"):
        Vocabulary([], {}, num_docs=0)
    # one extra doc_freq key makes the key count match the two listed terms
    with pytest.raises(ValueError, match="^duplicate terms in vocabulary$"):
        Vocabulary(["a", "a"], {"a": 1, "b": 1}, num_docs=3)


@pytest.mark.parametrize(
    "num_docs,df,match",
    [
        # an infinite num_docs used to give an infinite tf-idf weight
        *[(n, 1, f"^num_docs must be an integer, got {type(n).__name__}$") for n in (3.0, True, math.inf, "3")],
        *[(3, df, f"^term 'a' has document frequency of type {type(df).__name__}$") for df in (1.0, 1.5, True)],
    ],
)
def test_vocabulary_refuses_counts_that_are_not_integers(num_docs, df, match):
    with pytest.raises(ValueError, match=match):
        Vocabulary(["a"], {"a": df}, num_docs=num_docs)


def test_min_df_one_indexes_every_token():
    rng = random.Random(17)
    for _ in range(50):
        docs = random_docs(rng)
        vocab = build_vocabulary(docs, min_df=1)
        for doc in docs:
            for tok in doc:
                assert tok in vocab


def test_fingerprint_tracks_content():
    a = build_vocabulary([["a", "b"]], min_df=1)
    b = build_vocabulary([["a", "b"]], min_df=1)
    c = build_vocabulary([["b", "a"]], min_df=1)
    d = build_vocabulary([["a", "b"], ["a", "b"]], min_df=1)
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint  # order matters
    assert a.fingerprint != d.fingerprint  # df / num_docs matter


# -- feature vectors ------------------------------------------------------------


def test_vector_validates_entries():
    with pytest.raises(ValueError, match="out of range"):
        FeatureVector(weights={5: 1.0}, dim=3)
    with pytest.raises(ValueError, match="zero weight"):
        FeatureVector(weights={0: 0.0}, dim=3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vector_rejects_non_finite_weights(bad):
    # A NaN row goes to neither side of a dt split, which used to leave an
    # empty child and a ZeroDivisionError inside train().
    with pytest.raises(ValueError, match="non-finite weight .* index 0"):
        vectors = [
            FeatureVector(weights={0: 1.0}, dim=2),
            FeatureVector(weights={1: 1.0}, dim=2),
            FeatureVector(weights={0: bad, 1: 2}, dim=2),
            FeatureVector(weights={0: 2.0, 1: 1.0}, dim=2),
        ]
        train("dt", vectors, [Label.SPAM, Label.LEGITIMATE, Label.SPAM, Label.LEGITIMATE])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_vector_rejects_non_finite_length_feature(bad):
    with pytest.raises(ValueError, match="non-finite weight .* index 2"):
        FeatureVector(weights={0: 1.0, 2: bad}, dim=2, has_length=True)


def test_slot_items_sorted_with_length_last():
    vocab = build_vocabulary([["a", "b", "c", "d", "e"]], min_df=1)
    vec = append_length(vectorize_bow(["d", "a", "a"], vocab), "x" * 40)
    assert list(vec.weights.items()) == [(0, 2), (3, 1), (5, 0.25)]
    assert vec.n_slots == 6


def test_zero_length_slot_is_omitted_from_items():
    vec = append_length(FeatureVector(weights={}, dim=2), "")
    assert vec.n_slots == 3
    assert vec.weights == {}


@pytest.mark.parametrize(
    "weights,dim,has_length,match",
    [
        ({1: 1.0, 0: 2.0}, 3, False, "out of order"),
        ({-1: 1.0}, 3, False, "out of range"),
        ({3: 1.0}, 3, False, "out of range"),  # the length slot of a row without one
        ({4: 1.0}, 3, True, "out of range"),
        ({3: 0.5, 0: 1.0}, 3, True, "out of order"),
        ({3: 0.0}, 3, True, "zero weight"),  # non-finite values: the two tests above
        # a float slot used to reach predict's list lookup; True was taken as slot 1
        ({0.5: 1.0}, 2, False, r"^feature index 0\.5 is not an integer$"),
        ({True: 1.0}, 2, False, r"^feature index True is not an integer$"),
        ({0: 1.0, 1.0: 2.0}, 2, False, r"^feature index 1\.0 is not an integer$"),
        ({"0": 1.0}, 2, False, r"^feature index '0' is not an integer$"),
        # a float dim used to reach train's list allocation; a str weight raised TypeError
        ({}, 2.0, False, r"^dim must be an integer >= 0, got 2\.0$"),
        ({}, -1, False, r"^dim must be an integer >= 0, got -1$"),
        ({}, 2, 1, r"^has_length must be a bool, got 1$"),
        ({0: "x"}, 2, False, r"^weight 'x' stored at index 0 is not a number$"),
        ({0: True}, 2, False, r"^weight True stored at index 0 is not a number$"),
    ],
)
def test_vector_rejects_rows_out_of_form(weights, dim, has_length, match):
    with pytest.raises(ValueError, match=match):
        FeatureVector(weights=weights, dim=dim, has_length=has_length)


@st.composite
def docs_and_vocabularies(draw):
    """Fitting docs, with some terms in every doc, and one query document."""
    terms = st.sampled_from("abcdefgh")
    common = draw(st.lists(terms, max_size=2))
    docs = [common + d for d in draw(st.lists(st.lists(terms, max_size=6), min_size=1, max_size=6))]
    vocab = build_vocabulary(docs, min_df=draw(st.integers(1, 3)))
    # "z" is never in the vocabulary: the last strategy's streams are all out of
    # it; the second repeats one token through the whole stream
    query = draw(st.one_of(
        st.lists(st.sampled_from("abcdefghz"), max_size=30),
        st.builds(lambda tok, n: [tok] * n, st.sampled_from("abcdefgh"), st.integers(0, 30)),
        st.lists(st.just("z"), max_size=3),
    ))
    text = draw(st.one_of(st.just(""), st.text(max_size=400)))
    return vocab, query, text


@settings(max_examples=300, deadline=None)
@given(
    docs_and_vocabularies(),
    st.sampled_from(["bow", "tfidf"]),
    st.booleans(),
)
def test_weights_are_the_old_slot_items(instance, rep, length):
    vocab, query, text = instance
    new_vectorize, old_vectorize = {
        "bow": (vectorize_bow, oracles.old_vectorize_bow),
        "tfidf": (vectorize_tfidf, oracles.old_vectorize_tfidf),
    }[rep]
    new = new_vectorize(query, vocab)
    old = old_vectorize(query, vocab)
    if length:
        new = append_length(new, text)
        old = oracles.old_append_length(old, text)
    assert repr(list(new.weights.items())) == repr(old.slot_items())  # repr keeps int apart from float
    assert new.n_slots == old.n_slots
    assert new.has_length is length


@settings(max_examples=300, deadline=None)
@given(
    docs_and_vocabularies(),
    st.sampled_from(["bow", "tfidf"]),
    st.booleans(),
)
def test_featurize_builds_the_two_row_reference_in_one_row(instance, rep, length):
    vocab, query, text = instance
    config = PipelineConfig(representation=rep, length_feature=length)
    vec = _featurize(query, text, vocab, config)
    weights, dim, has_length, fingerprint = oracles.two_row_featurize(query, text, vocab, rep, length)
    assert repr(list(vec.weights.items())) == repr(list(weights.items()))  # order and int/float
    assert (vec.dim, vec.has_length, vec.vocab_fingerprint) == (dim, has_length, fingerprint)
    vectorize = {"bow": vectorize_bow, "tfidf": vectorize_tfidf}[rep]
    if length:  # append_length over the plain row gives the same row
        assert append_length(vectorize(query, vocab), text) == vec


@st.composite
def drawn_vocabularies(draw):
    """A vocabulary drawn directly: any document frequencies, some equal to
    num_docs, and num_docs up to past 2**53, where n / (n - 1) rounds to 1.0."""
    num_docs = draw(st.one_of(st.integers(1, 50), st.integers(2**53 - 2, 2**60)))
    terms = draw(st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=8))
    df = st.one_of(st.just(num_docs), st.just(max(num_docs - 1, 1)), st.integers(1, num_docs))
    return Vocabulary(terms, {t: draw(df) for t in terms}, num_docs)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        docs_and_vocabularies(),
        st.tuples(
            drawn_vocabularies(),
            st.lists(st.sampled_from("abcdefghz"), max_size=30),
            st.text(max_size=400),
        ),
    ),
    st.sampled_from(["", None, "text"]),
)
def test_vectorizers_build_rows_the_public_constructor_accepts(instance, length):
    vocab, query, text = instance
    length_text = text if length == "text" else length
    olds = {vectorize_bow: oracles.old_vectorize_bow, vectorize_tfidf: oracles.old_vectorize_tfidf}
    for vectorize, old_vectorize in olds.items():
        row = vectorize(query, vocab, length_text)
        rebuilt = FeatureVector(row.weights, row.dim, row.has_length, row.vocab_fingerprint)
        assert rebuilt == row
        assert row.has_length is (length_text is not None)
        if vocab.num_docs < 2**53:  # beyond it the old tf-idf refuses a zero weight it made
            old = old_vectorize(query, vocab)
            if length_text is not None:
                old = oracles.old_append_length(old, length_text)
            assert repr(list(row.weights.items())) == repr(old.slot_items())  # int apart from float
            assert row.n_slots == old.n_slots


def test_bow_counts():
    vocab = build_vocabulary([["a", "b", "c"]], min_df=1)
    vec = vectorize_bow(["a", "a", "b"], vocab)
    assert vec.weights == {0: 2, 1: 1}
    assert vec.dim == 3
    assert vec.vocab_fingerprint == vocab.fingerprint


def test_bow_ignores_oov_and_empty():
    vocab = build_vocabulary([["a"]], min_df=1)
    assert vectorize_bow(["z"], vocab).weights == {}
    assert vectorize_bow([], vocab).weights == {}


def test_bow_total_equals_in_vocab_tokens():
    rng = random.Random(31)
    for _ in range(100):
        docs = random_docs(rng)
        vocab = build_vocabulary(docs, min_df=rng.randint(1, 3))
        doc = [rng.choice("abcdefghz") for _ in range(rng.randint(0, 10))]
        vec = vectorize_bow(doc, vocab)
        assert sum(vec.weights.values()) == sum(1 for t in doc if t in vocab)


def test_tfidf_example():
    # vocab over 2 docs, term in 1 of them, appearing twice in the query
    vocab = build_vocabulary([["t"], ["u"]], min_df=1)
    vec = vectorize_tfidf(["t", "t"], vocab)
    assert vec.weights[0] == pytest.approx(2 * math.log(2), rel=1e-12)


def test_tfidf_hand_computed():
    vocab = build_vocabulary([["a"], ["b"], ["a", "b"]], min_df=1)
    vec = vectorize_tfidf(["a", "b", "b"], vocab)
    assert vec.weights[vocab.index["a"]] == pytest.approx(math.log(3 / 2), rel=1e-12)
    assert vec.weights[vocab.index["b"]] == pytest.approx(2 * math.log(3 / 2), rel=1e-12)


def test_tfidf_omits_terms_in_every_document():
    vocab = build_vocabulary([["a", "b"], ["a"]], min_df=1)
    vec = vectorize_tfidf(["a", "b"], vocab)
    assert vocab.index["a"] not in vec.weights
    assert vocab.index["b"] in vec.weights


def test_tfidf_support_within_bow_support():
    rng = random.Random(43)
    for _ in range(100):
        docs = random_docs(rng)
        vocab = build_vocabulary(docs, min_df=1)
        doc = [rng.choice("abcdefgh") for _ in range(rng.randint(0, 10))]
        bow = vectorize_bow(doc, vocab)
        tfidf = vectorize_tfidf(doc, vocab)
        assert set(tfidf.weights) <= set(bow.weights)


def test_tfidf_is_bow_times_idf():
    rng = random.Random(44)
    for _ in range(100):
        docs = random_docs(rng)
        vocab = build_vocabulary(docs, min_df=1)
        doc = [rng.choice("abcdefgh") for _ in range(rng.randint(1, 10))]
        bow = vectorize_bow(doc, vocab)
        tfidf = vectorize_tfidf(doc, vocab)
        for term, i in vocab.index.items():
            expected = bow.weights.get(i, 0) * math.log(
                vocab.num_docs / vocab.doc_freq[term]
            )
            got = tfidf.weights.get(i, 0.0)
            if expected == 0:
                assert got == 0.0
            else:
                assert got == pytest.approx(expected, rel=1e-12)


def test_tfidf_matches_independent_oracle():
    rng = random.Random(45)
    for _ in range(150):
        num_docs = rng.randint(2, 5000)
        doc_freq = rng.randint(1, num_docs - 1)
        count = rng.randint(1, 6)
        vocab = Vocabulary(["t"], {"t": doc_freq}, num_docs=num_docs)
        vec = vectorize_tfidf(["t"] * count, vocab)
        assert oracles.rel_close(
            vec.weights[0], oracles.tfidf_weight(count, num_docs, doc_freq)
        )


# -- length feature ---------------------------------------------------------------


def test_length_feature_anchors():
    base = FeatureVector(weights={}, dim=1)
    assert append_length(base, "x" * SMS_CAPACITY).weights[1] == 1.0
    assert append_length(base, "x" * 80).weights[1] == 0.5
    assert append_length(base, "x" * 320).weights[1] == 2.0  # no clamping


def test_length_feature_keeps_weights():
    vocab = build_vocabulary([["a"], ["b"]], min_df=1)
    vec = vectorize_bow(["a"], vocab)
    out = append_length(vec, "hello")
    assert {i: w for i, w in out.weights.items() if i < vec.dim} == vec.weights
    assert out.weights[vec.dim] == pytest.approx(5 / 160)
    assert out.vocab_fingerprint == vec.vocab_fingerprint
    assert out.n_slots == vec.n_slots + 1
