"""Sparse message featurization: vocabulary, counts, tf-idf, length."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

__all__ = [
    "SMS_CAPACITY",
    "Vocabulary",
    "FeatureVector",
    "build_vocabulary",
    "vectorize_bow",
    "vectorize_tfidf",
    "append_length",
]

# Characters in a single-part SMS; used to normalize the message-length feature.
SMS_CAPACITY = 160

_setattr = object.__setattr__  # past a frozen dataclass's __setattr__


class Vocabulary:
    """Term list with document frequencies, fixed at fit time.

    Terms keep their first-occurrence order over the fitting corpus. The
    fingerprint identifies the exact term/df/num_docs triple so vectors can be
    checked against the model they are fed to.
    """

    def __init__(self, terms, doc_freq: dict[str, int], num_docs: int):
        self.terms = tuple(terms)
        self.doc_freq = dict(doc_freq)
        self.num_docs = num_docs
        if type(num_docs) is not int:  # bool excluded: documents are counted
            raise ValueError(f"num_docs must be an integer, got {type(num_docs).__name__}")
        if num_docs < 1:
            raise ValueError("vocabulary needs at least one fitting document")
        for t in self.terms:
            df = self.doc_freq.get(t)
            if df is not None and type(df) is not int:
                raise ValueError(f"term {t!r} has document frequency of type {type(df).__name__}")
            if df is None or not 1 <= df <= num_docs:
                raise ValueError(f"term {t!r} has document frequency {df!r}")
        if len(self.doc_freq) != len(self.terms):
            raise ValueError("doc_freq keys must match terms exactly")
        self.index = {t: i for i, t in enumerate(self.terms)}
        if len(self.index) != len(self.terms):
            raise ValueError("duplicate terms in vocabulary")
        payload = "\x1e".join(
            [str(num_docs)] + [f"{len(t)}:{t}:{self.doc_freq[t]}" for t in self.terms]
        )
        self.fingerprint = hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index


@dataclass(frozen=True)
class FeatureVector:
    """Sparse row over vocabulary slots, plus an optional length slot.

    weights maps each nonzero slot to its finite value in strictly ascending
    index order; every learner reads it in that order as it stands. With
    has_length the row has one more slot, at index dim, last in weights when
    nonzero. ``FeatureVector(...)`` checks the row: dim is an ``int`` >= 0,
    has_length a ``bool``, each slot an ``int`` (not a bool) in order and in
    range, each weight an ``int`` or ``float`` (not a bool), nonzero and
    finite. ``vectorize_bow`` and ``vectorize_tfidf`` build their rows valid
    by construction and skip the checks.
    """

    weights: dict[int, float]
    dim: int
    has_length: bool = False
    vocab_fingerprint: str | None = None

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 0:
            raise ValueError(f"dim must be an integer >= 0, got {self.dim!r}")
        if type(self.has_length) is not bool:
            raise ValueError(f"has_length must be a bool, got {self.has_length!r}")
        end = self.n_slots
        prev = -1
        for idx, w in self.weights.items():
            if type(idx) is not int:
                raise ValueError(f"feature index {idx!r} is not an integer")
            if not prev < idx < end:
                raise ValueError(f"feature index {idx} out of order or out of range for {end} slots")
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise ValueError(f"weight {w!r} stored at index {idx} is not a number")
            if w == 0:
                raise ValueError(f"zero weight stored at index {idx}")
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight {w!r} stored at index {idx}")
            prev = idx

    @classmethod
    def _of(cls, weights: dict, dim: int, has_length: bool, vocab_fingerprint: str) -> "FeatureVector":
        """The row ``FeatureVector(...)`` gives, without its checks, for a
        caller whose rows hold by construction what ``__post_init__`` checks.

        Each field is set as the dataclass ``__init__`` sets it; writing into
        ``row.__dict__`` instead would give every row its own dict, 64 bytes
        more on Python 3.11."""
        row = object.__new__(cls)
        _setattr(row, "weights", weights)
        _setattr(row, "dim", dim)
        _setattr(row, "has_length", has_length)
        _setattr(row, "vocab_fingerprint", vocab_fingerprint)
        return row

    @property
    def n_slots(self) -> int:
        return self.dim + (1 if self.has_length else 0)


def build_vocabulary(docs, min_df: int = 1) -> Vocabulary:
    """Collect terms with document frequency >= min_df, in first-seen order."""
    docs = list(docs)
    if not docs:
        raise ValueError("cannot build a vocabulary from an empty document list")
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    doc_freq: dict[str, int] = {}
    for doc in docs:
        for tok in dict.fromkeys(doc):
            doc_freq[tok] = doc_freq.get(tok, 0) + 1
    terms = [t for t in doc_freq if doc_freq[t] >= min_df]
    return Vocabulary(
        terms, {t: doc_freq[t] for t in terms}, num_docs=len(docs)
    )


def _counts(doc, vocab: Vocabulary) -> dict[int, int]:
    """Slot -> count of each in-vocabulary token, keys in ascending slot order.

    The slot ids are sorted once, so equal ids are adjacent: each key starts
    at 1 and gains one per equal neighbour. This is the dict
    ``dict(sorted(Counter(...).items()))`` gives, ``int`` values included,
    without building a ``Counter``.
    """
    ids = [i for i in map(vocab.index.get, doc) if i is not None]  # drop OOV tokens
    ids.sort()
    counts = dict.fromkeys(ids, 1)
    if len(counts) != len(ids):  # some slot repeats
        prev = -1
        for i in ids:
            if i == prev:
                counts[i] += 1
            prev = i
    return counts


def _put_length(weights: dict, dim: int, length_text: str | None) -> bool:
    """Store the length of ``length_text``, in SMS capacities, at slot dim;
    ``None`` means the row has no length slot. Returns has_length."""
    if length_text is None:
        return False
    if length_text:  # a zero length is not stored
        weights[dim] = len(length_text) / SMS_CAPACITY
    return True


# The two vectorizers build rows through FeatureVector._of, unchecked, because
# each row is valid by construction: the keys are sorted Vocabulary.index ids,
# all below dim, with the length slot dim last; a count is an int >= 1; a
# tf-idf weight is c * ln(n / df) with integers 1 <= df <= n (Vocabulary
# refuses any other), finite, and stored only when nonzero; a stored length is
# len(text) / SMS_CAPACITY > 0.


def vectorize_bow(doc, vocab: Vocabulary, length_text: str | None = None) -> FeatureVector:
    """Raw term counts. Out-of-vocabulary tokens are dropped.

    With ``length_text`` the row also holds that text's length at slot dim,
    the same row ``append_length`` gives.
    """
    weights = _counts(doc, vocab)
    dim = len(vocab)
    has_length = _put_length(weights, dim, length_text)
    return FeatureVector._of(weights, dim, has_length, vocab.fingerprint)


def vectorize_tfidf(doc, vocab: Vocabulary, length_text: str | None = None) -> FeatureVector:
    """Term count scaled by ln(num_docs / doc_freq), natural log, no smoothing.

    Terms present in every fitting document get weight zero and are omitted.
    ``length_text`` fills slot dim as in ``vectorize_bow``.
    """
    n, doc_freq, terms = vocab.num_docs, vocab.doc_freq, vocab.terms
    weights = {}
    for i, c in _counts(doc, vocab).items():
        w = c * math.log(n / doc_freq[terms[i]])
        if w:  # ln(1) for df == n; n / df also rounds to 1.0 once n > 2**53
            weights[i] = w
    dim = len(vocab)
    has_length = _put_length(weights, dim, length_text)
    return FeatureVector._of(weights, dim, has_length, vocab.fingerprint)


def append_length(vector: FeatureVector, raw_text: str) -> FeatureVector:
    """Return a copy with the message length, in SMS capacities, at slot dim.

    ``vectorize_bow(doc, vocab, raw_text)`` builds the same row in one step.
    """
    weights = dict(vector.weights)
    _put_length(weights, vector.dim, raw_text)
    return FeatureVector(weights, vector.dim, True, vector.vocab_fingerprint)
