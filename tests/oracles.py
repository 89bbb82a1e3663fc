"""Independent reference computations for the test suite.

Everything here is deliberately naive: exact rational arithmetic with
fractions.Fraction wherever the target quantity is rational, exhaustive
search where the implementation does something cleverer. Nothing imports
from the package, so an agreement between the two is meaningful.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import nsmallest


def rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    if a == b:
        return True
    return abs(a - b) <= tol * max(abs(a), abs(b))


# -- pair-affinity score -------------------------------------------------


def pair_score(pair_count, left_count, right_count, discount) -> Fraction:
    """(pair - discount) / (left * right), exactly."""
    return (Fraction(pair_count) - Fraction(discount)) / (
        Fraction(left_count) * Fraction(right_count)
    )


def greedy_merge(tokens, merge_pairs) -> list[str]:
    """Left-to-right single-pass merge; a merged pair consumes both tokens."""
    out = []
    i = 0
    while i < len(tokens):
        if i + 1 < len(tokens) and (tokens[i], tokens[i + 1]) in merge_pairs:
            out.append(tokens[i] + "_" + tokens[i + 1])
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    return out


# -- tf-idf ---------------------------------------------------------------


def tfidf_weight(count: int, num_docs: int, doc_freq: int) -> float:
    """count * ln(num_docs / doc_freq) via a different float path (log of
    quotient as difference of logs)."""
    return count * (math.log(num_docs) - math.log(doc_freq))


# -- confusion rates ------------------------------------------------------


def exact_rates(spam_total, legit_total, spam_as_legit, legit_as_spam):
    """(tpr, tnr, fpr, fnr) as exact Fractions."""
    fpr = Fraction(legit_as_spam, legit_total)
    fnr = Fraction(spam_as_legit, spam_total)
    return (1 - fnr, 1 - fpr, fpr, fnr)


# -- naive Bayes ----------------------------------------------------------


def nb_posterior(rows, flags, query, n_feats, alpha) -> Fraction:
    """Exact multinomial Bayes posterior P(spam | query) with additive
    smoothing.

    rows/query are sparse dicts of integer counts; flags are 1 for spam.
    """
    alpha = Fraction(alpha)
    n = len(flags)
    joint = {}
    for cls in (1, 0):
        members = [rows[i] for i in range(n) if flags[i] == cls]
        prior = Fraction(len(members), n)
        term_counts = [
            sum(r.get(f, 0) for r in members) for f in range(n_feats)
        ]
        total = sum(term_counts)
        denom = Fraction(total) + alpha * n_feats
        p = prior
        for f, x in query.items():
            like = (Fraction(term_counts[f]) + alpha) / denom
            p *= like ** x
        joint[cls] = p
    return joint[1] / (joint[1] + joint[0])


# -- k nearest neighbors --------------------------------------------------


def knn_exhaustive(rows, query, k) -> list[int]:
    """Indices of the k nearest rows by cosine distance, full sort.

    Ties go to the lower index. Zero-norm on either side means similarity
    zero. Integer-valued vectors keep every float operation exact up to the
    final sqrt/divide, which both sides compute from identical operands.
    """
    qn = math.sqrt(sum(v * v for v in query.values()))
    scored = []
    for idx, row in enumerate(rows):
        rn = math.sqrt(sum(v * v for v in row.values()))
        if qn == 0.0 or rn == 0.0:
            sim = 0.0
        else:
            dot = sum(v * query.get(f, 0.0) for f, v in sorted(row.items()))
            sim = dot / (qn * rn)
        scored.append((1.0 - sim, idx))
    scored.sort()
    return [idx for _, idx in scored[: min(k, len(rows))]]


def knn_full_scan(params, vector) -> list[int]:
    """The knn neighbour search the inverted index replaced: every stored
    entry of every training row is multiplied by the query's value for its
    slot (0.0 when the query lacks it), with the same float operations in the
    same order as the package's original code. Each sum is a running total
    from 0.0, as in the package, so the two agree bit for bit on every Python
    version (sum() of floats is compensated from 3.12 on)."""
    q = vector.weights
    qq = 0.0
    for v in q.values():
        qq += v * v
    qn = math.sqrt(qq)
    k = min(params["k"], len(params["rows"]))
    scored = []
    for idx, (row, rn) in enumerate(zip(params["rows"], params["norms"])):
        if qn == 0.0 or rn == 0.0:
            sim = 0.0
        else:
            dot = 0.0
            for i, v in row:
                dot += v * q.get(i, 0.0)
            sim = dot / (qn * rn)
        scored.append((1.0 - sim, idx))
    return [idx for _, idx in nsmallest(k, scored)]


# -- decision tree root split ----------------------------------------------


def gini(spam: int, total: int) -> Fraction:
    if total == 0:
        return Fraction(0)
    ps = Fraction(spam, total)
    pl = Fraction(total - spam, total)
    return 1 - ps * ps - pl * pl


def best_root_split(rows, flags):
    """Exhaustive best Gini split over every feature and midpoint threshold.

    Returns (max_gain, argmax) where argmax lists every (feature, threshold)
    pair attaining the exact maximum; max_gain is 0 with an empty argmax when
    no split strictly improves the parent impurity. Thresholds are exact
    Fractions; features absent from a row count as zero.
    """
    n = len(rows)
    s = sum(flags)
    parent = gini(s, n)
    best = Fraction(0)
    arg: list[tuple[int, Fraction]] = []
    for f in sorted({f for row in rows for f in row}):
        vals = sorted({row.get(f, 0) for row in rows})
        for lo, hi in zip(vals, vals[1:]):
            thr = Fraction(lo + hi, 2)
            left = [i for i in range(n) if Fraction(rows[i].get(f, 0)) <= thr]
            ln = len(left)
            ls = sum(flags[i] for i in left)
            rn = n - ln
            rs = s - ls
            gain = parent - Fraction(ln, n) * gini(ls, ln) - Fraction(rn, n) * gini(rs, rn)
            if gain > best:
                best = gain
                arg = [(f, thr)]
            elif gain == best and best > 0:
                arg.append((f, thr))
    return best, arg


# -- loops the fast fit path replaced ----------------------------------------------
# Verbatim copies of the package's plain loops, kept as differential oracles.
# Only names changed, and the rules and entity groups come in as arguments.


def _sigmoid(a: float) -> float:
    if a >= 0:
        return 1.0 / (1.0 + math.exp(-a))
    ea = math.exp(a)
    return ea / (1.0 + ea)


def train_linear_plain(vectors, spam_flags, n_slots: int, hp, loss: str) -> dict:
    """svm/lr subgradient descent with a plain running-total margin, summed
    left to right from 0.0 as in the package on every Python version."""
    lam = hp.reg_lambda
    rows = [list(vec.weights.items()) for vec in vectors]
    ys = [1.0 if f else -1.0 for f in spam_flags]
    typical_w = math.sqrt(1.0 / math.sqrt(lam))
    dloss0 = 1.0 if loss == "hinge" else _sigmoid(typical_w)
    t0 = 1.0 / (lam * (typical_w / max(1.0, dloss0)))
    v = [0.0] * n_slots
    scale = 1.0
    bias = 0.0
    t = 0
    rng = random.Random(hp.seed)
    order = list(range(len(rows)))
    for _ in range(hp.epochs):
        rng.shuffle(order)
        for r in order:
            t += 1
            eta = 1.0 / (lam * (t0 + t))
            items = rows[r]
            y = ys[r]
            dot = 0.0
            for i, x in items:
                dot += v[i] * x
            z = y * (scale * dot + bias)
            scale *= 1.0 - eta * lam
            if loss == "hinge":
                g = 1.0 if z < 1.0 else 0.0
            else:
                g = _sigmoid(-z)
            if g != 0.0:
                coef = eta * y * g / scale
                for i, x in items:
                    v[i] += coef * x
                bias += eta * y * g
    return {"weights": [scale * w for w in v], "bias": bias}


def train_dt_plain(vectors, spam_flags, max_depth: int) -> dict:
    """CART that buckets every stored entry of every row at each node."""
    rows = [vec.weights for vec in vectors]
    nodes: list[dict] = []

    def leaf(idxs) -> int:
        n = len(idxs)
        s = sum(spam_flags[i] for i in idxs)
        nodes.append({"spam_fraction": s / n, "samples": n})
        return len(nodes) - 1

    def build(idxs, depth: int) -> int:
        n = len(idxs)
        s = sum(spam_flags[i] for i in idxs)
        if s == 0 or s == n or depth >= max_depth or n < 2:
            return leaf(idxs)

        by_feature: dict[int, list[tuple[float, int]]] = {}
        for i in idxs:
            for f, val in rows[i].items():
                by_feature.setdefault(f, []).append((val, spam_flags[i]))
        best_num = s * s + (n - s) * (n - s)
        best_den = n
        best: tuple[int, float] | None = None
        for f in sorted(by_feature):
            entries = by_feature[f]
            zero_n = n - len(entries)
            zero_s = s - sum(sp for _, sp in entries)
            buckets: dict[float, list[int]] = {}
            for val, sp in entries:
                agg = buckets.setdefault(val, [0, 0])
                agg[0] += 1
                agg[1] += sp
            if zero_n:
                buckets[0.0] = [zero_n, zero_s]
            if len(buckets) < 2:
                continue
            values = sorted(buckets)
            left_n = 0
            left_s = 0
            for j in range(len(values) - 1):
                cnt, sp = buckets[values[j]]
                left_n += cnt
                left_s += sp
                right_n = n - left_n
                right_s = s - left_s
                lh = left_n - left_s
                rh = right_n - right_s
                num = (left_s * left_s + lh * lh) * right_n + (
                    right_s * right_s + rh * rh
                ) * left_n
                den = left_n * right_n
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
                    best = (f, (values[j] + values[j + 1]) / 2.0)
        if best is None:
            return leaf(idxs)
        f, thr = best
        left_idx = [i for i in idxs if rows[i].get(f, 0.0) <= thr]
        right_idx = [i for i in idxs if rows[i].get(f, 0.0) > thr]
        left = build(left_idx, depth + 1)
        right = build(right_idx, depth + 1)
        nodes.append({"feature": f, "threshold": thr, "left": left, "right": right})
        return len(nodes) - 1

    root = build(list(range(len(rows))), 0)
    return {"nodes": nodes, "root": root}


def tag_entities_per_char(text: str, rules, groups) -> str:
    """Entity tagging with a per-character punctuation loop.

    ``rules`` is a sequence of (group, compiled regex) in priority order and
    ``groups`` the tuple of entity group names.
    """
    mark = "\x00"
    # a bare mark is what a later rule left of a placeholder it tore apart
    mark_re = re.compile("\x00(?:(%s)\x00)?" % "|".join(groups))
    reserved_re = re.compile("<(%s)>" % "|".join(groups), re.IGNORECASE)
    apostrophes = "'’"
    s = text.replace(mark, " ")
    s = reserved_re.sub(lambda m: f" {mark}{m.group(1).lower()}{mark} ", s)
    for group, regex in rules:
        s = regex.sub(f"{mark}{group}{mark}", s)
    s = s.lower()

    out = []
    n = len(s)
    for i, ch in enumerate(s):
        if ch == mark or ch.isalnum() or ch.isspace():
            out.append(ch)
        elif (
            ch in apostrophes
            and 0 < i < n - 1
            and s[i - 1].isalnum()
            and s[i + 1].isalnum()
        ):
            out.append(ch)
        else:
            out.append(" ")
    s = mark_re.sub(lambda m: f" <{m[1]}> " if m[1] else " ", "".join(out))
    return " ".join(s.split())


# -- the row form the one sorted weights dict replaced --------------------------
# Verbatim copies of the package's FeatureVector and vectorizers from before
# the length slot moved into weights; only names changed. The vocabulary is
# passed in and read by duck typing.

OLD_SMS_CAPACITY = 160


@dataclass(frozen=True)
class OldFeatureVector:
    """Sparse vector over vocabulary slots, plus an optional dense length slot.

    weights holds only nonzero entries, keyed by vocabulary index. The length
    feature, when present, logically occupies one extra slot at index dim.
    """

    weights: dict[int, float]
    dim: int
    length_feature: float | None = None
    vocab_fingerprint: str | None = None

    def __post_init__(self):
        for idx, w in self.weights.items():
            if not 0 <= idx < self.dim:
                raise ValueError(f"feature index {idx} out of range for dim {self.dim}")
            if w == 0:
                raise ValueError(f"zero weight stored at index {idx}")
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight {w!r} stored at index {idx}")
        if self.length_feature is not None and not math.isfinite(self.length_feature):
            raise ValueError(f"non-finite length feature {self.length_feature!r} at index {self.dim}")

    @property
    def n_slots(self) -> int:
        return self.dim + (1 if self.length_feature is not None else 0)

    def slot_items(self) -> list[tuple[int, float]]:
        """(index, value) pairs in index order, length slot last."""
        items = sorted(self.weights.items())
        if self.length_feature is not None and self.length_feature != 0:
            items.append((self.dim, self.length_feature))
        return items


def old_vectorize_bow(doc, vocab) -> OldFeatureVector:
    """Raw term counts. Out-of-vocabulary tokens are dropped."""
    counts = Counter(tok for tok in doc if tok in vocab.index)
    weights = {vocab.index[t]: c for t, c in counts.items()}
    return OldFeatureVector(
        weights=weights, dim=len(vocab), vocab_fingerprint=vocab.fingerprint
    )


def old_vectorize_tfidf(doc, vocab) -> OldFeatureVector:
    """Term count scaled by ln(num_docs / doc_freq), natural log, no smoothing.

    Terms present in every fitting document get weight zero and are omitted.
    """
    counts = Counter(tok for tok in doc if tok in vocab.index)
    weights = {}
    for t, c in counts.items():
        if vocab.doc_freq[t] == vocab.num_docs:
            continue
        weights[vocab.index[t]] = c * math.log(vocab.num_docs / vocab.doc_freq[t])
    return OldFeatureVector(
        weights=weights, dim=len(vocab), vocab_fingerprint=vocab.fingerprint
    )


def old_append_length(vector: OldFeatureVector, raw_text: str) -> OldFeatureVector:
    """Return a copy with the message length, in SMS capacities, as one extra slot."""
    return OldFeatureVector(
        weights=dict(vector.weights),
        dim=vector.dim,
        length_feature=len(raw_text) / OLD_SMS_CAPACITY,
        vocab_fingerprint=vector.vocab_fingerprint,
    )


def two_row_featurize(doc, text, vocab, representation, length_feature):
    """The featurize stage as two rows: counts or tf-idf first, then a copy
    with the length of ``text`` appended at slot dim, as the pipeline once
    built it. Returns (weights, dim, has_length, vocab_fingerprint)."""
    counts = Counter(vocab.index[tok] for tok in doc if tok in vocab.index)
    if representation == "bow":
        weights = dict(sorted(counts.items()))
    else:
        weights = {}
        for i, c in sorted(counts.items()):
            df = vocab.doc_freq[vocab.terms[i]]
            if df != vocab.num_docs:
                weights[i] = c * math.log(vocab.num_docs / df)
    if length_feature:
        weights = dict(weights)
        if text:
            weights[len(vocab)] = len(text) / OLD_SMS_CAPACITY
    return weights, len(vocab), length_feature, vocab.fingerprint
