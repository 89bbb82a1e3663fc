"""Independent reference computations for the test suite.

Everything here is deliberately naive: exact rational arithmetic with
fractions.Fraction wherever the target quantity is rational, exhaustive
search where the implementation does something cleverer. Nothing imports
from the package, so an agreement between the two is meaningful.
"""

from __future__ import annotations

import math
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
    same order as the package's original code."""
    q = dict(vector.slot_items())
    qn = math.sqrt(sum(v * v for v in q.values()))
    k = min(params["k"], len(params["rows"]))
    scored = []
    for idx, (row, rn) in enumerate(zip(params["rows"], params["norms"])):
        if qn == 0.0 or rn == 0.0:
            sim = 0.0
        else:
            sim = sum(v * q.get(i, 0.0) for i, v in row) / (qn * rn)
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
