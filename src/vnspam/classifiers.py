"""Spam/ham learners over sparse feature vectors, plus a bracket-tag rule.

All learners share one contract: train(kind, vectors, labels, hp) returns a
TrainedModel whose parameters are plain JSON-ready data, and predict(model,
vector) returns a Prediction. Scores are posterior-like in [0, 1] for nb, lr,
dt and knn (threshold 0.5) and a signed margin for svm (threshold 0). Ties on
the threshold always resolve to Legitimate, which keeps the false-positive
side conservative.

Every float sum that reaches a model file or a score runs left to right from
0.0, through _running_sum or an inline loop, never through sum().
"""

from __future__ import annotations

import math
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import nsmallest
from itertools import chain, compress, islice
from operator import not_

from .corpus import Label
from .features import FeatureVector

__all__ = [
    "KINDS",
    "Hyperparams",
    "Prediction",
    "TrainedModel",
    "load_params",
    "rule_baseline",
    "train",
    "predict",
    "decision_score",
    "epoch_orders",
]

KINDS = ("baseline", "nb", "svm", "lr", "dt", "knn")

# Advertising messages in Vietnam open with a bracketed tag: [QC]/(QC) for
# "quang cao" and [TB]/(TB) for "thong bao". The rule fires on a closed
# bracket pair whose content starts with either tag, case-insensitively.
_AD_TAG_RE = re.compile(r"\[(?:qc|tb)[^\]]*\]|\((?:qc|tb)[^)]*\)", re.IGNORECASE)


@dataclass(frozen=True)
class Prediction:
    label: Label
    score: float


@dataclass(frozen=True)
class Hyperparams:
    """Per-kind knobs; irrelevant fields are ignored by each kind."""

    seed: int = 42
    alpha: float = 1.0  # nb additive smoothing
    reg_lambda: float = 1e-4  # svm/lr L2 strength
    epochs: int = 50  # svm/lr passes over the data
    max_depth: int = 20  # dt depth cutoff
    k: int = 5  # knn neighbor count

    def validate(self, kind: str) -> None:
        if kind == "nb" and self.alpha <= 0:
            raise ValueError(f"nb smoothing alpha must be > 0, got {self.alpha}")
        if kind in ("svm", "lr"):
            if self.reg_lambda <= 0:
                raise ValueError(f"lambda must be > 0, got {self.reg_lambda}")
            if self.epochs < 1:
                raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if kind == "dt" and self.max_depth < 1:
            raise ValueError(f"max depth must be >= 1, got {self.max_depth}")
        if kind == "knn" and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class TrainedModel:
    """A fitted classifier: kind tag plus JSON-ready parameters.

    n_slots counts vocabulary slots plus the length slot when present; the
    vocabulary fingerprint gates prediction so a model is never applied to
    vectors built from a different vocabulary.

    ``params`` is read-only: the knn rows of a fitted model share one
    ``[slot, value]`` list between all rows holding that entry, so writing to
    one row's entry would change every row that holds it.
    """

    kind: str
    params: dict
    n_slots: int
    has_length: bool
    vocab_fingerprint: str | None

    @cached_property
    def knn_postings(self) -> dict[int, list[tuple[int, float]]]:
        """knn's inverted index, built on first use and never saved."""
        return _knn_postings(self.params)


def _is_number(x) -> bool:
    return type(x) is float or type(x) is int and abs(x) <= sys.float_info.max


def _is_index(x, bound: int) -> bool:
    return type(x) is int and 0 <= x < bound


def _check_vector(values, n_slots: int, what: str) -> None:
    if len(values) != n_slots:
        raise ValueError(f"{what} has {len(values)} entries, expected {n_slots}")
    if not all(_is_number(x) for x in values):
        raise ValueError(f"{what} holds a value that is not a number")


def _check_nb(params: dict, n_slots: int) -> None:
    for name in ("log_prior", "log_likelihood"):
        if type(params[name]) is not dict or params[name].keys() != {"spam", "ham"}:
            raise ValueError(f"nb {name} must have exactly the keys 'spam' and 'ham'")
    for key in ("spam", "ham"):
        if not _is_number(params["log_prior"][key]):
            raise ValueError(f"nb log_prior[{key!r}] is not a number")
        _check_vector(params["log_likelihood"][key], n_slots, f"nb log_likelihood[{key!r}]")


def _check_linear(params: dict, n_slots: int) -> None:
    _check_vector(params["weights"], n_slots, "weights")
    if not _is_number(params["bias"]):
        raise ValueError("bias is not a number")


# the keys train() writes in a dt split node, and in a leaf
_DT_NODE_KEYS = ({"feature", "threshold", "left", "right"}, {"spam_fraction", "samples"})


def _check_dt(params: dict, n_slots: int) -> None:
    nodes = params["nodes"]
    if not _is_index(params["root"], len(nodes)):
        raise ValueError(f"dt root {params['root']!r} is not a node index")
    for j, node in enumerate(nodes):
        if type(node) is not dict or node.keys() not in _DT_NODE_KEYS:
            ok = False
        elif "feature" in node:
            # train() appends both children before their parent, so a child
            # index below the parent's also rules out cycles.
            ok = (
                _is_index(node["feature"], n_slots)
                and _is_number(node["threshold"])
                and _is_index(node["left"], j)
                and _is_index(node["right"], j)
            )
        else:
            frac, n = node["spam_fraction"], node["samples"]
            ok = _is_number(frac) and 0 <= frac <= 1 and type(n) is int and n >= 1
        if not ok:
            raise ValueError(f"dt node {j} is malformed")


def _check_knn(params: dict, n_slots: int) -> None:
    rows, labels = params["rows"], params["labels"]
    if not len(rows) == len(labels) >= 1:
        raise ValueError(f"knn has {len(rows)} rows and {len(labels)} labels")
    for r, row in enumerate(rows):
        prev = -1
        for i, v in row:
            if not (_is_index(i, n_slots) and i > prev and _is_number(v)):
                raise ValueError(f"knn row {r} has a bad entry [{i!r}, {v!r}]")
            prev = i
    if not all(lab in ("spam", "ham") for lab in labels):
        raise ValueError("knn labels must be 'spam' or 'ham'")


# kind -> (the params train() learns, which a model file stores as they are; their check)
_LEARNED = {
    "nb": (("log_prior", "log_likelihood"), _check_nb),
    "svm": (("weights", "bias"), _check_linear),
    "lr": (("weights", "bias"), _check_linear),
    "dt": (("nodes", "root"), _check_dt),
    "knn": (("rows", "labels"), _check_knn),
}


def load_params(kind: str, stored: dict, n_slots: int) -> dict:
    """The params a trained kind learns, from a model file whose parser
    refused non-finite numbers, checked against the kind's shape and ``n_slots``."""
    keys, check = _LEARNED[kind]
    params = {key: stored[key] for key in keys}
    check(params, n_slots)
    return params


def _model(kind: str, params: dict, n_slots: int, has_length: bool, fingerprint, hp: Hyperparams) -> TrainedModel:
    """The model of what ``kind`` learned, with the params it derives from
    ``hp`` and them added: nb's alpha, knn's k and row norms."""
    if kind == "nb":
        params["alpha"] = hp.alpha
    elif kind == "knn":
        params.update(k=hp.k, norms=_knn_norms(params["rows"]))
    return TrainedModel(kind, params, n_slots, has_length, fingerprint)


def rule_baseline(raw_text: str) -> Prediction:
    """Untrained rule on raw, original-case text: spam iff an ad tag appears."""
    hit = _AD_TAG_RE.search(raw_text) is not None
    if hit:
        return Prediction(label=Label.SPAM, score=1.0)
    return Prediction(label=Label.LEGITIMATE, score=0.0)


def train(kind, vectors, labels, hp: Hyperparams | None = None, orders=None) -> TrainedModel:
    """Fit one classifier of the given kind.

    Vectors must all come from the same vocabulary (same fingerprint, same
    dimension, length feature either on everywhere or off everywhere), every
    label must be a ``Label`` and both classes must be present. The baseline
    kind has no trainable state and accepts empty inputs.

    ``orders`` may hold svm/lr's row visiting orders, one sequence per epoch,
    as materialized from ``epoch_orders(hp.seed, len(vectors), hp.epochs)``
    by a caller that fits several models on the same rows; by default the
    learner shuffles them itself.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown classifier kind {kind!r} (expected one of {KINDS})")
    hp = hp or Hyperparams()
    hp.validate(kind)
    if kind == "baseline":
        return _model(kind, {}, 0, False, None, hp)

    vectors = list(vectors)
    labels = list(labels)
    if len(vectors) != len(labels):
        raise ValueError(f"{len(vectors)} vectors but {len(labels)} labels")
    if len(vectors) < 2:
        raise ValueError("need at least two training examples")
    fingerprint = vectors[0].vocab_fingerprint
    dim = vectors[0].dim
    has_length = vectors[0].has_length
    for i, (v, lab) in enumerate(zip(vectors, labels)):
        if not isinstance(lab, Label):
            raise ValueError("cannot train on unlabeled messages" if lab is None else f"label {i} is {lab!r}, not a Label")
        if v.vocab_fingerprint != fingerprint:
            raise ValueError(f"vector {i} was built from a different vocabulary")
        if v.dim != dim:
            raise ValueError(f"vector {i} has dim {v.dim}, expected {dim}")
        if v.has_length != has_length:
            raise ValueError(f"vector {i} disagrees about the length feature")
    spam_flags = [1 if lab is Label.SPAM else 0 for lab in labels]
    if sum(spam_flags) == 0 or sum(spam_flags) == len(labels):
        raise ValueError("training data must contain both classes")
    if orders is not None:
        if kind not in ("svm", "lr"):
            raise ValueError(f"{kind} has no visiting orders")
        if len(orders) != hp.epochs or any(len(o) != len(vectors) for o in orders):
            raise ValueError(f"need {hp.epochs} visiting orders of {len(vectors)} rows each")

    n_slots = dim + (1 if has_length else 0)
    if kind == "nb":
        params = _train_nb(vectors, spam_flags, hp.alpha, n_slots)
    elif kind == "svm":
        params = _train_linear(vectors, spam_flags, n_slots, hp, "hinge", orders)
    elif kind == "lr":
        params = _train_linear(vectors, spam_flags, n_slots, hp, "logistic", orders)
    elif kind == "dt":
        params = _train_dt(vectors, spam_flags, hp.max_depth)
    else:
        params = _train_knn(vectors, spam_flags)
    return _model(kind, params, n_slots, has_length, fingerprint, hp)


def predict(model: TrainedModel, vector: FeatureVector) -> Prediction:
    """Score a vector and threshold it into a label (ties go Legitimate)."""
    score = decision_score(model, vector)
    threshold = 0.0 if model.kind == "svm" else 0.5
    label = Label.SPAM if score > threshold else Label.LEGITIMATE
    return Prediction(label=label, score=score)


def decision_score(model: TrainedModel, vector: FeatureVector) -> float:
    """Raw score before thresholding (margin for svm, else in [0, 1])."""
    if model.kind == "baseline":
        raise ValueError("the rule baseline scores raw text, use rule_baseline()")
    if model.kind not in KINDS:
        raise ValueError(f"unknown classifier kind {model.kind!r}")
    if vector.vocab_fingerprint != model.vocab_fingerprint:
        raise ValueError(
            "vector was built from a different vocabulary than the model "
            f"(fingerprint {vector.vocab_fingerprint!r} != {model.vocab_fingerprint!r})"
        )
    if vector.has_length != model.has_length:
        raise ValueError("vector disagrees with the model about the length feature")
    if vector.n_slots != model.n_slots:
        raise ValueError(f"vector has {vector.n_slots} slots, model expects {model.n_slots}")
    if model.kind == "nb":
        return _score_nb(model.params, vector)
    if model.kind == "svm":
        return _margin(model.params, vector)
    if model.kind == "lr":
        return _sigmoid(_margin(model.params, vector))
    if model.kind == "dt":
        return _score_dt(model.params, vector)
    return _score_knn(model.params, vector, model.knn_postings)


def _running_sum(terms) -> float:
    """Add floats left to right from 0.0, as sum() does before Python 3.12;
    the compensated sum() of 3.12+ would give other model bytes and scores."""
    total = 0.0
    for x in terms:
        total += x
    return total


def _sigmoid(a: float) -> float:
    if a >= 0:
        return 1.0 / (1.0 + math.exp(-a))
    ea = math.exp(a)
    return ea / (1.0 + ea)


# -- multinomial naive Bayes -------------------------------------------------


def _train_nb(vectors, spam_flags, alpha: float, n_slots: int) -> dict:
    counts = {1: [0.0] * n_slots, 0: [0.0] * n_slots}
    docs = {1: 0, 0: 0}
    for vec, flag in zip(vectors, spam_flags):
        docs[flag] += 1
        row = counts[flag]
        for idx, val in vec.weights.items():
            row[idx] += val
    total_docs = docs[1] + docs[0]
    log_prior = {}
    log_likelihood = {}
    for flag, key in ((1, "spam"), (0, "ham")):
        log_prior[key] = math.log(docs[flag] / total_docs)
        denom = _running_sum(counts[flag]) + alpha * n_slots
        if denom == math.inf:
            raise ValueError(f"nb smoothing alpha {alpha!r} is too large: the {key} denominator overflows")
        probs = [(c + alpha) / denom for c in counts[flag]]
        if 0.0 in probs:
            raise ValueError(f"nb smoothing alpha {alpha!r} is too small: a {key} term probability underflows to 0")
        log_likelihood[key] = [math.log(p) for p in probs]
    return {"log_prior": log_prior, "log_likelihood": log_likelihood}


def _score_nb(params: dict, vector: FeatureVector) -> float:
    ls = params["log_prior"]["spam"]
    ll = params["log_prior"]["ham"]
    like_s = params["log_likelihood"]["spam"]
    like_h = params["log_likelihood"]["ham"]
    for idx, val in vector.weights.items():
        ls += val * like_s[idx]
        ll += val * like_h[idx]
    return _sigmoid(ls - ll)  # posterior spam probability


# -- linear models (svm hinge / logistic regression) --------------------------


def epoch_orders(seed: int, n: int, epochs: int):
    """svm/lr's row visiting order for each epoch: one list of range(n),
    shuffled again by one seeded generator and yielded in place, so a caller
    that keeps an order must copy it.

    Each shuffle is the Fisher-Yates loop of ``random.Random(seed).shuffle``
    in Python 3.10 to 3.13, written out over ``getrandbits``: the same orders
    without a method call per swap, and pinned here rather than by the
    interpreter, which promises only that ``random()`` stays stable.
    """
    getrandbits = random.Random(seed).getrandbits
    order = list(range(n))
    # swap position i with a j drawn below m = i + 1 by rejection on bits
    steps = [(i, i + 1, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
    for _ in range(epochs):
        for i, m, bits in steps:
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            order[i], order[j] = order[j], order[i]
        yield order


def _train_linear(
    vectors, spam_flags, n_slots: int, hp: Hyperparams, loss: str, orders=None
) -> dict:
    """Deterministic subgradient descent on the L2-regularized loss with the
    1/(lambda*(t0+t)) step schedule.

    t0 sizes the first step for a weight vector of typical norm, so the bias
    survives the opening steps. The weights are kept as scale * v, so the L2
    shrink touches one float. Each epoch visits the rows in the next of
    ``orders``, by default ``epoch_orders(hp.seed, len(vectors), hp.epochs)``.
    Rows are shared ``(slot, float(value))`` pairs and ``t`` is a float, so
    the loop is float with float throughout, with the plain loop's bits.
    """
    lam = hp.reg_lambda
    pairs: dict[tuple[int, float], tuple[int, float]] = {}
    rows = []
    for vec in vectors:
        w = vec.weights
        rows.append(tuple([pairs.setdefault(p, p) for p in zip(w, map(float, w.values()))]))
    ys = [1.0 if f else -1.0 for f in spam_flags]
    hinge = loss == "hinge"
    typical_w = math.sqrt(1.0 / math.sqrt(lam))
    dloss0 = 1.0 if hinge else _sigmoid(typical_w)
    t0 = 1.0 / (lam * (typical_w / max(1.0, dloss0)))
    v = [0.0] * n_slots
    exp = math.exp
    scale = 1.0
    bias = 0.0
    t = 0.0
    if orders is None:
        orders = epoch_orders(hp.seed, len(rows), hp.epochs)
    for order in orders:
        for r in order:
            t += 1.0
            eta = 1.0 / (lam * (t0 + t))
            row = rows[r]
            y = ys[r]
            dot = 0.0
            for i, x in row:
                dot += v[i] * x
            z = y * (scale * dot + bias)
            scale *= 1.0 - eta * lam
            if hinge:
                if not z < 1.0:
                    continue
                g = 1.0
            else:
                if z <= 0.0:  # _sigmoid(-z) for -z >= 0
                    g = 1.0 / (1.0 + exp(z))
                else:
                    ez = exp(-z)
                    g = ez / (1.0 + ez)
                if g == 0.0:
                    continue
            coef = eta * y * g / scale
            for i, x in row:
                v[i] += coef * x
            bias += eta * y * g
    return {"weights": [scale * w for w in v], "bias": bias}


def _margin(params: dict, vector: FeatureVector) -> float:
    w = params["weights"]
    dot = 0.0
    for i, x in vector.weights.items():
        dot += w[i] * x
    return dot + params["bias"]


# -- CART decision tree --------------------------------------------------------


def _train_dt(vectors, spam_flags, max_depth: int) -> dict:
    """Gini-impurity CART on sparse rows, thresholds at midpoints of the
    sorted unique values seen for a feature (absent means zero).

    Gain ties resolve to the lowest feature index, then the lowest threshold.
    A node stops at purity (so at fewer than two samples too), at max_depth,
    or when no split improves the impurity, compared in exact integer arithmetic.
    """
    rows = [vec.weights for vec in vectors]
    ones = [tuple(f for f, val in row.items() if val == 1) for row in rows]
    others = [tuple((f, val) for f, val in row.items() if val != 1) for row in rows]
    nodes: list[dict] = []
    # Entries grow a node from (row indices, depth) or join the last two subtrees on
    # ``done`` under a (feature, threshold) split, so nodes are appended in post-order.
    work: list[tuple] = [(list(range(len(rows))), 0)]
    done: list[int] = []
    while work:
        entry = work.pop()
        if type(entry[0]) is int:
            right = done.pop()
            nodes.append({"feature": entry[0], "threshold": entry[1], "left": done.pop(), "right": right})
        else:
            idxs, depth = entry
            spam_idxs = [i for i in idxs if spam_flags[i]]
            n, s = len(idxs), len(spam_idxs)
            # The search's counters die with its frame, before the children grow.
            best = _dt_split(ones, others, idxs, spam_idxs) if 0 < s < n and depth < max_depth else None
            if best is not None:
                f, thr = best
                work.append(best)
                work.append(([i for i in idxs if rows[i].get(f, 0.0) > thr], depth + 1))
                work.append(([i for i in idxs if rows[i].get(f, 0.0) <= thr], depth + 1))
                continue
            nodes.append({"spam_fraction": s / n, "samples": n})
        done.append(len(nodes) - 1)
    return {"nodes": nodes, "root": done[0]}


def _dt_split(ones, others, idxs, spam_idxs) -> tuple[int, float] | None:
    """The best ``(feature, threshold)`` split of one ``_train_dt`` node, or
    None when no split improves the impurity."""
    n = len(idxs)
    s = len(spam_idxs)
    ones_n = Counter(chain.from_iterable(ones[i] for i in idxs))
    ones_s = Counter(chain.from_iterable(ones[i] for i in spam_idxs))
    pairs_n = Counter(chain.from_iterable(others[i] for i in idxs))
    pairs_s = Counter(chain.from_iterable(others[i] for i in spam_idxs))
    by_feature: dict[int, list[float]] = {}
    for f, val in pairs_n:
        by_feature.setdefault(f, []).append(val)
    best_num = s * s + (n - s) * (n - s)
    best_den = n
    best: tuple[int, float] | None = None
    for f in sorted(ones_n.keys() | by_feature.keys()):
        one_n = ones_n[f]
        one_s = ones_s[f]
        vals = by_feature.get(f)
        if vals is None:
            # Values 0 and 1 only: the single split puts the zeros left.
            zero_n = n - one_n
            if not zero_n:
                continue
            zero_s = s - one_s
            zh = zero_n - zero_s
            oh = one_n - one_s
            num = (zero_s * zero_s + zh * zh) * one_n + (one_s * one_s + oh * oh) * zero_n
            den = zero_n * one_n
            if num * best_den > best_num * den:
                best_num, best_den = num, den
                best = (f, 0.5)
            continue
        buckets = {val: (pairs_n[f, val], pairs_s[f, val]) for val in vals}
        zero_n = n - one_n - sum(cnt for cnt, _ in buckets.values())
        zero_s = s - one_s - sum(sp for _, sp in buckets.values())
        if one_n:
            buckets[1] = (one_n, one_s)
        if zero_n:
            buckets[0.0] = (zero_n, zero_s)
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
            num = (left_s * left_s + lh * lh) * right_n + (right_s * right_s + rh * rh) * left_n
            den = left_n * right_n
            if num * best_den > best_num * den:
                best_num, best_den = num, den
                best = (f, (values[j] + values[j + 1]) / 2.0)
    return best


def _score_dt(params: dict, vector: FeatureVector) -> float:
    nodes = params["nodes"]
    values = vector.weights
    node = nodes[params["root"]]
    while "feature" in node:
        if values.get(node["feature"], 0.0) <= node["threshold"]:
            node = nodes[node["left"]]
        else:
            node = nodes[node["right"]]
    return node["spam_fraction"]


# -- k nearest neighbors -------------------------------------------------------


def _train_knn(vectors, spam_flags) -> dict:
    """The training rows as ``[slot, value]`` entries, one list per distinct
    entry shared by every row that holds it. The value's type is part of the
    key, so an int 1 and a float 1.0 in one slot stay two entries; rows hold
    no zero, bool or non-finite value, so equal keys mean equal JSON."""
    share = {}.setdefault
    return {
        "rows": [[share((i, v, type(v)), [i, v]) for i, v in vec.weights.items()] for vec in vectors],
        "labels": ["spam" if f else "ham" for f in spam_flags],
    }


def _knn_norms(rows) -> list[float]:
    return [math.sqrt(_running_sum(v * v for _, v in row)) for row in rows]


def _knn_postings(params: dict) -> dict[int, list[tuple[int, float]]]:
    """Inverted index over the stored rows: slot -> [(row, value)] by row.

    Zero-norm rows are left out; they sit at distance 1.0 from every query,
    the same as rows that share no slot with it.
    """
    postings: dict[int, list[tuple[int, float]]] = {}
    for r, (row, rn) in enumerate(zip(params["rows"], params["norms"])):
        if rn != 0.0:
            for i, v in row:
                postings.setdefault(i, []).append((r, v))
    return postings


def _knn_neighbors(params: dict, vector: FeatureVector, postings) -> list[int]:
    """Indices of the k nearest training rows by cosine distance.

    Distance ties resolve to the lower training index, and a zero-norm side
    puts a row at distance 1.0. Each dot product is a running total from 0.0
    through ``postings``, the index ``_knn_postings`` builds from params,
    equal to the sum a scan over every stored entry gives.
    """
    items = vector.weights.items()
    qn = math.sqrt(_running_sum(v * v for _, v in items))
    n = len(params["rows"])
    k = min(params["k"], n)
    if qn == 0.0:
        return list(range(k))
    products = [0.0] * n
    for i, qv in items:
        for r, v in postings.get(i, ()):
            products[r] += v * qv
    norms = params["norms"]
    ids = range(n)
    scored = [(1.0 - products[r] / (qn * norms[r]), r) for r in compress(ids, products)]
    zero = compress(ids, map(not_, products))
    scored.extend((1.0, r) for r in islice(zero, k))
    return [idx for _, idx in nsmallest(k, scored)]


def _score_knn(params: dict, vector: FeatureVector, postings) -> float:
    neighbors = _knn_neighbors(params, vector, postings)
    labels = params["labels"]
    spam_votes = sum(1 for i in neighbors if labels[i] == "spam")
    return spam_votes / len(neighbors)
