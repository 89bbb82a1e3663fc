"""The five learners and the bracket-tag rule."""

import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnspam import Label
from vnspam.classifiers import (
    Hyperparams,
    TrainedModel,
    decision_score,
    epoch_orders,
    predict,
    rule_baseline,
    train,
)
from vnspam.features import FeatureVector

import oracles


def fv(weights, dim, length=None, fp=None):
    """A row in the package's form: slots in index order, then the length
    at index dim unless it is None (no length slot) or zero (not stored)."""
    weights = dict(sorted(weights.items()))
    if length:
        weights[dim] = length
    return FeatureVector(
        weights=weights, dim=dim, has_length=length is not None, vocab_fingerprint=fp
    )


def labels(flags):
    return [Label.SPAM if f else Label.LEGITIMATE for f in flags]


def random_instance(rng, max_samples=8, max_feats=4, require_both=True):
    """Small random training set with integer-valued sparse rows."""
    n = rng.randint(2, max_samples)
    d = rng.randint(1, max_feats)
    while True:
        flags = [rng.randint(0, 1) for _ in range(n)]
        if not require_both or 0 < sum(flags) < n:
            break
    rows = []
    for _ in range(n):
        row = {
            f: rng.randint(1, 4)
            for f in range(d)
            if rng.random() < 0.6
        }
        rows.append(row)
    return rows, flags, d


# -- rule baseline ------------------------------------------------------------


def test_baseline_fires_on_ad_tags():
    assert rule_baseline("[QC] Khuyen mai lon").label is Label.SPAM
    assert rule_baseline("(TB2) Nap the ngay").label is Label.SPAM
    assert rule_baseline("[qc khong dau] x").label is Label.SPAM
    assert rule_baseline("truoc (tb) sau").label is Label.SPAM


def test_baseline_scores_are_binary():
    assert rule_baseline("[QC] x").score == 1.0
    assert rule_baseline("hom nay hop luc 3h").score == 0.0


def test_baseline_ignores_other_brackets():
    assert rule_baseline("hom nay hop luc 3h").label is Label.LEGITIMATE
    assert rule_baseline("(hop) luc [3h]").label is Label.LEGITIMATE
    assert rule_baseline("[QC never closed").label is Label.LEGITIMATE
    assert rule_baseline("QC tran trui").label is Label.LEGITIMATE


def test_baseline_never_fires_without_brackets():
    rng = random.Random(2)
    chars = "abcdefgh QCTBqctb0123456789.,!?"
    for _ in range(300):
        text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 40)))
        assert rule_baseline(text).label is Label.LEGITIMATE


# -- train() contract -----------------------------------------------------------


def test_train_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown classifier"):
        train("forest", [fv({0: 1}, 1)] * 2, labels([1, 0]))


def test_train_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="labels"):
        train("nb", [fv({0: 1}, 1)], labels([1, 0]))


def test_train_rejects_single_example():
    with pytest.raises(ValueError, match="at least two"):
        train("nb", [fv({0: 1}, 1)], labels([1]))


def test_train_rejects_single_class():
    with pytest.raises(ValueError, match="both classes"):
        train("nb", [fv({0: 1}, 1), fv({0: 2}, 1)], labels([1, 1]))


@pytest.mark.parametrize("kind", ["nb", "svm", "dt", "knn"])
@pytest.mark.parametrize("bad", [None, "spam", 1, True])
def test_train_refuses_a_label_that_is_not_a_label(kind, bad):
    vecs = [fv({0: 1}, 1), fv({0: 2}, 1), fv({0: 3}, 1)]
    if bad is None:
        match = "cannot train on unlabeled messages"
    else:
        match = re.escape(f"label 1 is {bad!r}, not a Label")
    with pytest.raises(ValueError, match=match):
        train(kind, vecs, [Label.SPAM, bad, Label.LEGITIMATE])


def test_train_rejects_mixed_vocabularies():
    vecs = [fv({0: 1}, 1, fp="aaa"), fv({0: 1}, 1, fp="bbb")]
    with pytest.raises(ValueError, match="different vocabulary"):
        train("nb", vecs, labels([1, 0]))


def test_train_rejects_mixed_dims():
    vecs = [fv({0: 1}, 1), fv({0: 1}, 2)]
    with pytest.raises(ValueError, match="dim"):
        train("nb", vecs, labels([1, 0]))


def test_train_rejects_mixed_length_feature():
    vecs = [fv({0: 1}, 1, length=0.5), fv({0: 1}, 1)]
    with pytest.raises(ValueError, match="length feature"):
        train("nb", vecs, labels([1, 0]))


@pytest.mark.parametrize(
    "kind,hp",
    [
        ("nb", Hyperparams(alpha=0.0)),
        ("svm", Hyperparams(reg_lambda=0.0)),
        ("svm", Hyperparams(epochs=0)),
        ("dt", Hyperparams(max_depth=0)),
        ("knn", Hyperparams(k=0)),
    ],
)
def test_train_rejects_bad_hyperparams(kind, hp):
    with pytest.raises(ValueError):
        train(kind, [fv({0: 1}, 1), fv({0: 2}, 1)], labels([1, 0]), hp)


def test_score_label_consistency_across_kinds():
    """predict() reports exactly the score decision_score() returns, and the
    label is the thresholded score."""
    rng = random.Random(77)
    for kind in ("nb", "svm", "lr", "dt", "knn"):
        for _ in range(30):
            rows, flags, d = random_instance(rng)
            vecs = [fv(r, d) for r in rows]
            model = train(kind, vecs, labels(flags), Hyperparams(epochs=5))
            q = fv({f: rng.randint(1, 4) for f in range(d) if rng.random() < 0.5}, d)
            pred = predict(model, q)
            score = decision_score(model, q)
            assert pred.score == score
            threshold = 0.0 if kind == "svm" else 0.5
            assert pred.label is (Label.SPAM if score > threshold else Label.LEGITIMATE)
            if kind != "svm":
                assert 0.0 <= score <= 1.0


# -- naive Bayes -----------------------------------------------------------------


def test_nb_laplace_hand_example():
    vecs = [fv({0: 2}, 2), fv({1: 2}, 2)]
    model = train("nb", vecs, labels([1, 0]))
    # spam saw term 0 twice out of 2 tokens; alpha=1 over 2 slots
    assert model.params["log_likelihood"]["spam"][0] == pytest.approx(math.log(0.75))
    pred = predict(model, fv({0: 1}, 2))
    assert pred.label is Label.SPAM
    assert pred.score > 0.5


def test_nb_likelihoods_normalize():
    rng = random.Random(6)
    for _ in range(50):
        rows, flags, d = random_instance(rng)
        model = train("nb", [fv(r, d) for r in rows], labels(flags))
        for cls in ("spam", "ham"):
            total = sum(math.exp(x) for x in model.params["log_likelihood"][cls])
            assert total == pytest.approx(1.0, abs=1e-9)


def test_nb_matches_exact_posterior():
    rng = random.Random(8)
    for _ in range(100):
        rows, flags, d = random_instance(rng)
        alpha = rng.choice([0.5, 1.0, 2.0])
        model = train("nb", [fv(r, d) for r in rows], labels(flags), Hyperparams(alpha=alpha))
        q = {f: rng.randint(1, 4) for f in range(d) if rng.random() < 0.5}
        got = decision_score(model, fv(q, d))
        want = oracles.nb_posterior(rows, flags, q, d, alpha)
        assert oracles.rel_close(got, float(want)), (rows, flags, q, alpha)


def test_nb_all_oov_query_follows_prior():
    vecs = [fv({0: 1}, 1)] * 3 + [fv({0: 2}, 1)] * 7
    model = train("nb", vecs, labels([1] * 3 + [0] * 7))
    pred = predict(model, fv({}, 1))
    assert pred.label is Label.LEGITIMATE
    assert pred.score == pytest.approx(0.3)


def test_nb_query_scaling_keeps_argmax_under_equal_priors():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.choice([2, 4, 6])
        flags = [1] * (n // 2) + [0] * (n // 2)
        d = rng.randint(1, 4)
        rows = [
            {f: rng.randint(1, 4) for f in range(d) if rng.random() < 0.6}
            for _ in range(n)
        ]
        model = train("nb", [fv(r, d) for r in rows], labels(flags))
        q = {f: rng.randint(1, 3) for f in range(d) if rng.random() < 0.5}
        base = predict(model, fv(q, d)).label
        for c in (2, 5):
            scaled = predict(model, fv({f: c * x for f, x in q.items()}, d)).label
            assert scaled is base


def test_nb_scaling_every_vector_can_flip_the_argmax():
    """Additive smoothing is not scale-free: inflating all counts by the same
    factor moves the likelihood ratios, so the decision may flip even with
    balanced priors."""
    q = {0: 5, 1: 2}
    small = train("nb", [fv({0: 5}, 2), fv({0: 3, 1: 4}, 2)], labels([1, 0]))
    big = train("nb", [fv({0: 50}, 2), fv({0: 30, 1: 40}, 2)], labels([1, 0]))
    lo = predict(small, fv(q, 2)).label
    hi = predict(big, fv({f: 10 * x for f, x in q.items()}, 2)).label
    assert lo is Label.SPAM
    assert hi is Label.LEGITIMATE


@pytest.mark.parametrize(
    "alpha,what",
    [(1e308, "too large: the spam denominator overflows"), (5e-324, "too small: a spam term probability underflows")],
)
def test_nb_smoothing_that_leaves_no_finite_log_is_named(alpha, what):
    # alpha * n_slots overflows to inf, or (0 + alpha) / denom rounds to 0.0:
    # either way math.log would meet 0.0.
    vecs = [fv({0: 2}, 3), fv({1: 2}, 3)]
    with pytest.raises(ValueError, match="^" + re.escape(f"nb smoothing alpha {alpha!r} is {what}")):
        train("nb", vecs, labels([1, 0]), Hyperparams(alpha=alpha))
    # one slot keeps the 1e308 denominator finite, and counts of 1 keep
    # the 5e-324 quotients above 0
    train("nb", [fv({0: 2}, 1), fv({}, 1)], labels([1, 0]), Hyperparams(alpha=1e308))
    train("nb", [fv({0: 1}, 2), fv({1: 1}, 2)], labels([1, 0]), Hyperparams(alpha=5e-324))


# -- linear models ----------------------------------------------------------------


def test_svm_separates_two_points():
    vecs = [fv({0: 1}, 2), fv({1: 1}, 2)]
    model = train("svm", vecs, labels([1, 0]))
    assert predict(model, vecs[0]).label is Label.SPAM
    assert predict(model, vecs[1]).label is Label.LEGITIMATE
    assert decision_score(model, vecs[0]) > 0
    assert decision_score(model, vecs[1]) < 0


def test_svm_perfect_on_separable_cluster():
    rng = random.Random(10)
    vecs, ys = [], []
    for _ in range(40):
        if rng.random() < 0.5:
            vecs.append(fv({0: rng.randint(2, 5), 1: rng.randint(1, 2)}, 3))
            ys.append(1)
        else:
            vecs.append(fv({2: rng.randint(2, 5)}, 3))
            ys.append(0)
    model = train("svm", vecs, labels(ys))
    hits = sum(predict(model, v).label is lab for v, lab in zip(vecs, labels(ys)))
    assert hits == len(vecs)


def test_lr_zero_weights_score_half():
    model = TrainedModel(
        kind="lr",
        params={"weights": [0.0, 0.0], "bias": 0.0},
        n_slots=2,
        has_length=False,
        vocab_fingerprint=None,
    )
    assert decision_score(model, fv({0: 3}, 2)) == 0.5
    assert predict(model, fv({0: 3}, 2)).label is Label.LEGITIMATE  # tie


def test_svm_boundary_vector_scores_zero():
    model = TrainedModel(
        kind="svm",
        params={"weights": [1.0, -1.0], "bias": 0.0},
        n_slots=2,
        has_length=False,
        vocab_fingerprint=None,
    )
    assert decision_score(model, fv({0: 1, 1: 1}, 2)) == 0.0
    assert predict(model, fv({0: 1, 1: 1}, 2)).label is Label.LEGITIMATE


def test_lr_learns_separable_data():
    vecs = [fv({0: 2}, 2), fv({0: 3}, 2), fv({1: 2}, 2), fv({1: 3}, 2)]
    model = train("lr", vecs, labels([1, 1, 0, 0]))
    assert predict(model, fv({0: 2}, 2)).label is Label.SPAM
    assert predict(model, fv({1: 2}, 2)).label is Label.LEGITIMATE
    assert 0.0 <= decision_score(model, fv({0: 2}, 2)) <= 1.0


def test_linear_training_is_seed_deterministic():
    rng = random.Random(12)
    rows, flags, d = random_instance(rng, max_samples=8)
    vecs = [fv(r, d) for r in rows]
    a = train("svm", vecs, labels(flags), Hyperparams(seed=4, epochs=10))
    b = train("svm", vecs, labels(flags), Hyperparams(seed=4, epochs=10))
    assert a.params == b.params
    c = train("svm", vecs, labels(flags), Hyperparams(seed=5, epochs=10))
    assert a.params != c.params


def test_linear_weight_norm_stays_in_pegasos_ball():
    """The L2-regularized optimum lies inside radius 1/sqrt(lambda); a healthy
    schedule must not leave weights far outside it."""
    rng = random.Random(14)
    vecs, ys = [], []
    for i in range(60):
        spam = i % 2 == 0
        row = {0: rng.randint(1, 4)} if spam else {1: rng.randint(1, 4)}
        vecs.append(fv(row, 2))
        ys.append(1 if spam else 0)
    for loss in ("svm", "lr"):
        model = train(loss, vecs, labels(ys), Hyperparams(reg_lambda=1e-2))
        norm = math.sqrt(sum(w * w for w in model.params["weights"]))
        assert norm <= 2.0 / math.sqrt(1e-2)


# -- decision tree ----------------------------------------------------------------


def test_dt_perfect_feature_gives_single_split():
    vecs = [fv({0: 2}, 2), fv({0: 3}, 2), fv({}, 2), fv({1: 1}, 2)]
    model = train("dt", vecs, labels([1, 1, 0, 0]))
    nodes = model.params["nodes"]
    root = nodes[model.params["root"]]
    assert root["feature"] == 0
    assert root["threshold"] == pytest.approx(1.0)
    internal = [n for n in nodes if "feature" in n]
    assert len(internal) == 1
    for v, lab in zip(vecs, labels([1, 1, 0, 0])):
        assert predict(model, v).label is lab


def test_dt_nodes_form_a_tree():
    rng = random.Random(15)
    for _ in range(40):
        rows, flags, d = random_instance(rng)
        model = train("dt", [fv(r, d) for r in rows], labels(flags))
        nodes = model.params["nodes"]
        seen = set()
        stack = [model.params["root"]]
        while stack:
            i = stack.pop()
            assert i not in seen  # each node reached once: no cycles, no sharing
            seen.add(i)
            node = nodes[i]
            if "feature" in node:
                assert set(node) == {"feature", "threshold", "left", "right"}
                stack += [node["left"], node["right"]]
            else:
                assert set(node) == {"spam_fraction", "samples"}
                assert 0.0 <= node["spam_fraction"] <= 1.0
        assert seen == set(range(len(nodes)))


def test_dt_respects_max_depth():
    rng = random.Random(16)
    rows, flags, d = random_instance(rng, max_samples=8)
    model = train("dt", [fv(r, d) for r in rows], labels(flags), Hyperparams(max_depth=1))
    nodes = model.params["nodes"]
    root = nodes[model.params["root"]]
    if "feature" in root:
        assert "feature" not in nodes[root["left"]]
        assert "feature" not in nodes[root["right"]]


def leaf_stop_is_valid(rows, flags, idxs, depth, max_depth):
    n = len(idxs)
    s = sum(flags[i] for i in idxs)
    if s == 0 or s == n or n < 2 or depth >= max_depth:
        return True
    sub_rows = [rows[i] for i in idxs]
    sub_flags = [flags[i] for i in idxs]
    gain, _ = oracles.best_root_split(sub_rows, sub_flags)
    return gain == 0


def test_dt_every_split_attains_exact_max_gini_gain():
    """Route the training rows down the built tree; at every internal node the
    chosen split must attain the exact best Gini gain for the samples that
    reach it, and every leaf must correspond to a valid stopping condition."""
    rng = random.Random(18)
    for _ in range(60):
        rows, flags, d = random_instance(rng)
        max_depth = rng.choice([1, 2, 20])
        model = train("dt", [fv(r, d) for r in rows], labels(flags), Hyperparams(max_depth=max_depth))
        nodes = model.params["nodes"]

        def check(node_idx, idxs, depth):
            node = nodes[node_idx]
            if "feature" not in node:
                assert leaf_stop_is_valid(rows, flags, idxs, depth, max_depth), (idxs, depth)
                return
            sub_rows = [rows[i] for i in idxs]
            sub_flags = [flags[i] for i in idxs]
            best, arg = oracles.best_root_split(sub_rows, sub_flags)
            assert best > 0
            got = (node["feature"], Fraction(node["threshold"]))
            assert got in arg, (sub_rows, sub_flags, node, arg)
            left = [i for i in idxs if rows[i].get(node["feature"], 0) <= node["threshold"]]
            right = [i for i in idxs if rows[i].get(node["feature"], 0) > node["threshold"]]
            check(node["left"], left, depth + 1)
            check(node["right"], right, depth + 1)

        check(model.params["root"], list(range(len(rows))), 0)


def test_dt_leaf_scores_are_spam_fractions():
    # the zero row splits off pure; the three identical rows are 2 spam 1 ham
    vecs = [fv({0: 1}, 1), fv({0: 1}, 1), fv({0: 1}, 1), fv({}, 1)]
    model = train("dt", vecs, labels([1, 1, 0, 0]))
    score = decision_score(model, fv({0: 1}, 1))
    assert score == pytest.approx(2 / 3)


# -- k nearest neighbors -------------------------------------------------------------


def test_knn_identical_point():
    model = train("knn", [fv({0: 1}, 1), fv({}, 1)], labels([1, 0]), Hyperparams(k=1))
    pred = predict(model, fv({0: 1}, 1))
    assert pred.label is Label.SPAM
    assert pred.score == 1.0


def test_knn_vote_tie_goes_legitimate():
    vecs = [fv({0: 1}, 2), fv({1: 1}, 2)]
    model = train("knn", vecs, labels([1, 0]), Hyperparams(k=2))
    pred = predict(model, fv({0: 1, 1: 1}, 2))
    assert pred.score == 0.5
    assert pred.label is Label.LEGITIMATE


def test_knn_distance_tie_prefers_lower_index():
    vecs = [fv({0: 2}, 1), fv({0: 4}, 1)]  # same direction, equal cosine
    model = train("knn", vecs, labels([0, 1]), Hyperparams(k=1))
    assert predict(model, fv({0: 1}, 1)).label is Label.LEGITIMATE


def test_knn_k_larger_than_training_set():
    vecs = [fv({0: 1}, 1), fv({}, 1)]
    model = train("knn", vecs, labels([1, 0]), Hyperparams(k=5))
    pred = predict(model, fv({0: 3}, 1))
    assert pred.score == 0.5  # both rows vote


def test_knn_zero_norm_query_sees_uniform_distance():
    vecs = [fv({0: 1}, 1), fv({0: 2}, 1), fv({0: 3}, 1)]
    model = train("knn", vecs, labels([1, 0, 0]), Hyperparams(k=2))
    pred = predict(model, fv({}, 1))
    assert pred.score == 0.5  # rows 0 and 1 by index tie-break


def test_knn_matches_exhaustive_oracle():
    rng = random.Random(19)
    from vnspam.classifiers import _knn_neighbors

    for _ in range(150):
        rows, flags, d = random_instance(rng)
        k = rng.randint(1, 6)
        model = train("knn", [fv(r, d) for r in rows], labels(flags), Hyperparams(k=k))
        q = {f: rng.randint(1, 4) for f in range(d) if rng.random() < 0.5}
        got = _knn_neighbors(model.params, fv(q, d), model.knn_postings)
        assert got == oracles.knn_exhaustive(rows, q, k)


def test_knn_scaling_invariance():
    """Cosine ignores vector length: scaling all rows and the query by any
    power of two reproduces identical similarities, hence identical labels."""
    rng = random.Random(21)
    for _ in range(60):
        rows, flags, d = random_instance(rng)
        k = rng.randint(1, 5)
        q = {f: rng.randint(1, 4) for f in range(d) if rng.random() < 0.5}
        base_model = train("knn", [fv(r, d) for r in rows], labels(flags), Hyperparams(k=k))
        base = predict(base_model, fv(q, d)).label
        for c in (0.5, 2.0, 8.0):
            scaled_rows = [{f: c * x for f, x in r.items()} for r in rows]
            scaled_model = train("knn", [fv(r, d) for r in scaled_rows], labels(flags), Hyperparams(k=k))
            scaled_q = fv({f: c * x for f, x in q.items()}, d)
            assert predict(scaled_model, scaled_q).label is base


# -- prediction gating ---------------------------------------------------------------


def test_predict_refuses_foreign_fingerprint():
    vecs = [fv({0: 1}, 1, fp="aaa"), fv({}, 1, fp="aaa")]
    model = train("nb", vecs, labels([1, 0]))
    with pytest.raises(ValueError, match="different vocabulary"):
        predict(model, fv({0: 1}, 1, fp="bbb"))


def test_predict_refuses_wrong_slot_count():
    vecs = [fv({0: 1}, 2), fv({1: 1}, 2)]
    model = train("nb", vecs, labels([1, 0]))
    with pytest.raises(ValueError, match="slots"):
        predict(model, fv({0: 1}, 3))


def test_predict_refuses_length_feature_mismatch():
    vecs = [fv({0: 1}, 1, length=0.1), fv({}, 1, length=0.2)]
    model = train("nb", vecs, labels([1, 0]))
    with pytest.raises(ValueError, match="length feature"):
        predict(model, fv({0: 1}, 1))


def test_baseline_model_cannot_score_vectors():
    model = train("baseline", [], [])
    with pytest.raises(ValueError, match="raw text"):
        decision_score(model, fv({0: 1}, 1))


# -- knn inverted index against the full scan ---------------------------------------

# Tiny values make near-orthogonal pairs, where 1.0 - sim rounds to 1.0.
_TFIDF_VALUES = st.one_of(
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=-3.0, max_value=-0.05),
    st.sampled_from([1e-30, 1e-17, 3e-9, 0.6931471805599453]),
)


@st.composite
def knn_instances(draw):
    dim = draw(st.integers(1, 6))
    rep = draw(st.sampled_from(["bow", "tfidf"]))
    with_length = draw(st.booleans())
    values = st.integers(1, 4) if rep == "bow" else _TFIDF_VALUES
    lengths = st.sampled_from([0.0, 0.05, 0.5, 1.0, 2.35, 1e-20])

    def vector():
        weights = draw(st.dictionaries(st.integers(0, dim - 1), values, max_size=dim))
        length = draw(lengths) if with_length else None
        return fv(weights, dim, length=length)

    rows = [vector() for _ in range(draw(st.integers(2, 10)))]
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))  # duplicates
    query = fv({}, dim, length=0.0 if with_length else None) if draw(st.booleans()) else vector()
    k = draw(st.integers(1, len(rows) + 3))
    return rows, query, k


@settings(max_examples=400, deadline=None)
@given(knn_instances())
def test_knn_index_matches_full_scan(instance):
    # _knn_neighbors walks the query's slots in ascending order, which hands
    # each row its products in its own stored order, so each dot product is
    # the sum the full scan gives: the entries it skips add only 0.0, which
    # leaves a running total unchanged. Each product keeps its operand types,
    # so ints multiply exactly.
    from vnspam.classifiers import _knn_neighbors

    rows, query, k = instance
    model = train("knn", rows, labels([i % 2 for i in range(len(rows))]), Hyperparams(k=k))
    want = oracles.knn_full_scan(model.params, query)
    assert _knn_neighbors(model.params, query, model.knn_postings) == want


@pytest.mark.parametrize("k", range(1, 8))
def test_knn_zero_products_tie_with_untouched_rows(k):
    # A zero or -0.0 dot product puts a row at distance exactly 1.0, so
    # _knn_neighbors scores only rows with a nonzero one, next to the k
    # lowest-indexed other rows at 1.0.
    from vnspam.classifiers import _knn_neighbors

    rows = [
        fv({0: 1.0, 1: -1.0}, 2),  # its products 1.0 and -1.0 cancel to 0.0
        fv({}, 2),  # zero norm
        fv({1: 2}, 2),
        fv({0: -1, 1: 1}, 2),  # int products that cancel
        fv({0: 3, 1: 1}, 2),
        fv({0: -2}, 2),  # negative product: beyond distance 1.0
    ]
    model = train("knn", rows, labels([1, 0, 1, 0, 1, 0]), Hyperparams(k=k))
    assert model.params["rows"][0] == [[0, 1.0], [1, -1.0]]
    query = fv({0: 1, 1: 1}, 2)
    want = oracles.knn_full_scan(model.params, query)
    # Rows 4 and 2 have positive products. Rows 0, 1 and 3 tie at 1.0 and
    # rank by index, ahead of row 5's negative product.
    assert want == [4, 2, 0, 1, 3, 5][:k]
    assert _knn_neighbors(model.params, query, model.knn_postings) == want


# An int and the float equal to it hash alike; only the type in the entry key
# keeps them apart, here below and beyond 2**53.
_KNN_ENTRY_VALUES = st.sampled_from([1, 1.0, 2, 2.0, -1, -1.0, 0.5, 2**53, 2.0**53, 2**53 + 1, 2**63, 2.0**63])


@st.composite
def knn_row_sets(draw):
    dim = draw(st.integers(1, 4))
    length = st.sampled_from([0.0, 0.05, 1.0, 2.35]) if draw(st.booleans()) else st.none()

    def vector(weights=None):
        if weights is None:
            weights = draw(st.dictionaries(st.integers(0, dim - 1), _KNN_ENTRY_VALUES, max_size=dim))
        return fv(weights, dim, length=draw(length))

    rows = [vector({0: 1}), vector({0: 1.0}), vector({})]
    rows += [vector() for _ in range(draw(st.integers(0, 8)))]
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))  # duplicates
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(knn_row_sets())
def test_knn_shared_rows_match_one_list_per_entry(rows):
    stored = train("knn", rows, labels([i % 2 for i in range(len(rows))])).params["rows"]
    assert repr(stored) == repr(oracles.knn_rows_plain(rows))
    keys = {(i, v, type(v)) for row in stored for i, v in row}
    assert len({id(entry) for row in stored for entry in row}) == len(keys)


def test_knn_int_and_equal_float_entries_are_different_lists():
    rows = [fv({0: 1, 1: 2**53}, 2), fv({0: 1.0, 1: 2.0**53}, 2), fv({0: 1, 1: 2.0**53}, 2)]
    stored = train("knn", rows, labels([1, 0, 1])).params["rows"]
    assert stored[0][0] is stored[2][0] and stored[1][1] is stored[2][1]
    assert stored[0][0] is not stored[1][0] and stored[0][1] is not stored[1][1]
    assert json.dumps(stored) == (
        "[[[0, 1], [1, 9007199254740992]], [[0, 1.0], [1, 9007199254740992.0]], "
        "[[0, 1], [1, 9007199254740992.0]]]"
    )


def test_knn_rows_keep_one_list_per_distinct_entry_in_memory():
    # 45,000 entries over 600 distinct (slot, value) pairs. Shared entries
    # leave the row lists' pointers, each row's list and norm, and the labels:
    # about 19 bytes per entry on Python 3.11. A new [slot, value] list for
    # every entry made it about 89.
    import tracemalloc

    rng = random.Random(0)
    dim = 300
    vecs = [
        fv({f: rng.choice((1, 2)) for f in rng.sample(range(dim), rng.randint(5, 25))}, dim)
        for _ in range(3000)
    ]
    labs = labels([i % 2 for i in range(len(vecs))])
    tracemalloc.start()
    try:
        model = train("knn", vecs, labs)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(model.params["rows"]) == len(vecs)
    assert retained < 32 * sum(len(v.weights) for v in vecs)


# -- fast fit loops against the plain loops they replaced ---------------------------


def _vector_sets(draw, values, dim_max=8, rows_max=12):
    """Both-class training rows over one vocabulary, with or without a length slot."""
    dim = draw(st.integers(1, dim_max))
    lengths = None
    if draw(st.booleans()):
        lengths = st.sampled_from([0.0, 0.05, 0.5, 1.0, 2.35, 1e-20])
    n = draw(st.integers(2, rows_max))
    rows = [
        fv(
            draw(st.dictionaries(st.integers(0, dim - 1), values, max_size=dim)),
            dim,
            length=None if lengths is None else draw(lengths),
        )
        for _ in range(n)
    ]
    flags = [1, 0] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    return rows, flags, dim + (0 if lengths is None else 1)


@st.composite
def linear_instances(draw):
    values = draw(st.sampled_from([
        st.integers(1, 5),
        st.one_of(_TFIDF_VALUES, st.just(1.0)),
        st.one_of(st.integers(1, 5), _TFIDF_VALUES, st.just(1.0)),
    ]))
    rows, flags, n_slots = _vector_sets(draw, values)
    hp = Hyperparams(
        seed=draw(st.integers(0, 2**32)),
        reg_lambda=draw(st.sampled_from([1e-4, 1e-2, 0.5])),
        epochs=draw(st.integers(1, 4)),
    )
    return rows, flags, n_slots, hp


@settings(max_examples=300, deadline=None)
@given(linear_instances(), st.sampled_from(["hinge", "logistic"]))
def test_linear_fit_matches_plain_loop(instance, loss):
    # _train_linear reads each row as (slot, float(value)) pairs and counts
    # steps in a float t, so every multiply and add in its loop is float with
    # float, which CPython specializes. The bits are the plain loop's:
    # float * int converts the int exactly as float() does, with one rounding
    # to nearest, and t0 + t is exact for an integral t below 2**53. Equal
    # pairs are one tuple shared by every row that holds them; stored values
    # are never zero or NaN, so equal means bit-identical.
    from vnspam.classifiers import _train_linear

    rows, flags, n_slots, hp = instance
    got = _train_linear(rows, flags, n_slots, hp, loss)
    want = oracles.train_linear_plain(rows, flags, n_slots, hp, loss)
    assert repr(got) == repr(want)  # repr tells -0.0 from 0.0


@pytest.mark.parametrize("loss", ["hinge", "logistic"])
def test_linear_fit_matches_plain_loop_on_ints_beyond_2_53(loss):
    # The fit reads each value as float(value); the plain loop multiplies
    # float by int, which rounds the int the same way.
    from vnspam.classifiers import _train_linear

    big = 2**53 + 1
    assert float(big) != big and float(big + 2) != big + 2
    rows = [
        fv({0: big, 1: 3}, 3),
        fv({1: 1, 2: big + 2}, 3),
        fv({0: 2, 2: 1}, 3),
        fv({1: big}, 3),
    ]
    flags = [1, 0, 1, 0]
    hp = Hyperparams(seed=3, epochs=3)
    got = _train_linear(rows, flags, 3, hp, loss)
    assert all(math.isfinite(w) for w in got["weights"]) and got["weights"] != [0.0] * 3
    assert repr(got) == repr(oracles.train_linear_plain(rows, flags, 3, hp, loss))


# Equal values of both types, repeated values, halves and a negative one.
_DT_VALUES = st.sampled_from([1, 1.0, 1, 2, 2.0, 3, 0.5, 1.5, 2.5, -1.0, 7.25])


@st.composite
def dt_instances(draw):
    rows, flags, _ = _vector_sets(draw, _DT_VALUES, dim_max=6, rows_max=16)
    return rows, flags, draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(dt_instances())
def test_dt_fit_matches_plain_loop(instance):
    # _train_dt compares gains in exact integers: maximizing the gain is
    # maximizing ((sl^2+hl^2)*nr + (sr^2+hr^2)*nl) / (nl*nr), with
    # (s^2+h^2)/n as the no-split baseline, so the strict-improvement rule
    # never hinges on float rounding. Each node counts the entries equal to 1
    # by feature and the others by (feature, value). A feature seen only with
    # value 1 has the one threshold (0.0 + 1) / 2.0 = 0.5, and every other
    # threshold is the same (a + b) / 2.0 of the same sorted values, so the
    # tree is that of the plain loop, which buckets every entry in turn. The
    # one exception would be a float 1.0 and an int beyond 2**53 in one
    # feature, where the value-1 bucket's int key rounds differently.
    from vnspam.classifiers import _train_dt

    rows, flags, max_depth = instance
    got = _train_dt(rows, flags, max_depth)
    assert repr(got) == repr(oracles.train_dt_plain(rows, flags, max_depth))


def test_dt_memory_does_not_grow_with_depth():
    # Each node's split counters must be freed before its children grow; kept
    # alive, they made the depth-20 peak about 9 times the depth-1 one here.
    import tracemalloc

    rng = random.Random(0)
    dim = 2000
    vecs = []
    for _ in range(1000):
        slots = sorted(rng.sample(range(dim), rng.randint(2, 10)))
        vecs.append(fv({f: rng.choice((1, 1, 1, 2, 3)) for f in slots}, dim))
    labs = labels([rng.random() < 0.5 for _ in vecs])

    def peak(max_depth):
        tracemalloc.start()
        try:
            train("dt", vecs, labs, Hyperparams(max_depth=max_depth))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20) <= 2 * peak(1)


@pytest.mark.parametrize("kind", ["nb", "svm", "lr", "dt", "knn"])
def test_fit_leaves_no_reference_cycle(kind):
    # A fit must leave no reference cycle, such as a closure that calls itself:
    # one would keep every row of the fit alive until the cyclic collector runs.
    import gc

    rng = random.Random(0)
    vecs = [fv({rng.randrange(50): rng.randint(1, 3) for _ in range(8)}, 50) for _ in range(300)]
    labs = labels([i % 3 == 0 for i in range(300)])
    gc.collect()
    gc.disable()
    try:
        train(kind, vecs, labs)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=200, deadline=None)
@given(linear_instances(), st.sampled_from(["svm", "lr"]))
def test_precomputed_orders_train_the_same_params(instance, kind):
    rows, flags, _, hp = instance
    orders = [list(o) for o in epoch_orders(hp.seed, len(rows), hp.epochs)]
    got = train(kind, rows, labels(flags), hp, orders=orders)
    assert repr(got.params) == repr(train(kind, rows, labels(flags), hp).params)


def test_orders_of_the_wrong_shape_are_refused():
    rows = [fv({0: 1}, 2), fv({1: 1}, 2), fv({0: 2}, 2)]
    labs = labels([1, 0, 1])
    hp = Hyperparams(epochs=2)
    good = [list(o) for o in epoch_orders(hp.seed, 3, 2)]
    train("svm", rows, labs, hp, orders=good)
    for bad in ([good[0]], good + [good[0]], [good[0], good[1][:2]], [good[0], good[1] + [0]]):
        with pytest.raises(ValueError, match="visiting orders"):
            train("svm", rows, labs, hp, orders=bad)
    with pytest.raises(ValueError, match="no visiting orders"):
        train("nb", rows, labs, hp, orders=good)


# -- summation order ------------------------------------------------------------------
# Every float sum in the learners is a running total from 0.0, left to right.
# 1e16 + 1.0 rounds back to 1e16, so the products 1e16, 1.0, -1e16 in slot
# order add up to 0.0 that way; a compensated sum (sum() from Python 3.12 on)
# gives 1.0.

_CANCEL = [1e16, 1.0, -1e16]
_ONES = fv({0: 1.0, 1: 1.0, 2: 1.0}, 3)


def _hand_model(kind, params, n_slots=3):
    return TrainedModel(
        kind=kind, params=params, n_slots=n_slots, has_length=False, vocab_fingerprint=None
    )


def test_linear_margin_sums_left_to_right():
    from vnspam.classifiers import _sigmoid

    assert math.fsum(_CANCEL) == 1.0
    params = {"weights": _CANCEL, "bias": 0.25}
    assert decision_score(_hand_model("svm", params), _ONES) == 0.0 + 0.25
    assert decision_score(_hand_model("lr", params), _ONES) == _sigmoid(0.25)


def test_nb_log_ratio_sums_left_to_right():
    params = {
        "alpha": 1.0,
        "log_prior": {"spam": 0.0, "ham": 0.0},
        "log_likelihood": {"spam": _CANCEL, "ham": [0.0, 0.0, 0.0]},
    }
    assert decision_score(_hand_model("nb", params), _ONES) == 0.5  # _sigmoid(0.0)


def test_knn_dot_product_sums_left_to_right():
    from vnspam.classifiers import _knn_neighbors

    # Four 1.0 products between the two that cancel: a compensated sum of
    # 4.0 puts row 1 at 1.0 - 2e-16, where one 1.0 would still round to 1.0.
    row = {0: 1e8, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: -1e8}
    query = {0: 1e8, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1e8}
    assert math.fsum(row[i] * query[i] for i in row) == 4.0
    model = train("knn", [fv({6: 1.0}, 7), fv(row, 7)], labels([0, 1]), Hyperparams(k=1))
    # The running total is 0.0, which puts row 1 at distance 1.0 like the
    # untouched row 0, and the tie goes to the lower index.
    assert _knn_neighbors(model.params, fv(query, 7), model.knn_postings) == [0]


def test_decision_score_rejects_an_unknown_kind():
    with pytest.raises(ValueError) as exc:
        decision_score(_hand_model("forest", {}), _ONES)
    assert str(exc.value) == "unknown classifier kind 'forest'"


@pytest.mark.parametrize("prior", ["0.5", None, True, 10**400])
def test_load_params_refuses_an_nb_log_prior_that_is_not_a_number(prior):
    from vnspam.classifiers import load_params

    stored = {"log_prior": {"spam": prior, "ham": 0.0}, "log_likelihood": {"spam": [0.0], "ham": [0.0]}}
    with pytest.raises(ValueError) as exc:
        load_params("nb", stored, 1)
    assert str(exc.value) == "nb log_prior['spam'] is not a number"


def test_train_takes_a_pipeline_config_as_its_hyperparams():
    from vnspam import PipelineConfig

    vecs = [fv({0: 1}, 2), fv({1: 2}, 2), fv({0: 2}, 2), fv({1: 1}, 2)]
    config = PipelineConfig(classifier="svm", seed=4, epochs=3, reg_lambda=1e-2)
    model = train("svm", vecs, labels([1, 0, 1, 0]), config)
    assert model == train("svm", vecs, labels([1, 0, 1, 0]), Hyperparams(seed=4, epochs=3, reg_lambda=1e-2))
    # train checks every config field, not only the learner's
    with pytest.raises(ValueError, match="min-df must be >= 1, got 0"):
        train("svm", vecs, labels([1, 0, 1, 0]), PipelineConfig(min_df=0))
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        train("knn", vecs, labels([1, 0, 1, 0]), PipelineConfig(k=0))
