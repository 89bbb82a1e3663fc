"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/test_bench.py

They check that the generator is a function of its seed, that traced and
untraced runs agree, and that every output check fails on bad input, so no
check can pass vacuously.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from vnspam import (  # noqa: E402
    Corpus,
    FittedPipeline,
    Label,
    Message,
    reference_grid,
    run_grid,
    stratified_kfold,
)

TINY = {"train": 300, "heldout": 200, "grid": 120}


def _corpus(seed: int, n: int) -> Corpus:
    rows = gen.Generator(seed).corpus(n)
    return Corpus(Message(i, text, Label.from_token(lab)) for i, (lab, text) in enumerate(rows))


# -- generator ------------------------------------------------------------------


def test_generator_is_a_function_of_the_seed():
    assert gen.Generator(7).corpus(200) == gen.Generator(7).corpus(200)
    assert gen.Generator(7).corpus(200) != gen.Generator(8).corpus(200)


def test_generator_has_the_promised_shape():
    rows = gen.Generator(3).corpus(1000)
    assert sum(lab == "spam" for lab, _ in rows) == 300
    texts = [t for _, t in rows]
    assert all("\t" not in t and "\n" not in t for t in texts)
    assert any(t.startswith(("[QC]", "(QC)", "[TB]", "(TB)")) for t in texts)
    assert any(len(t) > 320 for t in texts)  # multi-part messages
    stats = FittedPipeline.fit(_corpus(3, 1000).messages).stats
    assert stats.selected_terms > 500


# -- checks fail on bad input -------------------------------------------------


def test_line_check_catches_a_wrong_prediction_line():
    fitted = FittedPipeline.fit(_corpus(1, 300).messages)
    texts = [t for _, t in gen.Generator(2).corpus(20)]
    lines = [f"{p.label.token}\t{p.score!r}" for p in map(fitted.predict_text, texts)]
    assert checks.line_mismatches(lines, list(lines)) == []
    label, score = lines[3].split("\t")
    flipped = "ham" if label == "spam" else "spam"
    for wrong in (f"{flipped}\t{score}", f"{label}\t{float(score) + 1e-12!r}"):
        bad = lines[:3] + [wrong] + lines[4:]
        assert len(checks.line_mismatches(lines, bad)) == 1
    assert len(checks.line_mismatches(lines, lines[:-1])) == 1


def test_roundtrip_check_catches_corrupted_models(tmp_path):
    model = tmp_path / "model.json"
    FittedPipeline.fit(_corpus(1, 300).messages).save(model)
    scratch = tmp_path / "resaved.json"
    assert checks.roundtrip_failures(FittedPipeline, model, scratch) == []

    good = model.read_bytes()
    model.write_bytes(good[: len(good) // 2])  # truncated
    assert len(checks.roundtrip_failures(FittedPipeline, model, scratch)) == 1
    doc = json.loads(good)
    model.write_text(json.dumps(doc, indent=2))  # loads, but not canonical bytes
    assert len(checks.roundtrip_failures(FittedPipeline, model, scratch)) == 1
    doc["model"]["vocab_fingerprint"] = "0" * 64  # fails validation on load
    model.write_text(json.dumps(doc))
    assert len(checks.roundtrip_failures(FittedPipeline, model, scratch)) == 1


def test_digest_check_catches_a_different_refit():
    # The same-seed refit check of train: rounds within one process and
    # processes within one run all report a digest per model file.
    first = {"digests": [["model-svm.json", "a" * 64], ["model-nb.json", "b" * 64]]}
    same = {"digests": [["model-svm.json", "a" * 64], ["model-svm.json", "a" * 64]]}
    _, compared, failures = run.merge_digests([first, same])
    assert (compared, failures) == (2, [])
    other = {"digests": [["model-svm.json", "a" * 63 + "c"]]}
    _, compared, failures = run.merge_digests([first, same, other])
    assert compared == 3
    assert len(failures) == 1 and failures[0].startswith("model-svm.json:")


def test_fold_check_catches_a_lost_fold():
    corpus = _corpus(4, 120)
    reports = run_grid(corpus, stratified_kfold(corpus, 5), reference_grid()[:3])
    assert checks.fold_total_failures(reports, len(corpus)) == []
    short = reports[1].__class__(
        config_name=reports[1].config_name,
        per_fold=reports[1].per_fold[1:],
        averaged=reports[1].averaged,
        pooled_counts=reports[1].pooled_counts,
        pooled=reports[1].pooled,
    )
    assert len(checks.fold_total_failures([reports[0], short], len(corpus))) == 1


# -- whole runs at tiny sizes -------------------------------------------------


def _spawner():
    return run.Spawner(time.monotonic() + 120)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, name):
    lines, metrics, attempted, failed = run.run_workload(
        name, 5, 0, False, _spawner(), work=tmp_path, sizes=TINY
    )
    assert failed == 0, lines
    assert attempted > 0
    assert list(metrics) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    assert any(line.startswith("inputs:") for line in lines)
    assert any(line.startswith("sha256 ") for line in lines)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_matches_untraced_outputs(tmp_path, name):
    # run_workload compares the traced and untraced digests and counts a
    # difference as a failed operation.
    lines, metrics, attempted, failed = run.run_workload(
        name, 5, 0, True, _spawner(), work=tmp_path, sizes=TINY
    )
    assert failed == 0, lines
    assert list(metrics) == list(run.PER_LAYER)
    assert all(m["value"] is not None for m in metrics.values()), "a layer is missing"
    if name == "grid":
        assert metrics["evaluation.fits"]["value"] == 41
        assert metrics["evaluation.tags_per_message"]["value"] == 35
        assert all(metrics[f"evaluation.config.{c}_s"]["value"] > 0 for c in run.GRID_CONFIGS)
    if name == "predict":
        assert metrics["preprocess.tag_entities.calls"]["value"] > 0


def test_predict_run_fails_on_a_non_canonical_model(tmp_path):
    work = tmp_path
    run.prepare("predict", 5, work, TINY)
    spawn = _spawner()
    spawn(run._spec("predict", work, "prep"))
    doc = json.loads((work / "model.json").read_text(encoding="utf-8"))
    (work / "model.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    _, res = spawn(run._spec("predict", work, "run", out=str(work / "p0"), seconds=0))
    assert res["failed"] == 1
    assert "changed the bytes" in res["failures"][0]


def test_missing_layer_is_reported_not_zeroed():
    import tracer
    import vnspam
    import vnspam.pipeline

    original = vnspam.pipeline.tag_entities
    t = tracer.Tracer()
    layers = {
        "preprocess.tag_entities": tracer.LAYERS["preprocess.tag_entities"],
        "preprocess.gone": ("preprocess", "no_such_function", None),
    }
    t.install(vnspam, layers=layers)
    try:
        assert t.missing == ["preprocess.gone"]
        assert "vnspam.pipeline.tag_entities" in t.sites["preprocess.tag_entities"]
        assert vnspam.pipeline.tag_entities is not original
    finally:
        t.uninstall()
    assert vnspam.pipeline.tag_entities is original


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == run.PER_LAYER
