"""Golden digests: model file bytes and grid rates, pinned across commits.

Fits a fixed config matrix on ``synth_corpus(400, seed=7)``: 5 kinds x
bow/tfidf x length on/off x preprocess on/off, plus ``passes=2`` with
preprocess on (60 configs). Each model is saved, and its digest covers the
file's bytes and the ``repr`` of ``predict_text`` on a few held-out texts.
Each file is loaded again too: one that does not re-save to the same bytes,
or whose loaded pipeline predicts otherwise, is reported as moved.
The ``rates.csv`` of a small reference grid is hashed too.

There is one table for every supported Python version. The learners and
the fold means add floats in a running total from 0.0, left to right, never
with ``sum()``, which is compensated from Python 3.12 on; so each version
writes the same bytes. A change that keeps bytes never regenerates the
table. A change that moves bytes on purpose regenerates it and says why.
Runs without pytest, so any interpreter can check the table:

    PYTHONPATH=src python tests/golden.py          # print this interpreter's digests
    PYTHONPATH=src python tests/golden.py --check  # exit 1 and name what moved
    PYTHONPATH=src python tests/golden.py --write  # store them in golden_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

try:
    import pytest  # noqa: F401  (conftest imports it)
except ImportError:  # conftest needs only an identity ``pytest.fixture``
    import types

    _stub = types.ModuleType("pytest")
    _stub.fixture = lambda fn=None, **kwargs: fn if fn is not None else (lambda f: f)
    sys.modules["pytest"] = _stub

from conftest import synth_corpus

from vnspam import FittedPipeline, PipelineConfig, stratified_kfold
from vnspam.evaluation import reference_grid, run_grid, write_csv

TABLE = Path(__file__).with_name("golden_digests.json")
BASE = PipelineConfig(epochs=3, min_count=3)
HELD_OUT = [m.text for m in synth_corpus(10, seed=8, tag_spam=True).messages] + [
    "",
    "Goi 0912345678 ngay 20/10 nhan 200k tai www.abc.vn",
]


def configs() -> dict[str, PipelineConfig]:
    out = {}
    for passes, preprocess in ((1, True), (1, False), (2, True)):
        for kind in ("nb", "svm", "lr", "dt", "knn"):
            for rep in ("bow", "tfidf"):
                for length in (True, False):
                    name = "-".join(
                        [kind, rep, "len" if length else "nolen",
                         "pre" if preprocess else "raw", f"p{passes}"]
                    )
                    out[name] = replace(
                        BASE, classifier=kind, representation=rep, length_feature=length,
                        preprocess=preprocess, passes=passes,
                    )
    return out


def model_digests(workdir: Path) -> dict[str, str]:
    messages = synth_corpus(400, seed=7).messages
    out = {}
    for name, config in configs().items():
        fitted = FittedPipeline.fit(messages, config)
        path = workdir / f"{name}.json"
        fitted.save(path)
        predictions = [fitted.predict_text(t) for t in HELD_OUT]
        h = hashlib.sha256(path.read_bytes())
        h.update(repr(predictions).encode("utf-8"))
        # load derives every derived value again; saving what it gives must
        # write the same bytes, and it must predict the same
        loaded = FittedPipeline.load(path)
        loaded.save(workdir / "resaved.json")
        same = (workdir / "resaved.json").read_bytes() == path.read_bytes()
        if not same or [loaded.predict_text(t) for t in HELD_OUT] != predictions:
            out[name] = "load/save round trip differs"
        else:
            out[name] = h.hexdigest()[:16]
    return out


def grid_digest(workdir: Path) -> str:
    corpus = synth_corpus(150, seed=5)
    folds = stratified_kfold(corpus, k=5)
    path = workdir / "rates.csv"
    write_csv(run_grid(corpus, folds, reference_grid(PipelineConfig(epochs=3))), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def load() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def moved(want: dict, got: dict) -> list[str]:
    """Names whose digest differs between two tables or is in only one."""
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        got = {"grid_rates_csv": grid_digest(Path(tmp)), "models": model_digests(Path(tmp))}
    if "--check" in argv:
        version = sys.version.split()[0]
        want = load()
        names = moved(want["models"], got["models"])
        if want["grid_rates_csv"] != got["grid_rates_csv"]:
            names.append("grid_rates_csv")
        if names:
            print(f"Python {version}: {len(names)} digests moved from {TABLE.name}: {', '.join(names)}")
            return 1
        print(f"Python {version}: {len(got['models'])} model digests and the grid digest match {TABLE.name}")
        return 0
    print(json.dumps(got, indent=1, sort_keys=True))
    if "--write" in argv:
        TABLE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
