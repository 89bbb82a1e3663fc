"""Span recording around vnspam's public functions, from outside the package.

Each layer below names a public function (or a ``FittedPipeline`` method) and
the module that defines it. ``Tracer.install`` wraps the function under every
name a caller looks it up by, for example both ``vnspam.pipeline.tag_entities``
and ``vnspam.cli.tag_entities``, so each call is recorded exactly once. A layer
whose function no longer exists is reported as missing; the run goes on.

Spans (name, start, end, parent, request) are kept in flat arrays in memory
and written out by ``Tracer.dump`` when the run ends. A span with no parent
starts a request; its descendants share its request id. Self time is a span's
duration minus the durations of its direct children, which on one thread
exactly cover the time spent inside them.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array

# layer name -> (module, attribute, method or None)
LAYERS = {
    "corpus.load_corpus": ("corpus", "load_corpus", None),
    "corpus.stratified_kfold": ("corpus", "stratified_kfold", None),
    "preprocess.tag_entities": ("preprocess", "tag_entities", None),
    "preprocess.fit_collocations": ("preprocess", "fit_collocations", None),
    "preprocess.segment": ("preprocess", "segment", None),
    "features.build_vocabulary": ("features", "build_vocabulary", None),
    "features.vectorize_bow": ("features", "vectorize_bow", None),
    "features.vectorize_tfidf": ("features", "vectorize_tfidf", None),
    "features.append_length": ("features", "append_length", None),
    "classifiers.train": ("classifiers", "train", None),
    "classifiers.predict": ("classifiers", "predict", None),
    "classifiers.rule_baseline": ("classifiers", "rule_baseline", None),
    "pipeline.fit": ("pipeline", "FittedPipeline", "fit"),
    "pipeline.predict_text": ("pipeline", "FittedPipeline", "predict_text"),
    "pipeline.save": ("pipeline", "FittedPipeline", "save"),
    "pipeline.load": ("pipeline", "FittedPipeline", "load"),
    "evaluation.run_grid": ("evaluation", "run_grid", None),
    "evaluation.cross_validate": ("evaluation", "cross_validate", None),
    "evaluation.evaluate_baseline": ("evaluation", "evaluate_baseline", None),
    "evaluation.confusion": ("evaluation", "confusion", None),
    "evaluation.rates": ("evaluation", "rates", None),
    "evaluation.write_csv": ("evaluation", "write_csv", None),
    "cli.main": ("cli", "main", None),
}

MODULES = ("corpus", "preprocess", "features", "classifiers", "pipeline", "evaluation", "cli")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


# Layers whose spans are split by a property of the call, e.g. learner kind.
def _label_train(args, kwargs):
    return str(_arg(args, kwargs, 0, "kind"))


def _label_predict(args, kwargs):
    return str(getattr(_arg(args, kwargs, 0, "model"), "kind", "?"))


def _label_cross_validate(args, kwargs):
    # config defaults to PipelineConfig(), whose name is svm-bow-df3-len
    return getattr(_arg(args, kwargs, 2, "config"), "name", "svm-bow-df3-len")


def _label_evaluate_baseline(args, kwargs):
    return getattr(_arg(args, kwargs, 1, "config"), "name", "baseline")


LABELS = {
    "classifiers.train": _label_train,
    "classifiers.predict": _label_predict,
    "evaluation.cross_validate": _label_cross_validate,
    "evaluation.evaluate_baseline": _label_evaluate_baseline,
}


class Tracer:
    """In-memory span recorder. One per process; nothing is shared."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self.sites: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self._patched: list[tuple] = []
        # Counts observed at layer boundaries: key -> list of values.
        self.observed: dict[str, list[float]] = {}
        self._t0 = time.perf_counter_ns()

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def observe(self, key: str, value: float) -> None:
        self.observed.setdefault(key, []).append(value)

    def _wrap(self, layer: str, fn, observer):
        label = LABELS.get(layer)
        name_id = self._name_id(layer)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = name_id if label is None else self._name_id(f"{layer}.{label(args, kwargs)}")
            idx = len(self.start)
            parent = stack[-1] if stack else -1
            self.name.append(nid)
            self.parent.append(parent)
            self.request.append(idx if parent < 0 else self.request[parent])
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if observer is not None:
                observer(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, package, observers=None, layers=LAYERS) -> None:
        """Wrap every layer of ``package`` (the imported ``vnspam`` module)."""
        observers = observers or {}
        # Not getattr(package, name): the package re-exports a function
        # called ``preprocess`` over the submodule of that name.
        homes = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        modules = [package, *homes.values()]
        for layer, (modname, attr, method) in layers.items():
            original = getattr(homes[modname], attr, None)
            if original is None or (method is not None and method not in vars(original)):
                self.missing.append(layer)
                continue
            observer = observers.get(layer)
            if method is not None:
                raw = vars(original)[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__, observer))
                else:
                    wrapped = self._wrap(layer, raw, observer)
                self._patch(original, method, wrapped)
                self.sites[layer] = [f"{package.__name__}.{modname}.{attr}.{method}"]
                continue
            wrapped = self._wrap(layer, original, observer)
            self.sites[layer] = []
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
                    self.sites[layer].append(f"{mod.__name__}.{attr}")

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back every original that ``install`` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and how many of the
        calls ran inside an ``evaluation.*`` span."""
        n = len(self.start)
        child = [0] * n
        in_eval = bytearray(n)
        eval_ids = {i for i, nm in enumerate(self.names) if nm.startswith("evaluation.")}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                in_eval[i] = in_eval[p] or (self.name[p] in eval_ids)
        out: dict[str, dict] = {}
        for i in range(n):
            rec = out.setdefault(
                self.names[self.name[i]],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "calls_under_evaluation": 0},
            )
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_s"] += dur / 1e9
            rec["self_s"] += (dur - child[i]) / 1e9
            rec["calls_under_evaluation"] += in_eval[i]
        return out

    def dump(self, path: str) -> None:
        """Write every span as one TSV line: id, name, start/end ns, parent, request."""
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - self._t0}\t"
                    f"{self.end[i] - self._t0}\t{self.parent[i]}\t{self.request[i]}\n"
                )
        os.replace(tmp, path)
