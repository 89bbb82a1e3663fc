"""End-to-end composition (normalize, featurize, classify) and the model file.

A FittedPipeline bundles everything prediction needs: the entity rules, the
collocation models (one per segmentation pass), the vocabulary and the trained
classifier. Model files are versioned JSON: the text
``json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False)`` gives, with
shortest round-trip floats, streamed to the file by ``_write_json``. So the
same fit always produces byte-identical bytes, save/load/save reproduces them,
and files can be diffed.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import unicodedata
from dataclasses import dataclass, fields
from json.encoder import encode_basestring
from pathlib import Path
from typing import NamedTuple

from .classifiers import (
    KINDS,
    Hyperparams,
    Prediction,
    TrainedModel,
    _model,
    load_params,
    predict,
    rule_baseline,
    train,
)
from .features import (
    FeatureVector,
    Vocabulary,
    build_vocabulary,
    vectorize_bow,
    vectorize_tfidf,
)
from .preprocess import (
    CollocationModel,
    EntityRule,
    EntityRuleSet,
    fit_collocations,
    segment,
    tag_entities,
)

__all__ = [
    "MODEL_FORMAT_VERSION",
    "REPRESENTATIONS",
    "ModelFileError",
    "PipelineConfig",
    "FitStats",
    "FittedPipeline",
    "Normalized",
    "normalize",
    "fit_segmentation",
]

MODEL_FORMAT_VERSION = 1
REPRESENTATIONS = ("bow", "tfidf")


class ModelFileError(ValueError):
    """Unreadable, unparseable, or wrongly versioned model file."""


# PipelineConfig annotation -> accepted value types; an int is a valid float
_FIELD_TYPES = {"str": str, "bool": bool, "int": int, "float": (int, float)}


@dataclass(frozen=True)
class PipelineConfig(Hyperparams):
    """Everything that determines a fit, so runs are reproducible: the
    learner knobs it inherits, and the stages' settings.

    The defaults are the shipped configuration: preprocessing on, bag of
    words, linear svm, document-frequency cutoff 3, length feature on.
    """

    classifier: str = "svm"
    representation: str = "bow"
    preprocess: bool = True
    min_df: int = 3
    length_feature: bool = True
    discount: float = 5.0
    colloc_threshold: float = 1e-4
    min_count: int = 10
    passes: int = 1
    nfc: bool = False

    def validate(self, kind: str | None = None) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # every field goes into the model file, whichever learner reads it;
            # bool is an int subclass, so it passes only as a bool field
            if not isinstance(value, _FIELD_TYPES[f.type]) or (
                isinstance(value, bool) and f.type != "bool"
            ):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not abs(value) <= sys.float_info.max:
                got = f"an integer of {value.bit_length()} bits" if isinstance(value, int) else value
                raise ValueError(f"{f.name} must be a finite number, got {got}")
        if self.classifier not in KINDS:
            raise ValueError(
                f"unknown classifier {self.classifier!r} (expected one of {KINDS})"
            )
        if self.representation not in REPRESENTATIONS:
            raise ValueError(
                f"unknown representation {self.representation!r} "
                f"(expected one of {REPRESENTATIONS})"
            )
        if self.min_df < 1:
            raise ValueError(f"min-df must be >= 1, got {self.min_df}")
        if self.passes < 1:
            raise ValueError(f"passes must be >= 1, got {self.passes}")
        if self.discount < 0:
            raise ValueError(f"discount must be >= 0, got {self.discount}")
        if self.colloc_threshold <= 0:
            raise ValueError(f"collocation threshold must be > 0, got {self.colloc_threshold}")
        if self.min_count < 1:
            raise ValueError(f"min-count must be >= 1, got {self.min_count}")
        super().validate(kind or self.classifier)

    @property
    def name(self) -> str:
        """Short deterministic tag for tables and CSV rows."""
        if self.classifier == "baseline":
            return "baseline"
        parts = [self.classifier, self.representation]
        if not self.preprocess:
            parts.append("raw")
        if self.min_df != 1:
            parts.append(f"df{self.min_df}")
        if self.length_feature:
            parts.append("len")
        return "-".join(parts)


@dataclass(frozen=True)
class FitStats:
    """Vocabulary sizes along the pipeline, for training summaries."""

    messages: int
    raw_terms: int
    preprocessed_terms: int
    selected_terms: int


# -- stages ---------------------------------------------------------------------


class Normalized(NamedTuple):
    """One message after the normalize stage."""

    text: str  # after NFC when the config asks for it; the length feature reads it
    tokens: list[str]  # entity-tagged tokens, or the whitespace split without preprocessing


def _nfc(text: str, config: PipelineConfig) -> str:
    return unicodedata.normalize("NFC", text) if config.nfc else text


def normalize(
    text: str, config: PipelineConfig, rules: EntityRuleSet | None = None
) -> Normalized:
    """The normalize stage: NFC if ``config.nfc``, then entity tagging if
    ``config.preprocess``, split into tokens.

    It depends only on those two fields and the rules, never on training
    data, so one pass over a corpus serves every fit and fold that shares them.
    """
    text = _nfc(text, config)
    if config.preprocess:
        return Normalized(text, tag_entities(text, rules).split())
    return Normalized(text, text.split())


def _normalize_all(messages, config: PipelineConfig, rules) -> list[Normalized]:
    """``normalize`` each message's text, keeping one ``str`` per distinct
    token: a corpus's rows then hold a string per term, not per occurrence."""
    shared: dict[str, str] = {}
    out = []
    for m in messages:
        text, tokens = normalize(m.text, config, rules)
        out.append(Normalized(text, [shared.setdefault(t, t) for t in tokens]))
    return out


def fit_segmentation(
    streams, config: PipelineConfig
) -> tuple[list[CollocationModel], list[list[str]]]:
    """The segment stage's fit: ``config.passes`` collocation models, each
    fitted on the streams the previous passes segmented. Returns the models
    and the segmented streams, which hold one ``str`` per distinct token."""
    models = []
    shared: dict[str, str] = {}
    for _ in range(config.passes):
        cm = fit_collocations(
            streams,
            discount=config.discount,
            min_count=config.min_count,
            threshold=config.colloc_threshold,
        )
        models.append(cm)
        streams = [[shared.setdefault(t, t) for t in segment(s, cm)] for s in streams]
    return models, streams


def _featurize(
    stream: list[str], text: str, vocab: Vocabulary, config: PipelineConfig
) -> FeatureVector:
    """The featurize stage for one segmented message: one row of counts or
    tf-idf over ``vocab``, plus the length of ``text`` if
    ``config.length_feature``."""
    vectorize = vectorize_bow if config.representation == "bow" else vectorize_tfidf
    return vectorize(stream, vocab, text if config.length_feature else None)


def _fit_rows(
    rows: list[Normalized], labels, config: PipelineConfig, rules: EntityRuleSet | None, plan
) -> "FittedPipeline":
    """Fit the stages after normalize, with no ``stats``; ``rows`` is emptied
    before the learner runs. ``plan(stage, build)`` returns the ``"segment"``
    (models, segmented streams), ``"vocabulary"`` and ``"orders"`` outputs:
    ``fit`` builds each in place, evaluation shares them across fits."""
    streams = [n.tokens for n in rows]
    collocations, streams = plan(
        "segment", lambda: fit_segmentation(streams, config) if config.preprocess else ([], streams)
    )
    vocab = plan("vocabulary", lambda: build_vocabulary(streams, min_df=config.min_df))
    vectors = [_featurize(s, n.text, vocab, config) for s, n in zip(streams, rows)]
    rows.clear()
    del streams
    model = train(config.classifier, vectors, labels, config, plan("orders", lambda: None))
    return FittedPipeline(config, rules, collocations, vocab, model, None)


class FittedPipeline:
    """A trained spam filter ready to score raw message text."""

    def __init__(
        self,
        config: PipelineConfig,
        rules: EntityRuleSet,
        collocations: list[CollocationModel],
        vocab: Vocabulary | None,
        model: TrainedModel,
        stats: FitStats | None,
    ):
        self.config = config
        self.rules = rules
        self.collocations = list(collocations)
        self.vocab = vocab
        self.model = model
        self.stats = stats

    # -- fitting ---------------------------------------------------------

    @classmethod
    def fit(
        cls,
        messages,
        config: PipelineConfig | None = None,
        rules: EntityRuleSet | None = None,
    ) -> "FittedPipeline":
        """Fit every stage on labeled messages."""
        config = config or PipelineConfig()
        config.validate()
        rules = EntityRuleSet.default() if rules is None else rules
        messages = list(messages)
        if not messages:
            raise ValueError("cannot fit a pipeline on an empty corpus")
        if config.classifier == "baseline":  # the rule reads no stage output
            model = train("baseline", [], [], config)
            return cls(config, rules, [], None, model, FitStats(len(messages), 0, 0, 0))
        rows = _normalize_all(messages, config, rules)
        stats = [len(messages), len({tok for n in rows for tok in n.text.split()}), 0]

        def plan(stage, build):
            out = build()
            if stage == "segment":
                stats[2] = len({tok for s in out[1] for tok in s})
            return out

        fitted = _fit_rows(rows, [m.label for m in messages], config, rules, plan)
        fitted.stats = FitStats(*stats, len(fitted.vocab))
        return fitted

    # -- prediction ------------------------------------------------------

    def tokens(self, text: str) -> list[str]:
        """Token stream for one message under this pipeline's settings."""
        return self._segment(normalize(text, self.config, self.rules).tokens)

    def _segment(self, stream: list[str]) -> list[str]:
        for cm in self.collocations:
            stream = segment(stream, cm)
        return stream

    def vector(self, text: str) -> FeatureVector:
        if self.vocab is None:
            raise ValueError("the rule baseline has no feature space")
        return self._vector(normalize(text, self.config, self.rules))

    def _vector(self, row: Normalized) -> FeatureVector:
        return _featurize(self._segment(row.tokens), row.text, self.vocab, self.config)

    def predict_text(self, text: str) -> Prediction:
        """Label one raw message."""
        if self.config.classifier == "baseline":  # the rule reads only the text
            return rule_baseline(_nfc(text, self.config))
        return predict(self.model, self._vector(normalize(text, self.config, self.rules)))

    # -- persistence -----------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the versioned model file atomically (temp file + rename).

        The text is streamed into the temp file, never held whole in memory.
        """
        doc = self._to_doc()
        p = Path(path)
        name = str(path) or "''"  # named as given: Path("") prints as "."
        try:
            fd, tmp = tempfile.mkstemp(dir=str(p.parent) or ".", prefix=p.name, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                    _write_json(doc, 0, fh.write)
                    fh.write("\n")
                os.replace(tmp, p)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError as exc:  # name the target, not the temp file
            raise OSError(f"cannot write model file {name}: {exc.strerror or exc}") from exc
        except (TypeError, ValueError) as exc:  # NaN, +-inf, a lone surrogate or a non-JSON object
            raise ModelFileError(f"cannot write model file {name}: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "FittedPipeline":
        p = str(path) or "''"  # named as given: Path("") prints as "."
        try:
            raw = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ModelFileError(f"cannot read model file {p}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise ModelFileError(f"model file {p} is not valid UTF-8: {exc}") from exc
        try:
            doc = json.loads(raw, parse_float=_finite_float, parse_constant=_finite_float)
        except (ValueError, RecursionError) as exc:
            raise ModelFileError(f"model file {p} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ModelFileError(f"model file {p} must hold a JSON object")
        version = doc.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ModelFileError(
                f"model file {p} has format version {version!r}; "
                f"this build reads version {MODEL_FORMAT_VERSION}"
            )
        try:
            return cls._from_doc(doc)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFileError(f"model file {p} is malformed: {exc}") from exc

    def _to_doc(self) -> dict:
        cfg = {f.name: getattr(self.config, f.name) for f in fields(self.config)}
        rules_rows = [[r.group, r.pattern] for r in self.rules]
        colloc_docs = []
        for cm in self.collocations:
            pairs = sorted(cm.bigram_counts)
            used = sorted({tok for pair in pairs for tok in pair})
            colloc_docs.append(
                {
                    "discount": cm.discount,
                    "min_count": cm.min_count,
                    "threshold": cm.threshold,
                    "unigram_counts": {tok: cm.unigram_counts[tok] for tok in used},
                    "bigram_counts": [[a, b, cm.bigram_counts[(a, b)]] for a, b in pairs],
                }
            )
        vocab_doc = None
        if self.vocab is not None:
            vocab_doc = {
                "terms": list(self.vocab.terms),
                "doc_freq": dict(self.vocab.doc_freq),
                "num_docs": self.vocab.num_docs,
            }
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "config": cfg,
            "entity_rules": rules_rows,
            "collocations": colloc_docs,
            "vocabulary": vocab_doc,
            "model": {f.name: getattr(self.model, f.name) for f in fields(self.model)},
            "stats": {f.name: getattr(self.stats, f.name) for f in fields(self.stats)},
        }

    @classmethod
    def _from_doc(cls, doc: dict) -> "FittedPipeline":
        """Build the pipeline from the file's free data and derive the rest
        again as ``fit`` and ``train`` do; refuse the file unless saving the
        result would write ``doc`` back."""
        config = PipelineConfig(**doc["config"])
        config.validate()
        rules = EntityRuleSet(EntityRule(group=g, pattern=p) for g, p in doc["entity_rules"])
        passes = config.passes if config.preprocess and config.classifier != "baseline" else 0
        if len(doc["collocations"]) != passes:  # fit stores one model per segmentation pass
            raise ValueError(f"{len(doc['collocations'])} collocation models stored, expected {passes}")
        collocations = [
            CollocationModel(config.discount, config.min_count, config.colloc_threshold,
                             dict(cd["unigram_counts"]), {(a, b): c for a, b, c in cd["bigram_counts"]})
            for cd in doc["collocations"]
        ]
        stats = doc["stats"]
        counted = {"messages": 1} if config.classifier == "baseline" else {"raw_terms": 0, "preprocessed_terms": 0}
        for name, low in counted.items():  # the free stats: fit counts them, load cannot derive them
            if type(stats[name]) is not int or stats[name] < low:
                raise ValueError(f"stats {name} must be an integer >= {low}")
        if config.classifier == "baseline":
            vocab = None
            model = train("baseline", [], [], config)
            stats = FitStats(stats["messages"], 0, 0, 0)
        else:
            vocab = Vocabulary(**doc["vocabulary"])
            slots = len(vocab) + (1 if config.length_feature else 0)
            params = load_params(config.classifier, doc["model"]["params"], slots)
            model = _model(config.classifier, params, slots, config.length_feature, vocab.fingerprint, config)
            stats = FitStats(vocab.num_docs, stats["raw_terms"], stats["preprocessed_terms"], len(vocab))
        fitted = cls(config, rules, collocations, vocab, model, stats)
        built = fitted._to_doc()
        # ... stands for a missing key
        differs = [key for key in sorted(doc.keys() | built.keys()) if not _same(doc.get(key, ...), built.get(key, ...))]
        if differs:
            raise ValueError(f"stored {differs[0]} does not match what the config and learned data derive")
        return fitted


def _same(stored, built) -> bool:
    """``stored == built`` with JSON types kept apart: ``true`` equals no
    number and a float never stands for a derived int, but an int may stand
    for a derived float, as version 1 files store ``5`` for ``5.0``."""
    if stored is built:  # free data the rebuilt document shares
        return True
    if type(built) is dict:
        return type(stored) is dict and stored.keys() == built.keys() and all(
            _same(stored[key], value) for key, value in built.items()
        )
    if type(built) is list:
        return type(stored) is list and len(stored) == len(built) and all(map(_same, stored, built))
    if type(built) is float and type(stored) is int:
        return stored == built
    return type(stored) is type(built) and stored == built


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")


# JSON text of each exact scalar type, as ``json`` spells it; keyed by exact
# type, so True and False are never spelled by int's repr
_SCALAR_TEXT = {
    str: encode_basestring,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _scalar_text(value) -> str:
    """JSON text of a value that is no container. A subclass of str, int or
    float, such as an ``IntEnum`` in a config field, is spelled as its base
    type, as ``json`` does."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    for base in (str, int, float):
        if isinstance(value, base):
            return _SCALAR_TEXT[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_PIECES = 1024  # most text pieces _write_json buffers in a long container


def _write_json(obj, level: int, write) -> None:
    """Write ``obj``, nested ``level`` deep, as the text of ``json.dumps(obj,
    indent=1, sort_keys=True, ensure_ascii=False, allow_nan=False)``.

    Dict keys must be strings. The text is buffered in pieces and written
    out before each nested container, at each container's end and every
    ``_PIECES`` pieces of a long run of scalars, so what is held at a time
    does not grow with the document. NaN and +-inf raise ``ValueError`` and
    anything that is no JSON value ``TypeError``, as in ``json``.
    """
    if isinstance(obj, dict):
        opening, closing, items = "{", "}", sorted(obj.items())
    elif isinstance(obj, (list, tuple)):
        opening, closing, items = "[", "]", obj
    else:
        write(_scalar_text(obj))
        return
    if not items:
        write(opening + closing)
        return
    close = "\n" + " " * level
    sep = close + " "
    next_sep = "," + sep
    buf = [opening]
    long = len(items) > _PIECES  # a shorter container goes out in one write
    for item in items:
        buf.append(sep)
        sep = next_sep
        if closing == "}":
            key, item = item
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            buf.append(encode_basestring(key) + ": ")
        text = _SCALAR_TEXT.get(type(item))
        if text is not None:
            buf.append(text(item))
            if long and len(buf) > _PIECES:
                write("".join(buf))
                buf.clear()
        elif isinstance(item, (dict, list, tuple)):
            write("".join(buf))
            buf.clear()
            _write_json(item, level + 1, write)
        else:
            buf.append(_scalar_text(item))
    buf.append(close + closing)
    write("".join(buf))


def _finite_float(literal: str) -> float:
    f = float(literal)
    if not math.isfinite(f):
        raise ValueError(f"non-finite number {literal}")
    return f
