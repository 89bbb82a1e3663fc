"""Labeled SMS corpora: TSV loading, class tallies, stratified folds."""

from __future__ import annotations

import enum
import random
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Label",
    "Message",
    "Corpus",
    "CorpusError",
    "FoldAssignment",
    "load_corpus",
    "save_corpus",
    "stratified_kfold",
]

# Line breaks that must never survive inside a message text.
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


class CorpusError(ValueError):
    """Unreadable or malformed corpus data."""


class Label(enum.Enum):
    SPAM = "spam"
    LEGITIMATE = "ham"

    @classmethod
    def from_token(cls, token: str) -> "Label":
        label = _LABELS.get(token)
        if label is None:
            raise ValueError(f"unknown label token {token!r} (expected 'spam' or 'ham')")
        return label

    @property
    def token(self) -> str:
        return self.value


_LABELS = {label.value: label for label in Label}


@dataclass(frozen=True)
class Message:
    """One SMS. ``label`` is None for unlabeled texts (prediction input)."""

    id: int
    text: str
    label: Label | None = None


class Corpus:
    """Immutable ordered collection of messages with per-label counts."""

    def __init__(self, messages):
        msgs = tuple(messages)
        seen: set[int] = set()
        counts = {Label.SPAM: 0, Label.LEGITIMATE: 0}
        for m in msgs:
            if m.id in seen:
                raise CorpusError(f"duplicate message id {m.id}")
            seen.add(m.id)
            if isinstance(m.label, Label):
                counts[m.label] += 1
            elif m.label is not None:
                raise CorpusError(f"message {m.id} has label {m.label!r}, not a Label")
        self._messages = msgs
        self._counts = counts

    @property
    def messages(self) -> tuple[Message, ...]:
        return self._messages

    @property
    def counts(self) -> dict[Label, int]:
        """Labeled messages per class; unlabeled messages are left out."""
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self):
        return iter(self._messages)

    def __getitem__(self, i: int) -> Message:
        return self._messages[i]


def load_corpus(path: str | Path) -> Corpus:
    """Read a ``<label>TAB<text>`` file, one message per line, UTF-8.

    Labels are exactly ``spam`` or ``ham``. Blank lines are skipped; ids are
    assigned by load order starting at 0. Only the first tab separates label
    from text, so the text may itself contain tabs and round-trips verbatim.
    """
    p = str(path) or "''"  # named as given: Path("") prints as "."
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {p}: {exc.strerror or exc}") from exc
    try:
        decoded = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{p} is not valid UTF-8: {exc}") from exc

    messages: list[Message] = []
    for lineno, line in enumerate(decoded.split("\n"), start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if not line:
            continue
        label_token, sep, body = line.partition("\t")
        if not sep:
            raise CorpusError(f"{p}:{lineno}: expected '<label><TAB><text>'")
        try:
            label = Label.from_token(label_token)
        except ValueError:
            raise CorpusError(f"{p}:{lineno}: unknown label {label_token!r}") from None
        if fault := _text_fault(body):
            raise CorpusError(f"{p}:{lineno}: {fault}")
        messages.append(Message(id=len(messages), text=body, label=label))
    return Corpus(messages)


def _text_fault(text: str) -> str | None:
    """Why ``load_corpus`` cannot read ``text`` back as one message text, or None."""
    if not text.strip():
        return "empty message text"
    if bad := _LINE_BREAK.search(text):
        return f"line-break character {bad.group()!r} inside message text"


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write ``<label>TAB<text>`` lines, the inverse of load_corpus for labeled
    data; a message it cannot read back is refused before anything is written."""
    lines = []
    for m in corpus.messages:
        if m.label is None:
            raise CorpusError(f"message {m.id} has no label, cannot serialize")
        if fault := _text_fault(m.text):
            raise CorpusError(f"message {m.id}: {fault}")
        try:
            lines.append(f"{m.label.token}\t{m.text}\n".encode("utf-8"))
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise CorpusError(f"message {m.id}: text is not valid UTF-8: {exc.reason}") from None
    Path(path).write_bytes(b"".join(lines))


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of message ids into k folds. ``fold_of`` is a plain dict, so it
    pickles for a process pool, and evaluation runs ``validate`` again."""

    k: int
    fold_of: dict[int, int]

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for i, f in self.fold_of.items():
            if not isinstance(f, int) or isinstance(f, bool) or not 0 <= f < self.k:
                raise ValueError(f"message {i} has fold id {f!r}, not an int in range({self.k})")

    def fold_sizes(self) -> list[int]:
        sizes = [0] * self.k
        for f in self.fold_of.values():
            sizes[f] += 1
        return sizes


def _require_labels(corpus: Corpus, action: str) -> None:
    """Raise ValueError naming the ids of the corpus's unlabeled messages."""
    unlabeled = [m.id for m in corpus.messages if m.label is None]
    if unlabeled:
        raise ValueError(f"cannot {action} unlabeled messages (ids {unlabeled[:5]})")


def stratified_kfold(corpus: Corpus, k: int, seed: int = 42) -> FoldAssignment:
    """Deterministically split a corpus into k folds, stratified by label.

    Per-class counts across folds differ by at most one, as do total fold
    sizes. Every message must be labeled and each class needs at least k
    members. The same corpus and seed always produce the same assignment.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    _require_labels(corpus, "fold")
    for label, n in corpus.counts.items():  # before any list sized by k
        if n < k:
            raise ValueError(f"class {label.token!r} has {n} messages, fewer than k={k}")

    rng = random.Random(seed)
    fold_sizes = [0] * k
    fold_of: dict[int, int] = {}
    for label in (Label.SPAM, Label.LEGITIMATE):
        ids = [m.id for m in corpus.messages if m.label is label]
        rng.shuffle(ids)
        base, extra = divmod(len(ids), k)
        # Hand the +1 remainders to the currently smallest folds so that both
        # the per-class and the total fold sizes stay within one of each other.
        order = sorted(range(k), key=lambda f: (fold_sizes[f], f))
        pos = 0
        for rank, fold in enumerate(order):
            take = base + (1 if rank < extra else 0)
            for mid in ids[pos : pos + take]:
                fold_of[mid] = fold
            fold_sizes[fold] += take
            pos += take
    return FoldAssignment(k=k, fold_of=fold_of)
