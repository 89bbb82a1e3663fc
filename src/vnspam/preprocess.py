"""SMS text normalization: entity tagging and collocation word segmentation.

Raw SMS text is noisy. Dates, phone numbers, links, currency amounts,
emoticons and bare numbers are near-unique strings that fragment the
vocabulary, so each family is folded into one reserved token such as
``<phone>``. Vietnamese also writes every syllable separately; multi-syllable
words are recovered by scoring adjacent syllable pairs over the whole corpus
and greedily joining strong pairs with ``_``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path

__all__ = [
    "ENTITY_GROUPS",
    "EntityRule",
    "EntityRuleSet",
    "CollocationModel",
    "tag_entities",
    "collocation_score",
    "fit_collocations",
    "segment",
]

ENTITY_GROUPS = ("link", "emoticon", "date", "phone", "currency", "number")
_sre_parse = getattr(re, "_parser", None) or re.sre_parse  # sre_parse before 3.11

# Internal placeholder wrapping: \x00group\x00. Input NULs become spaces, but
# a later rule can still match a mark (\x00, \S, \W, [^a]) and tear a
# placeholder apart; the placeholder pass turns a bare mark into a space.
_MARK = "\x00"
_MARK_RE = re.compile("\x00(?:(%s)\x00)?" % "|".join(ENTITY_GROUPS))
# Each placeholder's replacement. On Python 3.10 and 3.11, re expands the
# template r" <\1> " in Python for every tagged message; a lookup is cheaper.
_PLACEHOLDER_TOKENS = {group: f" <{group}> " for group in ENTITY_GROUPS}

# Literal reserved tokens already present in the input (for instance in the
# output of a previous tag_entities call) pass through unchanged. This is what
# makes tagging idempotent; any other angle bracket is plain punctuation. The
# spaces around each one keep a rule such as \S+ from running into it.
_RESERVED_RE = re.compile("<(%s)>" % "|".join(ENTITY_GROUPS), re.IGNORECASE)

# Output tokens: reserved tokens and runs of alphanumerics ([^\W_] is exactly
# str.isalnum()) joined by single apostrophes. All else separates tokens.
_TOKEN_RE = re.compile(r"<(?:%s)>|[^\W_]+(?:['’][^\W_]+)*" % "|".join(ENTITY_GROUPS))


@dataclass(frozen=True)
class EntityRule:
    group: str
    pattern: str

    def __post_init__(self):
        if self.group not in ENTITY_GROUPS:
            raise ValueError(
                f"unknown entity group {self.group!r} (expected one of {ENTITY_GROUPS})"
            )
        try:
            regex = re.compile(self.pattern, re.IGNORECASE)
            tree = _sre_parse.parse(self.pattern, regex.flags)  # kept for the guard
            nullable = tree.getwidth()[0] == 0
        except (re.error, OverflowError, RecursionError) as exc:  # a{2**32}, deep nesting
            raise ValueError(f"bad pattern for group {self.group!r}: {exc}") from exc
        if nullable:  # it would tag every gap between two characters
            raise ValueError(f"pattern for group {self.group!r} can match the empty string")
        object.__setattr__(self, "_regex", regex)
        object.__setattr__(self, "_tree", tree)

    def __reduce__(self):  # a parse tree does not pickle, so a copy parses anew
        return EntityRule, (self.group, self.pattern)

    @property
    def regex(self) -> re.Pattern:
        return self._regex

    @property
    def token(self) -> str:
        return f"<{self.group}>"


# -- rule guards: as in Cox, "Regular Expression Matching with a Trigram Index"
# (2012), a rule's parse tree names characters every match must hold; with the
# first and last positions of Berry & Sethi, "From regular expressions to
# deterministic automata" (1986), it also names pairs of adjacent classes.
_CATEGORY_TEXT = {v[1][0][1]: k for k, v in _sre_parse.CATEGORIES.items() if v[0].name == "IN"}


def _rank(items) -> tuple[bool, int]:
    """(holds a letter, members) of a class; a category counts 2**16 members."""
    letters, size = False, 0
    for op, av in dict.fromkeys(items):
        if op.name == "CATEGORY":
            letters |= av.name not in ("CATEGORY_DIGIT", "CATEGORY_SPACE", "CATEGORY_NOT_WORD")
            size += 1 << 16
        else:
            lo, hi = av if op.name == "RANGE" else (av, av)
            letters |= any(chr(c).isalpha() for c in range(lo, min(hi, lo + 255) + 1))
            size += hi - lo + 1
    return letters, size


def _pair_rank(pairs) -> tuple[bool, int]:
    """(a side holds a letter, sum of member products) of a list of class pairs."""
    ranks = [_rank(a) + _rank(b) for a, b in pairs]
    return any(la or lb for la, _, lb, _ in ranks), sum(na * nb for _, na, _, nb in ranks)


def _edge(parts, k):
    """Union of the parts' k-th sets (first or last) up to the first part
    that cannot match empty; None if one of them is None."""
    items = []
    for part in parts:
        if part[k] is None:
            return None
        items += part[k]
        if not part[0]:
            break
    return items


def _walk(nodes):
    """Read a parse-tree sequence as (nullable, first, last, class, pairs).

    first, last: class items of a nonempty match's first and last character,
    None if it can be any. class: items every match holds a character of.
    pairs: (A, B) item lists, one of which every match holds as adjacent
    characters. Each of the last two is None when there is none, else the
    least by rank. Raises ValueError on a node it cannot read."""
    parts = []
    for op, av in nodes:
        name = op.name
        if name == "LITERAL" or (name == "IN" and av[0][0].name != "NEGATE"):
            items = [(op, av)] if name == "LITERAL" else av
            parts.append((False, items, items, items, None))
        elif name in ("ANY", "NOT_LITERAL", "IN"):  # a negated class needs nothing
            parts.append((False, None, None, None, None))
        elif name in ("AT", "ASSERT", "ASSERT_NOT"):  # zero-width: its neighbours meet
            parts.append((True, [], [], None, None))
        elif name == "SUBPATTERN":  # nor a group with scoped flags: read as any text
            parts.append((True, None, None, None, None) if av[1] or av[2] else _walk(av[3]))
        elif name == "ATOMIC_GROUP":
            parts.append(_walk(av))
        elif name.endswith("_REPEAT"):  # nor a repeat that may match nothing
            nullable, first, last, cls, pairs = _walk(av[2])
            if not av[0]:
                nullable, cls, pairs = True, None, None
            elif av[0] >= 2 and not nullable and first and last:  # two bodies meet
                pairs = min(filter(None, (pairs, [(last, first)])), key=_pair_rank)
            parts.append((nullable, first, last, cls, pairs))
        elif name == "BRANCH":
            nullable, *cols = zip(*(_walk(b) for b in av[1]))  # each set is a union
            parts.append((any(nullable), *(None if None in c else sum(c, []) for c in cols)))
        else:
            raise ValueError(f"no guard through {name}")
    solid = [i for i, part in enumerate(parts) if not part[0]]
    pairs = []
    for i, part in enumerate(parts):
        pairs.append(part[4])
        if solid and solid[0] <= i < solid[-1]:  # neither side of the split can match empty
            last, first = _edge(reversed(parts[: i + 1]), 2), _edge(parts[i + 1 :], 1)
            pairs.append(last and first and [(last, first)])
    cls = min(filter(None, (part[3] for part in parts)), key=_rank, default=None)
    pairs = min(filter(None, pairs), key=_pair_rank, default=None)
    return not solid, _edge(parts, 1), _edge(reversed(parts), 2), cls, pairs


def _class_text(items) -> str:
    out = []
    for op, av in items:
        if op.name == "CATEGORY":
            out.append(_CATEGORY_TEXT[av])
        else:
            lo, hi = map(re.escape, map(chr, av if op.name == "RANGE" else (av, av)))
            out.append(lo if lo == hi else f"{lo}-{hi}")
    return "[%s]" % "".join(dict.fromkeys(out))


def _guard(rule: EntityRule):
    """``search`` of class pairs ``[A][B]|...``, one of which every match of
    ``rule`` holds as adjacent characters, else of a class every match holds
    a character of; None when there is neither or the pattern cannot be read."""
    try:
        *_, items, pairs = _walk(rule._tree)
        text = items and _class_text(items)
        if pairs:
            text = "|".join(_class_text(a) + _class_text(b) for a, b in pairs)
        return re.compile(text, rule.regex.flags).search if text else None
    except Exception:  # a guard may only skip work: in doubt the rule runs
        return None


class EntityRuleSet:
    """Ordered entity rules; order is the tagging priority."""

    def __init__(self, rules):
        self.rules = tuple(rules)
        # (bound regex.sub, placeholder, guard or None) per rule for tag_entities
        self._subs = tuple(
            (r.regex.sub, f"{_MARK}{r.group}{_MARK}", _guard(r)) for r in self.rules
        )

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    @classmethod
    def from_lines(cls, lines, source: str = "<rules>") -> "EntityRuleSet":
        """Parse ``group<TAB>pattern`` lines. Blank and ``#`` lines are skipped."""
        rules = []
        for lineno, line in enumerate(lines, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            group, sep, pattern = line.partition("\t")
            if not sep or not pattern:
                raise ValueError(f"{source}:{lineno}: expected 'group<TAB>pattern'")
            try:
                rules.append(EntityRule(group=group.strip(), pattern=pattern))
            except ValueError as exc:
                raise ValueError(f"{source}:{lineno}: {exc}") from exc
        return cls(rules)

    @classmethod
    def from_file(cls, path: str | Path) -> "EntityRuleSet":
        p = Path(path)
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"rules file {p} is not valid UTF-8: {exc}") from exc
        return cls.from_lines(text.splitlines(), source=str(p))

    @classmethod
    @cache
    def default(cls) -> "EntityRuleSet":
        text = resources.files("vnspam").joinpath("data/entity_rules.tsv").read_text(encoding="utf-8")
        return cls.from_lines(text.splitlines(), source="entity_rules.tsv")


def _placeholder_token(m: re.Match) -> str:
    return _PLACEHOLDER_TOKENS.get(m[1], " ")  # a torn placeholder's bare mark


def tag_entities(text: str, rules: EntityRuleSet | None = None) -> str:
    """Normalize one message into lowercase space-separated tokens.

    Rules are applied in order; within a rule, matches resolve leftmost and
    greedy. Matched spans become reserved tokens. Everything else is
    lowercased, punctuation (except apostrophes inside a word) becomes a
    space, and whitespace runs collapse. Applying the function to its own
    output is a no-op. A rule runs only on a text its guard lets through.
    """
    if rules is None:
        rules = EntityRuleSet.default()
    s = text.replace(_MARK, " ")
    # the reserved-token and placeholder passes run only when the fixed first
    # character of their pattern is present
    if "<" in s:
        s = _RESERVED_RE.sub(lambda m: f" {_MARK}{m.group(1).lower()}{_MARK} ", s)
    for sub, mark, guard in rules._subs:
        if guard is None or guard(s):
            s = sub(mark, s)
    s = s.lower()
    if _MARK in s:
        s = _MARK_RE.sub(_placeholder_token, s)
    return " ".join(_TOKEN_RE.findall(s))


def collocation_score(
    pair_count: float, left_count: float, right_count: float, discount: float
) -> float:
    """Discounted pair affinity: (pair_count - discount) / (left * right)."""
    return (pair_count - discount) / (left_count * right_count)


class CollocationModel:
    """Adjacent-pair counts plus the derived set of pairs worth merging.

    Every count is an ``int`` >= 1 and stored bigrams all have count >=
    min_count; the merge set additionally requires collocation_score(...) >
    threshold. Instances are immutable and safe to share across threads.
    """

    def __init__(
        self,
        discount: float,
        min_count: int,
        threshold: float,
        unigram_counts: dict[str, int],
        bigram_counts: dict[tuple[str, str], int],
    ):
        if discount < 0:
            raise ValueError(f"discount must be >= 0, got {discount}")
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        for tok, c in unigram_counts.items():  # bool excluded: tokens are counted
            if type(c) is not int or c < 1:
                raise ValueError(f"unigram count of {tok!r} must be an integer >= 1")
        for (a, b), c in bigram_counts.items():
            if type(c) is not int:
                raise ValueError(f"bigram {(a, b)!r} count must be an integer >= {min_count}")
            if c < min_count:
                raise ValueError(f"bigram {(a, b)!r} stored with count {c} < min_count")
            if a not in unigram_counts or b not in unigram_counts:
                raise ValueError(f"bigram {(a, b)!r} references missing unigram count")
        self.discount = discount
        self.min_count = min_count
        self.threshold = threshold
        self.unigram_counts = dict(unigram_counts)
        self.bigram_counts = dict(bigram_counts)
        merges: dict[tuple[str, str], float] = {}
        for (a, b), c in self.bigram_counts.items():
            score = collocation_score(c, unigram_counts[a], unigram_counts[b], discount)
            if score > threshold:
                merges[(a, b)] = score
        self.merges = merges

    def merges_by_score(self) -> list[tuple[tuple[str, str], float]]:
        """Merge pairs sorted by descending score, then alphabetically."""
        return sorted(self.merges.items(), key=lambda kv: (-kv[1], kv[0]))


def fit_collocations(docs, *, discount: float, min_count: int, threshold: float) -> CollocationModel:
    """Count unigrams and adjacent pairs over token streams and keep the
    pairs strong enough to merge.

    Pairs never span document boundaries. Bigrams seen fewer than min_count
    times are dropped entirely; of the rest, only those whose discounted score
    exceeds threshold end up in the merge set.
    """
    docs = list(docs)
    if not docs:
        raise ValueError("cannot fit collocations on an empty document list")
    unigrams: Counter[str] = Counter()
    bigrams: Counter[tuple[str, str]] = Counter()
    for doc in docs:
        unigrams.update(doc)
        bigrams.update(zip(doc, doc[1:]))
    kept = {pair: c for pair, c in bigrams.items() if c >= min_count}
    return CollocationModel(
        discount=discount,
        min_count=min_count,
        threshold=threshold,
        unigram_counts=dict(unigrams),
        bigram_counts=kept,
    )


def segment(tokens, model: CollocationModel) -> list[str]:
    """Greedy left-to-right merge of adjacent tokens in the merge set.

    A merged pair is consumed whole, so each token joins at most one
    neighbor per pass. Splitting the output on ``_`` restores the input.
    """
    merges = model.merges
    out: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        if i + 1 < n and (tokens[i], tokens[i + 1]) in merges:
            out.append(tokens[i] + "_" + tokens[i + 1])
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    return out
