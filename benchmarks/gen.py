"""Seeded generator of Vietnamese-like SMS traffic for the benchmark.

The output is ``<label>TAB<text>`` corpus lines, which with the stdin bytes
cut from them are the only inputs the program sees. Everything is drawn from
one ``random.Random(seed)``, so a seed fixes the bytes.

Shape, chosen so every layer does realistic work:

* syllables built from Vietnamese onsets, tone-marked nuclei and codas, a few
  thousand types drawn Zipf-style, so the vocabulary is large;
* several hundred fixed two-syllable words, so collocation fitting finds
  pairs to merge;
* all six entity families (link, emoticon, date, phone, currency, number) and
  ``[QC]``/``(TB)``-style tags on part of the spam;
* mixed case and punctuation, and a long tail of multi-part lengths.

The spam share is exactly ``round(0.3 * n)``, tagged spam is exactly a fixed
share of it and message lengths follow a fixed profile, so the amount of work
in a corpus does not wander with the seed.
"""

from __future__ import annotations

import functools
import itertools
import random
import unicodedata

SPAM_SHARE = 0.3
TAGGED_SPAM_SHARE = 0.4  # of spam; the bracket-tag baseline catches these
SYLLABLE_TYPES = 3000
COMPOUND_WORDS = 400
TOPIC_WORDS = 300  # per class: syllables and compounds boosted in that class
_LENGTH_POOL = 40000  # draws per class from which length quantiles are taken

_ONSETS = (
    "b c ch d đ g gh gi h k kh l m n ng ngh nh p ph qu r s t th tr v x".split() + [""]
)
_NUCLEI = (
    "a ă â e ê i o ô ơ u ư y ai ao au ay âu ây eo êu ia iê iu oa oe oi ôi ơi ua uâ "
    "uê ui uô ươ ưa ưi ưu uy yê"
).split()
_CODAS = ["", "", "", "c", "ch", "m", "n", "ng", "nh", "p", "t"]
# Tone marks as combining characters (grave, acute, hook, tilde, dot below);
# the first slot is the level tone.
_TONES = ("", "̀", "́", "̉", "̃", "̣")

_TAGS = ("[QC]", "(QC)", "[TB]", "(TB)")
_EMOTICONS = (":)", ":))", ":(", ";)", ":D", ":p", "<3", "=))")
_TLDS = ("vn", "com", "net", "com.vn")
_PUNCT = (",", ".", "!", "?", "...", " -", ":")


def _syllable(rng: random.Random) -> str:
    nucleus = rng.choice(_NUCLEI)
    tone = rng.choice(_TONES)
    # The tone sits on the last vowel of a two-vowel nucleus with a coda,
    # otherwise on the first: close enough to real orthography for tagging
    # and segmentation, which only see the code points.
    coda = rng.choice(_CODAS)
    pos = len(nucleus) - 1 if (len(nucleus) > 1 and coda) else 0
    marked = nucleus[: pos + 1] + tone + nucleus[pos + 1 :]
    return unicodedata.normalize("NFC", rng.choice(_ONSETS) + marked + coda)


def _zipf_cum(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (r**s) for r in range(1, n + 1)))


class Generator:
    """Draws messages; construct once per seed, then call ``corpus``."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.rng = rng
        syllables: dict[str, None] = {}
        while len(syllables) < SYLLABLE_TYPES:
            syllables[_syllable(rng)] = None
        self.syllables = list(syllables)
        rng.shuffle(self.syllables)
        self.syl_cum = _zipf_cum(len(self.syllables), 1.05)
        # Compounds pair syllables from the middle and tail of the frequency
        # ranking, so the pair count stands out against the unigram counts.
        mid = self.syllables[150:]
        self.compounds = [
            (rng.choice(mid), rng.choice(mid)) for _ in range(COMPOUND_WORDS)
        ]
        self.comp_cum = _zipf_cum(len(self.compounds), 0.9)
        words = [(s,) for s in self.syllables[:1500]] + [tuple(c) for c in self.compounds]
        rng.shuffle(words)
        self.spam_topic = words[:TOPIC_WORDS]
        self.ham_topic = words[TOPIC_WORDS : 2 * TOPIC_WORDS]
        self.topic_cum = _zipf_cum(TOPIC_WORDS, 0.8)
        self.brands = [
            "".join(rng.choice("abcdefghiklmnoprstuvxy") for _ in range(rng.randint(3, 8)))
            for _ in range(60)
        ]

    # -- pieces ---------------------------------------------------------------

    def _word(self, topic) -> tuple[str, ...]:
        rng = self.rng
        r = rng.random()
        if r < 0.35:
            return rng.choices(topic, cum_weights=self.topic_cum)[0]
        if r < 0.55:
            return rng.choices(self.compounds, cum_weights=self.comp_cum)[0]
        return (rng.choices(self.syllables, cum_weights=self.syl_cum)[0],)

    def _entity(self, spam: bool) -> str:
        rng = self.rng
        digits = lambda k: "".join(rng.choice("0123456789") for _ in range(k))  # noqa: E731
        kind = rng.choices(
            ("link", "emoticon", "date", "phone", "currency", "number"),
            weights=(4, 1, 1, 4, 4, 2) if spam else (1, 4, 4, 2, 1, 3),
        )[0]
        if kind == "link":
            brand = rng.choice(self.brands)
            form = rng.randrange(3)
            if form == 0:
                return f"http://{brand}.{rng.choice(_TLDS)}/{digits(rng.randint(2, 6))}"
            if form == 1:
                return f"www.{brand}.{rng.choice(_TLDS)}"
            return f"{brand}.{rng.choice(_TLDS)}"
        if kind == "emoticon":
            return rng.choice(_EMOTICONS)
        if kind == "date":
            form = rng.randrange(3)
            if form == 0:
                return f"{rng.randint(1, 28)}/{rng.randint(1, 12)}"
            if form == 1:
                return f"{rng.randint(1, 28)}/{rng.randint(1, 12)}/20{rng.randint(10, 30)}"
            return f"{rng.randint(0, 23)}:{rng.randint(0, 59):02d}"
        if kind == "phone":
            form = rng.randrange(4)
            if form == 0:
                return "09" + digits(8)
            if form == 1:
                return f"09{digits(2)} {digits(3)} {digits(3)}"
            if form == 2:
                return "+849" + digits(8)
            return "1900" + digits(rng.choice((4, 6)))
        if kind == "currency":
            form = rng.randrange(4)
            if form == 0:
                return f"{rng.randint(10, 999)}k"
            if form == 1:
                return f"{rng.randint(1, 999)}.000d"
            if form == 2:
                return f"{rng.randint(1, 50)}tr"
            return f"{rng.randint(1, 99)}.{rng.randint(0, 999):03d}.000vnd"
        return digits(rng.randint(1, 4))

    def message(self, spam: bool, tagged: bool, target: int) -> str:
        """One message of about ``target`` syllables and entities."""
        rng = self.rng
        # A share of each class borrows the other class's topic, so the
        # learners make some errors and every error count stays above zero.
        topic = self.spam_topic if spam != (rng.random() < 0.08) else self.ham_topic
        out: list[str] = []
        entity_rate = 0.12 if spam else 0.05
        while len(out) < target:
            if rng.random() < entity_rate:
                out.append(self._entity(spam))
                continue
            for syl in self._word(topic):
                r = rng.random()
                if r < 0.08:
                    syl = syl.capitalize()
                elif spam and r < 0.12:
                    syl = syl.upper()
                out.append(syl)
            if rng.random() < 0.1:
                out[-1] += rng.choice(_PUNCT)
        if out:
            out[0] = out[0].capitalize()
        text = " ".join(out)
        if tagged:
            text = rng.choice(_TAGS) + " " + text
        return text

    # -- outputs --------------------------------------------------------------

    def corpus(self, n: int) -> list[tuple[str, str]]:
        """``n`` labeled messages, (label token, text), in shuffled order."""
        n_spam = round(SPAM_SHARE * n)
        n_tagged = round(TAGGED_SPAM_SHARE * n_spam)
        spam_lengths = length_profile(True, n_spam)
        ham_lengths = length_profile(False, n - n_spam)
        self.rng.shuffle(spam_lengths)
        self.rng.shuffle(ham_lengths)
        kinds = [("spam", i < n_tagged, spam_lengths[i]) for i in range(n_spam)]
        kinds += [("ham", False, length) for length in ham_lengths]
        self.rng.shuffle(kinds)
        return [(lab, self.message(lab == "spam", tagged, k)) for lab, tagged, k in kinds]


def _draw_length(rng: random.Random, spam: bool) -> int:
    # Mostly one SMS part, with a geometric tail of multi-part messages.
    words = rng.randint(6, 22) if spam else rng.randint(3, 16)
    while rng.random() < (0.25 if spam else 0.12):
        words += rng.randint(15, 30)
    return words


@functools.lru_cache(maxsize=2)
def _length_pool(spam: bool) -> tuple[int, ...]:
    rng = random.Random(int(spam))
    return tuple(sorted(_draw_length(rng, spam) for _ in range(_LENGTH_POOL)))


def length_profile(spam: bool, count: int) -> list[int]:
    """``count`` message lengths at evenly spaced quantiles of the length law.

    The profile does not depend on the seed: total work in a corpus then
    depends on its size, not on how long the seed happened to make it. The
    seed only decides which message gets which length.
    """
    pool = _length_pool(spam)
    return [pool[(2 * i + 1) * len(pool) // (2 * count)] for i in range(count)]


def corpus_tsv(rows) -> str:
    return "".join(f"{label}\t{text}\n" for label, text in rows)
