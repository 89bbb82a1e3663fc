"""Entity tagging and collocation segmentation."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vnspam
from vnspam import preprocess
from vnspam.pipeline import PipelineConfig, normalize
from vnspam.preprocess import (
    ENTITY_GROUPS,
    CollocationModel,
    EntityRule,
    EntityRuleSet,
    collocation_score,
    fit_collocations,
    segment,
    tag_entities,
)

import oracles


# -- tagging: frozen examples -------------------------------------------------


def test_tagging_phone_and_date():
    assert tag_entities("Goi 0912345678 nhan qua 20/10/2016") == "goi <phone> nhan qua <date>"


def test_tagging_currency_link_emoticon():
    assert tag_entities("KM 50.000d tai http://x.vn :)") == "km <currency> tai <link> <emoticon>"


def test_tagging_service_number():
    assert tag_entities("Goi 19001234 nhe") == "goi <phone> nhe"


def test_tagging_plain_text_untouched():
    assert tag_entities("abc") == "abc"


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("www.shop.vn/sale", "<link>"),
        ("tinyurl.com", "<link>"),
        ("HTTPS://ABC.VN", "<link>"),
        (":))", "<emoticon>"),
        ("=)", "<emoticon>"),
        ("<3", "<emoticon>"),
        (":D", "<emoticon>"),
        ("5/6", "<date>"),
        ("20-10-2016", "<date>"),
        ("10:30", "<date>"),
        ("+84 912 345 678", "<phone>"),
        ("0912.345.678", "<phone>"),
        ("1800 1060", "<phone>"),
        ("100k", "<currency>"),
        ("50.000d", "<currency>"),
        ("2trieu", "<currency>"),
        ("123", "<number>"),
        # each entity tags on its own when all six families meet back to back
        ("www.abc.vn :) 20/10 0912345678 50k 123", "<link> <emoticon> <date> <phone> <currency> <number>"),
        ("20/10:)", "<date> <emoticon>"),
    ],
)
def test_tagging_single_entities(raw, expected):
    assert tag_entities(raw) == expected


def test_rule_order_prefers_specific_groups():
    # digits inside dates, phones and prices must not decay to <number>
    out = tag_entities("ngay 20/10 goi 0912345678 chi 99k con 7 ve")
    assert out == "ngay <date> goi <phone> chi <currency> con <number> ve"


def test_tagging_lowercases_and_strips_punctuation():
    assert tag_entities("CHAO Em!!! den,  ngay.") == "chao em den ngay"


def test_tagging_keeps_word_internal_apostrophes():
    assert tag_entities("don't stop") == "don't stop"
    assert tag_entities("'quoted'") == "quoted"
    assert tag_entities("l’armee") == "l’armee"


def test_tagging_collapses_whitespace():
    assert tag_entities("  a\t\tb   c  ") == "a b c"


def test_tagging_strips_stray_angle_brackets():
    assert tag_entities("a < b > c <x>") == "a b c x"


def test_tagging_preserves_reserved_tokens():
    assert tag_entities("goi <phone> nhe") == "goi <phone> nhe"
    assert tag_entities("<NUMBER>") == "<number>"


@pytest.mark.parametrize(
    "text, want",
    [
        ("www.abc.vn<phone> nhe", "<link> <phone> nhe"),
        ("xem abc.vn/<date>x nhe", "xem <link> <date> x nhe"),
        # a literal reserved token with no link before it, and one in near-miss brackets
        ("Goi <PHONE> nhe, it's 50k", "goi <phone> nhe it's <currency>"),
        ("a<b>c <<date>>", "a b c <date>"),
    ],
)
def test_reserved_token_right_after_a_link_is_kept(text, want):
    # the link rule's \S+ stops at the space put around each reserved token
    compiled = [(r.group, r.regex) for r in EntityRuleSet.default()]
    assert oracles.tag_entities_per_char(text, compiled, ENTITY_GROUPS) == want
    assert tag_entities(text) == want


def test_tagging_handles_nul_bytes():
    assert tag_entities("a\x00b") == "a b"


def test_tagging_digits_inside_words_become_number_tokens():
    # glued digits are not dates/phones/prices, only bare numbers
    assert tag_entities("a5b") == "a <number> b"
    assert tag_entities("5<6") == "<number> <number>"


def random_message(rng: random.Random) -> str:
    pieces = []
    pool = [
        "khuyen", "mai", "GAP", "em", "đồng", "ngày",
        "123", "4567", "20/10/2016", "5/6", "10:30",
        "0912345678", "+84 912 345 678", "19001234",
        "50k", "100.000d", "2trieu",
        "www.shop.vn", "http://a.b/c?d=1", "xyz.com",
        ":)", ":((", "<3", ":D", "=)",
        "<phone>", "<number>", "<link>",
        "!!!", "...", "?!", "a5b", "don't", "(ngoac)", "[QC]",
    ]
    for _ in range(rng.randint(1, 10)):
        pieces.append(rng.choice(pool))
    return " ".join(pieces)


def test_tagging_idempotent_on_random_messages():
    rng = random.Random(20240229)
    for _ in range(300):
        msg = random_message(rng)
        once = tag_entities(msg)
        assert tag_entities(once) == once, msg


def test_tagging_output_tokens_are_clean():
    """Output tokens are lowercase, whitespace-free, and reserved tokens are
    the only place angle brackets survive."""
    rng = random.Random(7)
    for _ in range(200):
        out = tag_entities(random_message(rng))
        for tok in out.split():
            assert tok == tok.lower()
            if "<" in tok or ">" in tok:
                assert tok in {f"<{g}>" for g in ENTITY_GROUPS}


# -- tagging: regex pass against the per-character loop it replaced ----------

# Characters where str.isalnum()/isspace() and re's classes could part ways:
# "_", NUL, apostrophes at word edges, the separators \x1c-\x1f (isspace),
# no-break and other Unicode spaces, a zero-width space (not isspace),
# combining marks, digits of other scripts and letters that lowercase to two
# characters.
_EDGE_PIECES = [
    "_", "a_b", "\x00", "\x00link\x00", "'", "’", "a'b", "a’b", "'a", "a'", "_'a", "a'_",
    "1'2", "a''b", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u202f", "\u3000",
    "\u2028", "\u200b", "\u0301", "e\u0301'x", "\u0663", "\u00b2", "\u0130'a",
    "<phone>", "<NUMBER>", "0912345678", "20/10/2016", ":)", "50k", "www.a.vn",
    # apostrophe runs and edges for the token pass: doubled, quoting, beside a
    # combining mark and beside a reserved token
    "it''s", "'a'", "a'\u0301", "\u0301'a", "’<phone>", "<link>’s", "a’<3",
    # near-miss reserved forms, which reach the "<" and mark guards in tag_entities
    "<", ">", "<<date>>", "<Link", "phone>", "\x00date",
    # letters whose case folding is special (the Kelvin sign folds to k, the
    # long s to s, U+0130 lowercases to i) and the escaped class characters
    "\u212a", "\u017f", "\u0130", "k", "s", "i", "]", "\\", "-", "^",
    # adjacent entities of every group, which meet in the placeholder pass
    "20/10:)", "0912345678<3", "50k\x00date", ":)0912345678", "<3:)", "ab.vn:)", "12:30 50k",
    "www.abc.vn :) 20/10 0912345678 50k 123",
]

_CUSTOM_RULES = EntityRuleSet([
    EntityRule("emoticon", r"[:;]'?[()]"),
    EntityRule("link", r"\w+_\w+"),
    EntityRule("number", r"\d+'?"),
])


@pytest.mark.parametrize("rules", [None, _CUSTOM_RULES], ids=["default", "custom"])
@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.one_of(st.sampled_from(_EDGE_PIECES), st.text(max_size=3))).map("".join),
))
def test_tagging_matches_per_character_loop(rules, text):
    # The token regex gives the tokens of testing each character with
    # str.isalnum() and str.isspace(): on str patterns re's word class is
    # isalnum() plus "_", so [^\W_] is exactly isalnum(), and an apostrophe
    # joins a run only between two such characters. A reserved token in the
    # lowercased text comes only from the placeholder pass, since every
    # character that lowercases to a letter of a group name also matches it
    # case-insensitively in the reserved-token pass. The placeholder pass
    # looks each group up in a fixed table, the string the template
    # r" <\1> " expands to, whatever the rule set.
    compiled = [(r.group, r.regex) for r in (EntityRuleSet.default() if rules is None else rules)]
    want = oracles.tag_entities_per_char(text, compiled, ENTITY_GROUPS)
    assert tag_entities(text, rules) == want


@pytest.mark.parametrize("text", ["a'" * 50_000, "0 " * 50_000, "a" * 100_000 + "'"])
def test_tagging_matches_per_character_loop_on_long_inputs(text):
    # runs of 100,000 characters: a token pass that rescans a run from each of
    # its characters would take quadratic time here
    compiled = [(r.group, r.regex) for r in EntityRuleSet.default()]
    assert tag_entities(text) == oracles.tag_entities_per_char(text, compiled, ENTITY_GROUPS)


# -- rule guards ----------------------------------------------------------------


def _guard_text(pattern):
    guard = EntityRuleSet([EntityRule("number", pattern)])._subs[0][2]
    return guard and guard.__self__.pattern


def test_default_rule_guards_are_pinned():
    rules = EntityRuleSet.default()
    got = {r.group: guard.__self__.pattern for r, (_, _, guard) in zip(rules, rules._subs)}
    assert got == {
        "link": r"[:][/]|[w][w]|[\.][vcn]",
        "emoticon": r"[:][\)]|[:][\(]|[;][\)]|[=][\)]|[:][dpv3]|[<][3]",
        "date": r"[\d][/\.\-]|[\d][:]",
        "phone": r"[8][4]|[0][\ \.\d]|[0][0]",
        "currency": r"[\d][vtkđd]",
        "number": r"[\d]",  # no pair: one character matches
    }


@pytest.mark.parametrize(
    "pattern, want",
    [
        # a pair, when there is one, beats a class
        ("x+:", "[x][:]"),
        (r"\d{2}-\d", r"[\d][\-]"),  # of two pairs of one rank, the first
        ("(?:ab|c)d", "[bc][d]"),  # the branch has no pair; its last class meets d
        (r"\d(?:,\d{3})*k", r"[\d][k]"),  # trailing lasts across a nullable group, deduplicated
        ("a(?=b)b", "[a][b]"),  # a lookahead consumes nothing
        # with no pair, the class every match starts with
        (r"\d{2,}", r"[\d]"),  # a repeat's two bodies make no pair
        ("(?:ab|c)", "[ac]"),  # one branch has no pair, so the first class of each
        (r"(?:\d|:)+", r"[\d:]"),
        (r"(?<!\w)\b(?=x)k", "[k]"),  # zero-width nodes need nothing
        (r"[\]\\\-^]", r"[\]\\\-\^]"),
        ("x?\u212a", "[x\u212a]"),  # the Kelvin sign, matched case-insensitively
    ],
)
def test_guard_class_follows_the_parse_tree(pattern, want):
    assert _guard_text(pattern) == want


@pytest.mark.parametrize(
    "pattern",
    [
        r"\d*[^x]", "(?:a|)[^x]", "[^x]+", ".+", "(?-i:k)", r"(\d)\1+", "(a)?(?(1)b|c)",
        r"(?-i:ab)\d",  # a scoped-flag group may start a match with any character
        "[^x]+k", ".+k",  # a match may start with any character, and k's neighbour is any
        # an atomic group is not read, as a backreference is not
        pytest.param("(?>k)x*", marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="3.11+")),
    ],
)
def test_rules_that_need_no_class_or_cannot_be_read_get_no_guard(pattern):
    assert _guard_text(pattern) is None


def _rules_built_while_the_analysis_raises(monkeypatch, exc, rows):
    def fail(nodes):
        raise exc("no guard")

    with monkeypatch.context() as patch:
        patch.setattr(preprocess, "_walk", fail)
        rules = EntityRuleSet(EntityRule(group, pattern) for group, pattern in rows)
    assert [rule._guard for rule in rules] == [guard for _, _, guard in rules._subs]
    assert [rule._guard for rule in rules] == [None] * len(rows)
    return rules


def _assert_tags_as_every_rule_run(text, rules):
    compiled = [(r.group, r.regex) for r in rules]
    assert tag_entities(text, rules) == oracles.tag_entities_per_char(text, compiled, ENTITY_GROUPS)


def test_rule_set_builds_unguarded_when_the_analysis_runs_out_of_stack(monkeypatch):
    rows = [("number", "(" * 150 + r"\d+" + ")" * 150)]
    rules = _rules_built_while_the_analysis_raises(monkeypatch, RecursionError, rows)
    assert tag_entities("so 12", rules) == "so <number>"
    _assert_tags_as_every_rule_run("so 12", rules)


def test_rule_set_builds_unguarded_when_the_analysis_fails(monkeypatch):
    rows = [(r.group, r.pattern) for r in EntityRuleSet.default()]  # cached before the fault
    rules = _rules_built_while_the_analysis_raises(monkeypatch, ValueError, rows)
    text = "www.abc.vn :) 20/10 0912345678 50k 123"
    assert tag_entities(text, rules) == tag_entities(text)
    _assert_tags_as_every_rule_run(text, rules)


# Rule patterns drawn from a small grammar: lookarounds and \b, optional,
# bounded and unbounded repeats, nullable branches, backreferences, ".",
# negated classes, scoped flags, the escaped class characters and letters
# whose case folding is special. Unbounded repeats apply to single atoms
# only, so no drawn pattern backtracks exponentially. A pattern that can match
# the empty string, which a rule may not be, gets one more atom.
_RULE_ATOMS = [
    "a", "k", "K", "s", "i", "\u212a", "\u017f", "\u0130", "1", ":", r"\.", r"\-", r"\]",
    r"\\", r"\^", r"\d", r"\w", r"\s", r"\S", ".", "[a-c]", "[^x]", r"[^\d:]", r"[\]\\\-^]",
    "[k\u017f]", "[0-9:]", "[\u0130x]", "[K-S]",
]
_RULE_ANCHORS = [r"\b", r"\B", r"(?<![\w.])", r"(?<=\d)", r"(?=\w)", r"(?!k)", "^", "$"]
_RULE_QUANTIFIERS = ["", "", "?", "*", "+", "+?", "{0,2}", "{2}"]


@st.composite
def _rule_trees(draw, depth=3):
    # Hypothesis favours the ends of an integer range: an atom and a sequence.
    kind = draw(st.integers(0, 9 if depth else 2))
    if kind < 2:
        return draw(st.sampled_from(_RULE_ATOMS)) + draw(st.sampled_from(_RULE_QUANTIFIERS))
    if kind == 2:
        return draw(st.sampled_from(_RULE_ANCHORS))
    if kind in (3, 9):
        return "".join(draw(_rule_trees(depth - 1)) for _ in range(draw(st.integers(2, 3))))
    inner = draw(_rule_trees(depth - 1))
    if kind == 4:
        return "(?:%s|%s)" % (inner, draw(_rule_trees(depth - 1)))
    if kind == 5:
        return "(?:%s|)" % inner
    if kind == 6:
        return "(?:%s)%s" % (inner, draw(st.sampled_from(["?", "{0,2}", "{1,2}", "{2}"])))
    return ("(%s)" if kind == 7 else "(?-i:%s)") % inner


@st.composite
def _rule_patterns(draw):
    pattern = draw(_rule_trees())
    if draw(st.integers(0, 7)) == 7:  # a backreference to the first group
        pattern = "(%s)%s\\1" % (pattern, draw(_rule_trees(0)))
    if draw(st.integers(0, 4)) == 4:
        pattern = "(?a)" + pattern
    if _min_width(pattern) == 0:  # refused as a rule: one more atom makes it need a character
        pattern += draw(st.sampled_from(_RULE_ATOMS))
    return pattern


def _min_width(pattern):
    try:
        return preprocess._sre_parse.parse(pattern).getwidth()[0]
    except Exception:  # not a pattern; the _compiles filter drops it
        return None


def _compiles(pattern):
    try:
        EntityRule("number", pattern)
    except ValueError:
        return False
    return True


_GUARD_TEXT_PIECES = st.one_of(
    st.sampled_from(
        _EDGE_PIECES + ["K", "S", "I", "\u0131", "42", ":", ".", "x", "ab", " "]
        # pieces that hold a pair a rule needs, so the guard must let them through
        + ["1.000k", "12/10", "://", "www.", ".vn", "0 9"]
    ),
    st.text(max_size=2),
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(ENTITY_GROUPS), _rule_patterns().filter(_compiles)),
        min_size=1,
        max_size=3,
    ),
    st.lists(_GUARD_TEXT_PIECES, max_size=10).map("".join),
)
def test_guarded_tagging_matches_every_rule_run(rule_rows, text):
    rules = EntityRuleSet(EntityRule(group, pattern) for group, pattern in rule_rows)
    for rule, (_, _, guard) in zip(rules, rules._subs):
        assert guard is None or guard(text) or rule.regex.search(text) is None, rule
    compiled = [(r.group, r.regex) for r in rules]
    got = tag_entities(text, rules)
    assert got == oracles.tag_entities_per_char(text, compiled, ENTITY_GROUPS)
    assert "\x00" not in got


# guarded rules (a negated class before "\.vn", a nullable branch before "\)")
# beside a backreference rule, which runs unguarded
_GUARDED_AND_BACKREFERENCE = [
    ("link", r"[^\s]+\.vn"), ("number", r"(\d)\1+"), ("emoticon", r"(?::|=|)\)"), ("currency", r"\d+k"),
]


@pytest.mark.parametrize(
    "rows, text, want",
    [
        # the number rule eats "\x00phone" and leaves the phone's closing mark
        ([("phone", r"\d{3}"), ("number", r"\x00\w+")], "goi 123 nhe", "goi <number> nhe"),
        # the number rule takes the group name out from between the link's marks
        ([("link", r"www\.\S+"), ("number", r"\b[a-m]\w*")], "xem www.abc.vn nhe", "xem <number> nhe"),
        # no mark is torn in these three
        (
            _GUARDED_AND_BACKREFERENCE,
            "Vao shop.VN nhe, 1111 hay 50k :) =) )",
            "vao <link> nhe <number> hay <currency> <emoticon> <emoticon> <emoticon>",
        ),
        (_GUARDED_AND_BACKREFERENCE, "so 12 va 7777 (ok)", "so 12 va <number> ok <emoticon>"),
        # rules guarded by character pairs read across a nullable group and a lookbehind
        (
            [("currency", r"(?<!\d)\d{1,3}(?:[.,]\d{3})*k"), ("date", r"\d{1,2}/\d{1,2}")],
            "Gia 1.000k, 12k va 1234k; ngay 12/10 hay 1/2/3 (5k) x9/9 1,000.000K",
            "gia <currency> <currency> va 1234k ngay <date> hay <date> 3 <currency> x <date> <currency>",
        ),
    ],
    ids=["mark-eaten", "group-name-eaten", "guards-beside-a-backreference", "backreference-unguarded", "pair-guards"],
)
def test_torn_placeholder_marks_become_spaces(rows, text, want):
    rules = EntityRuleSet(EntityRule(group, pattern) for group, pattern in rows)
    compiled = [(r.group, r.regex) for r in rules]
    assert oracles.tag_entities_per_char(text, compiled, ENTITY_GROUPS) == want
    assert tag_entities(text, rules) == want


# -- rule files ---------------------------------------------------------------


def test_rules_from_lines_skips_comments_and_blanks():
    rs = EntityRuleSet.from_lines(["# header", "", "number\t\\d+", "   "])
    assert len(rs) == 1
    assert rs.rules[0].token == "<number>"


def test_rules_reject_unknown_group():
    with pytest.raises(ValueError, match="unknown entity group"):
        EntityRuleSet.from_lines(["eggs\t\\d+"])


def test_rules_reject_bad_pattern():
    with pytest.raises(ValueError, match="bad pattern"):
        EntityRuleSet.from_lines(["number\t[unclosed"])


@pytest.mark.parametrize(
    "pattern", ["a{99999999999}", "(" * 600 + ")" * 600], ids=["huge-repeat", "deep-nesting"]
)
def test_rules_reject_pattern_re_cannot_compile(pattern):
    # re.compile raises OverflowError and RecursionError here, not re.error
    with pytest.raises(ValueError, match="bad pattern"):
        EntityRuleSet.from_lines(["number\t" + pattern])


@pytest.mark.parametrize("pattern", [r"\d*", "(?:a|)", r"\b", "(?=x)", "x?", "(?!)", r"(\d*)\1"])
def test_rules_reject_patterns_that_can_match_the_empty_string(pattern):
    with pytest.raises(ValueError, match=r"myfile:2: .*'number' can match the empty string"):
        EntityRuleSet.from_lines(["# c", "number\t" + pattern], source="myfile")


def test_rules_pickle_with_their_guards():
    import copy
    import pickle

    def guards(rules):
        return [guard and (guard.__self__.pattern, guard.__self__.flags) for _, _, guard in rules._subs]

    rules = pickle.loads(pickle.dumps(EntityRuleSet.default()))
    assert rules.rules == EntityRuleSet.default().rules
    # EntityRuleSet(rules) reads the guard each unpickled rule carries
    assert guards(rules) == guards(EntityRuleSet(rules)) == guards(EntityRuleSet.default())
    text = "www.abc.vn :) 20/10 0912345678 50k 123 so 7777"
    for rule in [*EntityRuleSet.default(), EntityRule("number", r"(\d)\1+")]:  # the last is unguarded
        for twin in (pickle.loads(pickle.dumps(rule)), copy.deepcopy(rule)):
            assert twin == rule
            assert guards(EntityRuleSet([twin])) == guards(EntityRuleSet([rule]))
            assert tag_entities(text, EntityRuleSet([twin])) == tag_entities(text, EntityRuleSet([rule]))


def test_rules_reject_missing_tab():
    with pytest.raises(ValueError, match="expected"):
        EntityRuleSet.from_lines(["number \\d+"])


def test_rule_error_carries_source_and_line():
    with pytest.raises(ValueError, match=r"myfile:3"):
        EntityRuleSet.from_lines(["# c", "number\t\\d+", "junk"], source="myfile")


def test_default_rules_cover_all_groups_in_order():
    rs = EntityRuleSet.default()
    assert tuple(r.group for r in rs) == ENTITY_GROUPS
    assert EntityRuleSet.default() is rs  # cached


def test_custom_rules_override(tmp_path):
    p = tmp_path / "rules.tsv"
    p.write_text("number\tx+\n", encoding="utf-8")
    rs = EntityRuleSet.from_file(p)
    assert tag_entities("axxxb 12", rs) == "a <number> b 12"


def test_custom_rules_for_every_group_tag_adjacent_entities():
    # every group, in another order than the default rules, matched back to back
    rules = EntityRuleSet(
        EntityRule(group, pattern)
        for group, pattern in [
            ("number", r"#\d"), ("currency", r"\$\d"), ("phone", r"~\d"),
            ("date", r"d\d"), ("emoticon", r"\^_\^"), ("link", r"@\w"),
        ]
    )
    text = "#1$2~3d4^_^@x#5"
    want = "<number> <currency> <phone> <date> <emoticon> <link> <number>"
    compiled = [(r.group, r.regex) for r in rules]
    assert oracles.tag_entities_per_char(text, compiled, ENTITY_GROUPS) == want
    assert tag_entities(text, rules) == want


def test_overlapping_rules_tag_in_rule_order():
    phone, number = EntityRule("phone", r"\d{10}"), EntityRule("number", r"\d+")
    text = "goi 0912345678"
    assert tag_entities(text, EntityRuleSet([phone, number])) == "goi <phone>"
    assert tag_entities(text, EntityRuleSet([number, phone])) == "goi <number>"


def test_entity_rule_is_case_insensitive():
    rule = EntityRule(group="link", pattern="www\\.\\S+")
    assert rule.regex.search("WWW.ABC.VN") is not None


# -- collocation scoring -------------------------------------------------------


def test_score_formula_examples():
    assert collocation_score(10, 20, 5, 0.0) == pytest.approx(0.1)
    assert collocation_score(10, 10, 10, 10.0) <= 0.0


def test_score_matches_exact_oracle():
    rng = random.Random(5)
    for _ in range(200):
        pair = rng.randint(1, 500)
        left = rng.randint(pair, 2000)
        right = rng.randint(pair, 2000)
        discount = rng.choice([0.0, 1.0, 5.0, 7.5])
        got = collocation_score(pair, left, right, discount)
        want = oracles.pair_score(pair, left, right, discount)
        assert oracles.rel_close(got, float(want))


def test_fit_counts_pairs_within_documents_only():
    docs = [["a", "b"], ["b", "a"], ["a", "b"]]
    model = fit_collocations(docs, discount=0.0, min_count=1, threshold=1e-9)
    assert model.bigram_counts[("a", "b")] == 2
    assert model.bigram_counts[("b", "a")] == 1
    # no ("b", "a") pair across document boundaries was invented
    assert model.unigram_counts == {"a": 3, "b": 3}


def test_fit_drops_rare_pairs():
    docs = [["x", "y"]] * 9 + [["p", "q"]] * 10
    model = fit_collocations(docs, discount=0.0, min_count=10, threshold=1e-9)
    assert ("x", "y") not in model.bigram_counts
    assert model.bigram_counts[("p", "q")] == 10


def test_fit_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty"):
        fit_collocations([], discount=5.0, min_count=10, threshold=1e-4)


def test_nonpositive_score_never_merges():
    docs = [["a", "b"]] * 10
    model = fit_collocations(docs, discount=10.0, min_count=10, threshold=1e-9)
    assert model.bigram_counts[("a", "b")] == 10
    assert ("a", "b") not in model.merges


def test_merge_set_respects_threshold_exactly():
    """Stored pairs merge iff their recomputed score clears the threshold."""
    rng = random.Random(13)
    for _ in range(50):
        docs = []
        for _ in range(rng.randint(5, 30)):
            docs.append([rng.choice("abcde") for _ in range(rng.randint(2, 8))])
        model = fit_collocations(docs, discount=rng.choice([0.0, 1.0, 2.0]),
                                 min_count=rng.randint(1, 3),
                                 threshold=rng.choice([1e-4, 0.01, 0.05]))
        for pair, count in model.bigram_counts.items():
            assert count >= model.min_count
            exact = oracles.pair_score(
                count,
                model.unigram_counts[pair[0]],
                model.unigram_counts[pair[1]],
                model.discount,
            )
            assert (pair in model.merges) == (float(exact) > model.threshold)


def test_model_validates_inputs():
    with pytest.raises(ValueError, match="min_count"):
        CollocationModel(0.0, 5, 1e-4, {"a": 4, "b": 4}, {("a", "b"): 4})
    with pytest.raises(ValueError, match="missing unigram"):
        CollocationModel(0.0, 1, 1e-4, {"a": 4}, {("a", "b"): 4})
    with pytest.raises(ValueError, match="threshold"):
        CollocationModel(0.0, 1, 0.0, {}, {})
    with pytest.raises(ValueError, match="discount"):
        CollocationModel(-1.0, 1, 1e-4, {}, {})
    with pytest.raises(ValueError, match=r"^min_count must be >= 1, got 0$"):
        CollocationModel(0.0, 0, 1e-4, {}, {})


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("discount", -0.5, "discount must be >= 0, got -0.5"),
        ("min_count", 0, "min_count must be >= 1, got 0"),
        ("threshold", 0.0, "threshold must be > 0, got 0.0"),
        ("threshold", -1e-4, "threshold must be > 0, got -0.0001"),
    ],
)
def test_model_and_fit_refuse_bad_parameters(field, value, message):
    params = {"discount": 5.0, "min_count": 10, "threshold": 1e-4, field: value}
    with pytest.raises(ValueError) as exc:
        CollocationModel(**params, unigram_counts={}, bigram_counts={})
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        fit_collocations([["a", "b"]], **params)
    assert str(exc.value) == message


def test_merges_by_score_sorted_descending():
    docs = [["a", "b"]] * 12 + [["c", "d"]] * 4 + [["a", "b", "c", "d"]] * 2
    model = fit_collocations(docs, discount=0.0, min_count=2, threshold=1e-9)
    scores = [s for _, s in model.merges_by_score()]
    assert scores == sorted(scores, reverse=True)


# -- segmentation ---------------------------------------------------------------


def merge_model(pairs):
    """Model whose merge set is exactly the given pairs."""
    tokens = {t for p in pairs for t in p}
    return CollocationModel(
        discount=0.0,
        min_count=1,
        threshold=1e-9,
        unigram_counts={t: 1 for t in tokens},
        bigram_counts={p: 5 for p in pairs},
    )


def test_segment_single_merge():
    assert segment(["tin", "nhan"], merge_model({("tin", "nhan")})) == ["tin_nhan"]


def test_segment_merge_at_end():
    assert segment(["a", "b", "c"], merge_model({("b", "c")})) == ["a", "b_c"]


def test_segment_greedy_leftmost():
    model = merge_model({("a", "b"), ("b", "c")})
    assert segment(["a", "b", "c"], model) == ["a_b", "c"]


def test_segment_no_merges_is_identity():
    assert segment(["x", "y"], merge_model({("p", "q")})) == ["x", "y"]


def test_segment_matches_greedy_oracle():
    rng = random.Random(99)
    alphabet = ["a", "b", "c", "d", "e"]
    for _ in range(300):
        tokens = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        universe = [(x, y) for x in alphabet for y in alphabet]
        pairs = set(rng.sample(universe, rng.randint(0, 8)))
        model = merge_model(pairs) if pairs else merge_model({("zz", "zz")})
        got = segment(tokens, model)
        assert got == oracles.greedy_merge(tokens, pairs if pairs else {("zz", "zz")})


def test_segment_round_trip():
    """Splitting merged tokens on _ restores the input stream."""
    rng = random.Random(4)
    alphabet = ["mot", "hai", "ba", "bon", "nam", "<phone>"]
    for _ in range(200):
        tokens = [rng.choice(alphabet) for _ in range(rng.randint(0, 10))]
        pairs = {(rng.choice(alphabet), rng.choice(alphabet)) for _ in range(4)}
        out = segment(tokens, merge_model(pairs))
        flattened = [part for tok in out for part in tok.split("_")]
        assert flattened == tokens
        assert all(tok and " " not in tok for tok in out)


# -- full preprocess: the pipeline's normalize stage, then segment ------------


def test_package_attribute_preprocess_is_the_submodule():
    assert vnspam.preprocess is sys.modules["vnspam.preprocess"]


def test_preprocess_equals_composition():
    rng = random.Random(123)
    model = merge_model({("khuyen", "mai"), ("<phone>", "<link>")})
    for _ in range(1000):
        msg = random_message(rng)
        tokens = normalize(msg, PipelineConfig()).tokens
        assert segment(tokens, model) == segment(tag_entities(msg).split(), model)


def test_preprocess_without_model_just_tags():
    assert normalize("Goi 19001234 nhe", PipelineConfig()).tokens == ["goi", "<phone>", "nhe"]


def test_preprocess_empty_after_tagging():
    tokens = normalize("!!!", PipelineConfig()).tokens
    assert segment(tokens, merge_model({("a", "b")})) == []
