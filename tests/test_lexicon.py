from __future__ import annotations

import copy
import copyreg
import dataclasses
import io
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    oracle_gazetteer_match,
    oracle_lines,
    oracle_longest_rightmost,
    oracle_wordlist_entries,
)
from defsrl import corpus, lexicon
from defsrl.corpus import _decoded_blocks
from defsrl.defaults import default_noun_lexicon
from defsrl.lexicon import (
    Gazetteer,
    Lexicon,
    LexiconFormatError,
    LOCATION,
    NOUN,
    TIME,
    VERB,
    gazetteer_match,
    load_gazetteer,
    load_wndb_index,
    load_wordlist,
    longest_rightmost_entry,
    _lines,
    _wordlist_entries,
)


def test_load_wordlist_basic():
    lexicon = load_wordlist("clothing\nfootwear\n")
    assert len(lexicon) == 2
    assert "clothing" in lexicon


def test_load_wordlist_normalizes_case_and_spaces():
    lexicon = load_wordlist("Water Faucet\n")
    assert "water_faucet" in lexicon.entries
    assert lexicon.lookup_tokens(["Water", "Faucet"]) == "water_faucet"


def test_load_wordlist_skips_blanks_and_comments():
    lexicon = load_wordlist("# header\n\nclothing\n  \n# more\nfootwear\n")
    assert len(lexicon) == 2


def test_load_wordlist_rejects_bad_underscores():
    with pytest.raises(LexiconFormatError) as info:
        load_wordlist("clothing\nfoo__bar\n")
    assert info.value.line_no == 2


def test_packaged_mini_lexicon_membership():
    lexicon = default_noun_lexicon()
    for word in ("sandpiper", "coach", "driver"):
        assert word in lexicon


def test_noun_plural_detachment():
    lexicon = load_wordlist("plant\n", NOUN)
    assert lexicon.lookup_tokens(["plants"]) == "plant"
    assert lexicon.lookup_tokens(["Plants"]) == "plant"


def test_detachment_suffix_rules():
    lexicon = load_wordlist("church\nbox\nlady\nman\nclass\n", NOUN)
    assert lexicon.lookup_tokens(["churches"]) == "church"
    assert lexicon.lookup_tokens(["boxes"]) == "box"
    assert lexicon.lookup_tokens(["ladies"]) == "lady"
    assert lexicon.lookup_tokens(["men"]) == "man"
    assert lexicon.lookup_tokens(["classes"]) == "class"


def test_verb_lexicon_has_no_detachment():
    lexicon = load_wordlist("plant\n", VERB)
    assert lexicon.lookup_tokens(["plants"]) is None


def test_load_wndb_index():
    text = "  1 This is a WNDB header line\nbaseball_coach n 1 1 @ 1 0\ncoach n 4 3 @ ~ 2 0\n"
    lexicon = load_wndb_index(text, NOUN)
    assert "baseball_coach" in lexicon.entries
    assert len(lexicon) == 2


def test_load_wndb_index_blank_line_is_error():
    with pytest.raises(LexiconFormatError) as info:
        load_wndb_index("coach n 1\n\n", NOUN)
    assert info.value.line_no == 2


def test_load_wndb_index_bad_underscore_names_its_line():
    with pytest.raises(LexiconFormatError, match="^line 3: bad underscore placement") as info:
        load_wndb_index("  1 header line\ncoach n 1\nsea__lion n 1\n", NOUN)
    assert info.value.line_no == 3


def test_format_errors_pickle_and_copy():
    with pytest.raises(LexiconFormatError) as info:
        load_wordlist("clothing\nfoo__bar\n")
    error = info.value
    copies = [copy.copy(error), copy.deepcopy(error)]
    copies += [pickle.loads(pickle.dumps(error, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert other.__class__ is LexiconFormatError
        assert (str(other), other.line_no) == (str(error), 2)


def test_from_entries_rejects_a_blank_entry():
    with pytest.raises(ValueError, match="empty entry"):
        Lexicon.from_entries(NOUN, ["coach", " \t "])
    with pytest.raises(ValueError, match="empty entry"):
        Gazetteer.from_entries(LOCATION, ["frontier", ""])


def test_gazetteer_match_rejects_no_tokens():
    with pytest.raises(ValueError, match="tokens must be non-empty"):
        gazetteer_match(Gazetteer.from_entries(LOCATION, ["frontier"]), [])


def test_longest_rightmost_sandpiper():
    lexicon = Lexicon.from_entries(NOUN, ["sandpiper"])
    result = longest_rightmost_entry(lexicon, ["large", "plover-like", "sandpiper"])
    assert result == (2, "sandpiper")


def test_longest_rightmost_full_match():
    lexicon = Lexicon.from_entries(NOUN, ["coach"])
    assert longest_rightmost_entry(lexicon, ["coach"]) == (0, "coach")


def test_longest_rightmost_prefers_longer_suffix():
    lexicon = Lexicon.from_entries(NOUN, ["coach", "baseball_coach"])
    result = longest_rightmost_entry(lexicon, ["a", "baseball", "coach"])
    assert result == (1, "baseball_coach")


def test_longest_rightmost_absent():
    lexicon = Lexicon.from_entries(NOUN, ["coach"])
    assert longest_rightmost_entry(lexicon, ["quickly"]) is None


def test_longest_rightmost_empty_tokens_rejected():
    lexicon = Lexicon.from_entries(NOUN, ["coach"])
    with pytest.raises(ValueError):
        longest_rightmost_entry(lexicon, [])


def test_longest_rightmost_matches_oracle():
    rng = random.Random(21)
    vocabulary = ["ash", "oak", "fir", "elm", "yew", "bay", "box"]
    # Tokens also come capitalized and in plural forms, which only a noun
    # lexicon's variants of the last word can match.
    forms = vocabulary + ["Ash", "OAK", "ashes", "Oaks", "BOXES", "bays", "Firs"]
    for n in range(1000):
        entries = set()
        for _ in range(rng.randint(1, 8)):
            entries.add("_".join(rng.choices(vocabulary, k=rng.randint(1, 3))))
        lexicon = Lexicon.from_entries(NOUN if n % 4 else VERB, entries)
        tokens = rng.choices(forms, k=rng.randint(1, 6))
        assert longest_rightmost_entry(lexicon, tokens) == oracle_longest_rightmost(
            lexicon, tokens
        )


def test_normalization_idempotent():
    rng = random.Random(22)
    words = ["Coach", "WATER faucet", "a  b", "x"]
    for _ in range(200):
        text = rng.choice(words)
        lexicon = load_wordlist(text + "\n")
        entry = next(iter(lexicon.entries))
        again = load_wordlist(entry.replace("_", " ") + "\n")
        assert next(iter(again.entries)) == entry


def test_gazetteer_frontier_match():
    gazetteer = Gazetteer.from_entries(LOCATION, ["frontier"])
    assert gazetteer_match(gazetteer, ["on", "the", "frontier"])


def test_gazetteer_empty_no_heuristic_hit():
    gazetteer = Gazetteer.from_entries(TIME, [])
    assert not gazetteer_match(gazetteer, ["at", "formal", "occasions"])


def test_gazetteer_time_heuristics():
    gazetteer = Gazetteer.from_entries(TIME, [])
    assert gazetteer_match(gazetteer, ["in", "the", "19th", "century"])
    assert gazetteer_match(gazetteer, ["in", "1984"])
    assert gazetteer_match(gazetteer, ["during", "March"])
    assert not gazetteer_match(gazetteer, ["19th", "in", "century"])


@pytest.mark.parametrize(
    "tokens, expected",
    [
        (["in", "١٩٩٩"], True),  # Arabic-Indic digits are decimal
        (["the", "٣rd", "century"], True),
        (["in", "²⁰²⁰"], False),  # superscripts are digits, not decimals
        (["the", "²nd", "century"], False),
        (["during", "May"], True),
        (["in", "MARCH"], True),
        (["in", "19999"], False),
        (["", "century"], False),
        (["3rd"], False),
    ],
)
def test_time_patterns_are_tried_only_on_tokens_led_by_a_decimal(tokens, expected):
    # The matcher tries the year and ordinal patterns only on a token whose
    # first character is decimal; the regex-only rule tries every token.
    gazetteer = Gazetteer.from_entries(TIME, [])
    assert gazetteer_match(gazetteer, tokens) is expected
    assert oracle_gazetteer_match(gazetteer, tokens) is expected


def test_the_time_patterns_open_with_exactly_the_decimal_characters():
    # The fact the decimal test relies on, checked against this Python's
    # Unicode tables: ``\d`` in a ``str`` pattern matches a character when,
    # and only when, ``str.isdecimal`` accepts it.
    digit = re.compile(r"\d")
    for c in map(chr, range(sys.maxunicode + 1)):
        assert (digit.match(c) is not None) == c.isdecimal(), ascii(c)


def test_gazetteer_multiword_subsequence():
    gazetteer = Gazetteer.from_entries(LOCATION, ["north american"])
    assert gazetteer_match(gazetteer, ["of", "North", "American", "fields"])
    assert not gazetteer_match(gazetteer, ["of", "North", "fields"])


def test_gazetteer_capitalized_non_initial_location():
    gazetteer = Gazetteer.from_entries(LOCATION, ["morocco"])
    assert gazetteer_match(gazetteer, ["in", "Morocco"])
    # A sentence-initial capital is not treated as a named-entity cue, but
    # the plain subsequence check still fires on the lowercase match.
    assert gazetteer_match(gazetteer, ["Morocco", "is", "west"])


def test_load_gazetteer_preserves_spaces():
    gazetteer = load_gazetteer("Lake  District\n", LOCATION)
    assert "lake district" in gazetteer.entries


@pytest.mark.parametrize("pos", [NOUN, VERB])
def test_loaders_equal_from_entries_on_the_same_lines(pos):
    lines = ["Water  Faucet", "COACH", "sea\tlion", "  Lake   District  ", "x"]
    assert load_wordlist("\n".join(lines) + "\n", pos) == Lexicon.from_entries(pos, lines)
    wndb = ["Water_Faucet", "coach", "SEA_LION", "new_york_city"]
    index = "  1 header line\n" + "".join(f"{lemma} n 1 1 @ 1 0 0\n" for lemma in wndb)
    assert load_wndb_index(index, pos) == Lexicon.from_entries(pos, wndb)
    for kind in (LOCATION, TIME):
        assert load_gazetteer("\n".join(lines), kind) == Gazetteer.from_entries(kind, lines)


def test_from_entries_checks_pos_and_kind_before_entries():
    with pytest.raises(ValueError, match="pos must be"):
        Lexicon.from_entries("adjective", [""])
    with pytest.raises(ValueError, match="kind must be"):
        Gazetteer.from_entries("place", [""])


class _ForgedState:
    """Pickles as a ``cls`` record with the given state, a field list or a
    dict of the fields as an earlier version pickled one."""

    def __init__(self, cls: type, state: object) -> None:
        self.cls, self.state = cls, state

    def __reduce__(self):
        return copyreg._reconstructor, (self.cls, object, None), self.state


@pytest.mark.parametrize(
    "good, name, bad",
    [
        (Lexicon.from_entries(NOUN, ["coach"]), "pos", "adj"),
        (Gazetteer.from_entries(LOCATION, ["lake district"]), "kind", "place"),
    ],
)
def test_every_way_to_make_a_lexicon_or_gazetteer_checks_pos_and_kind(good, name, bad):
    cls = good.__class__
    match = f"{name} must be"
    with pytest.raises(ValueError, match=match):
        cls(bad, frozenset(), 0)
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(good, **{name: bad})
    fields = dataclasses.asdict(good)
    forged = [{**fields, name: bad}, [bad, *list(fields.values())[1:]]]
    for state in forged:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(_ForgedState(cls, state), protocol)
            with pytest.raises(ValueError, match=match):
                pickle.loads(data)
    # The same forgeries with the good value load.
    assert pickle.loads(pickle.dumps(_ForgedState(cls, fields))) == good


# --- first-word pruning ---------------------------------------------------------

# Words, time-pattern triggers, and the pieces of non-normalized entries:
# empty, mixed-case, space- and tab-holding.
_GAZ_WORDS = [
    "new", "york", "lake", "district", "of", "the", "19th", "century", "1984",
    "may", "March", "New", "YORK", "", " ", "new york", " york", "a\tb", "a",
    "b", "Lake  District",
]


@st.composite
def _gazetteers(draw):
    joiners = st.sampled_from([" ", "  ", "\t", ""])
    entries = set()
    phrases = st.lists(st.sampled_from(_GAZ_WORDS), min_size=1, max_size=3)
    for words in draw(st.lists(phrases, max_size=6)):
        entries.add(draw(joiners).join(words) if draw(st.booleans()) else " ".join(words))
    kind = draw(st.sampled_from([LOCATION, TIME]))
    if draw(st.booleans()):
        return Gazetteer.from_entries(kind, [e for e in entries if e.split()])
    # Built directly: entries as given, max_words unrelated to them.
    return Gazetteer(kind, frozenset(entries), draw(st.integers(-1, 5)))


@settings(max_examples=600, deadline=None)
@given(_gazetteers(), st.lists(st.sampled_from(_GAZ_WORDS), min_size=1, max_size=8))
def test_gazetteer_match_equals_the_all_windows_scan(gazetteer, tokens):
    assert gazetteer_match(gazetteer, tokens) == oracle_gazetteer_match(gazetteer, tokens)


@settings(max_examples=600, deadline=None)
@given(_gazetteers(), st.lists(st.sampled_from(_GAZ_WORDS), min_size=1, max_size=8))
def test_gazetteer_match_is_monotone(gazetteer, tokens):
    # A hit in a window is a hit in any window holding it, which lets the
    # labeler skip the PPs nested in a PP that missed.
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens) + 1):
            if gazetteer_match(gazetteer, tokens[i:j]):
                assert gazetteer_match(gazetteer, tokens)


def test_gazetteer_match_starts_at_tokens_holding_a_space():
    gazetteer = Gazetteer(LOCATION, frozenset({"new york city"}), 2)
    assert "new" in gazetteer.first_words
    # The window ["new york", "city"] joins to the entry; "new york" itself
    # is no first word.
    assert gazetteer_match(gazetteer, ["in", "New York", "city"])
    assert not gazetteer_match(gazetteer, ["in", "York", "city"])


def test_gazetteer_first_words_are_derived_from_the_entries():
    gazetteer = Gazetteer.from_entries(LOCATION, ["Lake District", "France", "the far north"])
    assert gazetteer.first_words == {"lake", "france", "the"}
    odd = Gazetteer(LOCATION, frozenset({" x", "a  b", "c\td"}), 3)
    assert odd.first_words == {"", "a", "c\td"}


def test_gazetteer_equality_hash_and_repr_ignore_first_words():
    gazetteer = Gazetteer.from_entries(LOCATION, ["lake district"])
    tampered = Gazetteer.from_entries(LOCATION, ["lake district"])
    object.__setattr__(tampered, "first_words", frozenset({"other"}))
    assert gazetteer == tampered
    assert hash(gazetteer) == hash(tampered)
    assert repr(gazetteer) == repr(tampered)
    assert "first_words" not in repr(gazetteer)
    assert gazetteer != Gazetteer.from_entries(LOCATION, ["lake"])


def test_gazetteer_replace_and_pickle_rebuild_first_words():
    gazetteer = Gazetteer.from_entries(LOCATION, ["lake district"])
    moved = dataclasses.replace(gazetteer, entries=frozenset({"north america"}))
    assert moved.first_words == {"north"}
    assert gazetteer_match(moved, ["in", "North", "America"])
    with pytest.raises(TypeError):  # no field, so no keyword of ``replace``
        dataclasses.replace(gazetteer, first_words=frozenset())
    loaded = pickle.loads(pickle.dumps(gazetteer))
    assert loaded == gazetteer
    assert loaded.first_words == {"lake"}
    assert gazetteer_match(loaded, ["the", "Lake", "District"])
    for other in (copy.copy(gazetteer), copy.deepcopy(gazetteer)):
        assert other == gazetteer and other.first_words == {"lake"}
    assert [f.name for f in dataclasses.fields(Gazetteer)] == ["kind", "entries", "max_words"]


# --- bulk loading -----------------------------------------------------------------

# Words in mixed case (some change length when lowercased), comment marks,
# stray underscores, Unicode whitespace and every line break splitlines knows.
_TEXT_PIECES = [
    "coach", "Sea", "LION", "İstanbul", "Straße", "ΣΑ", "#", "# note", "_", "__",
    "a_b", " ", "  ", "\t", "\u00a0", "\u2003", "\u3000", "\x0b", "\x0c",
    "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\n", "\n", "\r\n", "\r",
]


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=40).map("".join))
def test_lines_equal_the_line_loop_at_every_chunk_size(text):
    # Small chunks put a cut after nearly every "\n", including the "\n" of
    # a "\r\n" and the last character of the text.
    for chunk in (1, 2, 3, lexicon._CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lexicon, "_CHUNK", chunk)
            assert list(_lines(text)) == list(oracle_lines(text))


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
def test_loaders_keep_a_unicode_line_separator_inside_its_line(separator):
    assert load_wordlist(f"good{separator}more\n").entries == {"good_more"}
    assert load_gazetteer(f"Lake{separator}District\n", LOCATION).entries == {"lake district"}
    index = f"  header{separator}x\nsea_lion n 1{separator}n 1\n"
    assert load_wndb_index(index, NOUN).entries == {"sea_lion"}


def test_wordlist_error_counts_lines_by_the_corpus_rule():
    with pytest.raises(LexiconFormatError, match="^line 2: ") as info:
        load_wordlist("good\x85more\n_bad\n")
    assert info.value.line_no == 2


def _oracle_load(text: str, joiner: str) -> tuple:
    """What ``_wordlist_entries`` must give for ``text``: the entry set and
    the most words in one entry, or a format error's message and line."""
    try:
        expected = oracle_wordlist_entries(text, joiner)
    except LexiconFormatError as exc:
        return (str(exc), exc.line_no)
    return (frozenset(expected), max((e.count(joiner) + 1 for e in expected), default=0))


def _fields(loaded: Lexicon | Gazetteer) -> tuple:
    return (loaded.entries, loaded.max_words)


def _outcome(load, text) -> tuple:
    """``load(text)``, or its format error's message and line."""
    try:
        return load(text)
    except LexiconFormatError as exc:
        return (str(exc), exc.line_no)


def _piece_outcomes(text: str, load) -> list[tuple]:
    """``_outcome`` of ``load`` over ``text`` whole, cut after every line
    break, and read by ``corpus._decoded_blocks`` from a file of its UTF-8
    bytes at a few block sizes."""
    outcomes = [_outcome(load, text), _outcome(load, re.split(r"(?<=\n)|(?<=\r)(?!\n)", text))]
    for block in (1, 2, 5):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "_BLOCK", block)
            blocks = _decoded_blocks(io.BytesIO(text.encode("utf-8")), "words.txt")
            outcomes.append(_outcome(load, blocks))
    return outcomes


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=40).map("".join))
def test_wordlist_loaders_equal_the_line_loop(text):
    # Every way of cutting the text at its line breaks loads the same, and
    # a format error names the same line.
    for joiner, load in (("_", load_wordlist), (" ", lambda t: load_gazetteer(t, LOCATION))):
        expected = _oracle_load(text, joiner)
        assert _piece_outcomes(text, lambda t: _wordlist_entries(t, joiner)) == [expected] * 5
        assert _piece_outcomes(text, lambda t: _fields(load(t))) == [expected] * 5


# Pieces whose lowercasing reaches past one character: a final capital
# sigma, which the bulk loaders lowercase with its neighbours, and İ, which
# lowercases to two characters.
_CASED_PIECES = _TEXT_PIECES + ["ΟΔΟΣ", "Σ", "ΑΣ_Α", "Σ#", "İ", "_İ", "i\u0307"]


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(_CASED_PIECES), max_size=40).map("".join))
def test_lowering_a_chunk_loads_as_the_line_loop(text):
    # Small chunks put a chunk boundary after nearly every "\n".
    for chunk in (3, lexicon._CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lexicon, "_CHUNK", chunk)
            for joiner in ("_", " "):
                expected = _oracle_load(text, joiner)
                assert _outcome(lambda t: _wordlist_entries(t, joiner), text) == expected


def test_lowering_a_chunk_equals_lowering_each_entry():
    # The facts the bulk loaders rely on, checked against this Python's
    # Unicode tables. A whitespace character or "_" between a capital sigma
    # and a letter stops the final-sigma rule's look-behind and look-ahead,
    # so it is neither cased nor case-ignorable.
    characters = list(map(chr, range(sys.maxunicode + 1)))
    spaces = [c for c in characters if c.isspace()]
    for c in spaces + ["_"]:
        assert ("Α" + c + "Σ").lower().endswith("σ"), ascii(c)
        assert ("ΑΣ" + c + "Α").lower().startswith("ας"), ascii(c)
    # Whitespace, "#" and "_" lowercase to themselves.
    for c in spaces + ["#", "_"]:
        assert c.lower() == c, ascii(c)
    # No character lowercases into whitespace, "#" or "_".
    for c in characters:
        lowered = c.lower()
        if lowered != c:
            assert not any(ch.isspace() or ch in "#_" for ch in lowered), ascii(c)
