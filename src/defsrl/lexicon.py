"""Lexical entry sets and location/time gazetteers backing the labeling rules.

A Lexicon answers "is this token sequence a dictionary entry?" with a
plural-to-singular fallback for nouns; a Gazetteer answers "does this token
sequence mention a known location / time expression?" with a few built-in
closed-class time patterns (years, Nth century, month names).
"""

from __future__ import annotations

import copyreg
import re
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .syntree import _seal

__all__ = [
    "NOUN",
    "VERB",
    "LOCATION",
    "TIME",
    "Lexicon",
    "Gazetteer",
    "LexiconFormatError",
    "load_wordlist",
    "load_wndb_index",
    "load_gazetteer",
    "longest_rightmost_entry",
    "gazetteer_match",
]

NOUN = "noun"
VERB = "verb"
LOCATION = "location"
TIME = "time"

_YEAR = re.compile(r"^\d{4}$")
_ORDINAL = re.compile(r"^\d+(st|nd|rd|th)$")
MONTHS = frozenset(
    [
        "january",
        "february",
        "march",
        "april",
        "may",
        "june",
        "july",
        "august",
        "september",
        "october",
        "november",
        "december",
    ]
)

# Suffix detachments for noun lookups, applied longest-first to the final word.
_NOUN_DETACHMENTS = (
    ("ches", "ch"),
    ("shes", "sh"),
    ("ses", "s"),
    ("xes", "x"),
    ("zes", "z"),
    ("ies", "y"),
    ("men", "man"),
    ("s", ""),
)

# ``_chunks`` cuts text into pieces of at least this many characters.
_CHUNK = 1 << 16


class LexiconFormatError(ValueError):
    """A source line violated the entry format. ``line_no`` is 1-based."""

    def __init__(self, message: str, line_no: int) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no

    def __reduce__(self) -> tuple:
        # As ``TreeParseError.__reduce__``: ``args`` holds only the formatted
        # message, so rebuild through ``__new__`` and restore ``line_no``.
        return copyreg.__newobj__, (self.__class__, *self.args), self.__dict__


def _chunks(text: str) -> Iterator[str]:
    """``text`` in chunks of at least ``_CHUNK`` characters, each cut at a
    "\\n" and with its "\\r\\n" and "\\r" breaks made "\\n": the lines of
    ``text`` are those of ``chunk.split("\\n")`` over the chunks in order."""
    start, size = 0, len(text)
    while start < size:
        # Searching from the last character at the latest finds a final "\n".
        end = text.find("\n", min(start + _CHUNK, size) - 1)
        if end < 0:
            end = size
        # A "\r" that ends the chunk is half of a "\r\n" or the last break.
        chunk = text[start:end].removesuffix("\r")
        start = end + 1
        if "\r" in chunk:
            chunk = chunk.replace("\r\n", "\n").replace("\r", "\n")
        yield chunk


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, one at a time, as every file defsrl reads
    breaks them: only at "\\n", "\\r\\n" and "\\r", with no empty line
    after a final break; U+0085, U+2028 and U+2029 stay inside their line.
    Each of ``_chunks(text)`` is split at C speed, so no list of all the
    lines is held."""
    for chunk in _chunks(text):
        yield from chunk.split("\n")


def _normalize_entry(text: str, joiner: str) -> str:
    entry = joiner.join(text.split()).lower()
    if not entry:
        raise ValueError("empty entry")
    # WNDB lemmas arrive pre-joined; validate rather than re-join.
    if joiner == "_" and (entry.startswith("_") or entry.endswith("_") or "__" in entry):
        raise ValueError(f"bad underscore placement in {entry!r}")
    return entry


def _check_choice(name: str, value: str, choices: tuple[str, str]) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be {choices[0]!r} or {choices[1]!r}, got {value!r}")


def _max_words(entries: Iterable[str], joiner: str) -> int:
    """The most words in one of ``entries``, joined by ``joiner``; 0 for none."""
    return max(map(str.count, entries, repeat(joiner)), default=-1) + 1


def _noun_variants(word: str) -> list[str]:
    variants = [word]
    for suffix, replacement in _NOUN_DETACHMENTS:
        if word.endswith(suffix):
            variant = word[: -len(suffix)] + replacement
            if variant and variant != word and variant not in variants:
                variants.append(variant)
    return variants


@_seal
class Lexicon:
    """An immutable set of lowercase, underscore-joined lemma entries."""

    pos: str
    entries: frozenset[str]
    max_words: int

    def __post_init__(self) -> None:
        _check_choice("pos", self.pos, (NOUN, VERB))

    @classmethod
    def from_entries(cls, pos: str, entries: Iterable[str]) -> "Lexicon":
        # Checked first, so a bad ``pos`` is reported before a bad entry.
        _check_choice("pos", pos, (NOUN, VERB))
        return cls._from_normalized(pos, [_normalize_entry(e, "_") for e in entries])

    @classmethod
    def _from_normalized(cls, pos: str, entries: list[str]) -> "Lexicon":
        # Words are counted over the list, in the order the entries were
        # made: that reads memory faster than the set's hash order.
        return cls(pos, frozenset(entries), _max_words(entries, "_"))

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, phrase: str) -> bool:
        return self.lookup_tokens(phrase.replace("_", " ").split()) is not None

    def lookup_tokens(self, tokens: Sequence[str]) -> str | None:
        """The entry matching ``tokens``, or None.

        Matching is case-insensitive; for noun lexicons a missing exact form
        falls back to singular variants of the last word.
        """
        if not tokens:
            return None
        lowered = [t.lower() for t in tokens]
        joined = "_".join(lowered)
        if joined in self.entries:
            return joined
        if self.pos == NOUN:
            prefix = lowered[:-1]
            for variant in _noun_variants(lowered[-1])[1:]:
                candidate = "_".join(prefix + [variant])
                if candidate in self.entries:
                    return candidate
        return None


# ``_wordlist_entries`` lowercases a whole chunk at once, which equals
# lowercasing each entry on its own: the one context rule of ``str.lower``
# (a final capital sigma) looks past case-ignorable characters only, and no
# whitespace character or "_" is cased or case-ignorable, so the breaks
# between lines and words stop it as an entry's ends do. Whitespace, "#" and
# "_" lowercase to themselves and no other character lowercases into them,
# so the words, comments and underscores of a lowered chunk are those of the
# chunk. tests/test_lexicon.py checks these facts over every code point.

# The bytes that ``_wordlist_entries`` drops from a chunk's UTF-8 entries to
# leave only the joiners and the "\n"s between entries; no byte of a UTF-8
# character outside ASCII is one of those.
_DROPPED = {
    joiner: bytes(b for b in range(256) if b not in (ord("\n"), ord(joiner)))
    for joiner in ("_", " ")
}


def _wordlist_entries(text: str | Iterable[str], joiner: str) -> tuple[frozenset[str], int]:
    """The set of normalized entries of line-oriented text, one per line,
    and the most words in one entry (0 for none); blank lines and #
    comments are skipped.

    ``text`` is the text, or an iterable of pieces of it that each end at a
    line break, as ``corpus._decoded_blocks`` yields a file's text. Each
    piece is read a chunk at a time and each chunk's entries go straight
    into the set, so besides the set only one chunk and its entries are
    held. A LexiconFormatError counts lines across the pieces.
    """
    most = 0

    def chunk_entries() -> Iterator[list[str]]:
        nonlocal most
        lines_before = 0
        for piece in (text,) if isinstance(text, str) else text:
            for chunk in _chunks(piece):
                lowered = chunk.lower()
                # A blank line joins to "", and only a comment's entry starts with "#".
                kept = list(filter(None, map(joiner.join, map(str.split, lowered.split("\n")))))
                if "#" in lowered:
                    kept = [entry for entry in kept if entry[0] != "#"]
                if kept:
                    # No entry holds a newline, so a misplaced underscore in
                    # any entry shows in the entries framed and joined by
                    # newlines.
                    framed = "\n" + "\n".join(kept) + "\n"
                    if joiner == "_" and ("__" in framed or "\n_" in framed or "_\n" in framed):
                        _raise_underscore_error(chunk, lines_before)
                    # An entry of n words leaves a run of n - 1 joiners once
                    # all but the joiners and newlines are dropped, so the
                    # chunk has an entry of more than ``most`` words exactly
                    # when a run of ``most`` joiners (for 0, b"") is left.
                    runs = framed.encode("utf-8", "surrogatepass").translate(None, _DROPPED[joiner])
                    while joiner.encode() * most in runs:
                        most += 1
                lines_before += chunk.count("\n") + 1
                yield kept

    return frozenset(chain.from_iterable(chunk_entries())), most


def _raise_underscore_error(chunk: str, lines_before: int) -> None:
    """Raise the LexiconFormatError of the first line of ``chunk``, one of
    ``_chunks``' pieces that follows ``lines_before`` lines, whose
    underscore-joined entry is malformed."""
    for line_no, line in enumerate(chunk.split("\n"), start=lines_before + 1):
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        try:
            _normalize_entry(line, "_")
        except ValueError as exc:
            raise LexiconFormatError(str(exc), line_no) from exc


def load_wordlist(text: str | Iterable[str], pos: str = NOUN) -> Lexicon:
    """Build a Lexicon from line-oriented text (blank lines and # comments
    skipped): a ``str``, or pieces of it that each end at a line break."""
    return Lexicon(pos, *_wordlist_entries(text, "_"))


def load_wndb_index(text: str, pos: str) -> Lexicon:
    """Build a Lexicon from a WNDB-style index file.

    Header lines begin with two spaces; each data line is whitespace
    separated with the (already underscore-joined) lemma as first field.
    """
    entries = []
    for line_no, line in enumerate(_lines(text), start=1):
        if line.startswith("  "):
            continue
        fields = line.split()
        if not fields:
            raise LexiconFormatError("blank data line", line_no)
        try:
            entries.append(_normalize_entry(fields[0], "_"))
        except ValueError as exc:
            raise LexiconFormatError(str(exc), line_no) from exc
    return Lexicon._from_normalized(pos, entries)


class _FirstWords:
    """The slot of ``Gazetteer.first_words``, on a base class so it is no field."""

    __slots__ = ("first_words",)


@_seal
class Gazetteer(_FirstWords):
    """Normalized surface phrases naming locations or time expressions.

    ``first_words`` is derived from ``entries``: the text of each entry up
    to its first space, the index ``gazetteer_match`` prunes windows by.
    It is built on construction and on unpickling and is no field, so
    equality, hashing, ``repr``, ``pickle`` and ``dataclasses.replace``
    leave it out.
    """

    kind: str
    entries: frozenset[str]
    max_words: int

    def __post_init__(self) -> None:
        _check_choice("kind", self.kind, (LOCATION, TIME))
        object.__setattr__(
            self,
            "first_words",
            frozenset(map(itemgetter(0), map(str.partition, self.entries, repeat(" ")))),
        )

    @classmethod
    def from_entries(cls, kind: str, entries: Iterable[str]) -> "Gazetteer":
        # Checked first, as in ``Lexicon.from_entries``.
        _check_choice("kind", kind, (LOCATION, TIME))
        entries = [_normalize_entry(e, " ") for e in entries]
        return cls(kind, frozenset(entries), _max_words(entries, " "))

    def __len__(self) -> int:
        return len(self.entries)


def load_gazetteer(text: str | Iterable[str], kind: str) -> Gazetteer:
    """Build a Gazetteer from line-oriented text, read as ``load_wordlist``
    reads it: a ``str``, or pieces of it that each end at a line break."""
    return Gazetteer(kind, *_wordlist_entries(text, " "))


def longest_rightmost_entry(
    lexicon: Lexicon, tokens: Sequence[str]
) -> tuple[int, str] | None:
    """The longest suffix of ``tokens`` present in the lexicon.

    Returns (start offset of the suffix, matched entry); offset 0 means the
    whole sequence matched. None when no suffix is an entry.
    """
    if not tokens:
        raise ValueError("tokens must be non-empty")
    n = len(tokens)
    first = 0 if lexicon.max_words <= 0 else max(0, n - lexicon.max_words)
    # ``lexicon.lookup_tokens(tokens[i:])`` for each suffix in turn, with the
    # tokens lowered once, and the last word's noun variants found once, at
    # the first miss.
    lowered = [t.lower() for t in tokens[first:]]
    entries = lexicon.entries
    variants = None if lexicon.pos == NOUN else ()
    for i in range(first, n):
        suffix = lowered[i - first :]
        joined = "_".join(suffix)
        if joined in entries:
            return (i, joined)
        if variants is None:
            variants = _noun_variants(lowered[-1])[1:]
        for variant in variants:
            candidate = "_".join(suffix[:-1] + [variant])
            if candidate in entries:
                return (i, candidate)
    return None


def gazetteer_match(gazetteer: Gazetteer, tokens: Sequence[str]) -> bool:
    """True when the tokens mention a gazetteer entry.

    Checks every contiguous subsequence of up to ``max_words`` tokens,
    case-insensitively, against the entry set; time gazetteers additionally
    apply the built-in year / Nth-century / month patterns. A window is
    tried only from a token that is the first word of some entry, or that
    holds a space itself (its joined window then starts mid-token).

    The match is monotone, for any gazetteer: when it holds for a
    contiguous part ``tokens[i:j]``, it holds for ``tokens``. Every window
    of a part is a window of the whole, the first-word and space tests
    read one token at a time, and the patterns read one token or one
    adjacent pair. The labeler relies on this to skip the PPs nested in a
    PP that missed.
    """
    return _gazetteer_match_lowered(gazetteer, [t.lower() for t in tokens])


def _gazetteer_match_lowered(gazetteer: Gazetteer, lowered: Sequence[str]) -> bool:
    """``gazetteer_match`` over tokens that are lowercased already."""
    if not lowered:
        raise ValueError("tokens must be non-empty")
    n = len(lowered)
    if gazetteer.max_words > 0:
        first_words = gazetteer.first_words
        for i in range(n):
            if lowered[i] not in first_words and " " not in lowered[i]:
                continue
            limit = min(n, i + gazetteer.max_words)
            for j in range(i + 1, limit + 1):
                if " ".join(lowered[i:j]) in gazetteer.entries:
                    return True
    if gazetteer.kind == TIME:
        for i, word in enumerate(lowered):
            if _YEAR.match(word):
                return True
            if _ORDINAL.match(word) and i + 1 < n and lowered[i + 1] == "century":
                return True
            if word in MONTHS:
                return True
    return False
