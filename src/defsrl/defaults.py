"""Packaged knowledge files and a ready-to-use labeler configuration."""

from __future__ import annotations

from pkgutil import get_data

from .labeler import LabelerConfig
from .lexicon import (
    Gazetteer,
    Lexicon,
    LOCATION,
    NOUN,
    TIME,
    VERB,
    load_gazetteer,
    load_wordlist,
)

__all__ = [
    "packaged_data_text",
    "default_noun_lexicon",
    "default_verb_lexicon",
    "default_location_gazetteer",
    "default_time_gazetteer",
    "default_config",
    "BUNDLED_CORPUS",
]

BUNDLED_CORPUS = "definitions_gold.jsonl"


def packaged_data_text(name: str) -> str:
    # Read through the package's loader, as ``importlib.resources`` reads
    # it, but without importing that, which imports ``inspect`` on Python
    # 3.12 and later. The packaged files break lines with "\n" only, so
    # their text needs no newline translation.
    return get_data("defsrl", f"data/{name}").decode("utf-8")


def default_noun_lexicon() -> Lexicon:
    return load_wordlist(packaged_data_text("nouns.txt"), NOUN)


def default_verb_lexicon() -> Lexicon:
    return load_wordlist(packaged_data_text("verbs.txt"), VERB)


def default_location_gazetteer() -> Gazetteer:
    return load_gazetteer(packaged_data_text("locations.txt"), LOCATION)


def default_time_gazetteer() -> Gazetteer:
    return load_gazetteer(packaged_data_text("times.txt"), TIME)


def default_config() -> LabelerConfig:
    return LabelerConfig(
        noun_lexicon=default_noun_lexicon(),
        verb_lexicon=default_verb_lexicon(),
        location_gazetteer=default_location_gazetteer(),
        time_gazetteer=default_time_gazetteer(),
    )
