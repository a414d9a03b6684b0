"""Packaged knowledge files and a ready-to-use labeler configuration."""

from __future__ import annotations

from importlib import resources

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
    return (resources.files("defsrl") / "data" / name).read_text(encoding="utf-8")


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
