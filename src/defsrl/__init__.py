"""Entity-centered semantic role labeling for dictionary definitions.

Given a constituency parse of a definition gloss, the labeler segments it
into twelve roles built around the supertype-differentia structure of
dictionary definitions (supertype, differentia quality/event, event
time/location, origin location, quality modifier, purpose, associated fact,
accessory determiner/quality, particle), renders role-sequence patterns,
and scores predictions against gold annotations.
"""

__version__ = "0.1.0"

# Each exported name and the submodule that defines it. ``import defsrl``
# imports no submodule: ``__getattr__`` imports one the first time one of its
# names is read, and keeps the name here in the package.
_EXPORTS = {
    "AlignmentError": "corpus",
    "CorpusError": "corpus",
    "DefinitionRecord": "corpus",
    "Diagnostic": "corpus",
    "DistributionReport": "corpus",
    "EvalReport": "corpus",
    "RoleMetrics": "corpus",
    "distribution": "corpus",
    "evaluate": "corpus",
    "format_eval_report": "corpus",
    "read_corpus": "corpus",
    "record_line": "corpus",
    "write_corpus": "corpus",
    "BUNDLED_CORPUS": "defaults",
    "default_config": "defaults",
    "default_location_gazetteer": "defaults",
    "default_noun_lexicon": "defaults",
    "default_time_gazetteer": "defaults",
    "default_verb_lexicon": "defaults",
    "packaged_data_text": "defaults",
    "EmptyDefinitionError": "labeler",
    "LabelOutcome": "labeler",
    "LabelerConfig": "labeler",
    "TraceEntry": "labeler",
    "label": "labeler",
    "preprocess_gloss": "labeler",
    "Gazetteer": "lexicon",
    "Lexicon": "lexicon",
    "LexiconFormatError": "lexicon",
    "gazetteer_match": "lexicon",
    "load_gazetteer": "lexicon",
    "load_wndb_index": "lexicon",
    "load_wordlist": "lexicon",
    "longest_rightmost_entry": "lexicon",
    "Pattern": "patterns",
    "PatternElement": "patterns",
    "PatternParseError": "patterns",
    "Repetition": "patterns",
    "parse_pattern": "patterns",
    "pattern_of": "patterns",
    "render": "patterns",
    "Annotation": "rolemodel",
    "GoldParseError": "rolemodel",
    "Role": "rolemodel",
    "RoleSpan": "rolemodel",
    "Violation": "rolemodel",
    "parse_gold": "rolemodel",
    "serialize_gold": "rolemodel",
    "validate": "rolemodel",
    "SynTree": "syntree",
    "TreeParseError": "syntree",
    "innermost_leftmost_np": "syntree",
    "parse_bracketed": "syntree",
    "serialize": "syntree",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    from importlib import import_module

    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
