"""Entity-centered semantic role labeling for dictionary definitions.

Given a constituency parse of a definition gloss, the labeler segments it
into twelve roles built around the supertype-differentia structure of
dictionary definitions (supertype, differentia quality/event, event
time/location, origin location, quality modifier, purpose, associated fact,
accessory determiner/quality, particle), renders role-sequence patterns,
and scores predictions against gold annotations.
"""

from .corpus import (
    AlignmentError,
    CorpusError,
    DefinitionRecord,
    Diagnostic,
    DistributionReport,
    EvalReport,
    RoleMetrics,
    distribution,
    evaluate,
    format_eval_report,
    read_corpus,
    record_line,
    write_corpus,
)
from .defaults import (
    BUNDLED_CORPUS,
    default_config,
    default_location_gazetteer,
    default_noun_lexicon,
    default_time_gazetteer,
    default_verb_lexicon,
    packaged_data_text,
)
from .labeler import (
    EmptyDefinitionError,
    LabelOutcome,
    LabelerConfig,
    TraceEntry,
    label,
    preprocess_gloss,
)
from .lexicon import (
    Gazetteer,
    Lexicon,
    LexiconFormatError,
    gazetteer_match,
    load_gazetteer,
    load_wndb_index,
    load_wordlist,
    longest_rightmost_entry,
)
from .patterns import (
    Pattern,
    PatternElement,
    PatternParseError,
    Repetition,
    parse_pattern,
    pattern_of,
    render,
)
from .rolemodel import (
    Annotation,
    GoldParseError,
    Role,
    RoleSpan,
    Violation,
    parse_gold,
    serialize_gold,
    validate,
)
from .syntree import (
    SynTree,
    TreeParseError,
    innermost_leftmost_np,
    parse_bracketed,
    serialize,
)

__version__ = "0.1.0"
