from __future__ import annotations

import copy
import copyreg
import dataclasses
import json
import pickle
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    WORDS,
    oracle_event_subroles,
    oracle_instance_origin,
    oracle_uncovered,
    random_tree,
)
from defsrl.cli import main
from defsrl.corpus import (
    DefinitionRecord,
    Diagnostic,
    DistributionReport,
    EvalReport,
    RoleMetrics,
    read_corpus,
    write_corpus,
)
from defsrl.defaults import BUNDLED_CORPUS, default_config, packaged_data_text
from defsrl.labeler import (
    DIVERGENCE_ACCESSORY_QUALITY,
    DIVERGENCE_PURPOSE_EVENT,
    FALLBACK_RULE,
    TRACE_RULES,
    EmptyDefinitionError,
    LabelerConfig,
    LabelOutcome,
    TraceEntry,
    _Engine,
    label,
    preprocess_gloss,
)
from defsrl.lexicon import LOCATION, NOUN, TIME, VERB, Gazetteer, Lexicon, gazetteer_match
from defsrl.patterns import Pattern, PatternElement, Repetition
from defsrl.rolemodel import (
    Annotation,
    ERROR,
    Role,
    RoleSpan,
    Violation,
    parse_gold,
    serialize_gold,
    validate,
)
from defsrl.syntree import SynTree, _recorded_leaves, parse_bracketed, serialize
from record_pickles import EARLIER_PICKLES

from dataclasses import replace


@pytest.fixture(scope="module")
def config():
    return default_config()


def spans_by_role(annotation, role):
    return [(s.start, s.end) for s in annotation.spans if s.role is role]


# --- preprocessing ---------------------------------------------------------------


def test_preprocess_untouched():
    assert preprocess_gloss("a coach of baseball players") == "a coach of baseball players"


def test_preprocess_drops_example_sentence():
    gloss = 'run or move very quickly or hastily; "dart to the window"'
    assert preprocess_gloss(gloss) == "run or move very quickly or hastily"


def test_preprocess_strips_parentheses():
    gloss = "clothing (such as boots) worn on a person's feet"
    assert preprocess_gloss(gloss) == "clothing worn on a person's feet"


def test_preprocess_handles_nesting():
    assert preprocess_gloss("a stone ((very) shiny) ring") == "a stone ring"


def test_preprocess_keeps_first_surviving_segment():
    assert preprocess_gloss('"all gone"; first part; second part') == "first part"


def test_preprocess_empty_is_signaled():
    with pytest.raises(EmptyDefinitionError):
        preprocess_gloss('("quoted example only")')
    with pytest.raises(EmptyDefinitionError):
        preprocess_gloss("   ")


# --- noun supertype ---------------------------------------------------------------


def assert_labels(config, text, pos, gold, trace):
    """``label()`` of the tree ``text`` gives the inline ``gold`` and the rule
    ``trace`` as (rule, start, end); returns the outcome."""
    outcome = label(parse_bracketed(text), pos, config)
    assert serialize_gold(outcome.annotation) == gold
    assert [(t.rule, t.start, t.end) for t in outcome.rule_trace] == trace
    return outcome


def test_supertype_noun_whole_np(config):
    assert_labels(
        config,
        "(NP (NP (DT a) (NN coach)) (PP (IN of) (NP (NN baseball) (NNS players))))",
        "noun",
        "a {supertype|coach} {differentia_quality|of baseball players}",
        [("supertype", 1, 2), ("leading-dt", 0, 1), ("differentia-quality", 2, 5)],
    )


def test_supertype_noun_suffix_with_leftover(config):
    assert_labels(
        config,
        "(NP (NP (JJ large) (JJ plover-like) (NN sandpiper)) (PP (IN of) (NP (NNS fields))))",
        "noun",
        "{differentia_quality|large plover-like} {supertype|sandpiper}"
        " {differentia_quality|of fields}",
        [("supertype", 2, 3), ("pre-supertype-quality", 0, 2), ("differentia-quality", 3, 5)],
    )


def test_supertype_noun_absent_when_lexicon_misses(config):
    outcome = assert_labels(
        config,
        "(ADVP (NP (QP (IN from) (CD 63) (CD million) (TO to) (CD 2) (CD million))"
        " (NNS years)) (RB ago))",
        "noun",
        "from 63 million to 2 million years ago",
        [("ill-formed", 0, 8)],
    )
    assert outcome.annotation.ill_formed


def test_supertype_noun_absent_without_np(config):
    outcome = assert_labels(config, "(VP (VB run))", "noun", "run", [("ill-formed", 0, 1)])
    assert outcome.annotation.ill_formed


def test_supertype_noun_conjunction_splits(config):
    assert_labels(
        config, "(NP (DT a) (NN coach) (CC or) (NN driver))", "noun",
        "a {supertype|coach} or {supertype|driver}",
        [("supertype", 1, 2), ("supertype", 3, 4), ("leading-dt", 0, 1), ("uncovered", 2, 3)],
    )


# --- verb supertype ---------------------------------------------------------------


def test_supertype_verb_conjoined(config):
    assert_labels(
        config,
        "(VP (VB run) (CC or) (VB move) (ADVP (RB very) (RB quickly) (CC or) (RB hastily)))",
        "verb",
        "{supertype|run} or {supertype|move} {quality_modifier@3|very}"
        " {differentia_quality|quickly} or {differentia_quality|hastily}",
        [("supertype", 0, 1), ("supertype", 2, 3), ("quality-modifier", 3, 4),
         ("differentia-quality", 4, 5), ("differentia-quality", 6, 7), ("uncovered", 1, 2),
         ("uncovered", 5, 6)],
    )


def test_supertype_verb_leftmost_only(config):
    assert_labels(
        config, "(VP (VB take) (NP (DT the) (NNS staples)) (PRT (RP off)))", "verb",
        "{supertype|take} {differentia_quality|the staples} {particle@0|off}",
        [("supertype", 0, 1), ("differentia-quality", 1, 3), ("particle", 3, 4)],
    )


def test_supertype_verb_absent(config):
    # No VB leaf: the noun rules are tried, and "dog" is no lexicon entry.
    outcome = assert_labels(
        config, "(NP (NN dog))", "verb", "dog", [("fallback", 0, 0), ("ill-formed", 0, 1)]
    )
    assert outcome.annotation.ill_formed


def test_supertype_verb_ignores_unconjoined_vb(config):
    assert_labels(
        config, "(VP (VB run) (S (VP (TO to) (VP (VB win) (NP (DT the) (NN race))))))", "verb",
        "{supertype|run} {purpose|to win the race}",
        [("supertype", 0, 1), ("purpose", 1, 5)],
    )


# --- accessory determiner ----------------------------------------------------------


CAMAS = (
    "(NP (NP (DT any)) (PP (IN of) (NP (NP (JJ several) (NNS plants))"
    " (PP (IN of) (NP (DT the) (NN genus) (NNP Camassia))))))"
)


def test_accessory_determiner_noun_free_prefix(config):
    assert_labels(
        config, CAMAS, "noun",
        "{accessory_determiner|any of several} {supertype|plants}"
        " {differentia_quality|of the genus Camassia}",
        [("supertype", 3, 4), ("accessory-determiner", 0, 3), ("differentia-quality", 4, 8)],
    )


def test_accessory_determiner_bare_article_is_not_one(config):
    assert_labels(
        config, "(NP (NP (DT a) (NN coach)) (PP (IN of) (NP (NNS players))))", "noun",
        "a {supertype|coach} {differentia_quality|of players}",
        [("supertype", 1, 2), ("leading-dt", 0, 1), ("differentia-quality", 2, 4)],
    )


def test_accessory_determiner_phrase_list_reassigns_supertype(config):
    tree = parse_bracketed("(NP (NP (DT a) (NN type)) (PP (IN of) (NP (NN dance))))")
    outcome = label(tree, "noun", config)
    annotation = outcome.annotation
    assert spans_by_role(annotation, Role.ACCESSORY_DETERMINER) == [(0, 3)]
    assert spans_by_role(annotation, Role.SUPERTYPE) == [(3, 4)]


def test_article_only_and_empty_determiner_phrases_change_no_label(config):
    # Without its article such a phrase has no words, so it would end at or
    # before the supertype's start, where no determiner phrase may end.
    odd = replace(
        config, accessory_determiner_phrases=("the", "") + config.accessory_determiner_phrases
    )
    records, diagnostics = read_corpus(packaged_data_text(BUNDLED_CORPUS))
    assert diagnostics == []
    for record in records:
        tree = parse_bracketed(record.tree)
        for instance_mode in (False, True):
            with_phrases, without = (
                replace(cfg, instance_mode=instance_mode) for cfg in (odd, config)
            )
            assert label(tree, record.pos, with_phrases, record.id) == label(
                tree, record.pos, without, record.id
            )


def test_pre_supertype_leftover_is_not_a_determiner(config):
    # The leftover inside the anchor NP stays a differentia quality even
    # though it contains no noun.
    tree = parse_bracketed(
        "(NP (NP (JJ large) (JJ plover-like) (NN sandpiper)) (PP (IN of) (NP (NNS fields))))"
    )
    outcome = label(tree, "noun", config)
    assert spans_by_role(outcome.annotation, Role.ACCESSORY_DETERMINER) == []
    assert spans_by_role(outcome.annotation, Role.DIFFERENTIA_QUALITY) != []


# --- post-supertype classification ---------------------------------------------------


def test_classify_sbar_is_event(config):
    assert_labels(
        config,
        "(NP (NP (DT a) (NN driver)) (SBAR (WHNP (WP who)) (S (VP (VBZ obstructs) (NP (NNS others))))))",
        "noun",
        "a {supertype|driver} {differentia_event|who obstructs others}",
        [("supertype", 1, 2), ("leading-dt", 0, 1), ("differentia-event", 2, 5)],
    )


def test_classify_particle_without_a_supertype_yields_no_spans(config):
    # No NP anchors a noun supertype, so the PRT is never classified.
    outcome = assert_labels(
        config, "(VP (VB set) (PRT (RP up)))", "noun", "set up", [("ill-formed", 0, 2)]
    )
    assert outcome.annotation.ill_formed


def test_classify_of_pp_is_quality(config):
    assert_labels(
        config, "(NP (NP (DT a) (NN coach)) (PP (IN of) (NP (NNS players))))", "noun",
        "a {supertype|coach} {differentia_quality|of players}",
        [("supertype", 1, 2), ("leading-dt", 0, 1), ("differentia-quality", 2, 4)],
    )


def test_classify_to_vp_is_purpose(config):
    assert_labels(
        config,
        "(NP (NP (NN repetition)) (PP (IN of) (NP (NNS messages)))"
        " (S (VP (TO to) (VP (VB reduce) (NP (NNS errors))))))",
        "noun",
        "{supertype|repetition} {differentia_quality|of messages} {purpose|to reduce errors}",
        [("supertype", 0, 1), ("differentia-quality", 1, 3), ("purpose", 3, 6)],
    )


def test_classify_for_pp_with_vp_is_purpose_with_divergence_note(config):
    tree = parse_bracketed(
        "(NP (NP (DT a) (NN faucet)) (PP (IN for) (S (VP (VBG drawing) (NP (NN water))))))"
    )
    outcome = label(tree, "noun", config)
    assert spans_by_role(outcome.annotation, Role.PURPOSE) == [(2, 5)]
    assert any(DIVERGENCE_PURPOSE_EVENT in t.reason for t in outcome.rule_trace)


def test_classify_event_time_carved_with_parent(config):
    tree = parse_bracketed(
        "(NP (NP (DT a) (NN person)) (SBAR (WHNP (WP who)) (S (VP (VBZ acts)"
        " (PP (IN as) (NP (NN host))) (PP (IN at) (NP (JJ formal) (NNS occasions)))))))"
    )
    outcome = label(tree, "noun", config)
    annotation = outcome.annotation
    assert spans_by_role(annotation, Role.DIFFERENTIA_EVENT) == [(2, 6)]
    assert spans_by_role(annotation, Role.EVENT_TIME) == [(6, 9)]
    time_span = annotation.spans_of(Role.EVENT_TIME)[0]
    assert annotation.spans[time_span.parent].role is Role.DIFFERENTIA_EVENT


def test_classify_associated_fact_needs_cue_and_differentia(config):
    tree = parse_bracketed(
        "(NP (NP (JJ Yugoslav) (NN geophysicist)) (SBAR (WHPP (IN for) (WHNP (WP whom)))"
        " (S (NP (DT the) (NNP Mohorovicic) (NN discontinuity)) (VP (VBD was) (VP (VBN named))))))"
    )
    outcome = label(tree, "noun", config)
    assert spans_by_role(outcome.annotation, Role.ASSOCIATED_FACT) == [(2, 9)]

    # Same SBAR opener without any differentia present stays an event.
    bare = parse_bracketed(
        "(NP (NP (NN coach)) (SBAR (WHPP (IN for) (WHNP (WP whom))) (S (NP (NNS players))"
        " (VP (VBD trained)))))"
    )
    outcome = label(bare, "noun", config)
    assert spans_by_role(outcome.annotation, Role.ASSOCIATED_FACT) == []
    assert spans_by_role(outcome.annotation, Role.DIFFERENTIA_EVENT) == [(1, 5)]


def test_classify_origin_location_pp(config):
    tree = parse_bracketed(
        "(NP (NP (JJ large) (JJ plover-like) (NN sandpiper)) (PP (IN of)"
        " (NP (NP (JJ North) (JJ American) (NNS fields)) (CC and) (NP (NNS uplands)))))"
    )
    outcome = label(tree, "noun", config)
    assert spans_by_role(outcome.annotation, Role.ORIGIN_LOCATION) == [(3, 9)]


def test_classify_quality_splits_on_cc(config):
    tree = parse_bracketed(
        "(VP (VB run) (CC or) (VB move) (ADVP (RB very) (RB quickly) (CC or) (RB hastily)))"
    )
    outcome = label(tree, "verb", config)
    annotation = outcome.annotation
    assert spans_by_role(annotation, Role.DIFFERENTIA_QUALITY) == [(4, 5), (6, 7)]
    assert spans_by_role(annotation, Role.QUALITY_MODIFIER) == [(3, 4)]


def test_classify_unmatched_constituent_traced(config):
    tree = parse_bracketed("(S (NP (NN coach)) (INTJ (UH alas)))")
    outcome = label(tree, "noun", config)
    unlabeled = [t for t in outcome.rule_trace if t.rule == "unlabeled"]
    assert [(t.start, t.end) for t in unlabeled] == [(1, 2)]
    covered = outcome.annotation.covered()
    assert 1 not in covered


# --- quality modifier ---------------------------------------------------------------


def test_quality_modifier_rb_rb(config):
    assert_labels(
        config, "(VP (VB run) (ADVP (RB very) (RB quickly)))", "verb",
        "{supertype|run} {quality_modifier@2|very} {differentia_quality|quickly}",
        [("supertype", 0, 1), ("quality-modifier", 1, 2), ("differentia-quality", 2, 3)],
    )


def test_quality_modifier_alone_absent(config):
    assert_labels(
        config, "(VP (VB run) (ADVP (RB quickly)))", "verb",
        "{supertype|run} {differentia_quality|quickly}",
        [("supertype", 0, 1), ("differentia-quality", 1, 2)],
    )


def test_quality_modifier_rb_jj(config):
    assert_labels(
        config, "(NP (NP (DT a) (NN plant)) (ADJP (RB extremely) (JJ tall)))", "noun",
        "a {supertype|plant} {quality_modifier@2|extremely} {differentia_quality|tall}",
        [("supertype", 1, 2), ("leading-dt", 0, 1), ("quality-modifier", 2, 3),
         ("differentia-quality", 3, 4)],
    )


def test_quality_modifier_not_in_np(config):
    assert_labels(
        config, "(NP (NP (DT a) (NN plant)) (NP (JJ large) (JJ plover-like)))", "noun",
        "a {supertype|plant} {differentia_quality|large plover-like}",
        [("supertype", 1, 2), ("leading-dt", 0, 1), ("differentia-quality", 2, 4)],
    )


# --- instance origin -----------------------------------------------------------------


GILMAN = "(NP (NNP United) (NNPS States) (NN feminist))"


def test_instance_origin_detected(config):
    assert_labels(
        replace(config, instance_mode=True), GILMAN, "noun",
        "{origin_location|United States} {supertype|feminist}",
        [("supertype", 2, 3), ("instance-origin", 0, 2)],
    )


def test_instance_origin_gated_by_mode(config):
    assert_labels(
        config, GILMAN, "noun",
        "{differentia_quality|United States} {supertype|feminist}",
        [("supertype", 2, 3), ("pre-supertype-quality", 0, 2)],
    )


def test_instance_origin_united_states_general(config):
    tree = parse_bracketed("(NP (NNP United) (NNPS States) (NN general))")
    instance_config = replace(config, instance_mode=True)
    outcome = label(tree, "noun", instance_config)
    assert spans_by_role(outcome.annotation, Role.ORIGIN_LOCATION) == [(0, 2)]
    assert spans_by_role(outcome.annotation, Role.SUPERTYPE) == [(2, 3)]


# --- accessory quality ----------------------------------------------------------------


ALLIUM = (
    "(NP (NP (JJ large) (NN genus)) (PP (IN of) (NP (ADJP (JJ perennial) (CC and)"
    " (JJ biennial)) (JJ pungent) (JJ bulbous) (NNS plants))))"
)


def test_accessory_quality_reclassified(config):
    outcome = label(parse_bracketed(ALLIUM), "noun", config)
    annotation = outcome.annotation
    assert spans_by_role(annotation, Role.ACCESSORY_QUALITY) == [(0, 1)]
    assert spans_by_role(annotation, Role.DIFFERENTIA_QUALITY) == [(2, 9)]
    assert any(DIVERGENCE_ACCESSORY_QUALITY in t.reason for t in outcome.rule_trace)


def test_accessory_quality_kept_when_only_distinguishing_span(config):
    tree = parse_bracketed("(NP (JJ large) (NN genus))")
    outcome = label(tree, "noun", config)
    assert spans_by_role(outcome.annotation, Role.ACCESSORY_QUALITY) == []
    assert spans_by_role(outcome.annotation, Role.DIFFERENTIA_QUALITY) == [(0, 1)]


def test_accessory_quality_requires_listed_word(config):
    tree = parse_bracketed(
        "(NP (NP (JJ Yugoslav) (NN geophysicist)) (PP (IN of) (NP (NN repute))))"
    )
    outcome = label(tree, "noun", config)
    assert spans_by_role(outcome.annotation, Role.ACCESSORY_QUALITY) == []


# --- full pipeline ---------------------------------------------------------------------


def test_label_footwear(config):
    tree = parse_bracketed(
        "(NP (NP (NN clothing)) (VP (VBN worn) (PP (IN on)"
        " (NP (NP (DT a) (NN person) (POS 's)) (NNS feet)))))"
    )
    annotation = label(tree, "noun", config).annotation
    assert spans_by_role(annotation, Role.SUPERTYPE) == [(0, 1)]
    assert spans_by_role(annotation, Role.DIFFERENTIA_EVENT) == [(1, 7)]


def test_label_unstaple(config):
    tree = parse_bracketed("(VP (VB take) (NP (DT the) (NNS staples)) (PRT (RP off)))")
    annotation = label(tree, "verb", config).annotation
    assert spans_by_role(annotation, Role.SUPERTYPE) == [(0, 1)]
    particle = annotation.spans_of(Role.PARTICLE)[0]
    assert (particle.start, particle.end) == (3, 4)
    assert annotation.spans[particle.parent].role is Role.SUPERTYPE


def test_label_ill_formed_skips_classification(config):
    tree = parse_bracketed(
        "(ADVP (NP (QP (IN from) (CD 63) (CD million) (TO to) (CD 2) (CD million))"
        " (NNS years)) (RB ago))"
    )
    outcome = label(tree, "noun", config)
    assert outcome.annotation.ill_formed
    assert outcome.annotation.spans == ()
    assert any(t.rule == "ill-formed" for t in outcome.rule_trace)


def test_label_verb_falls_back_to_noun_rules(config):
    tree = parse_bracketed("(NP (DT a) (NN dance))")
    outcome = label(tree, "verb", config)
    assert spans_by_role(outcome.annotation, Role.SUPERTYPE) == [(1, 2)]
    assert any(t.rule == "fallback" for t in outcome.rule_trace)


def test_label_is_deterministic(config):
    tree = parse_bracketed(ALLIUM)
    first = label(tree, "noun", config)
    second = label(tree, "noun", config)
    assert first.annotation == second.annotation
    assert first.rule_trace == second.rule_trace


def test_label_always_validates_and_accounts_for_every_token(config):
    corpus_trees = [
        ("(NP (NP (DT a) (NN coach)) (PP (IN of) (NP (NN baseball) (NNS players))))", "noun"),
        (ALLIUM, "noun"),
        (CAMAS, "noun"),
        (GILMAN, "noun"),
        ("(VP (VB run) (CC or) (VB move) (ADVP (RB very) (RB quickly) (CC or) (RB hastily)))", "verb"),
        ("(S (NP (NN coach)) (INTJ (UH alas)))", "noun"),
        ("(VP (VB run))", "noun"),
    ]
    for text, pos in corpus_trees:
        tree = parse_bracketed(text)
        outcome = label(tree, pos, config)
        assert [v for v in validate(outcome.annotation) if v.severity == ERROR] == []
        accounted = set(outcome.annotation.covered())
        for entry in outcome.rule_trace:
            accounted.update(range(entry.start, entry.end))
        assert accounted >= set(range(len(outcome.annotation.tokens)))


def test_label_trace_covers_every_span(config):
    tree = parse_bracketed(ALLIUM)
    outcome = label(tree, "noun", config)
    traced = {(t.start, t.end) for t in outcome.rule_trace}
    for span in outcome.annotation.spans:
        assert (span.start, span.end) in traced


def test_label_of_a_tree_without_tokens_is_signaled(config):
    with pytest.raises(EmptyDefinitionError):
        label(SynTree("NP"), "noun", config)


def test_a_subtree_not_starting_at_0_is_rejected(config):
    # Annotation tokens are numbered from 0; a subtree keeps its root's spans.
    tree = parse_bracketed(
        "(S (NP (DT a) (NN trainer)) (NP (NP (DT a) (NN coach)) (PP (IN of) (NP (NNS athletes)))))"
    )
    sub = tree.children[1]
    with pytest.raises(ValueError, match="starts at 2"):
        label(sub, "noun", config)
    alone = label(parse_bracketed(serialize(sub)), "noun", config).annotation
    assert (alone.spans[0].role, alone.spans[0].start) == (Role.SUPERTYPE, 1)
    verbs = parse_bracketed("(S (NP (NNS dogs)) (VP (VB run) (CC or) (VB walk)))")
    outcome = label(verbs, "verb", config)
    assert spans_by_role(outcome.annotation, Role.SUPERTYPE) == [(1, 2), (3, 4)]
    with pytest.raises(ValueError, match="starts at 1"):
        label(verbs.children[1], "verb", config)


def test_label_rejects_unknown_pos(config):
    with pytest.raises(ValueError):
        label(parse_bracketed("(NP (NN dog))"), "adjective", config)


def test_label_noun_conjunction_end_to_end(config):
    from defsrl.patterns import pattern_of, render

    tree = parse_bracketed(
        "(NP (NP (DT a) (NN coach) (CC or) (NN driver)) (PP (IN of) (NP (NNS teams))))"
    )
    outcome = label(tree, "noun", config)
    assert spans_by_role(outcome.annotation, Role.SUPERTYPE) == [(1, 2), (3, 4)]
    assert render(pattern_of(outcome.annotation)) == "OR(supertype)+ (differentia quality)"


def test_label_ill_formed_iff_no_supertype(config):
    trees = [
        ("(NP (DT a) (NN coach))", "noun"),
        ("(VP (VB run))", "verb"),
        ("(ADVP (RB soon))", "noun"),
        ("(PP (IN from) (NP (CD 63)))", "noun"),
    ]
    for text, pos in trees:
        annotation = label(parse_bracketed(text), pos, config).annotation
        has_supertype = bool(annotation.spans_of(Role.SUPERTYPE))
        assert annotation.ill_formed == (not has_supertype)


def test_accessory_quality_reclassification_keeps_boundaries(config):
    outcome = label(parse_bracketed(ALLIUM), "noun", config)
    # The reclassified span has the same boundary an untouched run would have.
    plain = replace(config, accessory_quality_words=frozenset())
    untouched = label(parse_bracketed(ALLIUM), "noun", plain)
    assert [(s.start, s.end) for s in outcome.annotation.spans] == [
        (s.start, s.end) for s in untouched.annotation.spans
    ]
    assert spans_by_role(untouched.annotation, Role.ACCESSORY_QUALITY) == []


def test_custom_accessory_word_list(config):
    tweaked = replace(config, accessory_quality_words=frozenset(["yugoslav"]))
    tree = parse_bracketed(
        "(NP (NP (JJ Yugoslav) (NN geophysicist)) (PP (IN of) (NP (NN repute))))"
    )
    outcome = label(tree, "noun", tweaked)
    assert spans_by_role(outcome.annotation, Role.ACCESSORY_QUALITY) == [(0, 1)]


def test_preprocess_typographic_quote_segment():
    assert preprocess_gloss("move fast; “he darted away”") == "move fast"


# --- label-level properties ---------------------------------------------------------


def _check_label_contract(outcome, definition_id: str) -> None:
    annotation = outcome.annotation
    assert [v for v in validate(annotation) if v.severity == ERROR] == []
    accounted = annotation.covered()
    for entry in outcome.rule_trace:
        accounted.update(range(entry.start, entry.end))
    assert accounted >= set(range(len(annotation.tokens)))
    assert parse_gold(serialize_gold(annotation), definition_id) == annotation
    assert {entry.rule for entry in outcome.rule_trace} <= TRACE_RULES


@pytest.fixture(scope="module")
def word_config(config):
    """Lexicons and gazetteers over ``conftest.WORDS``: the random trees find
    supertypes, and their PPs hit multiword gazetteer entries."""
    return replace(
        config,
        noun_lexicon=Lexicon.from_entries(NOUN, ["coach", "dog", "player", "stone", "frontier"]),
        location_gazetteer=Gazetteer.from_entries(
            LOCATION, ["the frontier", "blue stone", "fine dog of the", "coach"]
        ),
        time_gazetteer=Gazetteer.from_entries(TIME, ["very quickly", "the large player"]),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(["noun", "verb"]),
    st.booleans(),
)
def test_label_contract_holds_on_random_trees(word_config, rng, pos, instance_mode):
    tree = random_tree(rng, max_depth=5)
    cfg = replace(word_config, instance_mode=instance_mode)
    outcome = label(tree, pos, cfg, "r")
    _check_label_contract(outcome, "r")
    # The engine's supertype detectors agree with the annotation.
    supertypes = spans_by_role(outcome.annotation, Role.SUPERTYPE)
    verb_spans = _Engine(tree, pos, cfg).verb_supertypes() if pos == "verb" else None
    if verb_spans is not None:
        assert verb_spans == supertypes
        return
    detection = _Engine(tree, pos, cfg).noun_supertypes()
    noun_hits = detection.hits if detection else None
    if noun_hits is None:
        assert outcome.annotation.ill_formed
    elif not any("re-detected" in entry.reason for entry in outcome.rule_trace):
        assert [span for span, _ in noun_hits] == supertypes


@settings(max_examples=300, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(["noun", "verb"]),
    st.booleans(),
)
def test_label_is_the_same_with_and_without_the_leaf_record(word_config, rng, pos, instance_mode):
    # The parsed root takes the early exits; its unpickled copy has no leaf
    # record and walks.
    tree = parse_bracketed(serialize(random_tree(rng, max_depth=5)))
    unpickled = pickle.loads(pickle.dumps(tree))
    assert _recorded_leaves(tree) is not None and _recorded_leaves(unpickled) is None
    cfg = replace(word_config, instance_mode=instance_mode)
    assert label(tree, pos, cfg, "r") == label(unpickled, pos, cfg, "r")


@st.composite
def _coverage(draw):
    """Tokens, possibly overlapping or nested role spans, and a trace with
    zero-width entries, such as the fallback note at (0, 0)."""
    n = draw(st.integers(1, 12))
    bounds = st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted)
    spans = [(a, b) for a, b in draw(st.lists(bounds, max_size=5)) if a < b]
    trace = [
        TraceEntry("supertype", a, b, "drawn")
        for a, b in draw(st.lists(bounds, max_size=5))
    ]
    if draw(st.booleans()):
        trace.insert(0, TraceEntry(FALLBACK_RULE, 0, 0, "drawn"))
    tokens = tuple(f"w{i}" for i in range(n))
    roles = (RoleSpan(Role.DIFFERENTIA_QUALITY, a, b) for a, b in sorted(spans))
    return Annotation("u", tokens, tuple(roles)), trace


@settings(max_examples=500, deadline=None)
@given(_coverage())
def test_fill_uncovered_matches_the_per_token_oracle(config, case):
    annotation, trace = case
    leaves = tuple(
        SynTree("NN", (), token, i, i + 1) for i, token in enumerate(annotation.tokens)
    )
    engine = _Engine(SynTree("NP", leaves, None, 0, len(leaves)), "noun", config)
    engine.trace = list(trace)
    engine.fill_uncovered(annotation)
    assert engine.trace[: len(trace)] == trace
    assert engine.trace[len(trace) :] == oracle_uncovered(annotation, trace)


def test_trace_rules_on_the_bundled_corpus_are_the_vocabulary(config):
    records, diagnostics = read_corpus(packaged_data_text(BUNDLED_CORPUS))
    assert diagnostics == []
    configs = {False: config, True: replace(config, instance_mode=True)}
    fired = Counter()
    for record in records:
        tree = parse_bracketed(record.tree)
        outcome = label(tree, record.pos, configs[record.instance], record.id)
        fired.update(entry.rule for entry in outcome.rule_trace)
    assert len(fired) > 5 and set(fired) <= TRACE_RULES


def test_label_contract_holds_on_seeded_trees_with_gazetteer_hits(word_config):
    located = Counter()
    for pos in ("noun", "verb"):
        for instance_mode in (False, True):
            cfg = replace(word_config, instance_mode=instance_mode)
            rng = random.Random(f"{pos}-{instance_mode}")
            for _ in range(250):
                outcome = label(random_tree(rng, max_depth=5), pos, cfg, "s")
                _check_label_contract(outcome, "s")
                for span in outcome.annotation.spans:
                    located[span.role] += 1
    # The first-word-pruned gazetteer scan fires on multiword entries.
    assert located[Role.ORIGIN_LOCATION] > 0
    assert located[Role.EVENT_LOCATION] > 0
    assert located[Role.EVENT_TIME] > 0


def test_instance_origin_matches_the_subtree_scan_oracle(word_config):
    cfg = replace(word_config, instance_mode=True)
    rng = random.Random(25)
    found = 0
    for _ in range(600):
        tree = random_tree(rng, max_depth=5)
        engine = _Engine(tree, NOUN, cfg)
        for supertype_start in range(tree.end + 1):
            expected = oracle_instance_origin(tree, supertype_start, cfg)
            assert engine.instance_origin(supertype_start) == expected
            found += expected is not None
    assert found > 0


@st.composite
def _word_gazetteer(draw, kind):
    """A gazetteer of one- to three-word phrases over ``conftest.WORDS``."""
    phrases = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
    return Gazetteer.from_entries(kind, draw(st.lists(phrases, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.one_of(st.none(), st.tuples(_word_gazetteer(LOCATION), _word_gazetteer(TIME))),
    st.booleans(),
)
def test_event_subroles_equal_the_walk_that_enters_missed_pps(word_config, rng, drawn, pp_leaves):
    tree = random_tree(rng, max_depth=5)
    if pp_leaves:  # preterminals labeled PP are tried too
        tree = parse_bracketed(serialize(tree).replace("(IN ", "(PP "))
    cfg = word_config
    if drawn is not None:
        cfg = replace(cfg, location_gazetteer=drawn[0], time_gazetteer=drawn[1])
    engine = _Engine(tree, "noun", cfg)
    for node in tree.subtrees():
        expected = oracle_event_subroles(engine.tokens, node, cfg)
        assert engine.event_subroles(node) == expected


def test_a_deep_event_with_no_gazetteer_hit_tries_only_its_outer_pp(config, monkeypatch):
    pp = "(PP (IN of) (NP (NN part)))"
    for _ in range(999):  # 1,000 PPs, each nested in the one before
        pp = f"(PP (IN of) (NP (NN part) {pp}))"
    tree = parse_bracketed(f"(NP (NP (DT a) (NN coach)) (VP (VBG holding) {pp}))")
    calls = []

    def counting(gazetteer, tokens):
        calls.append(len(tokens))
        return gazetteer_match(gazetteer, tokens)

    monkeypatch.setattr("defsrl.labeler.gazetteer_match", counting)
    outcome = label(tree, "noun", config, "deep")
    _check_label_contract(outcome, "deep")
    # The outer PP misses the location and then the time gazetteer; the 999
    # PPs inside it are not tried.
    assert calls == [tree.end - 3, tree.end - 3]
    assert spans_by_role(outcome.annotation, Role.DIFFERENTIA_EVENT) == [(2, tree.end)]


# A record with every field set: a tree, an instance, and a prediction that
# differs from its gold.
_FULL_RECORD = DefinitionRecord(
    "d", "noun", "a dog", "(NP (DT a) (NN dog))", True,
    Annotation("d", ("a", "dog"), (RoleSpan(Role.SUPERTYPE, 1, 2),)),
    Annotation("d", ("a", "dog"), (RoleSpan(Role.SUPERTYPE, 0, 2),)),
)
_TRACE = TraceEntry("supertype", 1, 2, "lexicon entry in anchor NP: 'coach'")
_ANNOTATION = Annotation("d", ("a", "dog"), (RoleSpan(Role.SUPERTYPE, 1, 2),))
_METRICS = RoleMetrics(0.5, 1.0, 2 / 3)
_PATTERN = Pattern(
    (PatternElement(Role.SUPERTYPE), PatternElement(Role.DIFFERENTIA_QUALITY, Repetition.PLUS))
)
_LOCATIONS = Gazetteer.from_entries(LOCATION, ["lake district"])
# One record of each record class, as ``record_pickles.EARLIER_PICKLES``
# holds them. The config's phrase and word are normalized on construction.
_ONE_OF_EACH_RECORD = {
    "SynTree": parse_bracketed("(NP (DT a) (NN dog))"),
    "RoleSpan": RoleSpan(Role.EVENT_TIME, 2, 4, 1),
    "Annotation": _ANNOTATION,
    "TraceEntry": _TRACE,
    "DefinitionRecord": _FULL_RECORD,
    "Diagnostic": Diagnostic(3, "not JSON"),
    "DistributionReport": DistributionReport(
        ((_PATTERN, 2),), (Pattern((PatternElement(Role.SUPERTYPE),)),), 3
    ),
    "RoleMetrics": _METRICS,
    "EvalReport": EvalReport(
        {Role.SUPERTYPE: _METRICS}, {Role.SUPERTYPE: _METRICS}, 1.0, 0.5,
        {Role.SUPERTYPE: 2}, {Role.SUPERTYPE: 1}, 2,
    ),
    "LabelerConfig": LabelerConfig(
        Lexicon.from_entries(NOUN, ["coach"]), Lexicon.from_entries(VERB, ["run"]),
        _LOCATIONS, Gazetteer.from_entries(TIME, ["dawn"]),
        ("A type  of",), frozenset({"Very"}), True,
    ),
    "LabelOutcome": LabelOutcome(_ANNOTATION, (_TRACE,)),
    "Lexicon": Lexicon.from_entries(NOUN, ["sea lion"]),
    "Gazetteer": _LOCATIONS,
    "PatternElement": PatternElement(Role.SUPERTYPE, Repetition.PLUS),
    "Pattern": _PATTERN,
    "Violation": Violation("orphan_subrole", "error", 1, "event_time requires a parent reference"),
}
# The records that were frozen dataclasses, with ids for the tests below.
_ONCE_FROZEN_DATACLASSES = [
    "Diagnostic", "DistributionReport", "RoleMetrics", "EvalReport", "LabelerConfig",
    "LabelOutcome", "Lexicon", "Gazetteer", "PatternElement", "Pattern", "Violation",
]
_ONCE_FROZEN_RECORDS = [_ONE_OF_EACH_RECORD[name] for name in _ONCE_FROZEN_DATACLASSES]
_ONCE_FROZEN_IDS = [name.lower() for name in _ONCE_FROZEN_DATACLASSES]


def _hash_or_error(obj) -> object:
    # An ``EvalReport`` holds dicts, so it hashes as a frozen dataclass
    # would: not at all.
    try:
        return hash(obj)
    except TypeError as error:
        return str(error)


@pytest.mark.parametrize(
    "record",
    [
        TraceEntry("supertype", 1, 2, "lexicon entry in anchor NP: 'coach'"),
        RoleSpan(Role.SUPERTYPE, 0, 1),
        RoleSpan(Role.EVENT_TIME, 2, 4, 1),
        Annotation("d", ("a", "dog"), (RoleSpan(Role.SUPERTYPE, 1, 2),)),
        Annotation("", (), (), True),
        DefinitionRecord("d", "noun", "a dog"),
        _FULL_RECORD,
        *_ONCE_FROZEN_RECORDS,
    ],
    ids=[
        "trace-entry", "role-span", "role-span-with-parent", "annotation", "empty-annotation",
        "definition-record", "definition-record-with-tree-and-annotations", *_ONCE_FROZEN_IDS,
    ],
)
def test_slotted_records_behave_as_frozen_dataclasses(record):
    cls = record.__class__
    names = [f.name for f in dataclasses.fields(cls)]
    values = [getattr(record, name) for name in names]
    # The same record as a frozen dataclass without slots.
    plain = dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default)) for f in dataclasses.fields(cls)],
        frozen=True,
    )(*values)
    assert repr(record) == repr(plain)
    assert _hash_or_error(record) == _hash_or_error(plain)
    assert record == cls(*values) and not record != cls(*values)
    assert record != plain and record != tuple(values)
    assert cls.__match_args__ == tuple(names)
    # ``copy.replace`` (Python 3.13 and later) calls the record's own
    # ``__replace__``, which makes what ``dataclasses.replace`` makes.
    replacing = [dataclasses.replace] + ([copy.replace] if sys.version_info >= (3, 13) else [])
    for replace in replacing:
        assert replace(record) == record
        assert replace(record, **{names[0]: values[0]}) == record
    # A ``__post_init__`` that checks or reads its fields refuses a marker.
    marker = object()
    for name in names if not hasattr(cls, "__post_init__") else ():
        changed = dataclasses.replace(record, **{name: marker})
        assert getattr(changed, name) is marker and changed != record
        for replace in replacing:
            assert replace(record, **{name: marker}) == changed
    assert cls(**dict(zip(names, values))) == record
    copies = [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies + [copy.copy(record), copy.deepcopy(record)]:
        assert copied == record and copied.__class__ is cls
    for name in names + ["other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == values
    with pytest.raises(TypeError):
        vars(record)


@pytest.mark.parametrize(
    "cls", [SynTree, RoleSpan, Annotation, TraceEntry, DefinitionRecord]
    + [record.__class__ for record in _ONCE_FROZEN_RECORDS]
)
def test_slotted_records_generate_no_dataclass_methods(cls):
    # Their methods come from ``syntree._seal``, not from ``dataclasses``.
    params = cls.__dataclass_params__
    assert (params.init, params.repr, params.eq, params.frozen) == (False, False, False, False)
    # So a frozen dataclass cannot extend one.
    with pytest.raises(TypeError, match="frozen"):
        dataclasses.dataclass(frozen=True)(type("Sub", (cls,), {}))


class _DictStatePickle:
    """Pickles as a ``cls`` record whose state is a dict of its fields, as
    pickled by a version whose records had a ``__dict__``."""

    def __init__(self, cls: type, state: dict) -> None:
        self.cls, self.state = cls, state

    def __reduce_ex__(self, protocol):
        return copyreg._reconstructor, (self.cls, object, None), self.state


@pytest.mark.parametrize(
    "record",
    [
        TraceEntry("supertype", 1, 2, "lexicon entry in anchor NP: 'coach'"),
        RoleSpan(Role.SUPERTYPE, 0, 1),
        RoleSpan(Role.EVENT_TIME, 2, 4, 1),
        parse_bracketed("(NP (DT a) (NN dog))"),
        Annotation("d", ("a", "dog"), (RoleSpan(Role.SUPERTYPE, 1, 2),)),
        DefinitionRecord("d", "noun", "a dog"),
        _FULL_RECORD,
        *_ONCE_FROZEN_RECORDS,
    ],
    ids=[
        "trace-entry", "role-span", "role-span-with-parent", "syntree", "annotation",
        "definition-record", "definition-record-with-tree-and-annotations", *_ONCE_FROZEN_IDS,
    ],
)
def test_slotted_records_unpickle_a_dict_or_a_sequence_state(record):
    cls = record.__class__
    names = [f.name for f in dataclasses.fields(cls)]
    values = [getattr(record, name) for name in names]
    by_name = dict(zip(names, values))
    for state in (by_name, dict(reversed(by_name.items()))):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(_DictStatePickle(cls, state), protocol))
            assert loaded.__class__ is cls and loaded == record
            assert [getattr(loaded, name) for name in names] == values
    # The sequence state that ``__getstate__`` gives, as a list or a tuple.
    assert record.__getstate__() == values
    for state in (values, tuple(values)):
        restored = object.__new__(cls)
        restored.__setstate__(state)
        assert restored == record
    # A dict is read by field name only when its keys are the fields.
    missing = dict(list(by_name.items())[1:])
    for state in (missing, {**by_name, "extra": 0}, {**missing, "other": values[0]}, {}):
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(_DictStatePickle(cls, state)))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record
    assert copy.deepcopy(record) == record and copy.copy(record) == record


@pytest.mark.parametrize("name", sorted(_ONE_OF_EACH_RECORD))
def test_records_pickled_by_the_earlier_version_still_load(name):
    record = _ONE_OF_EACH_RECORD[name]
    assert record.__class__.__name__ == name
    loaded = pickle.loads(EARLIER_PICKLES[name])
    assert loaded.__class__ is record.__class__ and loaded == record
    # A ``Gazetteer`` pickled with a ``__dict__`` also held ``first_words``;
    # it is built again from the entries.
    if name in ("Gazetteer", "LabelerConfig"):
        gazetteer = loaded if name == "Gazetteer" else loaded.location_gazetteer
        assert gazetteer.first_words == {"lake"}


def test_the_earlier_pickles_cover_every_record_class():
    assert set(EARLIER_PICKLES) == set(_ONE_OF_EACH_RECORD)
    assert len(EARLIER_PICKLES) == 16


# --- a 10k-token gloss ----------------------------------------------------------------

_ANCHOR = "(NP (DT a) (NN coach))"
WIDE_GLOSS = (
    f"(NP {_ANCHOR} "
    + " ".join(["(PP (IN of) (NP (DT the) (JJ blue) (NN stone)))"] * 2500)
    + ")"
)
WIDE_EVENT_GLOSS = (
    f"(NP {_ANCHOR} (SBAR (WHNP (WDT that)) (S (VP (VBZ works) "
    + " ".join(
        ["(PP (IN in) (NP (NNP France))) (PP (IN on) (NP (JJ formal) (NNS occasions)))"] * 2000
    )
    + " (PP (IN in) (NP (CD 1984)))))))"
)


@pytest.mark.parametrize("text", [WIDE_GLOSS, WIDE_EVENT_GLOSS], ids=["of-pps", "event-pps"])
def test_wide_gloss_labels_clean_and_round_trips(config, text):
    tree = parse_bracketed(text)
    assert len(tree.leaves()) >= 10_000
    outcome = label(tree, "noun", config, "wide")
    _check_label_contract(outcome, "wide")
    record = DefinitionRecord(
        "wide", "noun", " ".join(tree.tokens()), text, predicted=outcome.annotation
    )
    records, diagnostics = read_corpus(write_corpus([record]))
    assert diagnostics == [] and records == [record]


def test_wide_gloss_event_subroles_are_carved(config):
    outcome = label(parse_bracketed(WIDE_EVENT_GLOSS), "noun", config, "wide")
    roles = Counter(span.role for span in outcome.annotation.spans)
    assert roles[Role.EVENT_LOCATION] == 2000
    assert roles[Role.EVENT_TIME] == 2001


def test_wide_glosses_label_through_the_cli(tmp_path):
    corpus = tmp_path / "wide.jsonl"
    lines = [
        {"id": name, "pos": "noun", "gloss": name, "tree": text}
        for name, text in (("of_pps", WIDE_GLOSS), ("event_pps", WIDE_EVENT_GLOSS))
    ]
    corpus.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["label", "--input", str(corpus), "--output", str(out), "--trace"]) == 0
    records, diagnostics = read_corpus(out.read_text(encoding="utf-8"))
    assert diagnostics == [] and [r.id for r in records] == ["of_pps", "event_pps"]
    traces = [json.loads(line) for line in (tmp_path / "out.jsonl.trace").read_text().splitlines()]
    for record, trace in zip(records, traces):
        annotation = record.predicted
        assert [v for v in validate(annotation) if v.severity == ERROR] == []
        accounted = annotation.covered()
        for entry in trace["trace"]:
            accounted.update(range(entry["start"], entry["end"]))
        assert accounted >= set(range(len(annotation.tokens)))


# Branches of the engine no other test reaches, each pinned by its exact
# annotation and its trace as (rule, start, end).
RARE_BRANCHES = {
    # A quality modifier whose quality is reclassified as accessory is demoted
    # to a differentia quality by the accessory rule.
    "demoted-modifier": (
        "(NP (NP (DT a) (NN plant)) (ADJP (RB very) (JJ large)) (PP (IN of) (NP (NNS plants))))",
        "a {supertype|plant} {differentia_quality|very} {accessory_quality|large}"
        " {differentia_quality|of plants}",
        [("supertype", 1, 2), ("leading-dt", 0, 1), ("quality-modifier", 2, 3),
         ("differentia-quality", 3, 4), ("differentia-quality", 4, 6),
         ("accessory-quality", 3, 4), ("demoted", 2, 3)],
    ),
    # Two orphaned modifiers are demoted last first.
    "two-demoted-modifiers": (
        "(NP (NP (DT a) (NN plant)) (ADJP (RB very) (JJ large)) (CC and)"
        " (ADJP (RB so) (JJ large)) (PP (IN of) (NP (NNS plants))))",
        "a {supertype|plant} {differentia_quality|very} {accessory_quality|large} and"
        " {differentia_quality|so} {accessory_quality|large} {differentia_quality|of plants}",
        [("supertype", 1, 2), ("leading-dt", 0, 1), ("quality-modifier", 2, 3),
         ("differentia-quality", 3, 4), ("unlabeled", 4, 5), ("quality-modifier", 5, 6),
         ("differentia-quality", 6, 7), ("differentia-quality", 7, 9),
         ("accessory-quality", 3, 4), ("accessory-quality", 6, 7), ("demoted", 5, 6),
         ("demoted", 2, 3)],
    ),
    # A noun-free determiner expression leaves its leading article out.
    "determiner-after-article": (
        "(NP (NP (DT the) (JJ many)) (PP (IN of) (NP (NN plant))))",
        "the {accessory_determiner|many of} {supertype|plant}",
        [("supertype", 3, 4), ("accessory-determiner", 1, 3), ("uncovered", 0, 1)],
    ),
    # A configured determiner phrase with no supertype after it changes nothing.
    "determiner-without-supertype": (
        "(NP (NP (DT a) (NN type)) (PP (IN of) (NP (DT the) (JJ blue))))",
        "a {supertype|type} {differentia_quality|of the blue}",
        [("supertype", 1, 2), ("leading-dt", 0, 1), ("accessory-determiner", 0, 3),
         ("differentia-quality", 2, 5)],
    ),
    # An event made only of gazetteer PPs stays one differentia event.
    "event-of-gazetteer-pps": (
        "(NP (NP (NN plant)) (VP (PP (IN in) (NP (NNP Morocco))) (PP (IN in) (NP (CD 1900)))))",
        "{supertype|plant} {differentia_event|in Morocco in 1900}",
        [("supertype", 0, 1), ("differentia-event", 1, 5)],
    ),
}


@pytest.mark.parametrize("case", RARE_BRANCHES)
def test_rarely_reached_branches_give_their_pinned_annotation_and_trace(config, case):
    text, gold, trace = RARE_BRANCHES[case]
    outcome = assert_labels(config, text, "noun", gold, trace)
    assert not outcome.annotation.ill_formed


_QUALITY_WORDS = ["large", "small", "quickly"]
# An ADJP/ADVP whose first two leaves are RB/JJ, so its first leaf is always
# carved out as a quality modifier: a modifier, a head, and maybe one more leaf.
_PREMODIFIED_QUALITY = st.tuples(
    st.sampled_from(["ADJP", "ADVP"]),
    st.sampled_from([("RB", "very"), ("JJ", "so")]),
    st.sampled_from([("JJ", "large"), ("JJ", "small"), ("RB", "quickly")]),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_PREMODIFIED_QUALITY, st.booleans()), min_size=1, max_size=4),
    st.booleans(),
    st.sets(st.sampled_from(_QUALITY_WORDS), min_size=1),
)
def test_accessory_rule_demotes_every_modifier_it_orphans(config, qualities, with_pp, words):
    parts = ["(NP (DT a) (NN plant))"]
    position = 2  # the next token
    eligible: list[int] = []  # the modifier of each single-JJ accessory-word quality
    others = int(with_pp)  # differentia qualities the rule never reclassifies
    for (phrase, modifier, head, longer), joined in qualities:
        if joined and position > 2:
            parts.append("(CC and)")
            position += 1
        leaves = [modifier, head] + [("JJ", "green")] * longer
        parts.append(f"({phrase} " + " ".join(f"({tag} {word})" for tag, word in leaves) + ")")
        if head[0] == "JJ" and head[1] in words and not longer:
            eligible.append(position)
        else:
            others += 1
        position += len(leaves)
    if with_pp:
        parts.append("(PP (IN of) (NP (NNS plants)))")
    tree = parse_bracketed("(NP " + " ".join(parts) + ")")
    outcome = label(tree, "noun", replace(config, accessory_quality_words=frozenset(words)), "q")
    _check_label_contract(outcome, "q")
    spans = outcome.annotation.spans
    for span in spans:
        if span.role is Role.QUALITY_MODIFIER:
            assert spans[span.parent].role is Role.DIFFERENTIA_QUALITY
    # Left to right, each eligible quality turns accessory while another
    # differentia quality remains; each one's modifier is then an orphan.
    orphans = eligible if others else eligible[:-1]
    by_span = {(span.start, span.end): span for span in spans}
    assert [p for p in eligible if by_span[p + 1, p + 2].role is Role.ACCESSORY_QUALITY] == orphans
    for p in orphans:
        assert by_span[p, p + 1] == RoleSpan(Role.DIFFERENTIA_QUALITY, p, p + 1)
    demoted = [(t.start, t.end) for t in outcome.rule_trace if t.rule == "demoted"]
    assert demoted == [(p, p + 1) for p in reversed(orphans)]
