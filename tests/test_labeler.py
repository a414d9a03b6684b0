from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_instance_origin, random_tree
from defsrl.cli import main
from defsrl.corpus import DefinitionRecord, read_corpus, write_corpus
from defsrl.defaults import default_config
from defsrl.labeler import (
    DIVERGENCE_ACCESSORY_QUALITY,
    DIVERGENCE_PURPOSE_EVENT,
    EmptyDefinitionError,
    classify_post_supertype,
    detect_accessory_determiner,
    detect_accessory_quality,
    detect_instance_origin,
    detect_quality_modifier,
    detect_supertype_noun,
    detect_supertype_verb,
    label,
    preprocess_gloss,
)
from defsrl.lexicon import LOCATION, NOUN, TIME, Gazetteer, Lexicon
from defsrl.rolemodel import (
    Annotation,
    ERROR,
    Role,
    RoleSpan,
    parse_gold,
    serialize_gold,
    validate,
)
from defsrl.syntree import SynTree, parse_bracketed

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


def test_supertype_noun_whole_np(config):
    tree = parse_bracketed(
        "(NP (NP (DT a) (NN coach)) (PP (IN of) (NP (NN baseball) (NNS players))))"
    )
    hits = detect_supertype_noun(tree, config)
    assert hits == [((1, 2), None)]


def test_supertype_noun_suffix_with_leftover(config):
    tree = parse_bracketed(
        "(NP (NP (JJ large) (JJ plover-like) (NN sandpiper)) (PP (IN of) (NP (NNS fields))))"
    )
    hits = detect_supertype_noun(tree, config)
    assert hits == [((2, 3), (0, 2))]


def test_supertype_noun_absent_when_lexicon_misses(config):
    tree = parse_bracketed(
        "(ADVP (NP (QP (IN from) (CD 63) (CD million) (TO to) (CD 2) (CD million))"
        " (NNS years)) (RB ago))"
    )
    assert detect_supertype_noun(tree, config) is None


def test_supertype_noun_absent_without_np(config):
    assert detect_supertype_noun(parse_bracketed("(VP (VB run))"), config) is None


def test_supertype_noun_conjunction_splits(config):
    tree = parse_bracketed("(NP (DT a) (NN coach) (CC or) (NN driver))")
    hits = detect_supertype_noun(tree, config)
    assert hits == [((1, 2), None), ((3, 4), None)]


# --- verb supertype ---------------------------------------------------------------


def test_supertype_verb_conjoined(config):
    tree = parse_bracketed(
        "(VP (VB run) (CC or) (VB move) (ADVP (RB very) (RB quickly) (CC or) (RB hastily)))"
    )
    assert detect_supertype_verb(tree, config) == [(0, 1), (2, 3)]


def test_supertype_verb_leftmost_only(config):
    tree = parse_bracketed("(VP (VB take) (NP (DT the) (NNS staples)) (PRT (RP off)))")
    assert detect_supertype_verb(tree, config) == [(0, 1)]


def test_supertype_verb_absent(config):
    assert detect_supertype_verb(parse_bracketed("(NP (NN dog))"), config) is None


def test_supertype_verb_ignores_unconjoined_vb(config):
    tree = parse_bracketed(
        "(VP (VB run) (S (VP (TO to) (VP (VB win) (NP (DT the) (NN race))))))"
    )
    assert detect_supertype_verb(tree, config) == [(0, 1)]


# --- accessory determiner ----------------------------------------------------------


CAMAS = (
    "(NP (NP (DT any)) (PP (IN of) (NP (NP (JJ several) (NNS plants))"
    " (PP (IN of) (NP (DT the) (NN genus) (NNP Camassia))))))"
)


def test_accessory_determiner_noun_free_prefix(config):
    tree = parse_bracketed(CAMAS)
    assert detect_accessory_determiner(tree, 3, config) == (0, 3)


def test_accessory_determiner_bare_article_is_not_one(config):
    tree = parse_bracketed(
        "(NP (NP (DT a) (NN coach)) (PP (IN of) (NP (NNS players))))"
    )
    assert detect_accessory_determiner(tree, 1, config) is None


def test_accessory_determiner_phrase_list_reassigns_supertype(config):
    tree = parse_bracketed("(NP (NP (DT a) (NN type)) (PP (IN of) (NP (NN dance))))")
    outcome = label(tree, "noun", config)
    annotation = outcome.annotation
    assert spans_by_role(annotation, Role.ACCESSORY_DETERMINER) == [(0, 3)]
    assert spans_by_role(annotation, Role.SUPERTYPE) == [(3, 4)]


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


def context(tokens, *spans):
    return Annotation("ctx", tuple(tokens), tuple(spans), False)


def test_classify_sbar_is_event(config):
    tree = parse_bracketed(
        "(NP (NP (DT a) (NN driver)) (SBAR (WHNP (WP who)) (S (VP (VBZ obstructs) (NP (NNS others))))))"
    )
    sbar = next(n for n in tree.subtrees() if n.label == "SBAR")
    ctx = context(tree.tokens(), RoleSpan(Role.SUPERTYPE, 1, 2))
    result = classify_post_supertype(tree, sbar, ctx, config)
    assert [(s.role, s.start, s.end) for s in result] == [
        (Role.DIFFERENTIA_EVENT, 2, 5)
    ]


def test_classify_particle_without_a_supertype_yields_no_spans(config):
    tree = parse_bracketed("(VP (VB set) (PRT (RP up)))")
    prt = tree.children[1]
    assert classify_post_supertype(tree, prt, context(tree.tokens()), config) == []


def test_classify_never_raises_with_an_empty_context(config):
    rng = random.Random(19)
    for _ in range(300):
        tree = random_tree(rng)
        ctx = context(tree.tokens())
        for node in tree.subtrees():
            for pos in ("noun", "verb"):
                classify_post_supertype(tree, node, ctx, config, pos)


def test_classify_foreign_node_is_usage_error(config):
    text = "(NP (NP (DT a) (NN coach)) (PP (IN of) (NP (NNS players))))"
    tree = parse_bracketed(text)
    ctx = context(tree.tokens(), RoleSpan(Role.SUPERTYPE, 1, 2))
    twin = parse_bracketed(text).children[1]  # equal to a node, not taken from the tree
    assert twin == tree.children[1]
    for node in (parse_bracketed("(PP (IN of) (NP (NNS players)))"), twin):
        with pytest.raises(ValueError):
            classify_post_supertype(tree, node, ctx, config)


def test_classify_of_pp_is_quality(config):
    tree = parse_bracketed(
        "(NP (NP (DT a) (NN coach)) (PP (IN of) (NP (NN baseball) (NNS players))))"
    )
    pp = next(n for n in tree.subtrees() if n.label == "PP")
    ctx = context(tree.tokens(), RoleSpan(Role.SUPERTYPE, 1, 2))
    result = classify_post_supertype(tree, pp, ctx, config)
    assert [(s.role, s.start, s.end) for s in result] == [
        (Role.DIFFERENTIA_QUALITY, 2, 5)
    ]


def test_classify_to_vp_is_purpose(config):
    tree = parse_bracketed(
        "(NP (NP (NN repetition)) (PP (IN of) (NP (NNS messages)))"
        " (S (VP (TO to) (VP (VB reduce) (NP (NNS errors))))))"
    )
    clause = tree.children[2]
    ctx = context(
        tree.tokens(),
        RoleSpan(Role.SUPERTYPE, 0, 1),
        RoleSpan(Role.DIFFERENTIA_QUALITY, 1, 3),
    )
    result = classify_post_supertype(tree, clause, ctx, config)
    assert [(s.role, s.start, s.end) for s in result] == [(Role.PURPOSE, 3, 6)]


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


def test_quality_modifier_rb_rb():
    advp = parse_bracketed("(ADVP (RB very) (RB quickly))")
    assert detect_quality_modifier(advp, (0, 2)) == ((0, 1), (1, 2))


def test_quality_modifier_alone_absent():
    advp = parse_bracketed("(ADVP (RB quickly))")
    assert detect_quality_modifier(advp, (0, 1)) is None


def test_quality_modifier_rb_jj():
    adjp = parse_bracketed("(ADJP (RB extremely) (JJ large))")
    assert detect_quality_modifier(adjp, (0, 2)) == ((0, 1), (1, 2))


def test_quality_modifier_not_in_np():
    np = parse_bracketed("(NP (JJ large) (JJ plover-like))")
    assert detect_quality_modifier(np, (0, 2)) is None


# --- instance origin -----------------------------------------------------------------


GILMAN = "(NP (NNP United) (NNPS States) (NN feminist))"


def test_instance_origin_detected(config):
    tree = parse_bracketed(GILMAN)
    instance_config = replace(config, instance_mode=True)
    assert detect_instance_origin(tree, 2, instance_config) == (0, 2)


def test_instance_origin_gated_by_mode(config):
    tree = parse_bracketed(GILMAN)
    assert detect_instance_origin(tree, 2, config) is None


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


def test_detect_accessory_quality_direct(config):
    tree = parse_bracketed(ALLIUM)
    annotation = Annotation(
        "Allium",
        tuple(tree.tokens()),
        (
            RoleSpan(Role.DIFFERENTIA_QUALITY, 0, 1),
            RoleSpan(Role.SUPERTYPE, 1, 2),
            RoleSpan(Role.DIFFERENTIA_QUALITY, 2, 9),
        ),
        False,
    )
    assert detect_accessory_quality(annotation, 0, tree, config)
    assert not detect_accessory_quality(annotation, 2, tree, config)


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
    # The public supertype detectors agree with the engine.
    supertypes = spans_by_role(outcome.annotation, Role.SUPERTYPE)
    verb_spans = detect_supertype_verb(tree, cfg) if pos == "verb" else None
    if verb_spans is not None:
        assert verb_spans == supertypes
        return
    noun_hits = detect_supertype_noun(tree, cfg)
    if noun_hits is None:
        assert outcome.annotation.ill_formed
    elif not any("re-detected" in entry.reason for entry in outcome.rule_trace):
        assert [span for span, _ in noun_hits] == supertypes


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
        for supertype_start in range(tree.end + 1):
            expected = oracle_instance_origin(tree, supertype_start, cfg)
            assert detect_instance_origin(tree, supertype_start, cfg) == expected
            found += expected is not None
    assert found > 0


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
    # A quality modifier whose quality is reclassified as accessory loses its
    # parent and is demoted by enforce_valid.
    "demoted-modifier": (
        "(NP (NP (DT a) (NN plant)) (ADJP (RB very) (JJ large)) (PP (IN of) (NP (NNS plants))))",
        "a {supertype|plant} {differentia_quality|very} {accessory_quality|large}"
        " {differentia_quality|of plants}",
        [("supertype", 1, 2), ("leading-dt", 0, 1), ("quality-modifier", 2, 3),
         ("differentia-quality", 3, 4), ("differentia-quality", 4, 6),
         ("accessory-quality", 3, 4), ("demoted", 2, 3)],
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
    text, expected, trace = RARE_BRANCHES[case]
    outcome = label(parse_bracketed(text), "noun", config, case)
    assert serialize_gold(outcome.annotation) == expected
    assert not outcome.annotation.ill_formed
    assert [(t.rule, t.start, t.end) for t in outcome.rule_trace] == trace
