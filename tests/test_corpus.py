from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from conftest import oracle_evaluate, random_annotation, random_tree
from defsrl.cli import main
from defsrl.corpus import (
    AlignmentError,
    CorpusError,
    DefinitionRecord,
    Diagnostic,
    distribution,
    evaluate,
    format_eval_report,
    read_corpus,
    write_corpus,
)
from defsrl.defaults import BUNDLED_CORPUS, packaged_data_text
from defsrl.patterns import render
from defsrl.rolemodel import Annotation, Role, RoleSpan
from defsrl.syntree import serialize


def make_annotation(definition_id, tokens, spans):
    return Annotation(definition_id, tuple(tokens), tuple(spans), False)


# --- reading / writing ------------------------------------------------------------


def test_read_three_valid_lines():
    text = (
        '{"id": "a", "pos": "noun", "gloss": "x"}\n'
        '{"id": "b", "pos": "verb", "gloss": "y"}\n'
        '{"id": "c", "pos": "noun", "gloss": "z", "instance": true}\n'
    )
    records, diagnostics = read_corpus(text)
    assert [r.id for r in records] == ["a", "b", "c"]
    assert records[2].instance
    assert diagnostics == []


def test_read_isolates_bad_lines():
    text = (
        '{"id": "a", "pos": "noun", "gloss": "x"}\n'
        '{"id": "bad-tree", "pos": "noun", "gloss": "y", "tree": "(NP (NN"}\n'
        "not json at all\n"
        '{"id": "bad-pos", "pos": "adj", "gloss": "y"}\n'
        '{"id": "d", "pos": "noun", "gloss": "w"}\n'
    )
    records, diagnostics = read_corpus(text)
    assert [r.id for r in records] == ["a", "d"]
    assert [d.line_no for d in diagnostics] == [2, 3, 4]


# Each case: a rejected line and its diagnostic.
REJECTED_LINES = {
    "empty-id": ('{"id": "", "pos": "noun", "gloss": "x"}', "missing or empty 'id'"),
    "missing-gloss": ('{"id": "b", "pos": "noun"}', "missing 'gloss'"),
    "tree-not-a-string": ('{"id": "b", "pos": "noun", "gloss": "x", "tree": 5}',
                          "'tree' must be a string"),
    "instance-not-a-boolean": ('{"id": "b", "pos": "noun", "gloss": "x", "instance": "yes"}',
                               "'instance' must be a boolean"),
    "gold-not-a-string": ('{"id": "b", "pos": "noun", "gloss": "x", "gold": 1}',
                          "'gold' must be a string"),
    "predicted-not-a-string": ('{"id": "b", "pos": "noun", "gloss": "x", "predicted": ["a"]}',
                               "'predicted' must be a string"),
    "line-not-an-object": ('["a"]', "line is not a JSON object"),
    "lone-surrogate": ('{"id": "b", "pos": "noun", "gloss": "x \\ud800 dog"}',
                       "'gloss' holds an unpaired surrogate"),
    "lone-surrogate-in-id": ('{"id": "b\\udfff", "pos": "noun", "gloss": "x"}',
                             "'id' holds an unpaired surrogate"),
    "lone-surrogate-in-gold": ('{"id": "b", "pos": "noun", "gloss": "x", '
                               '"gold": "{supertype|\\ud800}"}',
                               "'gold' holds an unpaired surrogate"),
    "reserved-in-a-tree-token": ('{"id": "b", "pos": "noun", "gloss": "x", '
                                 '"tree": "(NP (DT a) (NN b}c))"}',
                                 "b: tree token 'b}c' contains '{', '}' or '|', "
                                 "which the annotation format reserves"),
    "duplicate-id": ('{"id": "a", "pos": "verb", "gloss": "y"}',
                     "duplicate id 'a' (first on line 1)"),
}


@pytest.mark.parametrize("case", REJECTED_LINES)
def test_read_rejects_a_malformed_record_and_keeps_the_others(case):
    line, message = REJECTED_LINES[case]
    text = (
        '{"id": "a", "pos": "noun", "gloss": "x"}\n'
        f"{line}\n"
        '{"id": "c", "pos": "verb", "gloss": "z"}\n'
    )
    records, diagnostics = read_corpus(text)
    assert [r.id for r in records] == ["a", "c"]
    assert diagnostics == [Diagnostic(2, message)]


def test_read_keeps_the_first_of_repeated_ids_and_paired_surrogate_escapes():
    text = (
        '{"id": "a", "pos": "noun", "gloss": "x \\ud83d\\ude00"}\n'
        '{"id": "b", "pos": "noun", "gloss": "y"}\n'
        '{"id": "a", "pos": "verb", "gloss": "z"}\n'
        '{"id": "a", "pos": "verb", "gloss": "w"}\n'
    )
    records, diagnostics = read_corpus(text)
    assert [(r.id, r.gloss) for r in records] == [("a", "x \U0001f600"), ("b", "y")]
    assert diagnostics == [
        Diagnostic(3, "duplicate id 'a' (first on line 1)"),
        Diagnostic(4, "duplicate id 'a' (first on line 1)"),
    ]


def test_read_skips_blank_and_whitespace_only_lines():
    text = (
        "\n"
        '{"id": "a", "pos": "noun", "gloss": "x"}\n'
        "   \n"
        "\t\n"
        '{"id": "b", "pos": "adj", "gloss": "y"}\n'
    )
    records, diagnostics = read_corpus(text)
    assert [r.id for r in records] == ["a"]
    assert diagnostics == [Diagnostic(5, "'pos' must be one of ('noun', 'verb'), got 'adj'")]


@pytest.mark.parametrize("break_", ["\n", "\r\n", "\r"])
def test_read_breaks_lines_at_each_newline_convention(break_):
    # The bad record's line number counts every break and blank line alike.
    lines = [
        '{"id": "a", "pos": "noun", "gloss": "x\u2028y"}', "",
        '{"id": "b", "pos": "adj", "gloss": "y"}', '{"id": "c", "pos": "noun", "gloss": "z"}',
    ]
    records, diagnostics = read_corpus(break_.join(lines) + break_)
    assert [(r.id, r.gloss) for r in records] == [("a", "x\u2028y"), ("c", "z")]
    assert [d.line_no for d in diagnostics] == [3]


def test_read_zero_records_is_fatal():
    with pytest.raises(CorpusError):
        read_corpus("")
    with pytest.raises(CorpusError):
        read_corpus("garbage\n")


def test_bundled_corpus_round_trips_byte_identically():
    text = packaged_data_text(BUNDLED_CORPUS)
    records, diagnostics = read_corpus(text)
    assert diagnostics == []
    assert len(records) == 15
    assert write_corpus(records) == text


def test_gold_field_is_parsed():
    text = '{"id": "a", "pos": "noun", "gloss": "a coach", "gold": "a {supertype|coach}"}\n'
    records, _ = read_corpus(text)
    gold = records[0].gold
    assert gold is not None
    assert gold.definition_id == "a"
    assert gold.spans[0].role is Role.SUPERTYPE


def _annotated(record_id, gold, predicted):
    payload = {"id": record_id, "pos": "noun", "gloss": "a dog", "gold": gold}
    if predicted is not None:
        payload["predicted"] = predicted
    return json.dumps(payload)


def test_a_prediction_that_repeats_its_gold_text_shares_the_gold_annotation():
    text = (
        _annotated("same", "a {supertype|dog}", "a {supertype|dog}") + "\n"
        + _annotated("other", "a {supertype|dog}", "{differentia_quality|a} {supertype|dog}")
        + "\n" + _annotated("gold-only", "a {supertype|dog}", None) + "\n"
    )
    (same, other, gold_only), diagnostics = read_corpus(text)
    assert diagnostics == []
    assert same.predicted is same.gold
    assert other.predicted is not other.gold
    assert other.predicted == Annotation(
        "other",
        ("a", "dog"),
        (RoleSpan(Role.DIFFERENTIA_QUALITY, 0, 1), RoleSpan(Role.SUPERTYPE, 1, 2)),
    )
    assert replace(other.gold, definition_id="same") == same.gold
    assert gold_only.predicted is None


def test_a_malformed_annotation_gives_one_diagnostic_whether_or_not_it_is_shared(
    tmp_path, capsys
):
    text = (
        _annotated("a", "{supertype|x}", "{supertype|x}") + "\n"
        + _annotated("p", "a {supertype|dog}", "a {supertype|dog") + "\n"
        + _annotated("q", "a {supertype|dog} }", "a {supertype|dog} }") + "\n"
    )
    records, diagnostics = read_corpus(text)
    assert [r.id for r in records] == ["a"]
    assert diagnostics == [
        Diagnostic(2, "unclosed '{' at offset 2"),
        Diagnostic(3, "unmatched '}' at offset 18"),
    ]
    path = tmp_path / "in.jsonl"
    path.write_text(text, encoding="utf-8")
    assert main(["stats", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"{path}:2: unclosed '{{' at offset 2\n{path}:3: unmatched '}}' at offset 18\n"
    )


def test_a_corpus_of_shared_and_separate_predictions_round_trips_byte_identically():
    rng = random.Random(53)
    records = []
    for i in range(300):
        gold = random_annotation(rng, f"m{i}")
        kind = i % 3
        predicted = gold if kind == 0 else random_annotation(rng, f"m{i}") if kind == 1 else None
        records.append(DefinitionRecord(f"m{i}", "noun", "g", gold=gold, predicted=predicted))
    text = write_corpus(records)
    parsed, diagnostics = read_corpus(text)
    assert diagnostics == [] and parsed == records
    assert all((r.predicted is r.gold) == (i % 3 == 0) for i, r in enumerate(parsed))
    assert write_corpus(parsed) == text


def test_random_record_round_trip():
    # ``write_corpus`` writes U+0085, U+2028 and U+2029 raw; each is a line
    # break to ``str.splitlines`` but stays inside its record.
    separators = ["\x85", "\u2028", "\u2029"]
    rng = random.Random(51)
    records = []
    for i in range(500):
        tree = serialize(random_tree(rng)) if rng.random() < 0.7 else None
        record_id = f"r{i}" + (rng.choice(separators) if rng.random() < 0.2 else "")
        gold = random_annotation(rng, record_id) if rng.random() < 0.7 else None
        records.append(
            DefinitionRecord(
                id=record_id,
                pos=rng.choice(["noun", "verb"]),
                gloss=" ".join(rng.choices(["some", "gloss", "text", *separators], k=3)),
                tree=tree,
                instance=rng.random() < 0.2,
                gold=gold,
            )
        )
    text = write_corpus(records)
    parsed, diagnostics = read_corpus(text)
    assert diagnostics == []
    assert parsed == records
    assert write_corpus(parsed) == text


# --- distribution -----------------------------------------------------------------


def quality_annotation(i):
    return make_annotation(
        f"q{i}",
        ["a", "coach", "of", "players"],
        [RoleSpan(Role.SUPERTYPE, 1, 2), RoleSpan(Role.DIFFERENTIA_QUALITY, 2, 4)],
    )


def event_annotation(i):
    return make_annotation(
        f"e{i}",
        ["a", "driver", "who", "obstructs"],
        [RoleSpan(Role.SUPERTYPE, 1, 2), RoleSpan(Role.DIFFERENTIA_EVENT, 2, 4)],
    )


def test_distribution_counts_and_order():
    annotations = [quality_annotation(i) for i in range(27)]
    annotations += [event_annotation(i) for i in range(13)]
    report = distribution(annotations)
    assert [(render(p), c) for p, c in report.rows] == [
        ("(supertype) (differentia quality)", 27),
        ("(supertype) (differentia event)", 13),
    ]
    assert report.other == 0
    assert report.total == 40


def test_distribution_empty():
    report = distribution([])
    assert report.rows == ()
    assert report.total == 0


def test_distribution_counts_sum_to_input_size():
    annotations = [quality_annotation(i) for i in range(5)]
    annotations += [event_annotation(i) for i in range(1)]  # singleton
    report = distribution(annotations)
    assert sum(c for _, c in report.rows) + report.other == len(annotations)
    assert report.other == 1


# --- evaluation --------------------------------------------------------------------


def fixture_pair():
    gold = [
        make_annotation(
            "d1",
            ["a", "coach", "of", "baseball", "players"],
            [RoleSpan(Role.SUPERTYPE, 1, 2), RoleSpan(Role.DIFFERENTIA_QUALITY, 2, 5)],
        ),
        make_annotation(
            "d2",
            ["clothing", "worn", "on", "feet"],
            [RoleSpan(Role.SUPERTYPE, 0, 1), RoleSpan(Role.DIFFERENTIA_EVENT, 1, 4)],
        ),
    ]
    predicted = [
        make_annotation(
            "d1",
            ["a", "coach", "of", "baseball", "players"],
            [RoleSpan(Role.SUPERTYPE, 1, 2), RoleSpan(Role.DIFFERENTIA_QUALITY, 2, 4)],
        ),
        gold[1],
    ]
    return gold, predicted


def test_evaluate_identity_scores_one_everywhere():
    gold, _ = fixture_pair()
    report = evaluate(gold, gold)
    for role in Role:
        for metrics in (report.exact[role], report.token[role]):
            assert metrics.precision == 1.0
            assert metrics.recall == 1.0
            assert metrics.f1 == 1.0
    assert report.supertype_accuracy == 1.0
    assert report.ill_formed_agreement == 1.0


def test_evaluate_zero_predictions():
    gold = [quality_annotation(0)]
    predicted = [Annotation("q0", gold[0].tokens, (), True)]
    report = evaluate(gold, predicted)
    metrics = report.exact[Role.SUPERTYPE]
    assert metrics.precision == 0.0
    assert metrics.recall == 0.0
    assert metrics.f1 == 0.0
    assert report.gold_support[Role.SUPERTYPE] == 1
    assert report.predicted_support[Role.SUPERTYPE] == 0


def test_evaluate_hand_computed_fixture():
    # One boundary error on d1's differentia quality; everything else exact.
    # Hand computation: exact quality P=R=F1=0; token quality TP=2 of
    # gold 3 / predicted 2 -> P=1, R=2/3, F1=0.8.
    gold, predicted = fixture_pair()
    report = evaluate(gold, predicted)
    assert report.exact[Role.SUPERTYPE].f1 == 1.0
    assert report.exact[Role.DIFFERENTIA_QUALITY].precision == 0.0
    assert report.exact[Role.DIFFERENTIA_QUALITY].recall == 0.0
    assert report.exact[Role.DIFFERENTIA_EVENT].f1 == 1.0
    quality = report.token[Role.DIFFERENTIA_QUALITY]
    assert quality.precision == pytest.approx(1.0, abs=5e-7)
    assert quality.recall == pytest.approx(0.666667, abs=5e-7)
    assert quality.f1 == pytest.approx(0.8, abs=5e-7)
    assert report.supertype_accuracy == 1.0
    assert report.ill_formed_agreement == 1.0


def test_evaluate_symmetry_swaps_precision_and_recall():
    gold, predicted = fixture_pair()
    forward = evaluate(gold, predicted)
    backward = evaluate(predicted, gold)
    for role in Role:
        assert forward.exact[role].precision == backward.exact[role].recall
        assert forward.exact[role].recall == backward.exact[role].precision
        assert forward.token[role].precision == backward.token[role].recall
        assert forward.token[role].recall == backward.token[role].precision


def test_evaluate_alignment_errors_name_the_id():
    gold, predicted = fixture_pair()
    renamed = [
        predicted[0],
        Annotation("other", predicted[1].tokens, predicted[1].spans, False),
    ]
    with pytest.raises(AlignmentError) as info:
        evaluate(gold, renamed)
    assert "other" in str(info.value)

    retokenized = [
        predicted[0],
        Annotation("d2", ("totally", "different", "words", "x"), predicted[1].spans, False),
    ]
    with pytest.raises(AlignmentError) as info:
        evaluate(gold, retokenized)
    assert "d2" in str(info.value)

    with pytest.raises(AlignmentError):
        evaluate(gold, predicted[:1])


def _edited(rng: random.Random, annotation: Annotation) -> Annotation:
    """The same tokens with some spans dropped and some re-roled."""
    spans = []
    for span in annotation.spans:
        roll = rng.random()
        if roll < 0.2:
            continue
        if roll < 0.4:
            span = RoleSpan(rng.choice(list(Role)), span.start, span.end, span.parent)
        spans.append(span)
    return Annotation(annotation.definition_id, annotation.tokens, tuple(spans), rng.random() < 0.2)


def test_evaluate_matches_per_role_oracle():
    rng = random.Random(31)
    for _ in range(300):
        gold = [random_annotation(rng, f"d{i}") for i in range(rng.randint(0, 6))]
        predicted = [_edited(rng, annotation) for annotation in gold]
        if rng.random() < 0.5:
            gold, predicted = predicted, gold
        assert evaluate(gold, predicted).to_dict() == oracle_evaluate(gold, predicted).to_dict()


def test_format_eval_report_has_six_decimal_metrics():
    gold, predicted = fixture_pair()
    text = format_eval_report(evaluate(gold, predicted))
    assert "0.666667" in text
    assert "0.800000" in text
    assert "supertype accuracy: 1.000000" in text


def test_bundled_gold_matches_tree_tokens():
    from defsrl.syntree import parse_bracketed

    records, _ = read_corpus(packaged_data_text(BUNDLED_CORPUS))
    for record in records:
        assert record.gold is not None
        assert tuple(parse_bracketed(record.tree).tokens()) == record.gold.tokens
