from __future__ import annotations

import gc
import io
import json
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_evaluate, random_annotation, random_tree
from defsrl import corpus
from defsrl.cli import main
from defsrl.corpus import (
    AlignmentError,
    CorpusError,
    DefinitionRecord,
    Diagnostic,
    DistributionReport,
    distribution,
    evaluate,
    format_eval_report,
    read_corpus,
    record_line,
    write_corpus,
)
from defsrl.defaults import BUNDLED_CORPUS, packaged_data_text
from defsrl.patterns import Pattern, PatternElement, Repetition, pattern_of, render
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
    "gloss-not-a-string": ('{"id": "b", "pos": "noun", "gloss": NaN}',
                           "'gloss' must be a string"),
    "gloss-null": ('{"id": "b", "pos": "noun", "gloss": null}', "'gloss' must be a string"),
    "tree-not-a-string": ('{"id": "b", "pos": "noun", "gloss": "x", "tree": 5}',
                          "'tree' must be a string"),
    "instance-not-a-boolean": ('{"id": "b", "pos": "noun", "gloss": "x", "instance": "yes"}',
                               "'instance' must be a boolean"),
    "gold-not-a-string": ('{"id": "b", "pos": "noun", "gloss": "x", "gold": 1}',
                          "'gold' must be a string"),
    "predicted-not-a-string": ('{"id": "b", "pos": "noun", "gloss": "x", "predicted": ["a"]}',
                               "'predicted' must be a string"),
    "line-not-an-object": ('["a"]', "line is not a JSON object"),
    # Deep enough to exhaust the decoder's recursion on every supported Python.
    "json-nested-too-deeply": ('{"a":' * 100_000, "JSON nested too deeply to decode"),
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


# --- the streamed reader -----------------------------------------------------------


def _record_text(record_id: str, gloss: str, **fields) -> str:
    return json.dumps({"id": record_id, "pos": "noun", "gloss": gloss, **fields},
                      ensure_ascii=False)


# Lines of every kind the reader meets: records (a few ids, so some repeat;
# glosses with U+0085, U+2028 and multibyte characters held raw), records
# that fail their checks, lines that are no record, and blank lines.
_LINES = st.one_of(
    st.builds(
        _record_text,
        st.sampled_from(["a", "b", "c", "d\u2028e"]),
        st.sampled_from(["x", "x\x85y", "x\u2028y", "caf\u00e9", "\U0001f600 dog", "a " * 30]),
    ),
    st.sampled_from([
        _record_text("t", "a coach", tree="(NP (DT a) (NN coach))"),
        _record_text("u", "a coach", tree="(NP (DT a) (NN coach)"),
        _record_text("g", "a coach", gold="a {supertype|coach}"),
        _record_text("h", "a coach", gold="a {supertype|coach"),
        '{"id": "p", "pos": "adj", "gloss": "x"}',
        '["not", "a", "record"]',
        "{not json",
        "",
        "   ",
        "\t",
    ]),
)


@st.composite
def _corpus_files(draw) -> bytes:
    lines = draw(st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12))
    data = "".join(line + break_ for line, break_ in lines).encode("utf-8")
    if data and draw(st.booleans()):
        data = data.removesuffix(b"\n").removesuffix(b"\r")  # no final break
    if draw(st.integers(0, 4)) == 0:
        # A byte sequence that is not UTF-8: a stray byte, a truncated
        # character, an encoded surrogate, a lone continuation byte.
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80"]))
        data = data[:at] + bad + data[at:]
    return data


def _streamed(data: bytes, block: int) -> tuple[list, str | None]:
    """The streamed reader's items over ``data`` read ``block`` bytes at a
    time, and the error that ended it, if any."""
    items: list = []
    with patch.object(corpus, "_BLOCK", block):
        try:
            for item in corpus._corpus_items(corpus._decoded_blocks(io.BytesIO(data), "f.jsonl")):
                items.append(item)
        except ValueError as exc:
            return items, f"{type(exc).__name__}: {exc}"
    return items, None


@settings(max_examples=300, deadline=None)
@given(_corpus_files(), st.integers(1, 48))
def test_the_streamed_reader_matches_read_corpus_on_any_file(data, block):
    items, error = _streamed(data, block)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        assert error == f"ValueError: f.jsonl: not UTF-8 text (byte {exc.start})"
        return
    try:
        records, diagnostics = read_corpus(text)
    except CorpusError as exc:
        assert error == f"CorpusError: {exc}"
        assert all(isinstance(item, Diagnostic) for item in items)
        return
    assert error is None
    assert [item for item in items if isinstance(item, Diagnostic)] == diagnostics
    assert [item for item in items if not isinstance(item, Diagnostic)] == records
    # One item per non-blank line, in the file's order.
    assert len(items) == sum(1 for line in corpus._lines(text) if line.strip())


def test_a_bad_byte_after_the_first_block_is_named_by_its_file_offset():
    line = _record_text("a", "x").encode("utf-8") + b"\n"
    data = line * (2 * corpus._BLOCK // len(line)) + b'{"id": "\xff"}\n'
    offset = data.index(b"\xff")
    assert offset > corpus._BLOCK
    with pytest.raises(ValueError) as info:
        list(corpus._corpus_items(corpus._decoded_blocks(io.BytesIO(data), "big.jsonl")))
    assert str(info.value) == f"big.jsonl: not UTF-8 text (byte {offset})"


# What a streamed read keeps per record for its duplicate-id rule, with ids
# of 16 characters (the README states the bound): 111-124 bytes on Python
# 3.10-3.13, for the id string, its table entry and its first line number.
_ID_TABLE_BYTES_PER_RECORD = 150


def _streamed_read_peak(records: int) -> int:
    """The traced memory peak of reading ``records`` records with distinct
    ids and no trees, each dropped as soon as it is read."""
    data = "".join(
        json.dumps({"id": f"definition{i:06d}", "pos": "noun", "gloss": "a dog"}) + "\n"
        for i in range(records)
    ).encode("utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        for _ in corpus._corpus_items(corpus._decoded_blocks(io.BytesIO(data), "ids.jsonl")):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_duplicate_id_table_costs_a_bounded_amount_per_record():
    _streamed_read_peak(100)  # leaves out what only the first read loads
    small, large = _streamed_read_peak(2_000), _streamed_read_peak(20_000)
    assert (large - small) / 18_000 <= _ID_TABLE_BYTES_PER_RECORD, (small, large)


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


def test_record_line_still_checks_a_hand_built_annotation():
    tokens = ("a", "coach")
    overlapping = make_annotation(
        "x", tokens, [RoleSpan(Role.SUPERTYPE, 0, 2), RoleSpan(Role.DIFFERENTIA_QUALITY, 1, 2)]
    )
    reserved = make_annotation("x", ("a|b", "coach"), [RoleSpan(Role.SUPERTYPE, 1, 2)])
    for annotation in (overlapping, reserved):
        record = DefinitionRecord("x", "noun", "a coach", gold=annotation)
        with pytest.raises(ValueError):
            record_line(record)
        with pytest.raises(ValueError):
            write_corpus([record])
        with pytest.raises(ValueError):
            record_line(replace(record, gold=None), annotation)


def test_the_unchecked_line_writes_what_record_line_writes():
    text = packaged_data_text(BUNDLED_CORPUS)
    records, _ = read_corpus(text)
    rng = random.Random(5)
    for record in records:
        predicted = random_annotation(rng, record.id)
        assert corpus._record_line(record, None, checked=False) == record_line(record)
        assert corpus._record_line(record, predicted, checked=False) == record_line(
            record, predicted
        )


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


def test_distribution_reads_a_stream_once_and_counts_it():
    annotations = [quality_annotation(i) for i in range(3)] + [event_annotation(0)]
    streamed = distribution(iter(annotations))
    assert streamed == distribution(annotations)
    assert streamed.total == 4 and streamed.other == 1


def test_distribution_counts_sum_to_input_size():
    annotations = [quality_annotation(i) for i in range(5)]
    annotations += [event_annotation(i) for i in range(1)]  # singleton
    report = distribution(annotations)
    assert sum(c for _, c in report.rows) + report.other == len(annotations)
    assert report.other == 1


def _pattern_of_oracle(annotation: Annotation) -> Pattern:
    """``pattern_of`` as it was written when it built every pattern itself."""
    items = sorted(
        (span for span in annotation.spans
         if span.role not in (Role.PARTICLE, Role.QUALITY_MODIFIER)),
        key=lambda span: span.start,
    )
    elements: list[PatternElement] = []
    i = 0
    while i < len(items):
        j = i + 1
        or_joined = False
        while j < len(items) and items[j].role is items[i].role:
            gap = annotation.tokens[items[j - 1].end : items[j].start]
            if any(token.lower() == "or" for token in gap):
                or_joined = True
            j += 1
        if j - i == 1:
            repetition = Repetition.SINGLE
        elif or_joined:
            repetition = Repetition.OR_PLUS
        else:
            repetition = Repetition.PLUS
        elements.append(PatternElement(items[i].role, repetition))
        i = j
    return Pattern(tuple(elements))


def _distribution_oracle(annotations: list[Annotation]) -> DistributionReport:
    """``distribution`` as it was written, counting one Pattern per annotation."""
    counts = Counter(map(_pattern_of_oracle, annotations))
    ranked = sorted(counts.items(), key=lambda item: (-item[1], render(item[0])))
    return DistributionReport(
        tuple((pattern, count) for pattern, count in ranked if count >= 2),
        tuple(pattern for pattern, count in ranked if count == 1),
        sum(counts.values()),
    )


_PATTERN_ROLES = (
    Role.SUPERTYPE, Role.DIFFERENTIA_QUALITY, Role.DIFFERENTIA_EVENT,
    Role.EVENT_LOCATION, Role.PARTICLE, Role.QUALITY_MODIFIER,
)
_GAP_TOKENS = ("or", "Or", "OR", "and", ",", "the", "x")


@st.composite
def _pattern_annotations(draw) -> Annotation:
    """An annotation of runs of roles, some joined by "or" or "and", with
    particles and quality modifiers among them; its spans in any order."""
    tokens: list[str] = []
    spans: list[RoleSpan] = []
    for _ in range(draw(st.integers(0, 7))):
        tokens += draw(st.lists(st.sampled_from(_GAP_TOKENS), max_size=2))
        start = len(tokens)
        tokens += ["w"] * draw(st.integers(1, 2))
        spans.append(RoleSpan(draw(st.sampled_from(_PATTERN_ROLES)), start, len(tokens)))
    spans = draw(st.permutations(spans))
    return Annotation("p", tuple(tokens), tuple(spans))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_pattern_annotations(), min_size=1, max_size=6),
    st.lists(st.integers(0, 5), max_size=30),
)
def test_distribution_ranks_and_counts_as_one_pattern_per_annotation_did(pool, picks):
    annotations = [pool[i % len(pool)] for i in picks]
    assert distribution(annotations) == _distribution_oracle(annotations)
    for annotation in pool:
        assert pattern_of(annotation) == _pattern_of_oracle(annotation)


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


def _edited(rng: random.Random, annotation: Annotation, shared: float = 0.0) -> Annotation:
    """The same tokens with some spans dropped and some re-roled; with
    probability ``shared``, ``annotation`` itself."""
    if shared and rng.random() < shared:
        return annotation
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


def test_evaluate_scores_a_shared_pair_as_the_per_role_oracle_does():
    # ``read_corpus`` shares one Annotation between a gold and an equal
    # prediction; such a pair is scored from its gold alone. Some annotations
    # repeat a span or overlap two, which ``evaluate`` does not reject.
    rng = random.Random(37)
    shared_pairs = unshared_pairs = 0
    for _ in range(300):
        gold = []
        for i in range(rng.randint(0, 6)):
            annotation = random_annotation(rng, f"d{i}")
            if rng.random() < 0.2:
                extra = rng.choice(annotation.spans)
                if rng.random() < 0.5:
                    extra = RoleSpan(extra.role, extra.start, extra.end + 1)
                annotation = replace(annotation, spans=annotation.spans + (extra,))
            gold.append(annotation)
        predicted = [_edited(rng, annotation, shared=0.6) for annotation in gold]
        shared_pairs += sum(p is g for g, p in zip(gold, predicted))
        unshared_pairs += sum(p is not g for g, p in zip(gold, predicted))
        assert evaluate(gold, predicted).to_dict() == oracle_evaluate(gold, predicted).to_dict()
    assert shared_pairs > 100 and unshared_pairs > 100


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 8))
def test_a_shared_pair_scores_as_an_equal_pair_of_two_annotations(rng, count):
    # The tally folds a shared pair's counts in when it reports; an equal
    # copy of the gold takes the general path through every count.
    golds = [random_annotation(rng, f"d{i}") for i in range(count)]
    copies = [replace(annotation) for annotation in golds]
    assert all(c == g and c is not g for c, g in zip(copies, golds))
    assert evaluate(golds, golds) == evaluate(golds, copies)
    # Shared pairs among pairs that differ, so that no ratio is 1 by default.
    predicted = [_edited(rng, annotation, shared=0.5) for annotation in golds]
    unshared = [replace(p) if p is g else p for g, p in zip(golds, predicted)]
    expected = evaluate(golds, unshared)
    assert evaluate(golds, predicted) == expected
    tally = corpus._Tally()
    for g, p in zip(golds, predicted):
        tally.add(g, p)
    assert tally.report() == tally.report() == expected


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
