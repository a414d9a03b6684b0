from __future__ import annotations

import errno
import gc
import io
import json
import os
import random
import stat
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_tree
from defsrl.cli import main
from defsrl.corpus import DefinitionRecord, read_corpus, write_corpus
from defsrl.defaults import BUNDLED_CORPUS, packaged_data_text
from defsrl.labeler import LabelerConfig
from defsrl.rolemodel import parse_gold, serialize_gold
from defsrl.syntree import serialize
from test_acceptance import expand_templates


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(packaged_data_text(BUNDLED_CORPUS), encoding="utf-8")
    return path


# --- label -------------------------------------------------------------------------


def test_label_bundled_corpus(corpus_path, tmp_path):
    out = tmp_path / "labeled.jsonl"
    assert main(["label", "--input", str(corpus_path), "--output", str(out)]) == 0
    records, diagnostics = read_corpus(out.read_text(encoding="utf-8"))
    assert diagnostics == []
    assert len(records) == 15
    assert all(r.predicted is not None for r in records)
    tertiary = next(r for r in records if r.id == "Tertiary_period")
    assert tertiary.predicted.ill_formed


def test_label_is_byte_deterministic(corpus_path, tmp_path):
    out1 = tmp_path / "one.jsonl"
    out2 = tmp_path / "two.jsonl"
    main(["label", "--input", str(corpus_path), "--output", str(out1)])
    main(["label", "--input", str(corpus_path), "--output", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_label_empty_input_is_fatal(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["label", "--input", str(empty), "--output", str(out)]) == 1
    assert "zero records" in capsys.readouterr().err


def test_label_missing_input_is_fatal(tmp_path):
    out = tmp_path / "out.jsonl"
    assert main(["label", "--input", str(tmp_path / "nope.jsonl"), "--output", str(out)]) == 1


def test_label_record_without_tree_is_partial(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "a", "pos": "noun", "gloss": "a coach", '
        '"tree": "(NP (DT a) (NN coach))"}\n'
        '{"id": "b", "pos": "noun", "gloss": "no tree here"}\n',
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    assert main(["label", "--input", str(path), "--output", str(out)]) == 2
    assert "no parse tree" in capsys.readouterr().err
    records, _ = read_corpus(out.read_text(encoding="utf-8"))
    assert records[0].predicted is not None
    assert records[1].predicted is None


def test_label_trace_sidecar(corpus_path, tmp_path):
    out = tmp_path / "labeled.jsonl"
    assert (
        main(["label", "--input", str(corpus_path), "--output", str(out), "--trace"])
        == 0
    )
    trace_path = Path(str(out) + ".trace")
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 15
    payload = json.loads(lines[0])
    assert payload["id"] == "footwear"
    assert all({"rule", "start", "end", "reason"} <= set(t) for t in payload["trace"])


def test_label_custom_lexicon_flag(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "a", "pos": "noun", "gloss": "a gadget", '
        '"tree": "(NP (DT a) (NN gadget))"}\n',
        encoding="utf-8",
    )
    lexicon = tmp_path / "nouns.txt"
    lexicon.write_text("gadget\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert (
        main(
            [
                "label",
                "--input", str(path),
                "--output", str(out),
                "--noun-lexicon", str(lexicon),
            ]
        )
        == 0
    )
    records, _ = read_corpus(out.read_text(encoding="utf-8"))
    assert not records[0].predicted.ill_formed


@pytest.mark.parametrize("token", ["a|b", "{x", "y}"])
def test_label_rejects_reserved_characters_in_tree_tokens(tmp_path, capsys, token):
    path = tmp_path / "corpus.jsonl"
    lines = [
        {"id": "bad", "pos": "noun", "gloss": f"a {token}",
         "tree": f"(NP (DT a) (NN {token}))"},
        {"id": "good", "pos": "noun", "gloss": "a coach",
         "tree": "(NP (DT a) (NN coach))"},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["label", "--input", str(path), "--output", str(out)]) == 2
    assert f"bad: tree token {token!r}" in capsys.readouterr().err
    records, diagnostics = read_corpus(out.read_text(encoding="utf-8"))
    assert diagnostics == []
    assert [r.id for r in records] == ["good"]
    assert records[0].predicted is not None


@pytest.mark.parametrize("char", ["{", "}", "|"])
@pytest.mark.parametrize("command", ["stats", "eval"])
def test_read_commands_reject_reserved_characters_in_tree_tokens(tmp_path, capsys, command, char):
    token = f"a{char}b"
    bad = {"id": "bad", "pos": "noun", "gloss": f"a {token}",
           "tree": f"(NP (DT a) (NN {token}))",
           "gold": "a {supertype|coach}", "predicted": "a {supertype|coach}"}
    good = {"id": "good", "pos": "noun", "gloss": "a coach",
            "tree": "(NP (DT a) (NN coach))",
            "gold": "a {supertype|coach}", "predicted": "{supertype|a} coach"}
    clean = _write(tmp_path / "clean.jsonl", json.dumps(good) + "\n")
    path = _write(tmp_path / "corpus.jsonl", json.dumps(bad) + "\n" + json.dumps(good) + "\n")
    assert main([command, "--input", str(clean)]) == 0
    expected = capsys.readouterr().out
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"{path}:1: bad: tree token {token!r} contains '{{', '}}' or '|', "
        "which the annotation format reserves"
    ]
    assert captured.out == expected


FORM_OF_COACH = {"id": "form_of_coach", "pos": "noun", "gloss": "a form of coach",
                 "tree": "(NP (NP (DT a) (NN form)) (PP (IN of) (NP (NN coach))))"}
_ALLIUM_REST = "{supertype|genus} {differentia_quality|of perennial and biennial pungent bulbous plants}"

# Each case: the --config payload (None: no --config) -> the predictions for
# the bundled Allium record and for FORM_OF_COACH.
LABEL_CONFIGS = {
    "defaults": (
        None,
        "{accessory_quality|large} " + _ALLIUM_REST,
        "{accessory_determiner|a form of} {supertype|coach}",
    ),
    "no-accessory-quality-words": (
        {"accessory_quality_words": []},
        "{differentia_quality|large} " + _ALLIUM_REST,
        "{accessory_determiner|a form of} {supertype|coach}",
    ),
    "no-accessory-determiner-phrases": (
        {"accessory_determiner_phrases": []},
        "{accessory_quality|large} " + _ALLIUM_REST,
        "a {supertype|form} {differentia_quality|of coach}",
    ),
}


@pytest.mark.parametrize("case", LABEL_CONFIGS)
def test_label_config_word_lists_replace_the_defaults(tmp_path, case):
    payload, allium, form_of = LABEL_CONFIGS[case]
    bundled = packaged_data_text(BUNDLED_CORPUS).splitlines()
    source = tmp_path / "in.jsonl"
    source.write_text(
        next(line for line in bundled if '"id": "Allium"' in line) + "\n"
        + json.dumps(FORM_OF_COACH) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    argv = ["label", "--input", str(source), "--output", str(out)]
    if payload is not None:
        argv += ["--config", _write(tmp_path / "config.json", json.dumps(payload))]
    assert main(argv) == 0
    records, _ = read_corpus(out.read_text(encoding="utf-8"))
    assert [serialize_gold(r.predicted) for r in records] == [allium, form_of]


GOOD_RECORD = {"id": "good", "pos": "noun", "gloss": "a coach",
               "tree": "(NP (DT a) (NN coach))", "gold": "a {supertype|coach}"}

# Each case: a record that reads with a diagnostic, and its message.
UNWRITABLE_RECORDS = {
    "orphan-sub-role": (
        {"id": "bad", "pos": "noun", "gloss": "a dog at noon",
         "gold": "a {supertype|dog} {event_time|at noon}"},
        "event_time requires a parent reference",
    ),
    "bar-in-a-token": (
        {"id": "bad", "pos": "noun", "gloss": "x|y dog", "gold": "x|y {supertype|dog}"},
        "a token holds '|', which the format reserves",
    ),
    "bar-in-a-segment": (
        {"id": "bad", "pos": "noun", "gloss": "x dog", "gold": "x {supertype|dog|cat}"},
        "a token holds '|', which the format reserves",
    ),
    "lone-surrogate": (
        {"id": "bad", "pos": "noun", "gloss": "x \ud800 dog"},
        "'gloss' holds an unpaired surrogate",
    ),
}


@pytest.mark.parametrize("case", UNWRITABLE_RECORDS)
def test_label_reports_a_record_it_could_not_write_back(tmp_path, capsys, case):
    bad, message = UNWRITABLE_RECORDS[case]
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(bad) + "\n" + json.dumps(GOOD_RECORD) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["label", "--input", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"{path}:1: {message}"]
    records, diagnostics = read_corpus(out.read_text(encoding="utf-8"))
    assert diagnostics == []
    assert [r.id for r in records] == ["good"]
    assert records[0].predicted is not None


def test_label_keeps_the_first_of_repeated_ids(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    repeat = dict(GOOD_RECORD, gloss="a dog", tree="(NP (DT a) (NN dog))", gold=None)
    path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(repeat) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["label", "--input", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"{path}:2: duplicate id 'good' (first on line 1)"
    ]
    records, _ = read_corpus(out.read_text(encoding="utf-8"))
    assert [(r.id, r.gloss) for r in records] == [("good", "a coach")]


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
def test_label_output_with_a_unicode_line_separator_reads_back(tmp_path, capsys, separator):
    # JSON writes these characters raw; each stays inside its record.
    record = DefinitionRecord(
        f"x{separator}y", "noun", f"a dog{separator}that barks", tree="(NP (DT a) (NN dog))"
    )
    path, out = tmp_path / "corpus.jsonl", tmp_path / "out.jsonl"
    path.write_text(write_corpus([record]), encoding="utf-8")
    assert main(["label", "--input", str(path), "--output", str(out)]) == 0
    (labeled,), diagnostics = read_corpus(out.read_text(encoding="utf-8"))
    assert diagnostics == [] and (labeled.id, labeled.gloss) == (record.id, record.gloss)
    assert main(["stats", "--input", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["Total", "1", "100.0"]


# Characters the inline format and JSON make special, and a lone surrogate.
_ALPHABET = ["a", "b", "{", "}", "|", "@", "1", " ", "\t", "\n", "\ud800"]
_TEXT = st.lists(st.sampled_from(_ALPHABET), max_size=12).map("".join)
_GOLD = st.lists(
    st.one_of(
        st.sampled_from([
            "{supertype|dog}", "{differentia_quality|big}", "{differentia_event|runs}",
            "{quality_modifier@1|very}", "{event_time@2|at noon}", "{particle@0|up}",
            "{quality_modifier|very}", "{event_location|here}", "{particle|off}",
            "|", "x|y", "dog",
        ]),
        _TEXT,
    ),
    max_size=5,
).map(" ".join)
_TOKEN = st.one_of(st.just("dog"), _TEXT.filter(lambda t: t and not t.isspace()))


@st.composite
def _drawn_records(draw) -> dict:
    record = {
        "id": draw(st.one_of(st.just(GOOD_RECORD["id"]), _TEXT)),
        "pos": draw(st.sampled_from(["noun", "verb"])),
        "gloss": draw(_TEXT),
    }
    if draw(st.booleans()):
        record["tree"] = f"(NP (DT a) (NN {draw(_TOKEN)}))"
    for name in ("gold", "predicted"):
        if draw(st.booleans()):
            record[name] = draw(_GOLD)
    return record


@settings(max_examples=200, deadline=None)
@given(_drawn_records())
def test_one_drawn_record_never_costs_the_batch(drawn):
    # stdout strict and stderr escaping, as on a UTF-8 terminal.
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with TemporaryDirectory() as work, redirect_stdout(out), redirect_stderr(err):
        path = Path(work) / "corpus.jsonl"
        path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(drawn) + "\n",
                        encoding="utf-8")
        labeled = Path(work) / "out.jsonl"
        assert main(["label", "--input", str(path), "--output", str(labeled)]) in (0, 2)
        assert main(["lint", "--input", str(path)]) in (0, 2)
        records, diagnostics = read_corpus(labeled.read_text(encoding="utf-8"))
    assert diagnostics == []
    assert records[0].id == GOOD_RECORD["id"] and records[0].predicted is not None


# --- stats -------------------------------------------------------------------------


def test_stats_bundled_corpus(corpus_path, capsys):
    assert main(["stats", "--input", str(corpus_path)]) == 0
    output = capsys.readouterr().out
    assert "(supertype) (differentia quality)" in output
    assert "Other" in output
    assert "Total" in output
    # Percentages in the table sum to ~100.
    rows = [line for line in output.splitlines()[1:] if line.strip()]
    total_row = [line for line in rows if line.startswith("Total")][0]
    assert total_row.split()[-1] == "100.0"


def test_stats_single_annotation(tmp_path, capsys):
    path = tmp_path / "one.jsonl"
    path.write_text(
        '{"id": "a", "pos": "noun", "gloss": "a coach", "gold": "a {supertype|coach}"}\n',
        encoding="utf-8",
    )
    assert main(["stats", "--input", str(path)]) == 0
    output = capsys.readouterr().out
    assert "Total" in output and "  1  " in output


def test_stats_without_annotations_is_fatal(tmp_path, capsys):
    path = tmp_path / "bare.jsonl"
    path.write_text('{"id": "a", "pos": "noun", "gloss": "a coach"}\n', encoding="utf-8")
    assert main(["stats", "--input", str(path)]) == 1
    assert "no annotations" in capsys.readouterr().err


# --- eval --------------------------------------------------------------------------


def test_eval_identical_files_scores_one(corpus_path, capsys):
    assert main(["eval", "--input", str(corpus_path), str(corpus_path)]) == 0
    output = capsys.readouterr().out
    assert "supertype accuracy: 1.000000" in output
    assert "ill-formed agreement: 1.000000" in output


def test_eval_single_file_with_both_fields(corpus_path, tmp_path, capsys):
    labeled = tmp_path / "labeled.jsonl"
    main(["label", "--input", str(corpus_path), "--output", str(labeled)])
    assert main(["eval", "--input", str(labeled)]) == 0
    output = capsys.readouterr().out
    assert "supertype accuracy: 1.000000" in output


def test_eval_strict_threshold(tmp_path, capsys):
    # Five definitions, one supertype wrong: accuracy 0.8 under threshold 0.9.
    gold_records = []
    predicted_records = []
    for i in range(5):
        gold = parse_gold("a {supertype|coach} {differentia_quality|of players}", f"d{i}")
        if i == 0:
            predicted = parse_gold(
                "a coach {differentia_quality|of players}".replace(
                    "a coach", "{supertype|a} coach"
                ),
                f"d{i}",
            )
        else:
            predicted = gold
        gold_records.append(
            DefinitionRecord(f"d{i}", "noun", "a coach of players", gold=gold)
        )
        predicted_records.append(
            DefinitionRecord(f"d{i}", "noun", "a coach of players", gold=predicted)
        )
    gold_path = tmp_path / "gold.jsonl"
    predicted_path = tmp_path / "pred.jsonl"
    gold_path.write_text(write_corpus(gold_records), encoding="utf-8")
    predicted_path.write_text(write_corpus(predicted_records), encoding="utf-8")

    assert (
        main(["eval", "--input", str(gold_path), str(predicted_path)]) == 0
    )
    assert (
        main(
            [
                "eval",
                "--input", str(gold_path), str(predicted_path),
                "--strict", "--threshold", "0.9",
            ]
        )
        == 1
    )
    assert "below threshold" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", ["--noun-lexicon", "--verb-lexicon", "--loc-gazetteer", "--time-gazetteer"]
)
def test_eval_rejects_knowledge_flags_it_would_ignore(corpus_path, capsys, flag):
    with pytest.raises(SystemExit) as info:
        main(["eval", "--input", str(corpus_path), flag, "x"])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err


def test_eval_reads_the_threshold_from_config(corpus_path, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"supertype_accuracy_threshold": 1.5}', encoding="utf-8")
    assert main(["eval", "--input", str(corpus_path), str(corpus_path), "--strict"]) == 0
    assert (
        main(["eval", "--input", str(corpus_path), str(corpus_path), "--strict",
              "--config", str(config)])
        == 1
    )
    assert "below threshold 1.500000" in capsys.readouterr().err


def test_eval_report_json_output(corpus_path, tmp_path):
    report_path = tmp_path / "report.json"
    assert (
        main(
            [
                "eval",
                "--input", str(corpus_path), str(corpus_path),
                "--output", str(report_path),
            ]
        )
        == 0
    )
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["supertype_accuracy"] == 1.0
    assert payload["roles"]["supertype"]["exact"]["f1"] == 1.0


def test_eval_alignment_error_names_ids(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    a.write_text(
        '{"id": "x", "pos": "noun", "gloss": "g", "gold": "{supertype|coach}"}\n',
        encoding="utf-8",
    )
    b.write_text(
        '{"id": "y", "pos": "noun", "gloss": "g", "gold": "{supertype|coach}"}\n',
        encoding="utf-8",
    )
    assert main(["eval", "--input", str(a), str(b)]) == 1
    err = capsys.readouterr().err
    assert "x" in err and "y" in err


@pytest.mark.parametrize("repeated_in", ["gold-file", "predictions-file"])
def test_eval_pairs_one_to_one_when_a_file_repeats_an_id(tmp_path, capsys, repeated_in):
    lines = {
        "x": '{"id": "x", "pos": "noun", "gloss": "a coach", "%s": "a {supertype|coach}"}',
        "y": '{"id": "y", "pos": "noun", "gloss": "dog", "%s": "{supertype|dog}"}',
        "x-again": '{"id": "x", "pos": "noun", "gloss": "a coach", "%s": "{supertype|a} coach"}',
    }
    gold = tmp_path / "gold.jsonl"
    predicted = tmp_path / "predicted.jsonl"
    gold.write_text((lines["x"] + "\n" + lines["y"] + "\n") % ("gold", "gold"), encoding="utf-8")
    predicted.write_text(
        (lines["x"] + "\n" + lines["y"] + "\n") % ("predicted", "predicted"), encoding="utf-8"
    )
    assert main(["eval", "--input", str(gold), str(predicted)]) == 0
    clean = capsys.readouterr().out
    assert "pairs: 2" in clean and "supertype accuracy: 1.000000" in clean

    path, field = (gold, "gold") if repeated_in == "gold-file" else (predicted, "predicted")
    path.write_text(
        (lines["x"] + "\n" + lines["x-again"] + "\n" + lines["y"] + "\n") % ((field,) * 3),
        encoding="utf-8",
    )
    assert main(["eval", "--input", str(gold), str(predicted)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"{path}:2: duplicate id 'x' (first on line 1)"]
    assert captured.out == clean


@pytest.mark.parametrize("form", ["one-file", "two-files"])
def test_eval_reports_a_token_mismatch_and_scores_the_other_pairs(tmp_path, capsys, form):
    # x's gold and predicted annotations cover different tokens.
    x = {"id": "x", "pos": "noun", "gloss": "a coach"}
    y = {"id": "y", "pos": "noun", "gloss": "dog"}
    gold = [dict(x, gold="a {supertype|coach}"), dict(y, gold="{supertype|dog}")]
    predicted = [dict(x, predicted="{supertype|dog}"), dict(y, predicted="{supertype|dog}")]

    def corpus(name, records):
        return _write(tmp_path / name, "".join(json.dumps(r) + "\n" for r in records))

    def inputs(count):
        if form == "one-file":
            return [corpus("one.jsonl", [dict(g, **p) for g, p in zip(gold, predicted)][:count])]
        return [corpus("gold.jsonl", gold[:count]), corpus("predicted.jsonl", predicted[:count])]

    assert main(["eval", "--input", *inputs(2)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["x: gold and predicted tokens differ"]
    assert "pairs: 1" in captured.out
    assert "supertype accuracy: 1.000000" in captured.out
    # With x alone there is no pair left to score.
    assert main(["eval", "--input", *inputs(1), "--strict"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "x: gold and predicted tokens differ",
        "error: no pair of gold and predicted annotations has the same tokens",
    ]
    assert captured.out == ""


# A line that parses as JSON but is not a record.
BAD_LINE = '["not", "a", "record"]'

# Each case: (path of the corpus under test, path of a clean labeled corpus) -> argv.
READ_ONLY_COMMANDS = {
    "stats": lambda path, labeled: ["stats", "--input", path],
    "eval-one-file": lambda path, labeled: ["eval", "--input", path],
    "eval-two-files": lambda path, labeled: ["eval", "--input", path, labeled],
}


@pytest.mark.parametrize("command", READ_ONLY_COMMANDS)
def test_a_bad_line_is_reported_and_the_clean_records_still_count(
    corpus_path, tmp_path, capsys, command
):
    labeled = tmp_path / "labeled.jsonl"
    assert main(["label", "--input", str(corpus_path), "--output", str(labeled)]) == 0
    lines = labeled.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(2, BAD_LINE + "\n")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    argv = READ_ONLY_COMMANDS[command]
    capsys.readouterr()

    assert main(argv(str(labeled), str(labeled))) == 0
    clean = capsys.readouterr()
    assert clean.err == ""
    assert main(argv(str(bad), str(labeled))) == 2
    partial = capsys.readouterr()
    assert partial.err.splitlines() == [f"{bad}:3: line is not a JSON object"]
    assert partial.out == clean.out


# --- lint --------------------------------------------------------------------------


def test_lint_flags_ill_formed_and_circular(corpus_path, capsys):
    assert main(["lint", "--input", str(corpus_path)]) == 2
    output = capsys.readouterr().out
    assert "Tertiary_period: ill-formed definition" in output
    # The Mohorovicic gloss genuinely repeats its definiendum.
    assert "Mohorovicic: circular definition" in output


def test_lint_clean_corpus(tmp_path, capsys):
    path = tmp_path / "clean.jsonl"
    path.write_text(
        '{"id": "trainer", "pos": "noun", "gloss": "a coach of players", '
        '"gold": "a {supertype|coach} {differentia_quality|of players}"}\n',
        encoding="utf-8",
    )
    assert main(["lint", "--input", str(path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_circularity_via_headword(tmp_path, capsys):
    path = tmp_path / "circular.jsonl"
    path.write_text(
        '{"id": "coach", "pos": "noun", "gloss": "a coach of a team", '
        '"gold": "a {supertype|coach} {differentia_quality|of a team}"}\n',
        encoding="utf-8",
    )
    assert main(["lint", "--input", str(path)]) == 2
    assert "circular definition" in capsys.readouterr().out


def test_lint_flags_an_irregular_plural_of_the_definiendum_as_circular(tmp_path, capsys):
    path = tmp_path / "circular.jsonl"
    path.write_text(
        '{"id": "man", "pos": "noun", "gloss": "an adult among men", '
        '"gold": "an {supertype|adult} {differentia_quality|among men}"}\n',
        encoding="utf-8",
    )
    assert main(["lint", "--input", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "man: circular definition: definiendum occurs in its gloss",
        "1 finding(s)",
    ]


def test_lint_reports_a_bad_line_among_its_findings(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "trainer", "pos": "noun", "gloss": "a coach of players", '
        '"gold": "a {supertype|coach} {differentia_quality|of players}"}\n'
        + BAD_LINE + "\n",
        encoding="utf-8",
    )
    assert main(["lint", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"{path}:2: line is not a JSON object", "1 finding(s)"]
    assert captured.err == ""


def test_lint_labels_when_no_annotation_present(tmp_path, capsys):
    path = tmp_path / "unlabeled.jsonl"
    path.write_text(
        '{"id": "widget", "pos": "noun", "gloss": "from then on", '
        '"tree": "(ADVP (IN from) (RB then) (RB on))"}\n',
        encoding="utf-8",
    )
    assert main(["lint", "--input", str(path)]) == 2
    assert "ill-formed" in capsys.readouterr().out


def test_lint_strict_reports_warnings(tmp_path, capsys):
    path = tmp_path / "warn.jsonl"
    path.write_text(
        '{"id": "gadget", "pos": "noun", "gloss": "a thing to see", '
        '"gold": "a {supertype|thing} {purpose|to see}"}\n',
        encoding="utf-8",
    )
    assert main(["lint", "--input", str(path)]) == 0
    assert main(["lint", "--input", str(path), "--strict"]) == 2
    assert "floating_complement" in capsys.readouterr().out


def test_label_and_lint_build_each_instance_mode_config_once(tmp_path, monkeypatch):
    lines = [
        {"id": f"feminist_{i}", "pos": "noun", "gloss": "United States feminist",
         "tree": "(NP (NNP United) (NNPS States) (NN feminist))", "instance": i % 2 == 0}
        for i in range(6)
    ]
    path = tmp_path / "instances.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    built = []
    post_init = LabelerConfig.__post_init__

    def counting_post_init(self: LabelerConfig) -> None:
        built.append(self.instance_mode)
        post_init(self)

    monkeypatch.setattr(LabelerConfig, "__post_init__", counting_post_init)
    out = tmp_path / "out.jsonl"
    assert main(["label", "--input", str(path), "--output", str(out)]) == 0
    assert sorted(built) == [False, True]  # the default config and its instance variant
    records, _ = read_corpus(out.read_text(encoding="utf-8"))
    origins = [
        [s.role.value for s in r.predicted.spans].count("origin_location") for r in records
    ]
    assert origins == [1, 0, 1, 0, 1, 0]
    built.clear()
    main(["lint", "--input", str(path)])
    assert sorted(built) == [False, True]


def test_lint_reports_a_label_failure_and_lints_the_other_records(tmp_path, monkeypatch, capsys):
    from defsrl import cli
    from defsrl.labeler import EmptyDefinitionError, label

    lines = [
        {"id": name, "pos": "noun", "gloss": "from then on",
         "tree": "(ADVP (IN from) (RB then) (RB on))"}
        for name in ("first", "broken", "last")
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")

    def failing_label(tree, pos, config, definition_id=""):
        if definition_id == "broken":
            raise EmptyDefinitionError("tree has no tokens")
        return label(tree, pos, config, definition_id)

    monkeypatch.setattr(cli, "label", failing_label)
    assert main(["lint", "--input", str(path)]) == 2
    output = capsys.readouterr().out.splitlines()
    assert "broken: tree has no tokens" in output
    assert not any(line.startswith("broken: ill-formed") for line in output)
    for name in ("first", "last"):
        assert f"{name}: ill-formed definition: no supertype" in output
    assert output[-1] == "3 finding(s)"


@pytest.mark.parametrize("command", ["label", "lint"])
def test_an_internal_error_fails_only_its_own_record(tmp_path, monkeypatch, capsys, command):
    from defsrl import cli
    from defsrl.labeler import label

    lines = [
        {"id": name, "pos": "noun", "gloss": "a coach", "tree": "(NP (DT a) (NN coach))"}
        for name in ("first", "broken", "last")
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")

    def failing_label(tree, pos, config, definition_id=""):
        if definition_id == "broken":
            raise RuntimeError("boom")
        return label(tree, pos, config, definition_id)

    monkeypatch.setattr(cli, "label", failing_label)
    failure = "broken: internal error: RuntimeError: boom"
    if command == "lint":
        assert main(["lint", "--input", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == [failure, "1 finding(s)"]
        return
    out = tmp_path / "out.jsonl"
    assert main(["label", "--input", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [failure]
    source, _ = read_corpus(path.read_text(encoding="utf-8"))
    labeled, _ = read_corpus(out.read_text(encoding="utf-8"))
    assert labeled[1] == source[1]
    assert [r.predicted is not None for r in labeled] == [True, False, True]


def _write(path: Path, data: str | bytes) -> str:
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, encoding="utf-8")
    return str(path)


# Each case: (corpus path, scratch directory) -> argv.
FATAL_INPUTS = {
    "config-json-list": lambda corpus, tmp: [
        "label", "--input", corpus, "--output", str(tmp / "out.jsonl"),
        "--config", _write(tmp / "config.json", "[]"),
    ],
    "config-invalid-json": lambda corpus, tmp: [
        "eval", "--input", corpus, corpus, "--strict",
        "--config", _write(tmp / "config.json", "{"),
    ],
    "accessory-words-not-a-list": lambda corpus, tmp: [
        "label", "--input", corpus, "--output", str(tmp / "out.jsonl"),
        "--config", _write(tmp / "config.json", '{"accessory_quality_words": 5}'),
    ],
    "threshold-not-a-number": lambda corpus, tmp: [
        "eval", "--input", corpus, corpus, "--strict",
        "--config", _write(tmp / "config.json", '{"supertype_accuracy_threshold": "x"}'),
    ],
    "threshold-flag-nan": lambda corpus, tmp: [
        "eval", "--input", corpus, corpus, "--strict", "--threshold", "nan",
    ],
    "threshold-flag-infinite": lambda corpus, tmp: [
        "eval", "--input", corpus, corpus, "--strict", "--threshold=-inf",
    ],
    "threshold-nan": lambda corpus, tmp: [
        "eval", "--input", corpus, corpus, "--strict",
        "--config", _write(tmp / "config.json", '{"supertype_accuracy_threshold": NaN}'),
    ],
    "threshold-infinite": lambda corpus, tmp: [
        "eval", "--input", corpus, corpus, "--strict",
        "--config", _write(tmp / "config.json", '{"supertype_accuracy_threshold": -Infinity}'),
    ],
    "threshold-a-boolean": lambda corpus, tmp: [
        "eval", "--input", corpus, corpus, "--strict",
        "--config", _write(tmp / "config.json", '{"supertype_accuracy_threshold": true}'),
    ],
    "threshold-a-numeric-string": lambda corpus, tmp: [
        "eval", "--input", corpus, corpus, "--strict",
        "--config", _write(tmp / "config.json", '{"supertype_accuracy_threshold": "0.5"}'),
    ],
    "missing-config": lambda corpus, tmp: [
        "eval", "--input", corpus, corpus, "--strict", "--config", str(tmp / "nope.json"),
    ],
    "output-is-a-directory": lambda corpus, tmp: [
        "label", "--input", corpus, "--output", str(tmp),
    ],
    "input-is-a-directory": lambda corpus, tmp: ["stats", "--input", str(tmp)],
    "eval-three-inputs": lambda corpus, tmp: ["eval", "--input", corpus, corpus, corpus],
    # The bundled corpus holds gold annotations but no predictions.
    "eval-one-file-without-predictions": lambda corpus, tmp: ["eval", "--input", corpus],
    "input-not-utf8": lambda corpus, tmp: [
        "label", "--input", _write(tmp / "latin1.jsonl", "caf\u00e9\n".encode("latin-1")),
        "--output", str(tmp / "out.jsonl"),
    ],
}


@pytest.mark.parametrize("case", FATAL_INPUTS)
def test_malformed_command_line_inputs_are_fatal_errors(corpus_path, tmp_path, capsys, case):
    work = tmp_path / "work"
    work.mkdir()
    argv = FATAL_INPUTS[case](str(corpus_path), work)
    entries = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == entries


@pytest.mark.parametrize(
    "option, config, name",
    [
        (["--threshold", "nan"], None, "--threshold"),
        ([], '{"supertype_accuracy_threshold": NaN}', "supertype_accuracy_threshold"),
        ([], '{"supertype_accuracy_threshold": false}', "supertype_accuracy_threshold"),
    ],
    ids=["flag-nan", "config-nan", "config-boolean"],
)
def test_a_bad_threshold_is_named_in_the_fatal_error(
    corpus_path, tmp_path, capsys, option, config, name
):
    argv = ["eval", "--input", str(corpus_path), str(corpus_path), "--strict", *option]
    if config is not None:
        argv += ["--config", _write(tmp_path / "config.json", config)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and name in line and "not a finite number" in line


@pytest.mark.parametrize("flag", ["--noun-lexicon", "--verb-lexicon"])
def test_a_malformed_lexicon_is_named_in_the_fatal_error(corpus_path, tmp_path, capsys, flag):
    lexicon = tmp_path / "bad.txt"
    lexicon.write_text("good\n_bad\n", encoding="utf-8")
    argv = ["label", "--input", str(corpus_path), "--output", str(tmp_path / "out.jsonl")]
    assert main([*argv, flag, str(lexicon)]) == 1
    assert capsys.readouterr().err == (
        f"error: {lexicon}: line 2: bad underscore placement in '_bad'\n"
    )


@pytest.mark.parametrize("flag", ["--loc-gazetteer", "--time-gazetteer"])
def test_a_gazetteer_format_error_is_named_in_the_fatal_error(
    corpus_path, tmp_path, capsys, monkeypatch, flag
):
    # Every non-blank gazetteer line is a valid entry, so the loader is made
    # to fail the way the wordlist loader does on a malformed line.
    from defsrl import cli
    from defsrl.lexicon import LexiconFormatError

    def failing_load_gazetteer(text, kind):
        raise LexiconFormatError("empty entry", 2)

    monkeypatch.setattr(cli, "load_gazetteer", failing_load_gazetteer)
    gazetteer = tmp_path / "places.txt"
    gazetteer.write_text("Paris\n", encoding="utf-8")
    argv = ["lint", "--input", str(corpus_path)]
    assert main([*argv, flag, str(gazetteer)]) == 1
    assert capsys.readouterr().err == f"error: {gazetteer}: line 2: empty entry\n"


def test_a_malformed_entry_past_the_first_block_names_its_line(corpus_path, tmp_path, capsys):
    from defsrl import corpus

    good = "".join(f"noun{i}\r\n" for i in range(2 * corpus._BLOCK // 8))
    assert len(good.encode("utf-8")) > 2 * corpus._BLOCK
    lexicon = _write(tmp_path / "nouns.txt", good + "\n# note\nsea__lion\n")
    line_no = good.count("\n") + 3
    argv = ["lint", "--input", str(corpus_path), "--noun-lexicon", lexicon]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: {lexicon}: line {line_no}: bad underscore placement in 'sea__lion'\n"
    )


def test_a_byte_that_is_not_utf8_outranks_an_earlier_format_error(corpus_path, tmp_path, capsys):
    # The malformed first line is in the first block, the bad byte blocks later.
    from defsrl import corpus

    data = b"_bad\n" + b"noun\n" * (2 * corpus._BLOCK // 5) + b"caf\xe9\n"
    lexicon = _write(tmp_path / "nouns.txt", data)
    offset = data.index(b"\xe9")
    assert offset > corpus._BLOCK
    assert main(["lint", "--input", str(corpus_path), "--noun-lexicon", lexicon]) == 1
    assert capsys.readouterr() == ("", f"error: {lexicon}: not UTF-8 text (byte {offset})\n")


@pytest.mark.parametrize("flag", ["--noun-lexicon", "--loc-gazetteer"])
def test_a_knowledge_file_costs_memory_by_its_entries_not_its_text(corpus_path, tmp_path, flag):
    # 300 entries among 4.4 MB of comments: read whole, the file's bytes and
    # its text would take 8.8 MB at once.
    comment = "# " + "padding " * 12 + "\n"
    knowledge = _write(
        tmp_path / "knowledge.txt", "".join(f"entry{i}\n" + comment * 150 for i in range(300))
    )
    argv = _label_argv(corpus_path, tmp_path / "out.jsonl", flag, knowledge)
    assert main(argv) == 0  # imports what a run needs, untraced
    peak = _traced_peak(lambda: main(argv))
    assert peak < 1 << 20, peak


def _random_tree_corpus(count: int, seed: int) -> str:
    rng = random.Random(seed)
    records = []
    for i in range(count):
        tree = random_tree(rng, max_depth=5)
        records.append(
            DefinitionRecord(
                f"random-{i}", rng.choice(["noun", "verb"]), " ".join(tree.tokens()),
                tree=serialize(tree), instance=rng.random() < 0.3,
            )
        )
    return write_corpus(records)


@pytest.mark.parametrize("corpus", ["bundled", "random-trees"])
def test_relabeling_a_labeled_corpus_is_byte_identical(tmp_path, corpus):
    source = tmp_path / "in.jsonl"
    if corpus == "bundled":
        source.write_text(packaged_data_text(BUNDLED_CORPUS), encoding="utf-8")
    else:
        source.write_text(_random_tree_corpus(500, seed=2024), encoding="utf-8")
    once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    assert main(["label", "--input", str(source), "--output", str(once)]) == 0
    assert main(["label", "--input", str(once), "--output", str(twice)]) == 0
    assert once.read_bytes() == twice.read_bytes()


# --- label output files ------------------------------------------------------------


def _label_argv(source: Path, out: Path, *extra: str) -> list[str]:
    return ["label", "--input", str(source), "--output", str(out), *extra]


def _contents(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.fixture()
def earlier_output(tmp_path):
    """A directory holding an earlier ``out.jsonl`` and its trace."""
    work = tmp_path / "work"
    work.mkdir()
    (work / "out.jsonl").write_text("earlier output\n", encoding="utf-8")
    (work / "out.jsonl.trace").write_text("earlier trace\n", encoding="utf-8")
    return work


@pytest.fixture()
def labeled_bytes(corpus_path, tmp_path):
    """The bytes of the bundled corpus labeled into a new file."""
    reference = tmp_path / "reference" / "out.jsonl"
    reference.parent.mkdir()
    assert main(_label_argv(corpus_path, reference)) == 0
    return reference.read_bytes()


def test_an_interrupt_leaves_the_earlier_output_untouched(
    corpus_path, earlier_output, monkeypatch
):
    from defsrl import cli
    from defsrl.labeler import label

    calls = []

    def interrupted_label(*args):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return label(*args)

    monkeypatch.setattr(cli, "label", interrupted_label)
    before = _contents(earlier_output)
    with pytest.raises(KeyboardInterrupt):
        main(_label_argv(corpus_path, earlier_output / "out.jsonl", "--trace"))
    assert len(calls) == 3
    assert _contents(earlier_output) == before


class _FullDisk:
    """A text stream whose third write fails the way a full disk does."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.stream.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.stream.close()


def _full_disk(monkeypatch):
    """Wrap each stream that ``defsrl.cli`` opens for writing in a
    ``_FullDisk``; it reads its inputs through whatever ``open`` it had."""
    from defsrl import cli

    opener = getattr(cli, "open", open)

    def opening(*args, **kwargs):
        stream = opener(*args, **kwargs)
        return _FullDisk(stream) if "w" in stream.mode else stream

    monkeypatch.setattr(cli, "open", opening, raising=False)


def test_a_write_error_leaves_the_earlier_output_untouched(
    corpus_path, earlier_output, monkeypatch, capsys
):
    _full_disk(monkeypatch)
    before = _contents(earlier_output)
    assert main(_label_argv(corpus_path, earlier_output / "out.jsonl", "--trace")) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    ]
    assert _contents(earlier_output) == before


def test_a_fatal_config_error_creates_no_temporary_file(
    corpus_path, earlier_output, monkeypatch, capsys
):
    config = earlier_output / "config.json"
    config.write_text("[]", encoding="utf-8")
    created = []
    real_open = os.open

    def spying_open(path, flags, *args, **kwargs):
        if flags & os.O_CREAT:
            created.append(path)
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spying_open)
    before = _contents(earlier_output)
    argv = _label_argv(corpus_path, earlier_output / "out.jsonl", "--trace")
    assert main([*argv, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: config {config}: not a JSON object\n"
    assert created == []
    assert _contents(earlier_output) == before


def test_an_output_in_a_missing_directory_is_named_in_the_fatal_error(
    corpus_path, tmp_path, capsys
):
    out = tmp_path / "missing" / "out.jsonl"
    assert main(_label_argv(corpus_path, out)) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{out}'\n"
    )
    assert sorted(tmp_path.rglob("*")) == [corpus_path]


posix_modes = pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")


@posix_modes
def test_a_new_output_gets_the_umask_mode(corpus_path, tmp_path):
    out = tmp_path / "out.jsonl"
    umask = os.umask(0o027)
    try:
        assert main(_label_argv(corpus_path, out, "--trace")) == 0
    finally:
        os.umask(umask)
    for path in (out, Path(f"{out}.trace")):
        assert stat.S_IMODE(path.stat().st_mode) == 0o640


@posix_modes
def test_an_existing_output_keeps_its_permission_bits(corpus_path, tmp_path, labeled_bytes):
    out = tmp_path / "out.jsonl"
    trace = Path(f"{out}.trace")
    for path, mode in ((out, 0o604), (trace, 0o751)):
        path.write_text("earlier\n", encoding="utf-8")
        os.chmod(path, mode)
    assert main(_label_argv(corpus_path, out, "--trace")) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o604
    assert stat.S_IMODE(trace.stat().st_mode) == 0o751
    assert out.read_bytes() == labeled_bytes


def test_a_symlinked_output_stays_a_symlink(corpus_path, tmp_path, labeled_bytes):
    target = tmp_path / "elsewhere" / "labeled.jsonl"
    target.parent.mkdir()
    target.write_text("earlier\n", encoding="utf-8")
    work = tmp_path / "work"
    work.mkdir()
    link = work / "out.jsonl"
    try:
        link.symlink_to(target)
    except OSError as exc:
        pytest.skip(f"cannot create a symlink: {exc}")
    assert main(_label_argv(corpus_path, link)) == 0
    assert link.is_symlink()
    assert Path(os.readlink(link)) == target
    assert target.read_bytes() == labeled_bytes
    assert sorted(os.listdir(work)) == ["out.jsonl"]
    assert sorted(os.listdir(target.parent)) == ["labeled.jsonl"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_fifo_output_is_written_in_place(corpus_path, tmp_path, labeled_bytes):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(_label_argv(corpus_path, fifo)) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert received == [labeled_bytes]


def test_label_can_write_over_its_own_input(corpus_path, labeled_bytes):
    assert main(_label_argv(corpus_path, corpus_path)) == 0
    assert corpus_path.read_bytes() == labeled_bytes


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_label_memory_grows_with_its_input_not_its_output(tmp_path):
    source = tmp_path / "in.jsonl"
    source.write_text(write_corpus(expand_templates(2_000)), encoding="utf-8")
    argv = _label_argv(source, tmp_path / "out.jsonl", "--trace")
    assert main(argv) == 0  # loads the packaged knowledge files once, untraced
    read_peak = _traced_peak(lambda: read_corpus(source.read_text(encoding="utf-8")))
    label_peak = _traced_peak(lambda: main(argv))
    assert label_peak <= 1.25 * read_peak, (label_peak, read_peak)


# --- streamed corpora ---------------------------------------------------------------


def _mixed_corpus(path: Path) -> str:
    """Bad lines (2, 4, 6) among records that ``label`` and ``lint`` report:
    ``label`` each record without a tree (a, c, d), ``lint`` each with
    neither tree nor annotation (a, c)."""
    lines = [
        {"id": "a", "pos": "noun", "gloss": "a coach"},
        BAD_LINE,
        {"id": "b", "pos": "noun", "gloss": "a coach", "tree": "(NP (DT a) (NN coach))"},
        {"id": "a", "pos": "noun", "gloss": "a dog", "tree": "(NP (DT a) (NN dog))"},
        {"id": "c", "pos": "noun", "gloss": "a dog"},
        "{not json",
        {"id": "d", "pos": "noun", "gloss": "a dog", "gold": "a {supertype|dog}"},
    ]
    return _write(path, "".join(
        (line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines
    ))


def _bad_lines(path: str) -> list[str]:
    return [
        f"{path}:2: line is not a JSON object",
        f"{path}:4: duplicate id 'a' (first on line 1)",
        f"{path}:6: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ]


def test_label_prints_the_bad_lines_before_the_records_it_passed_through(tmp_path, capsys):
    path = _mixed_corpus(tmp_path / "mixed.jsonl")
    assert main(_label_argv(Path(path), tmp_path / "out.jsonl")) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == _bad_lines(path) + [
        "a: no parse tree; record passed through",
        "c: no parse tree; record passed through",
        "d: no parse tree; record passed through",
    ]
    assert captured.out == ""
    records, _ = read_corpus((tmp_path / "out.jsonl").read_text(encoding="utf-8"))
    assert [r.id for r in records] == ["a", "b", "c", "d"]


def test_lint_prints_the_bad_lines_before_its_findings(tmp_path, capsys):
    path = _mixed_corpus(tmp_path / "mixed.jsonl")
    assert main(["lint", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == _bad_lines(path) + [
        "a: nothing to lint: no annotation and no tree",
        "c: nothing to lint: no annotation and no tree",
        "5 finding(s)",
    ]
    assert captured.err == ""


BAD_LINES_ONLY = f"{BAD_LINE}\n{{not json\n\n" + '{"id": "", "pos": "noun", "gloss": "x"}\n'


@pytest.mark.parametrize("command", ["label", "lint", "stats", "eval", "eval-gold", "eval-predicted"])
def test_a_corpus_of_bad_lines_only_prints_only_the_fatal_error(
    corpus_path, tmp_path, capsys, command
):
    bad = _write(tmp_path / "bad.jsonl", BAD_LINES_ONLY)
    argv = {
        "label": _label_argv(Path(bad), tmp_path / "out.jsonl", "--trace"),
        "lint": ["lint", "--input", bad],
        "stats": ["stats", "--input", bad],
        "eval": ["eval", "--input", bad],
        "eval-gold": ["eval", "--input", bad, str(corpus_path)],
        "eval-predicted": ["eval", "--input", str(corpus_path), bad],
    }[command]
    entries = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: zero records parsed from corpus\n")
    assert sorted(tmp_path.rglob("*")) == entries


# Deep enough to exhaust the JSON decoder's recursion on every supported Python.
DEEP_JSON = '{"a":' * 100_000
TOO_DEEP = "JSON nested too deeply to decode"


@pytest.mark.parametrize("command", ["label", "lint", "stats", "eval"])
def test_a_line_of_deeply_nested_json_is_a_bad_line(tmp_path, capsys, command):
    good = json.dumps(dict(GOOD_RECORD, predicted=GOOD_RECORD["gold"])) + "\n"
    outputs = []
    for name, text in (("clean", good), ("deep", good + DEEP_JSON + "\n")):
        path = _write(tmp_path / f"{name}.jsonl", text)
        out = tmp_path / f"{name}.out.jsonl"
        argv = {
            "label": _label_argv(Path(path), out),
            "lint": ["lint", "--input", path],
            "stats": ["stats", "--input", path],
            "eval": ["eval", "--input", path],
        }[command]
        outputs.append((main(argv), capsys.readouterr(), out.read_bytes() if out.exists() else None))
    (clean_code, clean, clean_file), (code, deep, deep_file) = outputs
    bad_line = f"{tmp_path / 'deep.jsonl'}:2: {TOO_DEEP}"
    assert clean_code == 0 and code == 2
    assert deep_file == clean_file
    if command == "lint":
        assert (clean.out, clean.err) == ("clean\n", "")
        assert (deep.out, deep.err) == (f"{bad_line}\n1 finding(s)\n", "")
    else:
        assert clean.err == ""
        assert (deep.out, deep.err) == (clean.out, bad_line + "\n")


@pytest.mark.parametrize("command", ["label", "eval-strict"])
def test_a_config_of_deeply_nested_json_is_one_fatal_error(corpus_path, tmp_path, capsys, command):
    config = _write(tmp_path / "config.json", "[" * 100_000)
    argv = {
        "label": _label_argv(corpus_path, tmp_path / "out.jsonl", "--config", config),
        "eval-strict": ["eval", "--input", str(corpus_path), str(corpus_path), "--strict",
                        "--config", config],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: config {config}: {TOO_DEEP}\n")


def test_a_bad_byte_after_the_first_block_leaves_the_earlier_output_untouched(
    earlier_output, capsys
):
    from defsrl import corpus

    line = json.dumps({"id": "a", "pos": "noun", "gloss": "a coach",
                       "tree": "(NP (DT a) (NN coach))"}).encode("utf-8") + b"\n"
    data = line * (2 * corpus._BLOCK // len(line)) + b'{"id": "\xff"}\n'
    source = earlier_output / "in.jsonl"
    source.write_bytes(data)
    before = _contents(earlier_output)
    assert main(_label_argv(source, earlier_output / "out.jsonl", "--trace")) == 1
    offset = data.index(b"\xff")
    assert offset > corpus._BLOCK
    assert capsys.readouterr().err == f"error: {source}: not UTF-8 text (byte {offset})\n"
    assert _contents(earlier_output) == before


@pytest.fixture()
def opened_files(monkeypatch):
    """Every file that ``defsrl.cli`` opens while the test runs."""
    from defsrl import cli

    handles = []

    def recording_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        handles.append(handle)
        return handle

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    return handles


def _interrupting_label(monkeypatch):
    from defsrl import cli

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "label", interrupted)


# Each case: (bundled corpus, scratch directory) -> (argv, expected exit code
# or exception, optional patch).
CORPUS_PATHS = {
    "label": lambda corpus, tmp: (_label_argv(corpus, tmp / "out.jsonl", "--trace"), 0, None),
    "lint": lambda corpus, tmp: (["lint", "--input", str(corpus)], 2, None),
    "stats": lambda corpus, tmp: (["stats", "--input", str(corpus)], 0, None),
    "eval-two-files": lambda corpus, tmp: (["eval", "--input", str(corpus), str(corpus)], 0, None),
    "eval-missing-predictions": lambda corpus, tmp: (["eval", "--input", str(corpus)], 1, None),
    "eval-ids-not-aligned": lambda corpus, tmp: (
        ["eval", "--input", str(corpus), _write(tmp / "other.jsonl", json.dumps(GOOD_RECORD) + "\n")],
        1, None,
    ),
    "eval-second-file-unreadable": lambda corpus, tmp: (
        ["eval", "--input", str(corpus), _write(tmp / "bad.jsonl", BAD_LINES_ONLY)], 1, None,
    ),
    "label-not-utf8": lambda corpus, tmp: (
        _label_argv(Path(_write(tmp / "latin1.jsonl", "café\n".encode("latin-1"))),
                    tmp / "out.jsonl"), 1, None,
    ),
    "label-config-error": lambda corpus, tmp: (
        _label_argv(corpus, tmp / "out.jsonl", "--config", _write(tmp / "config.json", "[]")),
        1, None,
    ),
    "lint-lexicon-error": lambda corpus, tmp: (
        ["lint", "--input", str(corpus), "--noun-lexicon", _write(tmp / "bad.txt", "_bad\n")],
        1, None,
    ),
    "label-write-error": lambda corpus, tmp: (
        _label_argv(corpus, tmp / "out.jsonl"), 1, _full_disk,
    ),
    "label-interrupted": lambda corpus, tmp: (
        _label_argv(corpus, tmp / "out.jsonl"), KeyboardInterrupt, _interrupting_label,
    ),
}


@pytest.mark.parametrize("case", CORPUS_PATHS)
def test_every_input_file_is_closed_on_every_path(
    corpus_path, tmp_path, monkeypatch, opened_files, capsys, case
):
    work = tmp_path / "work"
    work.mkdir()
    argv, expected, patch_ = CORPUS_PATHS[case](corpus_path, work)
    if patch_ is not None:
        patch_(monkeypatch)
    if isinstance(expected, int):
        assert main(argv) == expected
    else:
        with pytest.raises(expected):
            main(argv)
    # An output is opened by its file descriptor, whose ``name`` is a number.
    named = {Path(h.name) for h in opened_files if isinstance(h.name, str)}
    assert Path(argv[argv.index("--input") + 1]) in named
    assert all(handle.closed for handle in opened_files)


def test_label_validates_each_annotation_once(corpus_path, tmp_path, monkeypatch):
    # ``label()`` checks each prediction it makes and ``parse_gold`` each
    # gold, so writing them checks nothing again. One of the 15 records is
    # ill-formed: ``label()`` returns it with no span, unchecked.
    from defsrl import cli, labeler, rolemodel

    calls = {"validate": 0, "label": 0}
    real_validate, real_label = rolemodel.validate, cli.label

    def counting_validate(annotation):
        calls["validate"] += 1
        return real_validate(annotation)

    def counting_label(*args):
        calls["label"] += 1
        return real_label(*args)

    monkeypatch.setattr(rolemodel, "validate", counting_validate)
    monkeypatch.setattr(labeler, "validate", counting_validate)
    monkeypatch.setattr(cli, "label", counting_label)
    assert main(_label_argv(corpus_path, tmp_path / "out.jsonl")) == 0
    assert calls == {"validate": 14, "label": 15}


def _streamed_peaks(tmp_path: Path, records: int) -> dict[str, int]:
    """The traced memory peak of each command over ``records`` records."""
    work = tmp_path / str(records)
    work.mkdir()
    source = work / "in.jsonl"
    source.write_text(write_corpus(expand_templates(records)), encoding="utf-8")
    labeled = work / "labeled.jsonl"
    assert main(_label_argv(source, labeled)) == 0
    scored = work / "scored.jsonl"
    predicted, _ = read_corpus(labeled.read_text(encoding="utf-8"))
    scored.write_text(write_corpus([replace(r, gold=r.predicted) for r in predicted]),
                      encoding="utf-8")
    commands = {
        "label": _label_argv(source, work / "out.jsonl", "--trace"),
        "lint": ["lint", "--input", str(source)],
        "stats": ["stats", "--input", str(labeled)],
        "eval": ["eval", "--input", str(scored)],
    }
    peaks = {}
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for name, argv in commands.items():
            gc.collect()
            peaks[name] = _traced_peak(lambda: main(argv))
    return peaks


def _tree_corpus(path: Path, records: int, trees: bool) -> Path:
    """``records`` one-phrase records, with a tree each or with none."""
    tree = {"tree": "(NP (DT a) (NN dog))"} if trees else {}
    path.write_text("".join(
        json.dumps({"id": f"dog{i}", "pos": "noun", "gloss": "a dog", **tree}) + "\n"
        for i in range(records)
    ), encoding="utf-8")
    return path


@pytest.mark.parametrize("records", [2_000, 20_000])
def test_problem_lines_cost_no_memory(tmp_path, records):
    # Each record without a tree is passed through with one problem line
    # (about 45 bytes here); the same records with trees report none. Held
    # in a list, the lines cost about 100 bytes each.
    peaks = {}
    for trees, code in ((True, 0), (False, 2)):
        source = _tree_corpus(tmp_path / f"{trees}.jsonl", records, trees)
        argv = _label_argv(source, tmp_path / "out.jsonl")
        with redirect_stderr(io.StringIO()) as stderr:
            assert main(argv) == code  # imports what a run needs, untraced
            gc.collect()
            peaks[trees] = _traced_peak(lambda: main(argv))
        assert stderr.getvalue().count("\n") == (0 if trees else 2 * records)
    assert peaks[False] - peaks[True] < 256 << 10, peaks


def test_spooled_problem_lines_print_the_same_bytes_from_disk(tmp_path, monkeypatch):
    # A corpus path that is no UTF-8 (a ``surrogateescape`` character) and
    # an id holding a "\r" are printed as stderr prints them, whether the
    # problem lines stayed in memory or went to a temporary file.
    import tempfile

    from defsrl import cli

    mixed = _mixed_corpus(tmp_path / os.fsdecode(b"mixed\xff.jsonl"))
    with open(mixed, "a", encoding="utf-8") as stream:
        stream.write(json.dumps({"id": "e\rf", "pos": "noun", "gloss": "a dog"}) + "\n")
    bad = _write(tmp_path / "bad.jsonl", BAD_LINES_ONLY)
    commands = [
        _label_argv(Path(mixed), tmp_path / "out.jsonl"),
        # The second file is unreadable, so its bad lines are dropped.
        ["eval", "--input", mixed, bad],
    ]
    rolled = []
    real_rollover = tempfile.SpooledTemporaryFile.rollover

    def rollover(self):
        rolled.append(self)
        real_rollover(self)

    monkeypatch.setattr(tempfile.SpooledTemporaryFile, "rollover", rollover)
    outputs = {}
    for spool in (cli._SPOOL, 1):
        monkeypatch.setattr(cli, "_SPOOL", spool)
        stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
        with redirect_stderr(stderr):
            codes = [main(argv) for argv in commands]
        stderr.flush()
        outputs[spool] = (codes, stderr.buffer.getvalue())
    # Once the spool is 1 byte: both of label's spools, and eval's spool of
    # bad lines, which then drops the second file's lines from disk.
    assert len(rolled) == 3
    assert outputs[1] == outputs[cli._SPOOL]
    codes, data = outputs[1]
    assert codes == [2, 1]
    shown = mixed.encode("utf-8", "backslashreplace").decode("ascii")
    assert data.decode("ascii").split("\n") == _bad_lines(shown) + [
        "a: no parse tree; record passed through",
        "c: no parse tree; record passed through",
        "d: no parse tree; record passed through",
        "e\rf: no parse tree; record passed through",
        *_bad_lines(shown),
        "error: zero records parsed from corpus",
        "",
    ]


def test_every_command_streams_its_corpus(tmp_path):
    # Holding every record cost 0.75 to 1.8 KB a record (the peak grew 2.6
    # to 3.6-fold from 300 to 1,200 records). What still grows is each
    # record's id, kept for the duplicate-id rule (110 to 120 bytes a record
    # here); 300 records already fill a 64 KiB block.
    small, large = _streamed_peaks(tmp_path, 300), _streamed_peaks(tmp_path, 1_200)
    for name in small:
        assert large[name] < 1.5 * small[name], (name, small[name], large[name])
