from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
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
    assert main(FATAL_INPUTS[case](str(corpus_path), work)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


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
