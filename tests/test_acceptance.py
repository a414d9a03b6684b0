"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s``).

Criteria:
  1. bundled gold corpus: supertypes exact on all 14 well-formed records,
     the dateless record flagged ill-formed, labels match gold everywhere
     except the two trace-documented semantic divergences; < 1 s.
  2. oracle equivalence on >= 1000 random inputs (anchor-NP search and
     longest-rightmost lexicon lookup), zero mismatches.
  3. pattern notation fidelity: the 13 named patterns render byte-identically
     and a 27/13/6/5/3/3/2x7 + 29-singleton synthetic set reproduces the
     distribution rows, Other = 29, Total = 100.
  4. constraint suite: six targeted invalid fixtures all rejected; all 14
     well-formed gold annotations error-clean.
  5. byte-identical round-trips over >= 500 randomized cases each for trees,
     inline gold, pattern strings, and corpus records.
  6. labeling a synthetic 10,000-definition corpus twice is byte-identical
     and finishes in < 10 s.
  7. evaluation correctness: hand-computed two-definition fixture to six
     decimal places; identity input scores exactly 1.0 everywhere.
"""

from __future__ import annotations

import random
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (
    oracle_innermost_leftmost_np,
    oracle_longest_rightmost,
    random_annotation,
    random_tree,
)
from defsrl.cli import main
from defsrl.corpus import (
    DefinitionRecord,
    RoleMetrics,
    distribution,
    evaluate,
    read_corpus,
    write_corpus,
)
from defsrl.defaults import BUNDLED_CORPUS, default_config, packaged_data_text
from defsrl.labeler import (
    DIVERGENCE_ACCESSORY_QUALITY,
    DIVERGENCE_PURPOSE_EVENT,
    label,
)
from defsrl.lexicon import Lexicon, NOUN, longest_rightmost_entry
from defsrl.patterns import parse_pattern, pattern_of, render
from defsrl.rolemodel import (
    Annotation,
    ERROR,
    Role,
    RoleSpan,
    parse_gold,
    serialize_gold,
    validate,
)
from defsrl.syntree import innermost_leftmost_np, parse_bracketed, serialize

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

# The template table the benchmark's synthetic corpus uses too.
from corpora import TEMPLATE_SUBSTITUTIONS  # noqa: E402


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{description}]: PASS")


def bundled_records():
    records, diagnostics = read_corpus(packaged_data_text(BUNDLED_CORPUS))
    assert diagnostics == []
    return records


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_bundled_gold_suite():
    with criterion(1, "bundled gold corpus labeling"):
        records = bundled_records()
        assert len(records) == 15
        config = default_config()

        started = time.perf_counter()
        outcomes = {}
        for record in records:
            record_config = replace(config, instance_mode=record.instance)
            outcomes[record.id] = label(
                parse_bracketed(record.tree), record.pos, record_config, record.id
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"labeling took {elapsed:.3f}s"

        # (a) the supertype is recovered exactly on every well-formed record,
        # including the conjoined-verb and particle cases.
        checked = 0
        for record in records:
            predicted = outcomes[record.id].annotation
            gold = record.gold
            gold_supertype = {
                i for s in gold.spans_of(Role.SUPERTYPE) for i in range(s.start, s.end)
            }
            if not gold_supertype:
                continue
            predicted_supertype = {
                i
                for s in predicted.spans_of(Role.SUPERTYPE)
                for i in range(s.start, s.end)
            }
            assert predicted_supertype == gold_supertype, record.id
            checked += 1
        assert checked == 14
        dart = outcomes["dart"].annotation
        assert [(s.start, s.end) for s in dart.spans_of(Role.SUPERTYPE)] == [
            (0, 1),
            (2, 3),
        ]
        unstaple = outcomes["unstaple"].annotation
        particle = unstaple.spans_of(Role.PARTICLE)[0]
        assert unstaple.spans[particle.parent].role is Role.SUPERTYPE

        # (b) the supertype-less gloss is flagged ill-formed.
        assert outcomes["Tertiary_period"].annotation.ill_formed
        assert outcomes["Tertiary_period"].annotation.spans == ()

        # (c) predicted labels match gold except the two documented
        # semantic-ambiguity cases, which the rule trace marks.
        for record in records:
            predicted = outcomes[record.id].annotation
            if record.id == "water_faucet":
                assert len(predicted.spans) == len(record.gold.spans)
                for p, g in zip(predicted.spans, record.gold.spans):
                    assert (p.start, p.end, p.parent) == (g.start, g.end, g.parent)
                    if (g.role, p.role) == (Role.DIFFERENTIA_EVENT, Role.PURPOSE):
                        continue
                    assert p.role is g.role
                continue
            assert predicted.spans == record.gold.spans, record.id
            assert predicted.ill_formed == record.gold.ill_formed

        water_trace = outcomes["water_faucet"].rule_trace
        assert any(DIVERGENCE_PURPOSE_EVENT in t.reason for t in water_trace)
        allium_trace = outcomes["Allium"].rule_trace
        assert any(DIVERGENCE_ACCESSORY_QUALITY in t.reason for t in allium_trace)


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_oracle_equivalence():
    with criterion(2, "brute-force oracle equivalence"):
        rng = random.Random(1002)
        mismatches = 0
        for _ in range(1000):
            tree = random_tree(rng)
            if innermost_leftmost_np(tree) is not oracle_innermost_leftmost_np(tree):
                mismatches += 1
        assert mismatches == 0

        vocabulary = ["ash", "oak", "fir", "elm", "yew", "bay", "box", "cap"]
        for _ in range(1000):
            entries = {
                "_".join(rng.choices(vocabulary, k=rng.randint(1, 3)))
                for _ in range(rng.randint(1, 10))
            }
            lexicon = Lexicon.from_entries(NOUN, entries)
            tokens = rng.choices(vocabulary, k=rng.randint(1, 7))
            if longest_rightmost_entry(lexicon, tokens) != oracle_longest_rightmost(
                lexicon, tokens
            ):
                mismatches += 1
        assert mismatches == 0


# -- criterion 3 ---------------------------------------------------------------


NAMED_ROWS = [
    ("(supertype) (differentia quality)", 27),
    ("(supertype) (differentia event)", 13),
    ("(differentia quality) (supertype)", 6),
    ("(supertype) (differentia event) (event location)", 5),
    ("(supertype) (differentia quality) (purpose)", 3),
    ("(accessory determiner) (supertype) (differentia event)", 3),
    ("(accessory determiner) (supertype) (differentia quality)", 2),
    ("(supertype) OR(differentia quality)+", 2),
    ("(supertype) (origin location)", 2),
    ("(differentia quality) (supertype) (differentia quality)", 2),
    ("OR(supertype)+ (differentia event)", 2),
    ("(differentia quality)+ (supertype)", 2),
    ("(differentia quality)+ (supertype) (differentia event)", 2),
]

SINGLETON_PATTERNS = [
    "(supertype) (purpose)",
    "(supertype) (associated fact)",
    "(supertype) (accessory quality)",
    "(supertype) (differentia quality) (associated fact)",
    "(supertype) (differentia event) (event time)",
    "(supertype) (differentia event) (purpose)",
    "(supertype) (differentia quality) (origin location)",
    "(supertype) (differentia quality) (differentia event)",
    "(supertype) (differentia event) (differentia quality)",
    "(accessory determiner) (supertype) (purpose)",
    "(accessory determiner) (supertype) (origin location)",
    "(accessory quality) (supertype) (differentia quality)",
    "(accessory quality) (supertype) (differentia event)",
    "(differentia quality) (supertype) (purpose)",
    "(differentia quality) (supertype) (origin location)",
    "(differentia quality) (supertype) (associated fact)",
    "(origin location) (supertype)",
    "(origin location) (supertype) (differentia quality)",
    "(supertype) OR(differentia quality)+ (purpose)",
    "(supertype) (differentia quality)+",
    "OR(supertype)+ (differentia quality)",
    "(supertype)+ (differentia quality)",
    "(supertype) (differentia event)+",
    "(supertype) OR(differentia event)+",
    "(supertype) (differentia event) (event location) (purpose)",
    "(supertype) (differentia event) (event time) (event location)",
    "(accessory determiner) (supertype) (differentia quality) (purpose)",
    "(differentia quality) (supertype) (differentia event) (event location)",
    "(supertype) (differentia quality) (purpose) (associated fact)",
]


def annotation_for_pattern(text: str, definition_id: str) -> Annotation:
    """Build an annotation whose pattern renders exactly as ``text``."""
    pattern = parse_pattern(text)
    tokens: list[str] = []
    spans: list[RoleSpan] = []
    last_event_index: int | None = None
    for element in pattern.elements:
        count = 1 if element.repetition.value == "single" else 2
        connector = "or" if element.repetition.value == "or_plus" else "and"
        for instance in range(count):
            if instance:
                tokens.append(connector)
            start = len(tokens)
            tokens.append(f"w{len(tokens)}")
            parent = None
            if element.role in (Role.EVENT_TIME, Role.EVENT_LOCATION):
                assert last_event_index is not None, text
                parent = last_event_index
            spans.append(RoleSpan(element.role, start, start + 1, parent))
            if element.role is Role.DIFFERENTIA_EVENT and instance == 0:
                last_event_index = len(spans) - 1
    annotation = Annotation(definition_id, tuple(tokens), tuple(spans), False)
    assert render(pattern_of(annotation)) == text
    return annotation


def test_criterion_3_pattern_notation_fidelity():
    with criterion(3, "pattern notation and distribution table"):
        for text, _ in NAMED_ROWS:
            assert render(parse_pattern(text)) == text

        annotations = []
        serial = 0
        for text, count in NAMED_ROWS:
            for _ in range(count):
                annotations.append(annotation_for_pattern(text, f"n{serial}"))
                serial += 1
        for text in SINGLETON_PATTERNS:
            annotations.append(annotation_for_pattern(text, f"s{serial}"))
            serial += 1
        assert len(annotations) == 100

        report = distribution(annotations)
        rendered = [(render(p), c) for p, c in report.rows]
        counts = [c for _, c in rendered]
        assert counts == sorted(counts, reverse=True)
        assert counts == [27, 13, 6, 5, 3, 3, 2, 2, 2, 2, 2, 2, 2]
        assert dict(rendered) == dict(NAMED_ROWS)
        assert report.other == 29
        assert report.total == 100


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_constraint_suite():
    with criterion(4, "annotation constraint checks"):
        tokens = ("alpha", "beta", "gamma")

        def fixture(spans, ill_formed=False):
            return Annotation("fixture", tokens, tuple(spans), ill_formed)

        invalid = {
            "missing supertype": fixture([RoleSpan(Role.DIFFERENTIA_QUALITY, 0, 1)]),
            "orphan event_time": fixture(
                [RoleSpan(Role.SUPERTYPE, 0, 1), RoleSpan(Role.EVENT_TIME, 1, 2)]
            ),
            "orphan event_location": fixture(
                [RoleSpan(Role.SUPERTYPE, 0, 1), RoleSpan(Role.EVENT_LOCATION, 1, 2)]
            ),
            "orphan quality_modifier": fixture(
                [RoleSpan(Role.SUPERTYPE, 0, 1), RoleSpan(Role.QUALITY_MODIFIER, 1, 2)]
            ),
            "overlapping spans": fixture(
                [RoleSpan(Role.SUPERTYPE, 0, 2), RoleSpan(Role.DIFFERENTIA_QUALITY, 1, 3)]
            ),
            "particle without host": fixture(
                [RoleSpan(Role.SUPERTYPE, 0, 1), RoleSpan(Role.PARTICLE, 1, 2)]
            ),
        }
        for name, annotation in invalid.items():
            errors = [v for v in validate(annotation) if v.severity == ERROR]
            assert errors, f"{name} fixture was not flagged"

        records = bundled_records()
        well_formed = [r for r in records if not r.gold.ill_formed]
        assert len(well_formed) == 14
        for record in well_formed:
            errors = [v for v in validate(record.gold) if v.severity == ERROR]
            assert errors == [], record.id
        tertiary = next(r for r in records if r.gold.ill_formed)
        assert [v for v in validate(tertiary.gold) if v.severity == ERROR] == []


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_round_trips():
    with criterion(5, "randomized byte-identical round-trips"):
        rng = random.Random(1005)
        for _ in range(500):
            tree = random_tree(rng)
            rendered = serialize(tree)
            assert serialize(parse_bracketed(rendered)) == rendered

        for i in range(500):
            annotation = random_annotation(rng, f"g{i}")
            rendered = serialize_gold(annotation)
            assert parse_gold(rendered, f"g{i}") == annotation
            assert serialize_gold(parse_gold(rendered, f"g{i}")) == rendered

        pool = [text for text, _ in NAMED_ROWS] + SINGLETON_PATTERNS
        for i in range(500):
            text = pool[i % len(pool)]
            assert render(parse_pattern(text)) == text

        records = []
        for i in range(500):
            gold = random_annotation(rng, f"c{i}") if rng.random() < 0.7 else None
            tree = serialize(random_tree(rng)) if rng.random() < 0.7 else None
            records.append(
                DefinitionRecord(
                    id=f"c{i}",
                    pos=rng.choice(["noun", "verb"]),
                    gloss="synthetic gloss",
                    tree=tree,
                    instance=rng.random() < 0.2,
                    gold=gold,
                )
            )
        text = write_corpus(records)
        parsed, diagnostics = read_corpus(text)
        assert diagnostics == []
        assert write_corpus(parsed) == text


# -- criterion 6 ---------------------------------------------------------------


def expand_templates(count: int) -> list[DefinitionRecord]:
    templates = bundled_records()
    out = []
    for i in range(count):
        base = templates[i % len(templates)]
        token = TEMPLATE_SUBSTITUTIONS.get(base.id)
        tree = base.tree
        gloss = base.gloss
        if token is not None:
            tree = tree.replace(f" {token})", f" {token}{i})")
            gloss = gloss.replace(token, f"{token}{i}")
        out.append(
            DefinitionRecord(
                id=f"{base.id}-{i}",
                pos=base.pos,
                gloss=gloss,
                tree=tree,
                instance=base.instance,
            )
        )
    return out


def test_criterion_6_determinism_and_throughput(tmp_path):
    with criterion(6, "10k-definition determinism and throughput"):
        corpus_path = tmp_path / "synthetic.jsonl"
        corpus_path.write_text(write_corpus(expand_templates(10_000)), encoding="utf-8")
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"

        started = time.perf_counter()
        assert main(["label", "--input", str(corpus_path), "--output", str(first)]) == 0
        assert main(["label", "--input", str(corpus_path), "--output", str(second)]) == 0
        elapsed = time.perf_counter() - started

        assert first.read_bytes() == second.read_bytes()
        assert elapsed < 10.0, f"two labeling passes took {elapsed:.2f}s"


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_evaluation_correctness(tmp_path, capsys):
    with criterion(7, "evaluation metric correctness"):
        gold = [
            Annotation(
                "d1",
                ("a", "coach", "of", "baseball", "players"),
                (
                    RoleSpan(Role.SUPERTYPE, 1, 2),
                    RoleSpan(Role.DIFFERENTIA_QUALITY, 2, 5),
                ),
                False,
            ),
            Annotation(
                "d2",
                ("clothing", "worn", "on", "feet"),
                (
                    RoleSpan(Role.SUPERTYPE, 0, 1),
                    RoleSpan(Role.DIFFERENTIA_EVENT, 1, 4),
                ),
                False,
            ),
        ]
        predicted = [
            Annotation(
                "d1",
                gold[0].tokens,
                (
                    RoleSpan(Role.SUPERTYPE, 1, 2),
                    RoleSpan(Role.DIFFERENTIA_QUALITY, 2, 4),
                ),
                False,
            ),
            gold[1],
        ]

        # Library-level check against hand-computed values.
        report = evaluate(gold, predicted)
        quality_token = report.token[Role.DIFFERENTIA_QUALITY]
        assert quality_token.precision == pytest.approx(1.0, abs=5e-7)
        assert quality_token.recall == pytest.approx(2 / 3, abs=5e-7)
        assert quality_token.f1 == pytest.approx(0.8, abs=5e-7)
        assert report.exact[Role.DIFFERENTIA_QUALITY].f1 == 0.0
        assert report.exact[Role.SUPERTYPE].f1 == 1.0
        assert report.supertype_accuracy == 1.0

        # CLI-level check: run_eval prints the same values to six decimals.
        gold_path = tmp_path / "gold.jsonl"
        predicted_path = tmp_path / "pred.jsonl"
        gold_path.write_text(
            write_corpus(
                [
                    DefinitionRecord("d1", "noun", "g1", gold=gold[0]),
                    DefinitionRecord("d2", "noun", "g2", gold=gold[1]),
                ]
            ),
            encoding="utf-8",
        )
        predicted_path.write_text(
            write_corpus(
                [
                    DefinitionRecord("d1", "noun", "g1", gold=predicted[0]),
                    DefinitionRecord("d2", "noun", "g2", gold=predicted[1]),
                ]
            ),
            encoding="utf-8",
        )
        assert main(["eval", "--input", str(gold_path), str(predicted_path)]) == 0
        printed = capsys.readouterr().out
        quality_line = next(
            line
            for line in printed.splitlines()
            if line.startswith("differentia_quality")
        )
        assert quality_line.split() == [
            "differentia_quality",
            "0.000000", "0.000000", "0.000000",
            "1.000000", "0.666667", "0.800000",
            "1", "1",
        ]
        assert "supertype accuracy: 1.000000" in printed

        # Identity input scores exactly 1.0 everywhere.
        identity = evaluate(gold, gold)
        for role in Role:
            assert identity.exact[role] == RoleMetrics(1.0, 1.0, 1.0)
            assert identity.token[role] == RoleMetrics(1.0, 1.0, 1.0)
        assert identity.supertype_accuracy == 1.0
        assert identity.ill_formed_agreement == 1.0
