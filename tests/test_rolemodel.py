from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_validate, random_annotation
from defsrl.rolemodel import (
    Annotation,
    ERROR,
    GoldParseError,
    Role,
    RoleSpan,
    WARNING,
    parse_gold,
    serialize_gold,
    validate,
)


def ann(tokens, spans, ill_formed=False):
    return Annotation("t", tuple(tokens), tuple(spans), ill_formed)


def kinds(violations, severity=None):
    return [v.kind for v in violations if severity is None or v.severity == severity]


# --- validate -----------------------------------------------------------------


def test_validate_clean_annotation():
    annotation = ann(
        ["a", "driver", "who", "lives", "on", "the", "frontier"],
        [
            RoleSpan(Role.SUPERTYPE, 1, 2),
            RoleSpan(Role.DIFFERENTIA_EVENT, 2, 4),
            RoleSpan(Role.EVENT_LOCATION, 4, 7, parent=1),
        ],
    )
    assert validate(annotation) == []


def test_validate_orphan_event_time():
    annotation = ann(
        ["x", "y", "z"],
        [RoleSpan(Role.SUPERTYPE, 0, 1), RoleSpan(Role.EVENT_TIME, 1, 3)],
    )
    assert kinds(validate(annotation)) == ["orphan_subrole"]


def test_validate_missing_supertype():
    annotation = ann(["x"], [])
    assert kinds(validate(annotation)) == ["missing_supertype"]


def test_validate_ill_formed_excuses_missing_supertype():
    annotation = ann(["x"], [], ill_formed=True)
    assert validate(annotation) == []


def test_validate_ill_formed_flag_with_supertype_is_error():
    annotation = ann(["x"], [RoleSpan(Role.SUPERTYPE, 0, 1)], ill_formed=True)
    assert kinds(validate(annotation)) == ["ill_formed_flag_mismatch"]


def test_validate_overlap():
    annotation = ann(
        ["a", "b", "c"],
        [RoleSpan(Role.SUPERTYPE, 0, 2), RoleSpan(Role.DIFFERENTIA_QUALITY, 1, 3)],
    )
    assert "overlapping_spans" in kinds(validate(annotation))


def test_validate_unsorted():
    annotation = ann(
        ["a", "b", "c"],
        [RoleSpan(Role.DIFFERENTIA_QUALITY, 2, 3), RoleSpan(Role.SUPERTYPE, 0, 1)],
    )
    assert "spans_unsorted" in kinds(validate(annotation))


def test_validate_span_out_of_range():
    annotation = ann(["a"], [RoleSpan(Role.SUPERTYPE, 0, 2)])
    assert "span_out_of_range" in kinds(validate(annotation))


def test_validate_parent_role_mismatch():
    annotation = ann(
        ["a", "b", "c"],
        [
            RoleSpan(Role.SUPERTYPE, 0, 1),
            RoleSpan(Role.EVENT_TIME, 1, 3, parent=0),
        ],
    )
    assert kinds(validate(annotation)) == ["parent_role_mismatch"]


def test_validate_unexpected_parent():
    annotation = ann(
        ["a", "b"],
        [RoleSpan(Role.SUPERTYPE, 0, 1), RoleSpan(Role.DIFFERENTIA_QUALITY, 1, 2, parent=0)],
    )
    assert kinds(validate(annotation)) == ["unexpected_parent"]


def test_validate_parent_out_of_range():
    annotation = ann(
        ["a", "b"],
        [RoleSpan(Role.SUPERTYPE, 0, 1), RoleSpan(Role.PARTICLE, 1, 2, parent=7)],
    )
    assert kinds(validate(annotation)) == ["parent_out_of_range"]


def test_validate_floating_purpose_is_warning():
    annotation = ann(
        ["a", "b"],
        [RoleSpan(Role.SUPERTYPE, 0, 1), RoleSpan(Role.PURPOSE, 1, 2)],
    )
    violations = validate(annotation)
    assert kinds(violations, WARNING) == ["floating_complement"]
    assert kinds(violations, ERROR) == []


# --- gold format ----------------------------------------------------------------


def test_parse_gold_footwear():
    annotation = parse_gold(
        "{supertype|clothing} {differentia_event|worn on a person 's feet}"
    )
    assert len(annotation.spans) == 2
    assert len(annotation.tokens) == 7
    assert annotation.spans[0] == RoleSpan(Role.SUPERTYPE, 0, 1)
    assert annotation.spans[1] == RoleSpan(Role.DIFFERENTIA_EVENT, 1, 7)
    assert not annotation.ill_formed


def test_parse_gold_particle_host():
    annotation = parse_gold("{supertype|take} the staples {particle@0|off}")
    assert annotation.tokens == ("take", "the", "staples", "off")
    particle = annotation.spans[1]
    assert particle.role is Role.PARTICLE
    assert particle.parent == 0
    assert annotation.spans[0].role is Role.SUPERTYPE


def test_parse_gold_derives_ill_formed():
    annotation = parse_gold("from 63 million years ago")
    assert annotation.ill_formed
    assert annotation.spans == ()
    assert len(annotation.tokens) == 5


def test_parse_gold_forward_parent_reference():
    annotation = parse_gold(
        "{quality_modifier@1|very} {differentia_quality|quickly}"
    )
    assert annotation.spans[0].parent == 1


@pytest.mark.parametrize(
    "text",
    [
        "{mystery|x}",
        "{supertype|x",
        "{supertype x}",
        "{supertype|}",
        "{{supertype|x}}",
        "broken } here",
        "{event_time@9|x} {supertype|y}",
        "{event_time@1|x} {supertype|y}",
        "{supertype@0|x}",
        "{particle@0|off}",
        "a {supertype|dog} {event_time|at noon}",
        "a {supertype|dog} {event_time@x|at noon}",
        "x|y {supertype|dog}",
        "x {supertype|dog|cat}",
    ],
)
def test_parse_gold_errors(text):
    with pytest.raises(GoldParseError):
        parse_gold(text)


def test_serialize_single_span():
    annotation = ann(["coach"], [RoleSpan(Role.SUPERTYPE, 0, 1)])
    assert serialize_gold(annotation) == "{supertype|coach}"


def test_serialize_preserves_uncovered_tokens():
    annotation = ann(
        ["a", "coach", "indeed"],
        [RoleSpan(Role.SUPERTYPE, 1, 2)],
    )
    assert serialize_gold(annotation) == "a {supertype|coach} indeed"


def test_serialize_rejects_invalid():
    annotation = ann(["x"], [])
    with pytest.raises(ValueError) as info:
        serialize_gold(annotation)
    assert "missing_supertype" in str(info.value)


def test_serialize_rejects_unsafe_tokens():
    annotation = ann(["a|b"], [RoleSpan(Role.SUPERTYPE, 0, 1)])
    with pytest.raises(ValueError):
        serialize_gold(annotation)


def test_gold_round_trip_random():
    rng = random.Random(31)
    for _ in range(600):
        annotation = random_annotation(rng, "rt")
        rendered = serialize_gold(annotation)
        parsed = parse_gold(rendered, "rt")
        assert parsed == annotation
        assert serialize_gold(parsed) == rendered


def test_validate_soundness_by_independent_reassertion():
    # Anything validate passes must satisfy every stated invariant, checked
    # here from scratch rather than through validate's own logic.
    rng = random.Random(32)
    checked = 0
    for _ in range(400):
        annotation = random_annotation(rng, "snd")
        if any(v.severity == ERROR for v in validate(annotation)):
            continue
        checked += 1
        n = len(annotation.tokens)
        starts = [s.start for s in annotation.spans]
        assert starts == sorted(starts)
        seen: set[int] = set()
        for span in annotation.spans:
            indices = set(range(span.start, span.end))
            assert indices and min(indices) >= 0 and max(indices) < n
            assert not (indices & seen)
            seen |= indices
            needs_parent = span.role in {
                Role.QUALITY_MODIFIER,
                Role.EVENT_TIME,
                Role.EVENT_LOCATION,
                Role.PARTICLE,
            }
            assert (span.parent is not None) == needs_parent
        if not annotation.ill_formed:
            assert any(s.role is Role.SUPERTYPE for s in annotation.spans)
    assert checked > 300


# --- early-exit overlap scan ------------------------------------------------------


@st.composite
def _annotations(draw):
    """Sorted, unsorted, overlapping, empty, negative and out-of-range spans,
    with parents that may be missing, wrong or out of range."""
    n_tokens = draw(st.integers(0, 8))
    bound = st.integers(-2, 10)
    spans = []
    for _ in range(draw(st.integers(0, 9))):
        start = draw(bound)
        end = draw(st.one_of(bound, st.integers(start, start + 3)))
        parent = draw(st.one_of(st.none(), st.integers(-1, 9)))
        spans.append(RoleSpan(draw(st.sampled_from(list(Role))), start, end, parent))
    if draw(st.booleans()):
        spans.sort(key=lambda span: span.start)
    tokens = tuple(f"w{i}" for i in range(n_tokens))
    return Annotation("h", tokens, tuple(spans), draw(st.booleans()))


@settings(max_examples=800, deadline=None)
@given(_annotations())
def test_validate_equals_the_pairwise_overlap_scan(annotation):
    assert validate(annotation) == oracle_validate(annotation)


def test_validate_reports_overlaps_past_an_empty_span_when_sorted():
    # Span 0 reaches past the empty span 1 to overlap span 2; the scan from
    # span 1 stops at once, the scan from span 0 only at span 3.
    annotation = ann(
        list("abcdef"),
        [
            RoleSpan(Role.SUPERTYPE, 0, 4),
            RoleSpan(Role.PURPOSE, 1, 1),
            RoleSpan(Role.DIFFERENTIA_QUALITY, 3, 5),
            RoleSpan(Role.PURPOSE, 5, 6),
        ],
    )
    overlaps = [v.message for v in validate(annotation) if v.kind == "overlapping_spans"]
    assert overlaps == ["span 1 overlaps span 0", "span 2 overlaps span 0"]
