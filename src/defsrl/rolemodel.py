"""The twelve-role taxonomy for definition glosses, plus annotation plumbing.

An Annotation segments a tokenized definition into role spans. Four roles
are sub-roles and must point at a parent span: a quality modifier narrows a
differentia quality, event time/location attach to a differentia event, and
a particle completes any role it is split from. ``validate`` checks those
structural constraints; ``parse_gold``/``serialize_gold`` implement the flat
inline text format used in corpus files:

    a {supertype|coach} {differentia_quality|of baseball players}

Parent links are written ``{event_time@1|...}`` where 1 is the 0-based index
of the parent tagged segment. Untagged tokens are allowed and preserved.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Sequence

from ._records import _seal

__all__ = [
    "Role",
    "RoleSpan",
    "Annotation",
    "Violation",
    "GoldParseError",
    "ERROR",
    "WARNING",
    "PARENT_TARGETS",
    "PARENT_REQUIRED_ROLES",
    "DIFFERENTIA_ROLES",
    "validate",
    "parse_gold",
    "serialize_gold",
]


class Role(str, Enum):
    SUPERTYPE = "supertype"
    DIFFERENTIA_QUALITY = "differentia_quality"
    DIFFERENTIA_EVENT = "differentia_event"
    EVENT_LOCATION = "event_location"
    EVENT_TIME = "event_time"
    ORIGIN_LOCATION = "origin_location"
    QUALITY_MODIFIER = "quality_modifier"
    PURPOSE = "purpose"
    ASSOCIATED_FACT = "associated_fact"
    ACCESSORY_DETERMINER = "accessory_determiner"
    ACCESSORY_QUALITY = "accessory_quality"
    PARTICLE = "particle"

    def display_name(self) -> str:
        return self.value.replace("_", " ")


_ROLE_BY_NAME = {role.value: role for role in Role}

# Sub-role -> allowed parent roles; None means any role may host.
PARENT_TARGETS: dict[Role, tuple[Role, ...] | None] = {
    Role.QUALITY_MODIFIER: (Role.DIFFERENTIA_QUALITY,),
    Role.EVENT_TIME: (Role.DIFFERENTIA_EVENT,),
    Role.EVENT_LOCATION: (Role.DIFFERENTIA_EVENT,),
    Role.PARTICLE: None,
}
PARENT_REQUIRED_ROLES = frozenset(PARENT_TARGETS)
# The identifying roles: a purpose or associated fact floats without one.
DIFFERENTIA_ROLES = frozenset((Role.DIFFERENTIA_QUALITY, Role.DIFFERENTIA_EVENT))

# What ``validate`` reads for every span, bound once: reading a member off
# ``Role`` costs a class-attribute lookup each time.
_SUPERTYPE = Role.SUPERTYPE
_COMPLEMENT_ROLES = (Role.PURPOSE, Role.ASSOCIATED_FACT)

ERROR = "error"
WARNING = "warning"

KIND_MISSING_SUPERTYPE = "missing_supertype"
KIND_ORPHAN_SUBROLE = "orphan_subrole"
KIND_UNEXPECTED_PARENT = "unexpected_parent"
KIND_PARENT_OUT_OF_RANGE = "parent_out_of_range"
KIND_PARENT_ROLE_MISMATCH = "parent_role_mismatch"
KIND_OVERLAPPING_SPANS = "overlapping_spans"
KIND_SPAN_OUT_OF_RANGE = "span_out_of_range"
KIND_SPANS_UNSORTED = "spans_unsorted"
KIND_ILL_FORMED_FLAG = "ill_formed_flag_mismatch"
KIND_FLOATING_COMPLEMENT = "floating_complement"

# The characters the inline format reserves: no token may hold one.
_RESERVED = "{}|"
_TOKEN_UNSAFE = re.compile(f"[{re.escape(_RESERVED)}\\s]")


@_seal
class RoleSpan:
    """A role over the half-open token interval [start, end).

    ``parent`` is the index of the parent span within the same annotation;
    it is required exactly for the sub-roles listed in PARENT_REQUIRED_ROLES.
    """

    role: Role
    start: int
    end: int
    parent: int | None = None


@_seal
class Annotation:
    """An ordered set of disjoint role spans over a definition's tokens.

    ``ill_formed`` marks a gloss with no supertype; a well-formed annotation
    must contain at least one supertype span. ``tokens`` and ``spans`` are
    tuples so annotations hash and compare structurally.
    """

    definition_id: str
    tokens: tuple[str, ...]
    spans: tuple[RoleSpan, ...]
    ill_formed: bool = False

    def covered(self) -> set[int]:
        out: set[int] = set()
        for span in self.spans:
            out.update(range(span.start, span.end))
        return out

    def spans_of(self, role: Role) -> list[RoleSpan]:
        return [span for span in self.spans if span.role == role]


@_seal
class Violation:
    """One breach that ``validate`` found: its ``KIND_*`` kind, its severity
    (``ERROR`` or ``WARNING``), the index of the span at fault (None for the
    whole annotation) and a message."""

    kind: str
    severity: str
    span_index: int | None
    message: str


class GoldParseError(ValueError):
    pass


def _subrole_breach(spans: Sequence[RoleSpan], index: int) -> tuple[str, str] | None:
    """The kind and message of the sub-role rule that ``spans[index]``
    breaks, or None. The rule: a sub-role's parent is another span, of a
    role that may host it, and no other role names a parent."""
    role, parent = spans[index].role, spans[index].parent
    if role not in PARENT_REQUIRED_ROLES:
        if parent is None:
            return None
        return KIND_UNEXPECTED_PARENT, f"role {role.value!r} does not take a parent reference"
    if parent is None:
        return KIND_ORPHAN_SUBROLE, f"{role.value} requires a parent reference"
    if not 0 <= parent < len(spans) or parent == index:
        return KIND_PARENT_OUT_OF_RANGE, f"parent index {parent} out of range"
    allowed, target = PARENT_TARGETS[role], spans[parent].role
    if allowed is not None and target not in allowed:
        return KIND_PARENT_ROLE_MISMATCH, f"{role.value} cannot attach to {target.value}"
    return None


def validate(annotation: Annotation) -> list[Violation]:
    """All constraint breaches in the annotation; empty means valid.

    Violations are data, not exceptions: errors break structural
    invariants, warnings flag suspicious but representable content
    (a purpose or associated fact with no identifying differentia). A
    sub-role breach reads the same here as in ``parse_gold``'s error.
    """
    n = len(annotation.tokens)
    spans = annotation.spans
    # One pass over the spans gathers each kind of breach in its own list;
    # they are reported kind by kind, each in span order.
    violations: list[Violation] = []
    unsorted: list[Violation] = []
    subroles: list[Violation] = []
    has_supertype = has_differentia = False
    previous_start = 0
    for idx, span in enumerate(spans):
        start, end, role = span.start, span.end, span.role
        if not (0 <= start < end <= n):
            violations.append(
                Violation(
                    KIND_SPAN_OUT_OF_RANGE,
                    ERROR,
                    idx,
                    f"span [{start}, {end}) outside tokens [0, {n})",
                )
            )
        if idx and start < previous_start:
            unsorted.append(
                Violation(KIND_SPANS_UNSORTED, ERROR, idx, "spans not sorted by start")
            )
        previous_start = start
        # Only a sub-role, or a span that names a parent, can breach the rule.
        if span.parent is not None or role in PARENT_REQUIRED_ROLES:
            breach = _subrole_breach(spans, idx)
            if breach is not None:
                subroles.append(Violation(breach[0], ERROR, idx, breach[1]))
        if role is _SUPERTYPE:
            has_supertype = True
        elif role in DIFFERENTIA_ROLES:
            has_differentia = True
    violations += unsorted
    in_order = not unsorted
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            if in_order and spans[j].start >= spans[i].end:
                # Sorted by start: no later span can overlap span i.
                break
            if spans[i].start < spans[j].end and spans[j].start < spans[i].end:
                violations.append(
                    Violation(
                        KIND_OVERLAPPING_SPANS,
                        ERROR,
                        j,
                        f"span {j} overlaps span {i}",
                    )
                )
    violations += subroles

    if not annotation.ill_formed and not has_supertype:
        violations.append(
            Violation(
                KIND_MISSING_SUPERTYPE,
                ERROR,
                None,
                "well-formed annotation lacks a supertype span",
            )
        )
    if annotation.ill_formed and has_supertype:
        violations.append(
            Violation(
                KIND_ILL_FORMED_FLAG,
                ERROR,
                None,
                "annotation flagged ill-formed but contains a supertype",
            )
        )

    if not has_differentia:
        for idx, span in enumerate(spans):
            if span.role in _COMPLEMENT_ROLES:
                violations.append(
                    Violation(
                        KIND_FLOATING_COMPLEMENT,
                        WARNING,
                        idx,
                        f"{span.role.value} with no differentia quality/event present",
                    )
                )
    return violations


def parse_gold(text: str, definition_id: str = "") -> Annotation:
    """Parse the inline annotation format into an Annotation.

    The ill-formed flag is derived: an annotation without a supertype
    segment is ill-formed by definition. A sub-role must name a parent of a
    role that may host it, and no token may hold ``|``; so every annotation
    returned is free of ``validate`` errors and ``serialize_gold`` can write
    it back. A sub-role breach raises the message of ``validate``'s error
    for it, after the ``|`` check. An error's offset is the character
    position in ``text`` of the offending ``{`` or ``}``.
    """
    # The text before the first '{' is untagged. Each piece after it opens
    # a segment, and its text after the segment's '}' is untagged again.
    pieces = text.split("{")
    if "}" in pieces[0]:
        raise GoldParseError(f"unmatched '}}' at offset {pieces[0].index('}')}")
    tokens = pieces[0].split()
    spans: list[RoleSpan] = []
    at = len(pieces[0])  # the offset of the '{' that opens the next piece
    for piece in pieces[1:]:
        segment, close, untagged = piece.partition("}")
        if not close:
            problem = "unclosed" if text.find("}", at) < 0 else "nested"
            raise GoldParseError(f"{problem} '{{' at offset {at}")
        head, bar, body = segment.partition("|")
        if not bar:
            raise GoldParseError(f"segment missing '|' at offset {at}")
        role = _ROLE_BY_NAME.get(head)
        parent: int | None = None
        if role is None:
            name, sign, parent_text = head.partition("@")
            role = _ROLE_BY_NAME.get(name.strip())
            if role is None:
                raise GoldParseError(f"unknown role {name.strip()!r}")
            if sign:
                try:
                    parent = int(parent_text)
                except ValueError:
                    raise GoldParseError(f"bad parent reference {parent_text!r}") from None
        words = body.split()
        if not words:
            raise GoldParseError(f"empty segment at offset {at}")
        start = len(tokens)
        tokens += words
        spans.append(RoleSpan._make(role, start, len(tokens), parent))
        at += len(piece) + 1
        if "}" in untagged:
            stray = at - len(untagged) + untagged.index("}")
            raise GoldParseError(f"unmatched '}}' at offset {stray}")
        tokens += untagged.split()
    # Each segment holds exactly one '|', between its role and its words.
    if text.count("|") != len(spans):
        raise GoldParseError("a token holds '|', which the format reserves")

    for index in range(len(spans)):
        breach = _subrole_breach(spans, index)
        if breach is not None:
            raise GoldParseError(breach[1])

    ill_formed = _SUPERTYPE not in [span.role for span in spans]
    return Annotation._make(definition_id, tuple(tokens), tuple(spans), ill_formed)


def serialize_gold(annotation: Annotation) -> str:
    """Canonical single-line inline form of a validate-clean annotation."""
    errors = [v for v in validate(annotation) if v.severity == ERROR]
    if errors:
        details = "; ".join(f"{v.kind}: {v.message}" for v in errors)
        raise ValueError(f"cannot serialize invalid annotation: {details}")
    for token in annotation.tokens:
        if not token or _TOKEN_UNSAFE.search(token):
            raise ValueError(f"token {token!r} cannot be represented inline")
    return _inline(annotation)


def _inline(annotation: Annotation) -> str:
    """``serialize_gold``'s text, for an annotation known to pass its checks:
    one ``parse_gold`` returned, or one ``label()`` made over a tree whose
    tokens hold no reserved character."""
    parts: list[str] = []
    position = 0
    for span in annotation.spans:
        parts.extend(annotation.tokens[position : span.start])
        head = span.role.value if span.parent is None else f"{span.role.value}@{span.parent}"
        body = " ".join(annotation.tokens[span.start : span.end])
        parts.append(f"{{{head}|{body}}}")
        position = span.end
    parts.extend(annotation.tokens[position:])
    return " ".join(parts)
