"""Role-sequence patterns with (role)+ / OR(role)+ collapsing.

A pattern is the ordered sequence of role labels in an annotation, with
runs of two or more consecutive same-role spans collapsed to ``(role)+``,
or to ``OR(role)+`` when the instances are connected by "or". Particles and
quality modifiers never appear as pattern elements; event time/location do.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import attrgetter

from .rolemodel import Annotation, Role
from .syntree import _seal

__all__ = [
    "Repetition",
    "PatternElement",
    "Pattern",
    "PatternParseError",
    "pattern_of",
    "parse_pattern",
    "render",
]


class Repetition(str, Enum):
    SINGLE = "single"
    PLUS = "plus"
    OR_PLUS = "or_plus"


@_seal
class PatternElement:
    """One position of a pattern: a role and how often it repeats there."""

    role: Role
    repetition: Repetition = Repetition.SINGLE

    def render(self) -> str:
        name = self.role.display_name()
        if self.repetition is Repetition.OR_PLUS:
            return f"OR({name})+"
        if self.repetition is Repetition.PLUS:
            return f"({name})+"
        return f"({name})"


@_seal
class Pattern:
    """The canonical role sequence of an annotation, runs collapsed: no two
    adjacent elements share a role."""

    elements: tuple[PatternElement, ...]

    def __post_init__(self) -> None:
        for left, right in zip(self.elements, self.elements[1:]):
            if left.role is right.role:
                raise ValueError(
                    f"adjacent pattern elements share role {left.role.value!r}; "
                    "runs must be collapsed"
                )

    def render(self) -> str:
        return " ".join(element.render() for element in self.elements)


class PatternParseError(ValueError):
    pass


_EXCLUDED = frozenset((Role.PARTICLE, Role.QUALITY_MODIFIER))
_START = attrgetter("start")

_ELEMENT = re.compile(
    r"OR\((?P<orname>[a-z][a-z ]*)\)\+|\((?P<name>[a-z][a-z ]*)\)(?P<plus>\+)?"
)
_ROLE_BY_DISPLAY = {role.display_name(): role for role in Role}


def render(pattern: Pattern) -> str:
    return pattern.render()


# A pattern as ``distribution`` counts it: a (role, repetition) pair per
# element, which hashes and compares far more cheaply than a Pattern.
_PatternKey = tuple[tuple[Role, Repetition], ...]


def pattern_of(annotation: Annotation) -> Pattern:
    """The canonical pattern of an annotation.

    Spans contribute elements in surface order; a run of same-role spans
    collapses to one plus element, marked OR when any of the tokens between
    consecutive run members is "or".
    """
    return _pattern(_pattern_key(annotation))


def _pattern(key: _PatternKey) -> Pattern:
    return Pattern(tuple(PatternElement(role, repetition) for role, repetition in key))


def _pattern_key(annotation: Annotation) -> _PatternKey:
    """The elements of ``pattern_of(annotation)`` as (role, repetition) pairs."""
    items = sorted(
        (span for span in annotation.spans if span.role not in _EXCLUDED), key=_START
    )
    tokens = annotation.tokens
    key: list[tuple[Role, Repetition]] = []
    role = end = None  # the current run's role, and where its last span ends
    for span in items:
        if span.role is not role:
            role = span.role
            key.append((role, Repetition.SINGLE))
        elif key[-1][1] is not Repetition.OR_PLUS:
            or_joined = "or" in map(str.lower, tokens[end : span.start])
            key[-1] = (role, Repetition.OR_PLUS if or_joined else Repetition.PLUS)
        end = span.end
    return tuple(key)


def parse_pattern(text: str) -> Pattern:
    """Parse a rendered pattern string; inverse of ``render`` on canonical text."""
    elements: list[PatternElement] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        match = _ELEMENT.match(text, pos)
        if not match:
            raise PatternParseError(f"malformed pattern element at offset {pos}")
        name = match.group("orname") or match.group("name")
        role = _ROLE_BY_DISPLAY.get(name)
        if role is None:
            raise PatternParseError(f"unknown role {name!r}")
        if match.group("orname"):
            repetition = Repetition.OR_PLUS
        elif match.group("plus"):
            repetition = Repetition.PLUS
        else:
            repetition = Repetition.SINGLE
        if elements and elements[-1].role is role:
            raise PatternParseError(
                f"adjacent elements share role {role.value!r} at offset {pos}"
            )
        elements.append(PatternElement(role, repetition))
        pos = match.end()
    if not elements:
        raise PatternParseError("empty pattern")
    return Pattern(tuple(elements))
