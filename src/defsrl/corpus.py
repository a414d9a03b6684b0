"""Corpus files, pattern-distribution statistics, and gold-vs-predicted scoring.

A corpus is line-delimited JSON, one definition per line, with fields
``id``, ``pos``, ``gloss`` and optional ``tree`` (bracketed parse),
``instance`` (definiendum denotes an instance), ``gold`` and ``predicted``
(annotations in the inline format). Reading is error-isolating: a bad line
becomes a diagnostic, not a failure, unless nothing parses at all.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .lexicon import NOUN, VERB, _lines
from .patterns import Pattern, pattern_of, render
from .rolemodel import _RESERVED, Annotation, Role, parse_gold, serialize_gold
from .syntree import parse_bracketed

__all__ = [
    "DefinitionRecord",
    "Diagnostic",
    "CorpusError",
    "AlignmentError",
    "RoleMetrics",
    "EvalReport",
    "DistributionReport",
    "read_corpus",
    "record_line",
    "write_corpus",
    "distribution",
    "evaluate",
    "format_eval_report",
]

_POS_VALUES = (NOUN, VERB)
# The string fields a record keeps, and so writes back.
_TEXT_FIELDS = ("id", "gloss", "tree", "gold", "predicted")


class CorpusError(ValueError):
    pass


class AlignmentError(ValueError):
    pass


@dataclass(frozen=True)
class Diagnostic:
    line_no: int
    message: str


@dataclass(frozen=True)
class DefinitionRecord:
    id: str
    pos: str
    gloss: str
    tree: str | None = None
    instance: bool = False
    gold: Annotation | None = None
    predicted: Annotation | None = None


def _parse_record(payload: dict) -> DefinitionRecord:
    record_id = payload.get("id")
    if not isinstance(record_id, str) or not record_id:
        raise ValueError("missing or empty 'id'")
    pos = payload.get("pos")
    if pos not in _POS_VALUES:
        raise ValueError(f"'pos' must be one of {_POS_VALUES}, got {pos!r}")
    gloss = payload.get("gloss")
    if not isinstance(gloss, str):
        raise ValueError("missing 'gloss'")
    tree = payload.get("tree")
    if tree is not None:
        if not isinstance(tree, str):
            raise ValueError("'tree' must be a string")
        parsed = parse_bracketed(tree)
        # A labeled record whose token holds a character the inline
        # annotation format reserves could not be written back; reject it.
        if any(char in tree for char in _RESERVED):
            for token in parsed.tokens():
                if any(char in token for char in _RESERVED):
                    named = ", ".join(map(repr, _RESERVED[:-1])) + f" or {_RESERVED[-1]!r}"
                    raise ValueError(
                        f"{record_id}: tree token {token!r} contains {named}, "
                        "which the annotation format reserves"
                    )
    instance = payload.get("instance", False)
    if not isinstance(instance, bool):
        raise ValueError("'instance' must be a boolean")
    gold = payload.get("gold")
    predicted = payload.get("predicted")
    for name, value in (("gold", gold), ("predicted", predicted)):
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{name!r} must be a string")
    gold_annotation = parse_gold(gold, record_id) if gold is not None else None
    # A prediction that repeats its gold text shares the gold's Annotation.
    predicted_annotation = gold_annotation if predicted == gold else (
        parse_gold(predicted, record_id) if predicted is not None else None
    )
    return DefinitionRecord(
        record_id, pos, gloss, tree, instance, gold_annotation, predicted_annotation
    )


def _reject_surrogates(payload: dict) -> None:
    """Raise ValueError naming the first kept field that holds an unpaired
    surrogate, which UTF-8 cannot encode."""
    for name in _TEXT_FIELDS:
        value = payload.get(name)
        if isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{name!r} holds an unpaired surrogate") from None


def read_corpus(text: str) -> tuple[list[DefinitionRecord], list[Diagnostic]]:
    """Parse a corpus file; bad lines become diagnostics.

    A record whose id an earlier record holds is a bad line; the first one
    is kept. Raises CorpusError only when no record parses at all
    (including an empty file).
    """
    records: list[DefinitionRecord] = []
    diagnostics: list[Diagnostic] = []
    first_line: dict[str, int] = {}  # record id -> the line that holds it
    for line_no, line in enumerate(_lines(text), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("line is not a JSON object")
            # Text read as UTF-8 can hold a lone surrogate only through a
            # JSON escape.
            if "\\u" in line:
                _reject_surrogates(payload)
            record = _parse_record(payload)
            first = first_line.setdefault(record.id, line_no)
            if first != line_no:
                raise ValueError(f"duplicate id {record.id!r} (first on line {first})")
            records.append(record)
        except ValueError as exc:
            diagnostics.append(Diagnostic(line_no, str(exc)))
    if not records:
        raise CorpusError("zero records parsed from corpus")
    return records, diagnostics


def record_line(record: DefinitionRecord, predicted: Annotation | None = None) -> str:
    """One record's canonical JSON line, without its newline.

    ``predicted``, when given, is written in place of ``record.predicted``,
    so a caller that labels a record need not build a new one to write it.
    """
    payload: dict = {"id": record.id, "pos": record.pos, "gloss": record.gloss}
    if record.tree is not None:
        payload["tree"] = record.tree
    if record.instance:
        payload["instance"] = True
    if record.gold is not None:
        payload["gold"] = serialize_gold(record.gold)
    if predicted is None:
        predicted = record.predicted
    if predicted is not None:
        payload["predicted"] = serialize_gold(predicted)
    return json.dumps(payload, ensure_ascii=False)


def write_corpus(records: list[DefinitionRecord]) -> str:
    """Canonical line-delimited form; inverse of ``read_corpus`` on valid files.

    It is the join of ``record_line`` over ``records``. ``defsrl label``
    writes those lines one at a time instead, so that it never holds the
    whole output.
    """
    return "".join(record_line(record) + "\n" for record in records)


@dataclass(frozen=True)
class DistributionReport:
    """Pattern counts: named rows (count >= 2) plus an Other aggregate."""

    rows: tuple[tuple[Pattern, int], ...]
    singletons: tuple[Pattern, ...]
    total: int

    @property
    def other(self) -> int:
        return len(self.singletons)


def distribution(annotations: list[Annotation]) -> DistributionReport:
    """Canonical-pattern counts, descending then lexicographic by rendering.

    Patterns occurring once are aggregated as singletons (the "Other" row);
    all counts, Other included, sum to the number of input annotations.
    """
    counts = Counter(map(pattern_of, annotations))
    # ``render`` is injective on patterns, so it orders them totally.
    ranked = sorted(counts.items(), key=lambda item: (-item[1], render(item[0])))
    return DistributionReport(
        tuple((pattern, count) for pattern, count in ranked if count >= 2),
        tuple(pattern for pattern, count in ranked if count == 1),
        len(annotations),
    )


@dataclass(frozen=True)
class RoleMetrics:
    precision: float
    recall: float
    f1: float


def _metrics(tp: int, predicted: int, gold: int) -> RoleMetrics:
    # Empty-on-both-sides counts as perfect agreement; empty on one side
    # scores zero for the undefined ratio.
    if predicted:
        precision = tp / predicted
    else:
        precision = 1.0 if gold == 0 else 0.0
    if gold:
        recall = tp / gold
    else:
        recall = 1.0 if predicted == 0 else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return RoleMetrics(precision, recall, f1)


@dataclass(frozen=True)
class EvalReport:
    exact: dict[Role, RoleMetrics]
    token: dict[Role, RoleMetrics]
    supertype_accuracy: float
    ill_formed_agreement: float
    gold_support: dict[Role, int]
    predicted_support: dict[Role, int]
    pairs: int

    def to_dict(self) -> dict:
        return {
            "pairs": self.pairs,
            "supertype_accuracy": self.supertype_accuracy,
            "ill_formed_agreement": self.ill_formed_agreement,
            "roles": {
                role.value: {
                    "exact": vars(self.exact[role]),
                    "token": vars(self.token[role]),
                    "gold_support": self.gold_support[role],
                    "predicted_support": self.predicted_support[role],
                }
                for role in Role
            },
        }


def _spans_by_role(annotation: Annotation) -> dict[Role, list[tuple[int, int]]]:
    """The (start, end) spans of each role present in ``annotation``."""
    groups: dict[Role, list[tuple[int, int]]] = {}
    for span in annotation.spans:
        groups.setdefault(span.role, []).append((span.start, span.end))
    return groups


def _token_positions(spans: list[tuple[int, int]]) -> set[int]:
    return {i for start, end in spans for i in range(start, end)}


def evaluate(gold: list[Annotation], predicted: list[Annotation]) -> EvalReport:
    """Exact-span and token-level P/R/F1 per role over aligned annotations.

    The lists must pair up by position with matching ids and identical
    token sequences; otherwise AlignmentError names the offending id.
    """
    if len(gold) != len(predicted):
        raise AlignmentError(
            f"gold has {len(gold)} annotations, predicted has {len(predicted)}"
        )
    for g, p in zip(gold, predicted):
        if g.definition_id != p.definition_id:
            raise AlignmentError(
                f"id mismatch: gold {g.definition_id!r} vs predicted "
                f"{p.definition_id!r}"
            )
        if g.tokens != p.tokens:
            raise AlignmentError(f"token mismatch for id {g.definition_id!r}")

    exact_tp: Counter[Role] = Counter()
    exact_gold: Counter[Role] = Counter()
    exact_pred: Counter[Role] = Counter()
    token_tp: Counter[Role] = Counter()
    token_gold: Counter[Role] = Counter()
    token_pred: Counter[Role] = Counter()
    supertype_hits = 0
    flag_hits = 0

    for g, p in zip(gold, predicted):
        g_groups = _spans_by_role(g)
        p_groups = _spans_by_role(p)
        # A role absent from both sides adds nothing to any count.
        for role in g_groups.keys() | p_groups.keys():
            g_list = g_groups.get(role, [])
            p_list = p_groups.get(role, [])
            g_spans = set(g_list)
            p_spans = set(p_list)
            exact_tp[role] += len(g_spans & p_spans)
            exact_gold[role] += len(g_spans)
            exact_pred[role] += len(p_spans)
            g_tokens = _token_positions(g_list)
            p_tokens = _token_positions(p_list)
            token_tp[role] += len(g_tokens & p_tokens)
            token_gold[role] += len(g_tokens)
            token_pred[role] += len(p_tokens)
        g_supertype = _token_positions(g_groups.get(Role.SUPERTYPE, []))
        p_supertype = _token_positions(p_groups.get(Role.SUPERTYPE, []))
        supertype_hits += g_supertype == p_supertype
        flag_hits += g.ill_formed == p.ill_formed

    pairs = len(gold)
    return EvalReport(
        exact={
            role: _metrics(exact_tp[role], exact_pred[role], exact_gold[role])
            for role in Role
        },
        token={
            role: _metrics(token_tp[role], token_pred[role], token_gold[role])
            for role in Role
        },
        supertype_accuracy=supertype_hits / pairs if pairs else 1.0,
        ill_formed_agreement=flag_hits / pairs if pairs else 1.0,
        gold_support={role: exact_gold[role] for role in Role},
        predicted_support={role: exact_pred[role] for role in Role},
        pairs=pairs,
    )


def format_eval_report(report: EvalReport) -> str:
    width = max(len(role.value) for role in Role)
    header = (
        f"{'role':<{width}}  {'exact-P':>9} {'exact-R':>9} {'exact-F1':>9}"
        f" {'token-P':>9} {'token-R':>9} {'token-F1':>9} {'gold':>5} {'pred':>5}"
    )
    lines = [header]
    for role in Role:
        exact = report.exact[role]
        token = report.token[role]
        lines.append(
            f"{role.value:<{width}}  {exact.precision:>9.6f} {exact.recall:>9.6f}"
            f" {exact.f1:>9.6f} {token.precision:>9.6f} {token.recall:>9.6f}"
            f" {token.f1:>9.6f} {report.gold_support[role]:>5}"
            f" {report.predicted_support[role]:>5}"
        )
    lines.append(f"pairs: {report.pairs}")
    lines.append(f"supertype accuracy: {report.supertype_accuracy:.6f}")
    lines.append(f"ill-formed agreement: {report.ill_formed_agreement:.6f}")
    return "\n".join(lines)
