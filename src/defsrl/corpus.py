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
from typing import BinaryIO, Iterable, Iterator

from ._records import _seal
from .lexicon import NOUN, VERB, _lines
from .patterns import Pattern, _pattern, _pattern_key, render
from .rolemodel import _RESERVED, Annotation, Role, _inline, parse_gold, serialize_gold
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
# ``json.dumps(value, ensure_ascii=False)`` without building an encoder per
# call: the one encoding of every JSON line defsrl writes.
_json_line = json.JSONEncoder(ensure_ascii=False).encode
# The string fields a record keeps, and so writes back.
_TEXT_FIELDS = ("id", "gloss", "tree", "gold", "predicted")


class CorpusError(ValueError):
    pass


class AlignmentError(ValueError):
    pass


@_seal
class Diagnostic:
    """A corpus line that gave no record: its 1-based number and why."""

    line_no: int
    message: str


@_seal
class DefinitionRecord:
    """One corpus line: a definition and, when present, its tree and its gold
    and predicted annotations."""

    id: str
    pos: str
    gloss: str
    tree: str | None = None
    instance: bool = False
    gold: Annotation | None = None
    predicted: Annotation | None = None

# An optional text field holds a string or nothing.
_OPTIONAL_TEXT = (str, type(None))


def _parse_record(payload: dict) -> DefinitionRecord:
    record_id = payload.get("id")
    if not isinstance(record_id, str) or not record_id:
        raise ValueError("missing or empty 'id'")
    pos = payload.get("pos")
    if pos not in _POS_VALUES:
        raise ValueError(f"'pos' must be one of {_POS_VALUES}, got {pos!r}")
    gloss = payload.get("gloss")
    if not isinstance(gloss, str):
        raise ValueError("'gloss' must be a string" if "gloss" in payload else "missing 'gloss'")
    tree = payload.get("tree")
    if tree is not None:
        if not isinstance(tree, str):
            raise ValueError("'tree' must be a string")
        # The record keeps the text; the tree is only checked, not built.
        tokens = parse_bracketed(tree, build=False)
        # A labeled record whose token holds a character the inline
        # annotation format reserves could not be written back; reject it.
        if any(map(tree.__contains__, _RESERVED)):
            for token in tokens:
                if any(map(token.__contains__, _RESERVED)):
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
    if not isinstance(gold, _OPTIONAL_TEXT):
        raise ValueError("'gold' must be a string")
    if not isinstance(predicted, _OPTIONAL_TEXT):
        raise ValueError("'predicted' must be a string")
    gold_annotation = parse_gold(gold, record_id) if gold is not None else None
    # A prediction that repeats its gold text shares the gold's Annotation.
    predicted_annotation = gold_annotation if predicted == gold else (
        parse_gold(predicted, record_id) if predicted is not None else None
    )
    return DefinitionRecord._make(
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


def _json_loads(text: str):
    """``json.loads``; JSON nested too deeply to decode raises ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def _decoded(data: bytes, name: str, offset: int = 0) -> str:
    """``data`` as UTF-8 text. A byte that is not UTF-8 raises ValueError
    naming ``name`` and the byte's file offset, ``data`` starting at
    ``offset`` in the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{name}: not UTF-8 text (byte {offset + exc.start})") from None


# ``_decoded_blocks`` reads this many bytes at a time.
_BLOCK = 1 << 16


def _decoded_blocks(stream: BinaryIO, name: str) -> Iterator[str]:
    """The text of the binary ``stream``, one block of whole lines at a time.

    Each block read is cut just after its last "\\n" and the rest goes with
    the next one, so no line and no UTF-8 character is split. A byte that is
    not UTF-8 raises ValueError, as in ``_decoded``.
    """
    offset = 0
    held: list[bytes] = []
    while True:
        block = stream.read(_BLOCK)
        cut = block.rfind(b"\n") + 1 if block else 0
        if block and not cut:
            held.append(block)
            continue
        held.append(block[:cut])
        data = b"".join(held)
        held = [block[cut:]]
        text = _decoded(data, name, offset)
        offset += len(data)
        if text:
            yield text
        if not block:
            return


def _corpus_items(pieces: Iterable[str]) -> Iterator[Diagnostic | DefinitionRecord]:
    """Per non-blank line of the text ``pieces``, each a run of whole lines,
    its record or, for a bad line, its diagnostic.

    A record whose id an earlier record holds is a bad line; the first one
    is kept. Raises CorpusError at the end when no record parsed at all.
    """
    first_line: dict[str, int] = {}  # record id -> the line that holds it
    line_no = 0
    for piece in pieces:
        for line in _lines(piece):
            line_no += 1
            if not line or line.isspace():
                continue
            try:
                payload = _json_loads(line)
                if not isinstance(payload, dict):
                    raise ValueError("line is not a JSON object")
                # Text read as UTF-8 can hold a lone surrogate only through
                # a JSON escape.
                if "\\u" in line:
                    _reject_surrogates(payload)
                record = _parse_record(payload)
                first = first_line.setdefault(record.id, line_no)
                if first != line_no:
                    raise ValueError(f"duplicate id {record.id!r} (first on line {first})")
            except ValueError as exc:
                yield Diagnostic(line_no, str(exc))
                continue
            yield record
    if not first_line:
        raise CorpusError("zero records parsed from corpus")


def read_corpus(text: str) -> tuple[list[DefinitionRecord], list[Diagnostic]]:
    """Parse a corpus file; bad lines become diagnostics.

    A record whose id an earlier record holds is a bad line; the first one
    is kept. Raises CorpusError only when no record parses at all
    (including an empty file). The commands read a corpus file through the
    same per-line reader, one block at a time, and keep no list.
    """
    records: list[DefinitionRecord] = []
    diagnostics: list[Diagnostic] = []
    for item in _corpus_items((text,)):
        (diagnostics if isinstance(item, Diagnostic) else records).append(item)
    return records, diagnostics


def record_line(record: DefinitionRecord, predicted: Annotation | None = None) -> str:
    """One record's canonical JSON line, without its newline.

    ``predicted``, when given, is written in place of ``record.predicted``,
    so a caller that labels a record need not build a new one to write it.
    Each annotation is written by ``serialize_gold``, which checks it.
    """
    return _record_line(record, predicted, checked=True)


def _record_line(
    record: DefinitionRecord, predicted: Annotation | None, checked: bool
) -> str:
    """``record_line``; unless ``checked``, the annotations skip
    ``serialize_gold``'s checks. ``defsrl label`` writes its records so:
    the reader's ``parse_gold`` and ``label()`` have made those checks."""
    inline = serialize_gold if checked else _inline
    payload: dict = {"id": record.id, "pos": record.pos, "gloss": record.gloss}
    if record.tree is not None:
        payload["tree"] = record.tree
    if record.instance:
        payload["instance"] = True
    if record.gold is not None:
        payload["gold"] = inline(record.gold)
    if predicted is None:
        predicted = record.predicted
    if predicted is not None:
        payload["predicted"] = inline(predicted)
    return _json_line(payload)


def write_corpus(records: list[DefinitionRecord]) -> str:
    """Canonical line-delimited form; inverse of ``read_corpus`` on valid files.

    It is the join of ``record_line`` over ``records``. ``defsrl label``
    writes those lines one at a time instead, so that it never holds the
    whole output.
    """
    return "".join(record_line(record) + "\n" for record in records)


@_seal
class DistributionReport:
    """Pattern counts: named rows (count >= 2) plus an Other aggregate."""

    rows: tuple[tuple[Pattern, int], ...]
    singletons: tuple[Pattern, ...]
    total: int

    @property
    def other(self) -> int:
        return len(self.singletons)


def distribution(annotations: Iterable[Annotation]) -> DistributionReport:
    """Canonical-pattern counts, descending then lexicographic by rendering.

    Patterns occurring once are aggregated as singletons (the "Other" row);
    all counts, Other included, sum to the number of input annotations.
    ``annotations`` is read once, so it may be a stream.
    """
    counts = Counter(map(_pattern_key, annotations))
    # One Pattern per distinct pattern; ``render`` is injective on patterns,
    # so it orders them totally.
    ranked = sorted(
        ((_pattern(key), count) for key, count in counts.items()),
        key=lambda item: (-item[1], render(item[0])),
    )
    return DistributionReport(
        tuple((pattern, count) for pattern, count in ranked if count >= 2),
        tuple(pattern for pattern, count in ranked if count == 1),
        sum(counts.values()),
    )


@_seal
class RoleMetrics:
    """Precision, recall and F1 of one role."""

    precision: float
    recall: float
    f1: float

    def to_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1}


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


@_seal
class EvalReport:
    """Scores of predicted against gold annotations: per-role metrics on
    exact spans and on tokens, the supporting span counts, and the agreement
    on supertypes and ill-formed flags over ``pairs`` pairs."""

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
                    "exact": self.exact[role].to_dict(),
                    "token": self.token[role].to_dict(),
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


class _Tally:
    """Exact-span and token-level counts per role, and the two hit counts,
    over the pairs added so far; ``report`` scores them. The caller aligns
    each pair: same id, same tokens."""

    def __init__(self) -> None:
        self.exact_tp: Counter[Role] = Counter()
        self.exact_gold: Counter[Role] = Counter()
        self.exact_pred: Counter[Role] = Counter()
        self.token_tp: Counter[Role] = Counter()
        self.token_gold: Counter[Role] = Counter()
        self.token_pred: Counter[Role] = Counter()
        # A pair that shares one annotation agrees with itself, so each of
        # its spans and tokens counts once here for all three of its kind.
        self.shared_spans: Counter[Role] = Counter()
        self.shared_tokens: Counter[Role] = Counter()
        self.supertype_hits = 0
        self.flag_hits = 0
        self.pairs = 0

    def add(self, g: Annotation, p: Annotation) -> None:
        self.pairs += 1
        g_groups = _spans_by_role(g)
        if p is g:
            for role, g_list in g_groups.items():
                self.shared_spans[role] += len(set(g_list))
                self.shared_tokens[role] += len(_token_positions(g_list))
            self.supertype_hits += 1
            self.flag_hits += 1
            return
        p_groups = _spans_by_role(p)
        # A role absent from both sides adds nothing to any count.
        for role in g_groups.keys() | p_groups.keys():
            g_list = g_groups.get(role, [])
            p_list = p_groups.get(role, [])
            g_spans = set(g_list)
            p_spans = set(p_list)
            self.exact_tp[role] += len(g_spans & p_spans)
            self.exact_gold[role] += len(g_spans)
            self.exact_pred[role] += len(p_spans)
            g_tokens = _token_positions(g_list)
            p_tokens = _token_positions(p_list)
            self.token_tp[role] += len(g_tokens & p_tokens)
            self.token_gold[role] += len(g_tokens)
            self.token_pred[role] += len(p_tokens)
        g_supertype = _token_positions(g_groups.get(Role.SUPERTYPE, []))
        p_supertype = _token_positions(p_groups.get(Role.SUPERTYPE, []))
        self.supertype_hits += g_supertype == p_supertype
        self.flag_hits += g.ill_formed == p.ill_formed

    def report(self) -> EvalReport:
        pairs = self.pairs
        # The shared pairs' counts folded in, into new counters.
        spans, tokens = self.shared_spans, self.shared_tokens
        exact_tp, exact_gold, exact_pred = (
            counts + spans for counts in (self.exact_tp, self.exact_gold, self.exact_pred)
        )
        token_tp, token_gold, token_pred = (
            counts + tokens for counts in (self.token_tp, self.token_gold, self.token_pred)
        )
        return EvalReport(
            exact={
                role: _metrics(exact_tp[role], exact_pred[role], exact_gold[role])
                for role in Role
            },
            token={
                role: _metrics(token_tp[role], token_pred[role], token_gold[role])
                for role in Role
            },
            supertype_accuracy=self.supertype_hits / pairs if pairs else 1.0,
            ill_formed_agreement=self.flag_hits / pairs if pairs else 1.0,
            gold_support={role: exact_gold[role] for role in Role},
            predicted_support={role: exact_pred[role] for role in Role},
            pairs=pairs,
        )


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
        if p is g:
            continue
        if g.definition_id != p.definition_id:
            raise AlignmentError(
                f"id mismatch: gold {g.definition_id!r} vs predicted "
                f"{p.definition_id!r}"
            )
        if g.tokens != p.tokens:
            raise AlignmentError(f"token mismatch for id {g.definition_id!r}")
    tally = _Tally()
    for g, p in zip(gold, predicted):
        tally.add(g, p)
    return tally.report()


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
