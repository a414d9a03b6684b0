"""Correctness checks on the program's outputs.

Each check returns a list of problems; an empty list means the output is
correct. A problem fails the run; it is never turned into a metric value.
"""

from __future__ import annotations

import hashlib
import json

from corpora import (
    PURPOSE_EVENT_DIVERGENCE,
    EvalCorpus,
    Gold,
    TemplateCorpus,
    expected_exact_counts,
    parse_inline,
    serialize_inline,
    tree_tokens,
)

MAX_REPORTED = 5


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def _records(text: str, expected_ids: list[str], problems: list[str]) -> list[dict]:
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if len(records) != len(expected_ids):
        problems.append(f"{len(records)} output records for {len(expected_ids)} inputs")
        return []
    for record, expected in zip(records, expected_ids):
        if record.get("id") != expected:
            problems.append(f"record {expected!r} out of order or missing (found {record.get('id')!r})")
            return []
    return records


def check_label_bundled(output: str, corpus: TemplateCorpus) -> list[str]:
    """Every prediction equals its template's hand gold, except the one
    documented purpose-for-event divergence on ``water_faucet``."""
    problems: list[str] = []
    records = _records(output, [r["id"] for r in corpus.records], problems)
    for record, template, gold in zip(records, corpus.template_ids, corpus.gold):
        expected = serialize_inline(gold)
        allowed = {expected}
        if template == PURPOSE_EVENT_DIVERGENCE:
            allowed.add(expected.replace("{differentia_event|", "{purpose|"))
        if record.get("predicted") not in allowed:
            problems.append(f"{record['id']}: predicted {record.get('predicted')!r}, gold {expected!r}")
            if len(problems) >= MAX_REPORTED:
                break
    return problems


def _structure_problems(gold: Gold, tokens: list[str]) -> str | None:
    if gold.tokens != tokens:
        return "output tokens differ from the tree's tokens"
    position = 0
    for role, parent, start, end in gold.spans:
        if not position <= start < end <= len(tokens):
            return f"span {role} [{start}, {end}) is empty, unsorted or overlapping"
        if parent is not None and not 0 <= parent < len(gold.spans):
            return f"span {role} names parent {parent} out of range"
        position = end
    return None


def check_label_long(output: str, trace: str, inputs: list[dict], validate_errors) -> list[str]:
    """Every annotation is validate-clean and every token is covered by a
    role span or by a trace entry.

    ``validate_errors(inline_text, id)`` returns the program's
    error-severity violations; structure and coverage are checked here.
    """
    problems: list[str] = []
    ids = [r["id"] for r in inputs]
    records = _records(output, ids, problems)
    traces = _records(trace, ids, problems)
    for record, trace_record, source in zip(records, traces, inputs):
        rid = record["id"]
        text = record.get("predicted")
        if text is None:
            problems.append(f"{rid}: no prediction")
        else:
            tokens = tree_tokens(source["tree"])
            gold = parse_inline(text)
            problem = _structure_problems(gold, tokens) or (
                "; ".join(validate_errors(text, rid)) or None
            )
            if problem is None:
                covered = set()
                for _, _, start, end in gold.spans:
                    covered.update(range(start, end))
                for entry in trace_record["trace"]:
                    covered.update(range(entry["start"], entry["end"]))
                missing = sorted(set(range(len(tokens))) - covered)
                if missing:
                    problem = f"tokens {missing[:5]} covered by no span and no trace entry"
            if problem is not None:
                problems.append(f"{rid}: {problem}")
        if len(problems) >= MAX_REPORTED:
            break
    return problems


def _ratio(tp: int, predicted: int, gold: int) -> tuple[float, float]:
    precision = tp / predicted if predicted else (1.0 if gold == 0 else 0.0)
    recall = tp / gold if gold else (1.0 if predicted == 0 else 0.0)
    return precision, recall


def check_eval_stats(report_text: str, stats_output: str, corpus: EvalCorpus) -> list[str]:
    """Exact-span per-role counts in the eval report equal the counts of the
    seeded edits, and the stats table totals every record."""
    problems: list[str] = []
    report = json.loads(report_text)
    if report.get("pairs") != len(corpus.records):
        problems.append(f"eval scored {report.get('pairs')} pairs of {len(corpus.records)}")
    counts = expected_exact_counts(corpus.gold, corpus.predicted)
    for role, row in report.get("roles", {}).items():
        tp, gold, predicted = counts.get(role, (0, 0, 0))
        precision, recall = _ratio(tp, predicted, gold)
        seen = (row["gold_support"], row["predicted_support"],
                row["exact"]["precision"], row["exact"]["recall"])
        if seen[:2] != (gold, predicted) or abs(seen[2] - precision) > 1e-12 or abs(seen[3] - recall) > 1e-12:
            problems.append(
                f"role {role}: report gold/pred/P/R {seen}, expected {(gold, predicted, precision, recall)}"
            )
    missing = set(counts) - set(report.get("roles", {}))
    if missing:
        problems.append(f"roles missing from the report: {sorted(missing)}")
    total = [line.split() for line in stats_output.splitlines() if line.startswith("Total")]
    if not total or total[-1][1] != str(len(corpus.records)):
        problems.append(f"stats Total row {total[-1] if total else None}, expected {len(corpus.records)}")
    return problems
