"""Command-line front end: label, stats, eval, and lint over corpus files.

Exit codes follow one contract everywhere: 0 success, 1 fatal error,
2 partial success (per-record problems were reported but the batch ran).
Every command reports a bad input line as ``path:line: message`` and a
record it could not handle as ``id: message``: ``label``, ``stats`` and
``eval`` on stderr, ``lint`` on stdout among its findings. A fatal error is
one ``error: ...`` line on stderr; a malformed knowledge file is named in it.
All commands are deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .corpus import (
    DefinitionRecord,
    distribution,
    evaluate,
    format_eval_report,
    read_corpus,
    write_corpus,
)
from .defaults import default_config
from .labeler import UNLABELED_RULE, EmptyDefinitionError, LabelerConfig, LabelOutcome, label
from .lexicon import (
    LOCATION,
    TIME,
    LexiconFormatError,
    _noun_variants,
    load_gazetteer,
    load_wordlist,
)
from .patterns import render
from .rolemodel import ERROR, validate
from .syntree import parse_bracketed

OK = 0
FATAL = 1
PARTIAL = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return FATAL


class _Problems:
    """A command's per-record problem sink: prints each one and counts it."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.count = 0

    def __call__(self, where: str, message: str) -> None:
        self.count += 1
        print(f"{where}: {message}", file=self.stream)

    @property
    def exit_code(self) -> int:
        return PARTIAL if self.count else OK


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _config_payload(path: str) -> dict:
    """The JSON object in a ``--config`` file, its list-valued keys checked."""
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"config {path}: not a JSON object")
    for key in ("accessory_determiner_phrases", "accessory_quality_words"):
        value = payload.get(key)
        if value is not None and not (
            isinstance(value, list) and all(isinstance(item, str) for item in value)
        ):
            raise ValueError(f"config {path}: {key} is not a list of strings")
    return payload


def _load_knowledge(loader, path: str, kind: str):
    """``loader(text, kind)`` over a knowledge file; a format error names it."""
    try:
        return loader(_read_text(path), kind)
    except LexiconFormatError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_config(args: argparse.Namespace) -> LabelerConfig:
    config = default_config()
    for path, field, loader, kind in (
        (args.noun_lexicon, "noun_lexicon", load_wordlist, "noun"),
        (args.verb_lexicon, "verb_lexicon", load_wordlist, "verb"),
        (args.loc_gazetteer, "location_gazetteer", load_gazetteer, LOCATION),
        (args.time_gazetteer, "time_gazetteer", load_gazetteer, TIME),
    ):
        if path:
            config = replace(config, **{field: _load_knowledge(loader, path, kind)})
    if args.config:
        payload = _config_payload(args.config)
        phrases = payload.get("accessory_determiner_phrases")
        words = payload.get("accessory_quality_words")
        if phrases is not None:
            config = replace(config, accessory_determiner_phrases=tuple(phrases))
        if words is not None:
            config = replace(config, accessory_quality_words=frozenset(words))
    return config


def _config_threshold(args: argparse.Namespace) -> float:
    if args.threshold is not None:
        return args.threshold
    if args.config:
        payload = _config_payload(args.config)
        if "supertype_accuracy_threshold" in payload:
            try:
                return float(payload["supertype_accuracy_threshold"])
            except (TypeError, ValueError):
                raise ValueError(
                    f"config {args.config}: supertype_accuracy_threshold is not a number"
                ) from None
    return 1.0


def _configs_by_mode(config: LabelerConfig) -> dict[bool, LabelerConfig]:
    """``config`` per ``instance_mode``, each built once for a whole run."""
    other = replace(config, instance_mode=not config.instance_mode)
    return {config.instance_mode: config, other.instance_mode: other}


def _read_records(path: str, problems: _Problems) -> list[DefinitionRecord]:
    """The records of a corpus file; each bad line goes to ``problems``."""
    records, diagnostics = read_corpus(_read_text(path))
    for diagnostic in diagnostics:
        problems(f"{path}:{diagnostic.line_no}", diagnostic.message)
    return records


def _label_record(
    record: DefinitionRecord, configs: dict[bool, LabelerConfig]
) -> LabelOutcome | str:
    """Label a record that has a tree; a failure becomes its diagnostic.

    Any exception is caught so that one bad record never aborts a batch.
    """
    try:
        return label(parse_bracketed(record.tree), record.pos, configs[record.instance], record.id)
    except EmptyDefinitionError as exc:
        return str(exc)
    except Exception as exc:
        return f"internal error: {type(exc).__name__}: {exc}"


def run_label(args: argparse.Namespace) -> int:
    problems = _Problems(sys.stderr)
    records = _read_records(args.input, problems)
    configs = _configs_by_mode(_load_config(args))
    out_records = []
    traces = []
    for record in records:
        if record.tree is None:
            outcome = "no parse tree; record passed through"
        else:
            outcome = _label_record(record, configs)
        if isinstance(outcome, str):
            problems(record.id, outcome)
            out_records.append(record)
            continue
        out_records.append(replace(record, predicted=outcome.annotation))
        if args.trace:
            traces.append(
                {
                    "id": record.id,
                    "trace": [
                        {"rule": t.rule, "start": t.start, "end": t.end, "reason": t.reason}
                        for t in outcome.rule_trace
                    ],
                }
            )

    Path(args.output).write_text(write_corpus(out_records), encoding="utf-8")
    if args.trace:
        trace_path = args.output + ".trace"
        Path(trace_path).write_text(
            "".join(json.dumps(t, ensure_ascii=False) + "\n" for t in traces),
            encoding="utf-8",
        )
    return problems.exit_code


def run_stats(args: argparse.Namespace) -> int:
    problems = _Problems(sys.stderr)
    records = _read_records(args.input, problems)
    annotations = [r.gold or r.predicted for r in records if r.gold or r.predicted]
    if not annotations:
        return _fail("no annotations in corpus")
    report = distribution(annotations)

    def name(pattern) -> str:
        rendered = render(pattern)
        return rendered if rendered else "(none)"

    rows = [(name(p), count) for p, count in report.rows]
    rows.append(("Other", report.other))
    rows.append(("Total", report.total))
    width = max(len(text) for text, _ in rows + [("Pattern", 0)])
    print(f"{'Pattern':<{width}}  {'Count':>5}  {'%':>6}")
    for text, count in rows:
        print(f"{text:<{width}}  {count:>5}  {100.0 * count / report.total:>6.1f}")
    return problems.exit_code


def run_eval(args: argparse.Namespace) -> int:
    paths = args.input
    if len(paths) > 2:
        return _fail("eval takes one annotated corpus or two corpora")
    problems = _Problems(sys.stderr)
    records = _read_records(paths[0], problems)
    if len(paths) == 1:
        # (id, gold, predicted) of each record.
        scored = [(r.id, r.gold, r.predicted) for r in records]
        needed = "gold or predicted annotations"
    else:
        others = {r.id: r for r in _read_records(paths[1], problems)}
        odd = sorted({r.id for r in records} ^ set(others))
        if odd:
            return _fail("ids not aligned across files: " + ", ".join(odd))
        scored = [
            (r.id, r.gold or r.predicted, others[r.id].predicted or others[r.id].gold)
            for r in records
        ]
        needed = "annotations"
    missing = [record_id for record_id, g, p in scored if g is None or p is None]
    if missing:
        return _fail(f"records missing {needed}: " + ", ".join(missing))

    aligned = []
    for record_id, g, p in scored:
        if g.tokens == p.tokens:
            aligned.append((g, p))
        else:
            problems(record_id, "gold and predicted tokens differ")
    if not aligned:
        return _fail("no pair of gold and predicted annotations has the same tokens")
    report = evaluate([g for g, _ in aligned], [p for _, p in aligned])
    print(format_eval_report(report))
    if args.output:
        Path(args.output).write_text(
            json.dumps(report.to_dict(), ensure_ascii=False, indent=2) + "\n",
            encoding="utf-8",
        )
    if args.strict:
        threshold = _config_threshold(args)
        if report.supertype_accuracy < threshold:
            print(
                f"supertype accuracy {report.supertype_accuracy:.6f} below threshold "
                f"{threshold:.6f}",
                file=sys.stderr,
            )
            return FATAL
    return problems.exit_code


def _lemma_words(definition_id: str) -> list[str]:
    return definition_id.lower().replace("_", " ").split()


def _is_circular(definition_id: str, tokens: list[str]) -> bool:
    """The full definiendum lemma occurs in its own gloss.

    Multiword lemmas must appear as a contiguous phrase; single-word lemmas
    match any token up to the lexicon's plural detachment.
    """
    words = _lemma_words(definition_id)
    if not words:
        return False
    if len(words) == 1:
        return any(words[0] in _noun_variants(token.lower()) for token in tokens)
    lowered = [t.lower() for t in tokens]
    span = len(words)
    return any(lowered[i : i + span] == words for i in range(len(lowered) - span + 1))


def run_lint(args: argparse.Namespace) -> int:
    report = _Problems(sys.stdout)
    records = _read_records(args.input, report)
    configs = _configs_by_mode(_load_config(args))
    for record in records:
        annotation = record.gold or record.predicted
        residue = []
        if annotation is None and record.tree is not None:
            outcome = _label_record(record, configs)
            if isinstance(outcome, str):
                report(record.id, outcome)
                continue
            annotation = outcome.annotation
            residue = [t for t in outcome.rule_trace if t.rule == UNLABELED_RULE]
        if annotation is None:
            report(record.id, "nothing to lint: no annotation and no tree")
            continue
        if annotation.ill_formed:
            report(record.id, "ill-formed definition: no supertype")
        for violation in validate(annotation):
            if violation.severity == ERROR or args.strict:
                report(
                    record.id,
                    f"validation {violation.severity}: {violation.kind}"
                    f" ({violation.message})",
                )
        tokens = list(annotation.tokens) if annotation.tokens else record.gloss.split()
        if _is_circular(record.id, tokens):
            report(record.id, "circular definition: definiendum occurs in its gloss")
        for entry in residue:
            report(
                record.id,
                f"unlabeled residue [{entry.start}, {entry.end}): {entry.reason}",
            )

    print(f"{report.count} finding(s)" if report.count else "clean")
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defsrl",
        description="Entity-centered semantic role labeling for dictionary definitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    knowledge = argparse.ArgumentParser(add_help=False)
    knowledge.add_argument("--noun-lexicon", help="noun wordlist path")
    knowledge.add_argument("--verb-lexicon", help="verb wordlist path")
    knowledge.add_argument("--loc-gazetteer", help="location gazetteer path")
    knowledge.add_argument("--time-gazetteer", help="time gazetteer path")
    knowledge.add_argument("--config", help="JSON config (accessory lists, thresholds)")

    p_label = sub.add_parser("label", parents=[knowledge], help="label a corpus")
    p_label.add_argument("--input", required=True)
    p_label.add_argument("--output", required=True)
    p_label.add_argument("--trace", action="store_true", help="write a trace sidecar")
    p_label.set_defaults(func=run_label)

    p_stats = sub.add_parser("stats", help="print the pattern distribution")
    p_stats.add_argument("--input", required=True)
    p_stats.set_defaults(func=run_stats)

    p_eval = sub.add_parser("eval", help="score predictions")
    p_eval.add_argument("--config", help="JSON config (supertype_accuracy_threshold)")
    p_eval.add_argument(
        "--input", required=True, nargs="+",
        help="one corpus with gold+predicted, or gold file then predictions file",
    )
    p_eval.add_argument("--output", help="also write the report as JSON")
    p_eval.add_argument("--strict", action="store_true")
    p_eval.add_argument("--threshold", type=float, default=None)
    p_eval.set_defaults(func=run_eval)

    p_lint = sub.add_parser("lint", parents=[knowledge], help="sanity-check a corpus")
    p_lint.add_argument("--input", required=True)
    p_lint.add_argument("--strict", action="store_true",
                        help="treat validation warnings as findings")
    p_lint.set_defaults(func=run_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
