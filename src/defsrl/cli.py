"""Command-line front end: label, stats, eval, and lint over corpus files.

Exit codes follow one contract everywhere: 0 success, 1 fatal error,
2 partial success (per-record problems were reported but the batch ran).
Every command reports a bad input line as ``path:line: message`` and a
record it could not handle as ``id: message``: ``label``, ``stats`` and
``eval`` on stderr, ``lint`` on stdout among its findings; the bad lines
come first. A fatal error is one ``error: ...`` line on stderr; a malformed
knowledge file is named in it. Every command reads its corpus one line at a
time and keeps no list of records, reads each knowledge file a block at a
time straight into its entry set, and spools its problem lines to a
temporary file once they pass 64 KiB. All commands are deterministic:
identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from typing import Iterator

from .corpus import (
    DefinitionRecord,
    Diagnostic,
    _corpus_items,
    _decoded,
    _decoded_blocks,
    _json_line,
    _json_loads,
    _record_line,
    _Tally,
    distribution,
    format_eval_report,
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
from .rolemodel import ERROR, Annotation, validate
from .syntree import parse_bracketed

OK = 0
FATAL = 1
PARTIAL = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return FATAL


# Bytes of problem lines that each of ``_Problems``' two spools holds in
# memory before it moves them to a temporary file.
_SPOOL = 1 << 16


class _Problems:
    """A command's problem sink. It holds each problem as one line and
    prints them when its ``with`` block ends: first the bad lines of the
    corpora read, in the order read, then the per-record messages in the
    order they arose.

    The two kinds are spooled apart, each to a temporary file once it
    passes ``_SPOOL`` bytes, so holding them costs no memory however many
    there are. The spools are made on the first problem: a clean run
    creates no file.
    """

    _BAD_LINES, _MESSAGES = 0, 1  # the index of each kind's spool and count

    def __init__(self, stream) -> None:
        self.stream = stream
        self._spools = None
        self._counts = [0, 0]

    def __enter__(self) -> _Problems:
        return self

    def __exit__(self, *exc_info) -> None:
        if self._spools is None:
            return
        with self._spools[0], self._spools[1]:
            for spool in self._spools:
                spool.seek(0)
                # A spool's lines end at its "\n"s only, so each line is
                # written as it was held, with its newline.
                self.stream.writelines(spool)

    def _hold(self, kind: int, line: str) -> None:
        if self._spools is None:
            import tempfile

            # ``surrogatepass`` keeps a path's ``surrogateescape`` characters
            # as they were; ``newline="\n"`` keeps a "\r" in a line a "\r".
            self._spools = tuple(
                tempfile.SpooledTemporaryFile(
                    _SPOOL, "w+", encoding="utf-8", newline="\n", errors="surrogatepass"
                )
                for _ in range(2)
            )
        self._spools[kind].write(line + "\n")
        self._counts[kind] += 1

    def __call__(self, where: str, message: str) -> None:
        self._hold(self._MESSAGES, f"{where}: {message}")

    def records(self, source, path: str) -> Iterator[DefinitionRecord]:
        """The records of the corpus file ``path``, open as binary
        ``source``, one line at a time; each bad line is held here.

        A file that turns out unreadable (not UTF-8, or no record) ends the
        command as if no record had been handled: its bad lines and every
        per-record message are dropped, and its fatal error follows the bad
        lines of the files read before it.
        """
        start = self._spools[self._BAD_LINES].tell() if self._spools else 0
        held = self._counts[self._BAD_LINES]
        try:
            for item in _corpus_items(_decoded_blocks(source, path)):
                if isinstance(item, Diagnostic):
                    self._hold(self._BAD_LINES, f"{path}:{item.line_no}: {item.message}")
                else:
                    yield item
        except (OSError, ValueError):
            if self._spools:
                for spool, position in zip(self._spools, (start, 0)):
                    spool.seek(position)
                    spool.truncate()
            self._counts = [held, 0]
            raise

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def exit_code(self) -> int:
        return PARTIAL if self.count else OK


def _read_text(path: str) -> str:
    """The text of the file ``path``, by the corpus reader's UTF-8 rule."""
    with open(path, "rb") as source:
        return _decoded(source.read(), path)


def _config_payload(path: str) -> dict:
    """The JSON object in a ``--config`` file, its list-valued keys checked."""
    text = _read_text(path)
    try:
        payload = _json_loads(text)
    except ValueError as exc:
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
    """``loader(pieces, kind)`` over a knowledge file, read and decoded one
    block of whole lines at a time; a format error names the file."""
    with open(path, "rb") as source:
        blocks = _decoded_blocks(source, path)
        try:
            return loader(blocks, kind)
        except LexiconFormatError as exc:
            # A byte that is not UTF-8 anywhere in the file is the error,
            # as when the whole file was decoded before it was loaded.
            for _ in blocks:
                pass
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
            config = config.__replace__(**{field: _load_knowledge(loader, path, kind)})
    if args.config:
        payload = _config_payload(args.config)
        phrases = payload.get("accessory_determiner_phrases")
        words = payload.get("accessory_quality_words")
        if phrases is not None:
            config = config.__replace__(accessory_determiner_phrases=tuple(phrases))
        if words is not None:
            config = config.__replace__(accessory_quality_words=frozenset(words))
    return config


def _config_threshold(args: argparse.Namespace) -> float:
    """``--threshold``, else the config's ``supertype_accuracy_threshold``,
    else 1. A NaN or infinite one would pass every accuracy or none, so it
    is refused, as is a config value that is no JSON number."""
    if args.threshold is not None:
        name, threshold = "--threshold", args.threshold
    else:
        payload = _config_payload(args.config) if args.config else {}
        name = f"config {args.config}: supertype_accuracy_threshold"
        threshold = payload.get("supertype_accuracy_threshold", 1.0)
    # ``type`` keeps out bools; NaN fails both comparisons.
    if type(threshold) not in (int, float) or not -math.inf < threshold < math.inf:
        raise ValueError(f"{name} is not a finite number: {threshold!r}")
    return threshold


def _configs_by_mode(config: LabelerConfig) -> dict[bool, LabelerConfig]:
    """``config`` per ``instance_mode``, each built once for a whole run."""
    other = config.__replace__(instance_mode=not config.instance_mode)
    return {config.instance_mode: config, other.instance_mode: other}


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


@contextmanager
def _replacing(path: str):
    """A text stream whose contents replace the file at ``path`` on success.

    The text goes to a new file, uniquely named and created exclusively, in
    the directory of the file that ``path`` names (a symlink is followed, so
    it stays a symlink). The file is renamed over that one when the block
    ends and removed if the block raises, so an earlier file at ``path``
    stays as it was. A new file gets ``0o666`` less the umask; a replaced
    one keeps its permission bits. A ``path`` that exists and is not a
    regular file (a FIFO, say, or a directory) is opened in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as stream:
            yield stream
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    while True:
        temporary = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            exc.filename = path
            raise
    try:
        with open(fd, "w", encoding="utf-8") as stream:
            yield stream
        if mode is not None:
            os.chmod(temporary, stat.S_IMODE(mode))
        os.replace(temporary, target)
    except BaseException:
        try:
            os.unlink(temporary)
        except FileNotFoundError:
            pass
        raise


def _trace_line(record_id: str, outcome: LabelOutcome) -> str:
    entries = [
        {"rule": t.rule, "start": t.start, "end": t.end, "reason": t.reason}
        for t in outcome.rule_trace
    ]
    return _json_line({"id": record_id, "trace": entries})


def run_label(args: argparse.Namespace) -> int:
    """Label a corpus into ``--output`` (and ``--output.trace``).

    Records are read, labeled, written and dropped one at a time, and the
    problem lines are spooled (``_Problems``), so memory grows with neither
    the input nor the output, beyond each record's id (the duplicate-id
    rule). Each file is written to a temporary file in its own directory
    and renamed over it at the end (``_replacing``): a fatal error or an
    interrupt leaves any earlier output untouched. The reader and
    ``label()`` have checked every annotation written, so it is not checked
    again.
    """
    with _Problems(sys.stderr) as problems, open(args.input, "rb") as source:
        configs = _configs_by_mode(_load_config(args))
        with _replacing(args.output) as output, (
            _replacing(args.output + ".trace") if args.trace else nullcontext()
        ) as trace:
            for record in problems.records(source, args.input):
                if record.tree is None:
                    outcome = "no parse tree; record passed through"
                else:
                    outcome = _label_record(record, configs)
                if isinstance(outcome, str):
                    problems(record.id, outcome)
                    output.write(_record_line(record, None, checked=False) + "\n")
                    continue
                output.write(_record_line(record, outcome.annotation, checked=False) + "\n")
                if trace is not None:
                    trace.write(_trace_line(record.id, outcome) + "\n")
    return problems.exit_code


def run_stats(args: argparse.Namespace) -> int:
    with _Problems(sys.stderr) as problems, open(args.input, "rb") as source:
        records = problems.records(source, args.input)
        report = distribution(filter(None, (r.gold or r.predicted for r in records)))
        if not report.total:
            raise ValueError("no annotations in corpus")

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
    threshold = _config_threshold(args) if args.strict else None
    tally = _Tally()
    missing: list[str] = []  # ids of records that lack an annotation
    differ: list[str] = []  # ids of pairs whose tokens differ

    def score(record_id: str, g: Annotation | None, p: Annotation | None) -> None:
        if g is None or p is None:
            missing.append(record_id)
        elif g.tokens != p.tokens:
            differ.append(record_id)
        else:
            tally.add(g, p)

    with _Problems(sys.stderr) as problems, open(paths[0], "rb") as source:
        records = problems.records(source, paths[0])
        if len(paths) == 1:
            needed = "gold or predicted annotations"
            for r in records:
                score(r.id, r.gold, r.predicted)
        else:
            # The first file is held by id and the second streamed against
            # it, so both are read in order; the ids then go back into the
            # first file's order.
            needed = "annotations"
            golds = {r.id: r.gold or r.predicted for r in records}
            seen: set[str] = set()
            odd: list[str] = []
            with open(paths[1], "rb") as second:
                for r in problems.records(second, paths[1]):
                    if r.id in golds:
                        seen.add(r.id)
                        score(r.id, golds[r.id], r.predicted or r.gold)
                    else:
                        odd.append(r.id)
            odd += golds.keys() - seen
            if odd:
                raise ValueError("ids not aligned across files: " + ", ".join(sorted(odd)))
            order = {record_id: n for n, record_id in enumerate(golds)}
            missing.sort(key=order.__getitem__)
            differ.sort(key=order.__getitem__)
        if missing:
            raise ValueError(f"records missing {needed}: " + ", ".join(missing))
        for record_id in differ:
            problems(record_id, "gold and predicted tokens differ")
        if not tally.pairs:
            raise ValueError("no pair of gold and predicted annotations has the same tokens")
    report = tally.report()
    print(format_eval_report(report))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as output:
            output.write(json.dumps(report.to_dict(), ensure_ascii=False, indent=2) + "\n")
    if threshold is not None and report.supertype_accuracy < threshold:
        print(
            f"supertype accuracy {report.supertype_accuracy:.6f} below threshold "
            f"{threshold:.6f}",
            file=sys.stderr,
        )
        return FATAL
    return problems.exit_code


def _is_circular(definition_id: str, tokens: list[str]) -> bool:
    """The full definiendum lemma occurs in its own gloss.

    Multiword lemmas must appear as a contiguous phrase; single-word lemmas
    match any token up to the lexicon's plural detachment.
    """
    words = definition_id.lower().replace("_", " ").split()
    if not words:
        return False
    if len(words) == 1:
        return any(words[0] in _noun_variants(token.lower()) for token in tokens)
    lowered = [t.lower() for t in tokens]
    span = len(words)
    return any(lowered[i : i + span] == words for i in range(len(lowered) - span + 1))


def run_lint(args: argparse.Namespace) -> int:
    with _Problems(sys.stdout) as report, open(args.input, "rb") as source:
        configs = _configs_by_mode(_load_config(args))
        for record in report.records(source, args.input):
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
