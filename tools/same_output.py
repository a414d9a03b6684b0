#!/usr/bin/env python3
"""Check that the working tree gives the same output as a git revision.

Usage, from anywhere inside a checkout:

    python3 tools/same_output.py REV [--seed S] [--random N]

``REV`` is checked out into a git worktree under ``.bench_work/``, which is
removed afterwards; only the local repository is read. The working tree
generates every input once, and each side then runs in its own interpreter
with its own ``src`` on ``PYTHONPATH``. The input sets are:

- ``bundled``: the packaged gold corpus;
- ``criterion-6``: the 10,000 records of ``tests/test_acceptance.py``'s
  criterion 6;
- ``label-bundled`` and ``label-long``: the benchmark's corpora at ``--seed``
  (``bench/corpora.py``), the latter with its generated noun lexicon and
  location gazetteer;
- ``eval-stats``: the benchmark's ``eval-stats`` corpus at ``--seed``, whose
  records carry gold and seeded predictions;
- ``random``: ``--random`` trees from ``tests/conftest.py``'s
  ``random_tree``, some tokens recased or swapped for time words and
  non-ASCII words, with lexicons and gazetteers drawn from the trees' own
  n-grams.

For each set both sides give ``repr(label(...))`` of every record in both
instance modes, and the bytes (standard output and error, exit status and
files written) of ``label``, ``label --trace``, ``lint``, ``stats``,
``eval`` of the labeled output and ``eval`` of the input. Only sets with
gold (``bundled`` and ``eval-stats``) have scores to compare; ``eval``
exits 1 on the others, and the input of ``bundled`` has no predictions.
The script prints one digest per set and side, and for the first
difference in a set the record id and both reprs, or the first differing
line of the output that differs. It exits 1 on any difference and 0 when
every set is the same.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "same_output"

# Knowledge files an input set may carry: file name, CLI flag, loader name,
# kind, and the ``LabelerConfig`` field it replaces.
KNOWLEDGE = (
    ("nouns.txt", "--noun-lexicon", "load_wordlist", "NOUN", "noun_lexicon"),
    ("verbs.txt", "--verb-lexicon", "load_wordlist", "VERB", "verb_lexicon"),
    ("locations.txt", "--loc-gazetteer", "load_gazetteer", "LOCATION", "location_gazetteer"),
    ("times.txt", "--time-gazetteer", "load_gazetteer", "TIME", "time_gazetteer"),
)

# Tokens the random set swaps in: time words and patterns (an Arabic-Indic
# year, a superscript year), words that lowercase unusually (a final sigma,
# a dotted capital I), and the cue words of the determiner and fact rules.
EXTRA_TOKENS = (
    "1999", "May", "3rd", "century", "١٩٩٩", "²⁰²⁰", "ΟΔΟΣ", "İzmir", "STONE",
    "For", "whom", "Which", "was", "whose", "A", "type", "any", "various",
)


# -- inputs (made once, by the working tree) ---------------------------------


def _write_set(dest: Path, records: Iterable[dict], knowledge: dict[str, str] | None = None) -> None:
    dest.mkdir(parents=True)
    with open(dest / "in.jsonl", "w", encoding="utf-8") as out:
        for record in records:
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
    for name, text in (knowledge or {}).items():
        (dest / name).write_text(text, encoding="utf-8")


def _random_records(count: int, seed: int) -> tuple[list[dict], dict[str, str]]:
    from conftest import random_tree
    from defsrl.syntree import serialize

    rng = random.Random(f"same-output-{seed}")
    records, windows = [], []
    for i in range(count):
        tree = random_tree(rng, max_depth=5)
        leaves = [node for node in tree.subtrees() if node.token is not None]
        text = serialize(tree)
        # ``serialize`` writes each leaf as "(TAG token)"; swap the tokens
        # right to left so that earlier offsets stay valid.
        tokens = [leaf.token for leaf in leaves]
        for k in range(len(tokens)):
            roll = rng.random()
            if roll < 0.1:
                tokens[k] = rng.choice(EXTRA_TOKENS)
            elif roll < 0.2:
                tokens[k] = tokens[k].capitalize()
        text = _retokened(text, tokens)
        records.append({
            "id": f"random-{i}",
            "pos": rng.choice(("noun", "verb")),
            "gloss": " ".join(tokens),
            "tree": text,
            "instance": rng.random() < 0.3,
        })
        start = rng.randrange(len(tokens))
        windows.append(tokens[start : start + rng.randint(1, 3)])
    picked = {name: rng.sample(windows, min(len(windows), 40)) for name, *_ in KNOWLEDGE}
    knowledge = {
        name: "".join(
            ("_" if name in ("nouns.txt", "verbs.txt") else " ").join(words) + "\n"
            for words in picked[name]
        )
        for name in picked
    }
    return records, knowledge


def _retokened(text: str, tokens: Sequence[str]) -> str:
    """``text`` (a serialized tree) with its leaf tokens replaced, in order."""
    pieces = text.split(")")
    k = 0
    for p, piece in enumerate(pieces):
        head, bracket, leaf = piece.rpartition("(")
        parts = leaf.split(" ")
        if bracket and len(parts) == 2:
            pieces[p] = f"{head}({parts[0]} {tokens[k]}"
            k += 1
    assert k == len(tokens)
    return ")".join(pieces)


def make_inputs(dest: Path, seed: int, random_count: int) -> list[str]:
    """Write every input set under ``dest``; return the set names in order."""
    for extra in (ROOT / "src", ROOT / "tests", ROOT / "bench"):
        if str(extra) not in sys.path:
            sys.path.insert(0, str(extra))
    import corpora
    from defsrl.corpus import record_line
    from defsrl.defaults import BUNDLED_CORPUS, packaged_data_text
    from test_acceptance import expand_templates

    dest.mkdir(parents=True)
    (dest / "bundled").mkdir()
    (dest / "bundled" / "in.jsonl").write_text(packaged_data_text(BUNDLED_CORPUS), encoding="utf-8")
    (dest / "criterion-6").mkdir()
    with open(dest / "criterion-6" / "in.jsonl", "w", encoding="utf-8") as out:
        for record in expand_templates(10_000):
            out.write(record_line(record) + "\n")
    templates = corpora.load_templates(ROOT)
    _write_set(dest / "label-bundled", corpora.expand_templates(templates, 10_000, seed).records)
    vocab = corpora.make_knowledge(ROOT, seed)
    _write_set(
        dest / "label-long", corpora.long_corpus(vocab, 1_000, seed),
        {"nouns.txt": vocab.nouns_text, "locations.txt": vocab.locations_text},
    )
    _write_set(dest / "eval-stats", corpora.eval_corpus(templates, 10_000, seed).records)
    _write_set(dest / "random", *_random_records(random_count, seed))
    return ["bundled", "criterion-6", "label-bundled", "label-long", "eval-stats", "random"]


# -- one side (run in its own interpreter) -----------------------------------


def label_reprs(
    label: Callable, parse: Callable, records: Iterable[dict], configs: Sequence
) -> Iterator[str]:
    """One line per record and config: the record's id, the config's
    position in ``configs``, and ``repr(label(...))`` (or the exception it
    raised), tab-separated."""
    for record in records:
        for mode, config in enumerate(configs):
            try:
                outcome = repr(label(parse(record["tree"]), record["pos"], config, record["id"]))
            except Exception as exc:
                outcome = f"raised {type(exc).__name__}: {exc}"
            yield f"{record['id']!r}\t{mode}\t{outcome}"


def _knowledge_of(inputs: Path) -> list[tuple[str, ...]]:
    return [entry for entry in KNOWLEDGE if (inputs / entry[0]).exists()]


def _config_for(inputs: Path):
    from defsrl import lexicon
    from defsrl.defaults import default_config

    config = default_config()
    changes = {}
    for name, _, loader, kind, field in _knowledge_of(inputs):
        text = (inputs / name).read_text(encoding="utf-8")
        changes[field] = getattr(lexicon, loader)(text, getattr(lexicon, kind))
    return config.__replace__(**changes) if changes else config


def run_side(inputs: Path, out: Path, names: Sequence[str]) -> None:
    """Label and run every command on each input set, writing the results
    under ``out/<set>``. Paths handed to the CLI are relative to that
    directory, so they read the same on both sides."""
    from defsrl.labeler import label
    from defsrl.syntree import parse_bracketed

    for name in names:
        here, source = out / name, inputs / name
        here.mkdir(parents=True)
        config = _config_for(source)
        configs = (config.__replace__(instance_mode=False), config.__replace__(instance_mode=True))
        with open(source / "in.jsonl", encoding="utf-8") as lines, \
                open(here / "reprs.txt", "w", encoding="utf-8") as reprs:
            records = map(json.loads, lines)
            for line in label_reprs(label, parse_bracketed, records, configs):
                reprs.write(line + "\n")
        given = os.path.relpath(source / "in.jsonl", here)
        flags = [
            arg for file, flag, *_ in _knowledge_of(source)
            for arg in (flag, os.path.relpath(source / file, here))
        ]
        commands = {
            "label": ["label", "--input", given, "--output", "out.jsonl", *flags],
            "label-trace": ["label", "--trace", "--input", given, "--output", "traced.jsonl", *flags],
            "lint": ["lint", "--input", given, *flags],
            "stats": ["stats", "--input", "out.jsonl"],
            "eval": ["eval", "--input", "out.jsonl", "--output", "report.json"],
            "eval-input": ["eval", "--input", given, "--output", "input-report.json"],
        }
        for command, args in commands.items():
            done = subprocess.run(
                [sys.executable, "-m", "defsrl.cli", *args], cwd=here, capture_output=True,
            )
            (here / f"{command}.stdout").write_bytes(done.stdout)
            (here / f"{command}.stderr").write_bytes(done.stderr)
            (here / f"{command}.status").write_text(f"{done.returncode}\n", encoding="utf-8")


# -- comparison ----------------------------------------------------------------


def first_difference(left: Iterable[str], right: Iterable[str]) -> tuple[int, str, str] | None:
    """The first line number (from 1) at which two line sequences differ,
    with both lines (an empty string past the end of the shorter one);
    None when they are the same."""
    left, right = iter(left), iter(right)
    number = 0
    while True:
        number += 1
        a, b = next(left, None), next(right, None)
        if a is None and b is None:
            return None
        if a != b:
            return number, a or "", b or ""


def digest(directory: Path) -> str:
    """A digest of every file's name and bytes in ``directory``."""
    total = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        total.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return total.hexdigest()[:16]


def compare_set(name: str, left: Path, right: Path, labels: tuple[str, str]) -> bool:
    """Print both sides' digests of one set and, when they differ, the
    first difference; True when the set is the same."""
    ours, theirs = digest(left), digest(right)
    print(f"{name:14} {labels[0]:10} {ours}")
    print(f"{name:14} {labels[1]:10} {theirs}")
    if ours == theirs:
        return True
    files = sorted({p.name for p in left.iterdir()} | {p.name for p in right.iterdir()})
    for file in files:
        a, b = left / file, right / file
        if a.exists() and b.exists() and a.read_bytes() == b.read_bytes():
            continue
        if not (a.exists() and b.exists()):
            print(f"  {file}: only on {labels[0] if a.exists() else labels[1]}")
            break
        with open(a, encoding="utf-8", errors="replace") as fa, \
                open(b, encoding="utf-8", errors="replace") as fb:
            number, line_a, line_b = first_difference(fa, fb)
        if file == "reprs.txt":
            record_id = (line_a or line_b).split("\t", 1)[0]
            print(f"  first difference: record {record_id} (line {number} of {file})")
        else:
            print(f"  first difference: line {number} of {file}")
        print(f"  {labels[0]}: {line_a.rstrip()}")
        print(f"  {labels[1]}: {line_b.rstrip()}")
        break
    return False


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True,
    ).stdout.strip()


def _side(src: Path, inputs: Path, out: Path, names: Sequence[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, __file__, "--side", str(inputs), str(out), *names], env=env, check=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="the git revision to compare against")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated corpora")
    parser.add_argument("--random", type=int, default=2_000, help="number of random trees")
    parser.add_argument("--side", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        inputs, out, *names = args.side
        run_side(Path(inputs), Path(out), names)
        return 0
    if args.rev is None:
        parser.error("REV is required")

    commit = _git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    shutil.rmtree(WORK, ignore_errors=True)
    names = make_inputs(WORK / "inputs", args.seed, args.random)
    checkout = WORK / "rev"
    _git("worktree", "add", "--detach", str(checkout), commit)
    try:
        labels = ("working", commit[:10])
        _side(ROOT / "src", WORK / "inputs", WORK / "sides" / "working", names)
        _side(checkout / "src", WORK / "inputs", WORK / "sides" / "rev", names)
    finally:
        _git("worktree", "remove", "--force", str(checkout))
    same = [
        compare_set(name, WORK / "sides" / "working" / name, WORK / "sides" / "rev" / name, labels)
        for name in names
    ]
    print("same output" if all(same) else f"different output in {same.count(False)} of {len(same)} sets")
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
