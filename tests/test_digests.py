"""Byte-identity gate: SHA-256 digests of every CLI output on four corpora.

A change that alters output on purpose updates the digest here and says why
in CHANGES.md. The corpora are the bundled gold corpus, the 10k-definition
``expand_templates`` corpus of criterion 6, the seed-5 ``label-long``
benchmark corpus with its generated lexicon and gazetteer, and the seed-5
``eval-stats`` benchmark corpus, whose records carry both gold and predicted
annotations and which is read by ``eval`` and ``stats`` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from defsrl.cli import main
from defsrl.corpus import write_corpus
from defsrl.defaults import BUNDLED_CORPUS, packaged_data_text

from test_acceptance import expand_templates

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))

import corpora  # noqa: E402

LONG_SEED = 5
LONG_RECORDS = 1_000  # the label-long workload's size in bench/run.py
EVAL_SEED = 5
EVAL_RECORDS = 10_000  # the eval-stats workload's size in bench/run.py


def _write_bundled(work: Path) -> list[str]:
    (work / "in.jsonl").write_text(packaged_data_text(BUNDLED_CORPUS), encoding="utf-8")
    return []


def _write_templates(work: Path) -> list[str]:
    (work / "in.jsonl").write_text(write_corpus(expand_templates(10_000)), encoding="utf-8")
    return []


def _write_long(work: Path) -> list[str]:
    vocab = corpora.make_knowledge(ROOT, LONG_SEED)
    (work / "nouns.txt").write_text(vocab.nouns_text, encoding="utf-8")
    (work / "locations.txt").write_text(vocab.locations_text, encoding="utf-8")
    records = corpora.long_corpus(vocab, LONG_RECORDS, LONG_SEED)
    (work / "in.jsonl").write_text(corpora.to_jsonl(records), encoding="utf-8")
    return ["--noun-lexicon", str(work / "nouns.txt"), "--loc-gazetteer", str(work / "locations.txt")]


def _write_eval(work: Path) -> list[str]:
    corpus = corpora.eval_corpus(corpora.load_templates(ROOT), EVAL_RECORDS, EVAL_SEED)
    (work / "in.jsonl").write_text(corpora.to_jsonl(corpus.records), encoding="utf-8")
    return []

EXPECTED = {
    "bundled": {
        "label": "0 5a5a04233407db40712b05789871460716bb30aaf3ce422012461bdbaedd2d67",
        "label.trace": "0 f5524c7c99bec1efd27128775e6568a28953e05c6d4a57c8618f4c6c1307feca",
        "lint input": "2 1534d71c17b1a2cc610e660242d24a7758792a0cc644a9f250693b89e69f15d6",
        "lint labeled": "2 1534d71c17b1a2cc610e660242d24a7758792a0cc644a9f250693b89e69f15d6",
        "lint --strict labeled": "2 1534d71c17b1a2cc610e660242d24a7758792a0cc644a9f250693b89e69f15d6",
        "stats": "0 e210e7baef6b667d9a20ab5edb5a2409edb171479240097bf6136484c4304452",
        "eval --output": "0 063d9e0f6877c2fe6600fbe8e8ccbe42ed675c7341ebe3ea1adef8ccdbc3e30b",
    },
    "label-long-5": {
        "label": "0 902f8d2e71e46feafda2f4819162167802f7427507fd1ca5cc8715acc11abf8c",
        "label.trace": "0 8dfd32bfbaffc52e6111197dbfc9d18c744cc4255f0c5babd66dc91be0eb7353",
        "lint input": "2 c03f185cc196d06c5607201cee5021b7f377834f56157069f69694fcfd7f1f10",
        "lint labeled": "2 401a656de68d32fd0b5d35ece44f2fd67cf29aa9302637223d7ad06705df48a0",
        "lint --strict labeled": "2 401a656de68d32fd0b5d35ece44f2fd67cf29aa9302637223d7ad06705df48a0",
        "stats": "0 8bb9f2a8423c16b7a0fecedcc0cf586fbe34ad2a2b7acf11f3ccaf6165d9cf64",
        "eval --output": "0 3222c8cf47613179ae650218683d017a89665c82de196a5dc78286c6fd43ee60",
    },
    "eval-stats-5": {
        "eval --output": "0 874722ddf9d76c9bc5e66dc6de810b56bd742e752cc7802a1482c92831700f37",
        "eval stdout": "0 2ec0611d85b2edbb7494fa4682181b5bd92a9bd33641a7cda1aaefecc17b3d90",
        "stats": "0 908a61299c22fafa8e7e0ff83eac94d831b4caaa0b54938d1033297c09f88f5f",
    },
    "templates-10k": {
        "label": "0 03311acb57ae677274f1e8a44aad2787291dab96c716f1daa351a0ad95ec6a11",
        "label.trace": "0 225a24d2ea4900bdd4e38d2a696bf14d50046248f1e07848a4608f6c1e1649dc",
        "lint input": "2 52f2b545269a6ccdb98b9e9c7d682a7e65fc139c4c34701d258ddad2d44b4cef",
        "lint labeled": "2 52f2b545269a6ccdb98b9e9c7d682a7e65fc139c4c34701d258ddad2d44b4cef",
        "lint --strict labeled": "2 86a14f12f93842523a5b7813f25ad0d8e4eae5b208faad91005dd22916657bfa",
        "stats": "0 c9c745424190e798073d557a354950d16322c628d10641ad04c1611f6a7cd0cb",
        "eval --output": "0 576b6f69a11f1c62d3a66bb1a3532b8665c4b4271cacc435187d1dc1cf296eeb",
    },
}


def _run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def _digest(code: int, data: bytes) -> str:
    return f"{code} {hashlib.sha256(data).hexdigest()}"


def _outputs(work: Path, knowledge: list[str]) -> dict[str, str]:
    """Exit code and digest of each output, keyed by command and file."""
    source, labeled = str(work / "in.jsonl"), str(work / "out.jsonl")
    report = work / "report.json"
    results: dict[str, str] = {}

    def record(name: str, code: int, data: bytes) -> None:
        results[name] = _digest(code, data)

    code, _ = _run(["label", "--trace", "--input", source, "--output", labeled, *knowledge])
    record("label", code, Path(labeled).read_bytes())
    record("label.trace", code, Path(labeled + ".trace").read_bytes())
    # Lint labels an unannotated input itself and reports its unlabeled
    # residue; on the labeled output it lints the stored predictions.
    record("lint input", *_run(["lint", "--input", source, *knowledge]))
    record("lint labeled", *_run(["lint", "--input", labeled, *knowledge]))
    record("lint --strict labeled", *_run(["lint", "--strict", "--input", labeled, *knowledge]))
    record("stats", *_run(["stats", "--input", labeled]))
    # Two-file eval scores each record's gold (else predicted) against its
    # predicted (else gold), so it also runs on corpora without gold.
    code, _ = _run(["eval", "--input", labeled, labeled, "--output", str(report)])
    record("eval --output", code, report.read_bytes())
    return results


def _read_side_outputs(work: Path, knowledge: list[str]) -> dict[str, str]:
    """Exit code and digest of one-file ``eval`` (report and stdout) and of
    ``stats`` on an input that carries both gold and predicted annotations."""
    source, report = str(work / "in.jsonl"), work / "report.json"
    code, stdout = _run(["eval", "--input", source, "--output", str(report)])
    return {
        "eval --output": _digest(code, report.read_bytes()),
        "eval stdout": _digest(code, stdout),
        "stats": _digest(*_run(["stats", "--input", source])),
    }


# Corpus name -> (writer of in.jsonl, returning knowledge flags; outputs).
CORPORA = {
    "bundled": (_write_bundled, _outputs),
    "eval-stats-5": (_write_eval, _read_side_outputs),
    "label-long-5": (_write_long, _outputs),
    "templates-10k": (_write_templates, _outputs),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_cli_outputs_match_their_digests(corpus, tmp_path):
    write, outputs = CORPORA[corpus]
    actual = outputs(tmp_path, write(tmp_path))
    changed = {name: digest for name, digest in actual.items() if EXPECTED[corpus].get(name) != digest}
    assert not changed, f"{corpus}: exit code and digest changed; new values: {changed}"
