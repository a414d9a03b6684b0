"""The generator of the bundled gold corpus still produces the packaged file."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "make_bundled_corpus", ROOT / "tools" / "make_bundled_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_built_text_is_the_packaged_corpus_byte_for_byte():
    tool = _tool()
    assert tool.build_text().encode("utf-8") == tool.OUT.read_bytes()
    assert tool.OUT == ROOT / "src" / "defsrl" / "data" / "definitions_gold.jsonl"


def test_any_argument_is_a_usage_error_that_writes_nothing(tmp_path, capsys, monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "OUT", tmp_path / "definitions_gold.jsonl")
    assert tool.main(["--help"]) == 2
    assert capsys.readouterr().err.startswith("usage: make_bundled_corpus.py")
    assert not tool.OUT.exists()
    assert tool.main([]) == 0
    assert tool.OUT.read_text(encoding="utf-8") == tool.build_text()
