"""The comparison of ``tools/same_output.py``, run on two labelers in one
process (the git worktree and the child interpreters are left out)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from defsrl import labeler
from defsrl.defaults import BUNDLED_CORPUS, default_config, packaged_data_text
from defsrl.syntree import parse_bracketed

TOOLS = Path(__file__).resolve().parent.parent / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import same_output  # noqa: E402


def _reprs() -> list[str]:
    records = [json.loads(line) for line in packaged_data_text(BUNDLED_CORPUS).splitlines()]
    config = default_config()
    configs = (config, config.__replace__(instance_mode=True))
    return list(same_output.label_reprs(labeler.label, parse_bracketed, records, configs))


def test_a_mutated_rule_is_reported_with_the_record_and_both_reprs(tmp_path, monkeypatch, capsys):
    ours = _reprs()
    # The associated-fact rule no longer knows any cue.
    monkeypatch.setattr(labeler, "_FACT_CUES", ())
    theirs = _reprs()

    assert same_output.first_difference(ours, list(ours)) is None
    number, line_a, line_b = same_output.first_difference(ours, theirs)
    assert ours[: number - 1] == theirs[: number - 1]
    assert (line_a, line_b) == (ours[number - 1], theirs[number - 1])
    record_id = line_a.split("\t", 1)[0]

    for side, lines in (("a", ours), ("b", theirs)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "reprs.txt").write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    assert not same_output.compare_set("bundled", tmp_path / "a", tmp_path / "b", ("working", "rev"))
    printed = capsys.readouterr().out
    assert f"record {record_id} (line {number} of reprs.txt)" in printed
    assert f"working: {line_a}" in printed and f"rev: {line_b}" in printed


def test_the_same_outputs_are_reported_the_same(tmp_path, capsys):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "label.stdout").write_bytes(b"clean\n")
    assert same_output.compare_set("bundled", tmp_path / "a", tmp_path / "b", ("working", "rev"))
    digests = {line.split()[-1] for line in capsys.readouterr().out.splitlines()}
    assert len(digests) == 1


@pytest.mark.parametrize("left, right, expected", [
    ([], [], None),
    (["x"], ["x", "y"], (2, "", "y")),
    (["x", "y"], ["x", "z"], (2, "y", "z")),
])
def test_first_difference(left, right, expected):
    assert same_output.first_difference(left, right) == expected
