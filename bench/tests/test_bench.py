"""Tests of the benchmark itself, at tiny corpus sizes.

Run with ``python -m pytest bench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import calibrate  # noqa: E402
import corpora  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

ROOT = BENCH.parent


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "BUNDLED_RECORDS", 45)
    monkeypatch.setattr(run, "LONG_RECORDS", 6)
    monkeypatch.setattr(run, "EVAL_RECORDS", 45)
    monkeypatch.setattr(corpora, "NOUN_ENTRIES", 2_000)
    monkeypatch.setattr(corpora, "LOCATION_ENTRIES", 300)


def _inputs(name: str, seed: int, work: Path) -> dict[str, bytes]:
    work.mkdir()
    run.prepare(name, seed, work)
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_generators_are_deterministic_per_seed_and_differ_across_seeds(tiny, tmp_path, name):
    first = _inputs(name, 7, tmp_path / "a")
    again = _inputs(name, 7, tmp_path / "b")
    other = _inputs(name, 8, tmp_path / "c")
    assert first == again
    assert first["in.jsonl"] != other["in.jsonl"]


def test_inline_format_round_trips_the_bundled_gold():
    for template in corpora.load_templates(ROOT):
        assert corpora.serialize_inline(corpora.parse_inline(template["gold"])) == template["gold"]


def _run(name: str, work: Path, seed: int = 3):
    workload = run.prepare(name, seed, work)
    run.run_in_process(workload, work)
    outputs = run.read_outputs(workload, work)
    assert workload.check(outputs) == []
    return workload, outputs


def _edit_line(text: str, index: int, edit) -> str:
    lines = text.splitlines()
    record = json.loads(lines[index])
    edit(record)
    lines[index] = json.dumps(record, ensure_ascii=False)
    return "\n".join(lines) + "\n"


def test_label_bundled_check_fires_on_a_flipped_role_and_a_dropped_record(tiny, tmp_path):
    workload, outputs = _run("label-bundled", tmp_path)
    text = outputs["out.jsonl"]

    def flip(record):
        record["predicted"] = record["predicted"].replace("{supertype|", "{differentia_quality|", 1)

    index = next(i for i, line in enumerate(text.splitlines()) if "{supertype|" in line)
    assert workload.check({"out.jsonl": _edit_line(text, index, flip)})
    dropped = "".join(text.splitlines(keepends=True)[1:])
    assert workload.check({"out.jsonl": dropped})


def test_label_long_check_fires_on_an_uncovered_token_and_a_dropped_record(tiny, tmp_path):
    workload, outputs = _run("label-long", tmp_path)

    def strip_spans(record):
        record["predicted"] = " ".join(corpora.parse_inline(record["predicted"]).tokens)

    def clear_trace(record):
        record["trace"] = []

    uncovered = {
        "out.jsonl": _edit_line(outputs["out.jsonl"], 0, strip_spans),
        "out.jsonl.trace": _edit_line(outputs["out.jsonl.trace"], 0, clear_trace),
    }
    assert workload.check(uncovered)
    dropped = dict(outputs, **{"out.jsonl": "".join(outputs["out.jsonl"].splitlines(keepends=True)[:-1])})
    assert workload.check(dropped)


def test_eval_stats_check_fires_on_a_wrong_count_and_a_wrong_total(tiny, tmp_path):
    workload, outputs = _run("eval-stats", tmp_path)
    report = json.loads(outputs["report.json"])
    report["roles"]["supertype"]["predicted_support"] += 1
    assert workload.check(dict(outputs, **{"report.json": json.dumps(report)}))
    short_total = "\n".join(
        f"Total  {run.EVAL_RECORDS - 1}  100.0" if line.startswith("Total") else line
        for line in outputs["stats.stdout"].splitlines()
    )
    assert workload.check(dict(outputs, **{"stats.stdout": short_total}))


def _snapshot() -> dict:
    return {
        (target, attr): vars(tracing._resolve(target)).get(attr)
        for target, attr, _ in tracing.BINDINGS
    }


def test_tracer_restores_every_binding_after_a_run_and_after_an_exception(tiny, tmp_path):
    before = _snapshot()
    workload = run.prepare("label-bundled", 3, tmp_path)
    with tracing.traced(tracing.Tracer()) as tracer:
        assert _snapshot() != before
        run.run_in_process(workload, tmp_path)
    assert all(_snapshot()[key] is value for key, value in before.items())
    assert tracer.summary()["labeler.label"]["calls"] == run.BUNDLED_RECORDS

    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("boom")
    assert all(_snapshot()[key] is value for key, value in before.items())


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    outer, inner = tracer._name("outer"), tracer._name("inner")
    for nid, parent, start, end in ((outer, -1, 0, 100), (inner, 0, 10, 40), (inner, 0, 50, 60)):
        tracer.name_id.append(nid)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    summary = tracer.summary()
    assert summary["outer"]["self_s"] * 1e9 == pytest.approx(60)
    assert summary["inner"] == {"calls": 2, "self_s": pytest.approx(40e-9), "s": pytest.approx(40e-9)}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_call_counts_repeat_exactly(tiny, tmp_path, name):
    workload = run.prepare(name, 3, tmp_path)
    counts = []
    for _ in range(2):
        with tracing.traced(tracing.Tracer()) as tracer:
            run.run_in_process(workload, tmp_path)
        counts.append({name: row["calls"] for name, row in tracer.summary().items()})
    assert counts[0] == counts[1]
    assert counts[0]["syntree.parse_bracketed"] == 2 * len(workload.records)


def test_speed_factor_uses_the_probes_during_and_nearest_an_activity():
    speed = calibrate.Speed()
    speed.NEAR = 1
    speed.times = [float(t) for t in range(10)]
    speed.readings = [10.0, 10.0, 10.0, 4.0, 6.0, 8.0, 2.0, 10.0, 10.0, 10.0]
    # probes 4 and 5 ran during the activity, 3 and 6 are the nearest outside it
    assert speed.factor(3.5, 5.5) == pytest.approx(calibrate.REFERENCE_MS / 5.0)
    assert speed.factor(-2.0, -1.0) == pytest.approx(calibrate.REFERENCE_MS / 10.0)
