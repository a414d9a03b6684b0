#!/usr/bin/env python3
"""defsrl benchmark: seeded corpora through the real CLI, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload label-bundled --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1

With ``--trace 0`` each workload runs its CLI command(s) in fresh child
processes (closed loop, one client) and reports the end-to-end metrics:
throughput, library ``label()`` latency, set-up time and peak memory. With
``--trace 1`` it runs the same commands in-process under the span tracer
and reports per-layer counts and self times instead. Both modes check the
outputs; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import calibrate
import corpora
import verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150
WORKLOAD_NAMES = ("label-bundled", "label-long", "eval-stats")
BUNDLED_RECORDS = 10_000
LONG_RECORDS = 1_000
EVAL_RECORDS = 10_000

# The measured window interleaves three activities, each kept near its
# share of the time, so that every metric samples the whole window and a
# burst of machine slowness lands on all of them alike. Speed probes
# (calibrate.py) run between the activities and inside the label() chunks.
SHARES = {"cli": 0.65, "setup": 0.1, "label": 0.25}
MINIMUM = {"cli": 3, "setup": 5, "label": 1}
LATENCY_CHUNK_S = 0.5  # wall seconds of label() calls per chunk, the unit of scheduling

# Runs in a fresh interpreter: import the package and build the workload's
# labeler config the way the CLI does, then print the elapsed seconds.
SETUP_SCRIPT = """
import sys, time
started = time.perf_counter()
import defsrl
from dataclasses import replace
from pathlib import Path
from defsrl.defaults import default_config
from defsrl.lexicon import LOCATION, NOUN, load_gazetteer, load_wordlist
config = default_config()
if len(sys.argv) > 1:
    config = replace(
        config,
        noun_lexicon=load_wordlist(Path(sys.argv[1]).read_text(encoding="utf-8"), NOUN),
        location_gazetteer=load_gazetteer(Path(sys.argv[2]).read_text(encoding="utf-8"), LOCATION),
    )
print(time.perf_counter() - started)
"""


@dataclass
class Workload:
    """Generated inputs, the CLI commands to time, and the output check."""

    records: list[dict]  # the input records, for label() latency
    commands: list[list[str]]  # arguments after ``python -m defsrl.cli``
    outputs: list[str]  # files the commands write, relative to the work dir
    knowledge: list[str] = field(default_factory=list)  # noun lexicon, gazetteer
    check: Callable[[dict[str, str]], list[str]] | None = None  # outputs -> problems


def prepare(name: str, seed: int, work: Path) -> Workload:
    templates = corpora.load_templates(ROOT)
    if name == "label-bundled":
        corpus = corpora.expand_templates(templates, BUNDLED_RECORDS, seed)
        (work / "in.jsonl").write_text(corpora.to_jsonl(corpus.records), encoding="utf-8")
        return Workload(
            corpus.records,
            [["label", "--input", "in.jsonl", "--output", "out.jsonl"]], ["out.jsonl"],
            check=lambda out: verify.check_label_bundled(out["out.jsonl"], corpus),
        )
    if name == "label-long":
        vocab = corpora.make_knowledge(ROOT, seed)
        (work / "nouns.txt").write_text(vocab.nouns_text, encoding="utf-8")
        (work / "locations.txt").write_text(vocab.locations_text, encoding="utf-8")
        records = corpora.long_corpus(vocab, LONG_RECORDS, seed)
        (work / "in.jsonl").write_text(corpora.to_jsonl(records), encoding="utf-8")
        return Workload(
            records,
            [["label", "--trace", "--input", "in.jsonl", "--output", "out.jsonl",
              "--noun-lexicon", "nouns.txt", "--loc-gazetteer", "locations.txt"]],
            ["out.jsonl", "out.jsonl.trace"], ["nouns.txt", "locations.txt"],
            check=lambda out: verify.check_label_long(
                out["out.jsonl"], out["out.jsonl.trace"], records, _validate_errors),
        )
    if name == "eval-stats":
        corpus = corpora.eval_corpus(templates, EVAL_RECORDS, seed)
        (work / "in.jsonl").write_text(corpora.to_jsonl(corpus.records), encoding="utf-8")
        return Workload(
            corpus.records,
            [["eval", "--input", "in.jsonl", "--output", "report.json"],
             ["stats", "--input", "in.jsonl"]],
            ["report.json", "stats.stdout"],
            check=lambda out: verify.check_eval_stats(out["report.json"], out["stats.stdout"], corpus),
        )
    raise ValueError(f"unknown workload {name!r}")


def _validate_errors(text: str, definition_id: str) -> list[str]:
    from defsrl.rolemodel import ERROR, parse_gold, validate

    return [f"{v.kind}: {v.message}" for v in validate(parse_gold(text, definition_id))
            if v.severity == ERROR]


def read_outputs(workload: Workload, work: Path) -> dict[str, str]:
    return {name: (work / name).read_text(encoding="utf-8") for name in workload.outputs}


# -- child processes ---------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # Children import from the bytecode cache, as an installed package would;
    # the untimed first set-up sample writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


class Launcher:
    """The helper process (``launcher.py``) that spawns the timed children.

    Start it before the harness allocates its corpora: a child's reported
    peak RSS includes the memory of whichever process forked it.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], work: Path, stdout_name: str) -> Child:
        request = {"argv": argv, "cwd": str(work), "env": child_env(), "timeout": CHILD_TIMEOUT_S,
                   "stdout": str(work / stdout_name), "stderr": str(work / "child.stderr")}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        stderr = (work / "child.stderr").read_text(encoding="utf-8", errors="replace")
        return Child(reply["wall_s"], reply["maxrss_kb"] / 1024, reply["returncode"], stderr)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def failed_records(child: Child, records: int) -> int:
    """Records the CLI reported failed or passed through; a fatal exit or a
    traceback counts every record."""
    if child.returncode == 0:
        return 0
    if child.returncode == 2 and "Traceback" not in child.stderr:
        return min(records, sum(1 for line in child.stderr.splitlines() if line.strip()))
    return records


@dataclass
class CliRun:
    wall_s: float
    peak_rss_mb: float
    failed: int
    digest: str
    outputs: dict[str, str]


def run_cli(workload: Workload, work: Path, launcher: Launcher) -> CliRun:
    wall, rss, failed = 0.0, 0.0, 0
    for command in workload.commands:
        stdout_name = f"{command[0]}.stdout"
        child = launcher.run([sys.executable, "-m", "defsrl.cli", *command], work, stdout_name)
        wall += child.wall_s
        rss = max(rss, child.peak_rss_mb)
        failed = max(failed, failed_records(child, len(workload.records)))
        if child.returncode not in (0, 2):
            sys.stderr.write(child.stderr[-2000:])
    try:
        outputs = read_outputs(workload, work)
    except FileNotFoundError as exc:
        outputs = {}
        sys.stderr.write(f"missing output: {exc}\n")
    blobs = [outputs.get(name, "").encode("utf-8") for name in workload.outputs]
    return CliRun(wall, rss, failed, verify.digest(*blobs), outputs)


def setup_sample(workload: Workload, work: Path, launcher: Launcher) -> float:
    child = launcher.run([sys.executable, "-c", SETUP_SCRIPT, *workload.knowledge], work, "setup.stdout")
    if child.returncode != 0:
        raise RuntimeError(f"set-up script failed:\n{child.stderr[-2000:]}")
    return float((work / "setup.stdout").read_text())


# -- in-process library calls ---------------------------------------------


def build_config(workload: Workload, work: Path):
    from defsrl.defaults import default_config
    from defsrl.lexicon import LOCATION, NOUN, load_gazetteer, load_wordlist

    config = default_config()
    if workload.knowledge:
        nouns, locations = (work / name for name in workload.knowledge)
        config = replace(
            config,
            noun_lexicon=load_wordlist(nouns.read_text(encoding="utf-8"), NOUN),
            location_gazetteer=load_gazetteer(locations.read_text(encoding="utf-8"), LOCATION),
        )
    return config


class LatencySampler:
    """Microseconds per ``label()`` call, in chunks of consecutive calls
    cycling through the records; a chunk lasts a fixed wall time, so that
    the window's share of calls is filled however slow the calls are.
    Config is built once; each tree is parsed, untimed, just before its
    call and dropped after it."""

    def __init__(self, workload: Workload, work: Path) -> None:
        from defsrl.labeler import label
        from defsrl.syntree import parse_bracketed

        self.label, self.parse = label, parse_bracketed
        config = build_config(workload, work)
        self.configs = {False: config, True: replace(config, instance_mode=True)}
        self.records = workload.records
        self.next = 0

    def chunk(self, seconds: float, between=lambda: None) -> list[float]:
        """Timed calls for ``seconds`` of wall time (at least one call);
        ``between()`` runs untimed after each."""
        clock, samples = time.perf_counter_ns, []
        stop = clock() + int(seconds * 1e9)
        while not samples or clock() < stop:
            record = self.records[self.next]
            self.next = (self.next + 1) % len(self.records)
            tree = self.parse(record["tree"])
            started = clock()
            self.label(tree, record["pos"], self.configs[record.get("instance", False)], record["id"])
            samples.append((clock() - started) / 1e3)
            del tree
            between()
        return samples


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


# -- the two modes -----------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str, str]]  # name -> (value, unit, note)
    notes: list[str] = field(default_factory=list)

    def print(self, workload: str) -> None:
        for note in self.notes:
            print(f"[{workload}] {note}")
        for name, (value, unit, note) in self.metrics.items():
            print(f"[{workload}] {name} = {value:.6g} {unit} ({note})")
        print(json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in self.metrics.items()},
        }))


def end_to_end(workload: Workload, work: Path, seconds: float, launcher: Launcher) -> Result:
    n = len(workload.records)
    setup_sample(workload, work, launcher)  # untimed: fills the bytecode cache
    sampler = LatencySampler(workload, work)
    sampler.chunk(LATENCY_CHUNK_S)  # untimed warm-up
    runs: list[CliRun] = []
    setup: list[float] = []
    chunks: list[list[float]] = []
    activities = {
        "cli": lambda: runs.append(run_cli(workload, work, launcher)),
        "setup": lambda: setup.append(setup_sample(workload, work, launcher)),
        "label": lambda: chunks.append(sampler.chunk(LATENCY_CHUNK_S, speed.every)),
    }
    done = {"cli": runs, "setup": setup, "label": chunks}
    spans: dict[str, list[tuple[float, float]]] = {a: [] for a in SHARES}  # start, end
    spent = dict.fromkeys(SHARES, 0.0)
    last = dict.fromkeys(SHARES, 0.0)
    gc.collect()
    gc.freeze()  # keep the harness's own objects out of the timed collections
    speed = calibrate.Speed()
    deadline = time.perf_counter() + seconds
    try:
        while True:
            now = time.perf_counter()
            # An activity below its minimum always runs; otherwise one runs
            # only if its last duration still fits before the deadline.
            due = [a for a in SHARES if len(done[a]) < MINIMUM[a]] or [
                a for a in SHARES if now + last[a] <= deadline]
            if not due:
                break
            activity = min(due, key=lambda a: spent[a] / SHARES[a])
            activities[activity]()
            spans[activity].append((now, time.perf_counter()))
            speed.between()
            last[activity] = time.perf_counter() - now
            spent[activity] += last[activity]
        speed.between()
    finally:
        gc.unfreeze()

    # Each timing scaled to the reference machine speed (calibrate.py).
    factors = {a: [speed.factor(*span) for span in spans[a]] for a in SHARES}
    walls = [run.wall_s * f for run, f in zip(runs, factors["cli"])]
    setups = [s * f for s, f in zip(setup, factors["setup"])]
    scaled = [[sample * f for sample in chunk] for chunk, f in zip(chunks, factors["label"])]

    first = runs[0]
    problems = workload.check(first.outputs) if first.outputs else ["no output"]
    if any(run.digest != first.digest for run in runs):
        problems.append("output bytes differ between repetitions of the same seed")
    failed = sum(run.failed for run in runs)
    attempted = n * len(runs)
    latencies = [sample for chunk in scaled for sample in chunk]
    raw_latencies = [sample for chunk in chunks for sample in chunk]
    return Result(
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={
            "defs_per_s": (n / statistics.median(walls), "defs/s",
                           f"{n} records / median CLI wall of {len(runs)} runs; "
                           f"unscaled {n / statistics.median(run.wall_s for run in runs):.6g}"),
            "label_us_p50": (statistics.median(latencies), "us",
                             f"median of {len(latencies)} label() calls; "
                             f"unscaled {statistics.median(raw_latencies):.6g}"),
            "label_us_p99": (percentile(latencies, 99), "us", f"p99 of {len(latencies)} label() calls; "
                             f"unscaled {percentile(raw_latencies, 99):.6g}"),
            "setup_s": (statistics.median(setups), "s", f"median of {len(setup)} fresh interpreters; "
                        f"unscaled {statistics.median(setup):.6g}"),
            "peak_rss_mb": (statistics.median(run.peak_rss_mb for run in runs), "MB",
                            f"median of {len(runs)} runs"),
        },
        notes=[f"output digest {first.digest}",
               f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} records)",
               f"machine speed {speed.mean_factor():.4g}x the reference (mean of {len(speed.readings)} probes); "
               "times below are scaled to the reference"]
        + [f"check failed: {p}" for p in problems],
    )


def run_in_process(workload: Workload, work: Path) -> tuple[float, str]:
    """The workload's CLI commands through ``defsrl.cli.main`` in this process."""
    from defsrl import cli

    wall = 0.0
    stdout = {}
    previous = Path.cwd()
    os.chdir(work)
    try:
        for command in workload.commands:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                started = time.perf_counter()
                code = cli.main(list(command))
                wall += time.perf_counter() - started
            if code != 0:
                raise RuntimeError(f"{command[0]} exited with {code}")
            stdout[f"{command[0]}.stdout"] = buffer.getvalue()
    finally:
        os.chdir(previous)
    for name, text in stdout.items():
        (work / name).write_text(text, encoding="utf-8")
    outputs = read_outputs(workload, work)
    return wall, verify.digest(*(outputs[name].encode("utf-8") for name in workload.outputs))


# Per-layer metrics of the traced run, named "<span>.<kind>": kind is
# calls_per_def (exact calls / input records), self_s, or s (inclusive).
LAYER_METRICS = (
    ("syntree.parse_bracketed", "calls_per_def"),
    ("syntree.parse_bracketed", "self_s"),
    ("syntree.leaves", "calls_per_def"),
    ("syntree.leaves", "self_s"),
    ("syntree.dominated_by", "calls_per_def"),
    ("syntree.dominated_by", "self_s"),
    ("syntree.constituents_after", "self_s"),
    ("lexicon.longest_rightmost_entry", "calls_per_def"),
    ("lexicon.longest_rightmost_entry", "self_s"),
    ("lexicon.gazetteer_match", "calls_per_def"),
    ("lexicon.gazetteer_match", "self_s"),
    ("labeler.label", "self_s"),
    ("rolemodel.validate", "calls_per_def"),
    ("rolemodel.validate", "self_s"),
    ("rolemodel.serialize_gold", "self_s"),
    ("rolemodel.parse_gold", "self_s"),
    ("corpus.evaluate", "self_s"),
    ("corpus.distribution", "self_s"),
    ("patterns.pattern_of", "self_s"),
    ("corpus.read_corpus", "self_s"),
    ("corpus.write_corpus", "self_s"),
    ("cli.command", "self_s"),
    ("defaults.default_config", "s"),
    ("lexicon.load_wordlist", "s"),
    ("lexicon.load_gazetteer", "s"),
)


def json_decode_seconds(workload: Workload, work: Path) -> float:
    """``json.loads`` of the input lines, once per command that reads them."""
    lines = (work / "in.jsonl").read_text(encoding="utf-8").splitlines()
    started = time.perf_counter()
    for _ in workload.commands:
        for line in lines:
            json.loads(line)
    return time.perf_counter() - started


def traced_run(workload: Workload, work: Path, seconds: float) -> Result:
    import tracing

    n = len(workload.records)
    deadline = time.perf_counter() + seconds
    digest = None
    problems: list[str] = []
    untraced, traced_walls, summaries, gc_pause, gc_gen2, decode = [], [], [], [], [], []
    pair_s = 0.0
    gc.collect()
    gc.freeze()  # keep the harness's own objects out of the program's collections
    try:
        # Untraced and traced repetitions alternate, so that the overhead
        # ratio compares runs made under the same machine conditions.
        while not summaries or time.perf_counter() + pair_s <= deadline:
            pair_started = time.perf_counter()
            gc.collect()
            wall, run_digest = run_in_process(workload, work)
            untraced.append(wall)
            if digest is None:
                digest = run_digest
                problems = workload.check(read_outputs(workload, work))
            gc.collect()
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                wall, traced_digest = run_in_process(workload, work)
            if run_digest != digest or traced_digest != digest:
                problems.append("output bytes differ between repetitions, traced or not")
            summary = tracer.summary()
            if summaries and _calls(summary) != _calls(summaries[0]):
                problems.append("call counts differ between traced repetitions")
            summaries.append(summary)
            traced_walls.append(wall)
            gc_pause.append(tracer.gc_pause_ns / 1e9)
            gc_gen2.append(tracer.gc_gen2)
            decode.append(json_decode_seconds(workload, work))
            pair_s = time.perf_counter() - pair_started
    finally:
        gc.unfreeze()
    tracer.write(work)

    reps = len(summaries)
    metrics: dict[str, tuple[float, str, str]] = {}
    for span, kind in LAYER_METRICS:
        if kind == "calls_per_def":
            calls = summaries[0].get(span, {}).get("calls", 0)
            metrics[f"{span}.{kind}"] = (calls / n, "calls/def", f"exact, {n} records")
        else:
            values = [s.get(span, {}).get(kind, 0) for s in summaries]
            metrics[f"{span}.{kind}"] = (statistics.median(values), "s", f"median of {reps} traced runs")
    metrics["corpus.json_decode_s"] = (statistics.median(decode), "s", f"median of {reps} runs")
    metrics["runtime.gc.pause_s"] = (statistics.median(gc_pause), "s", f"median of {reps} traced runs")
    metrics["runtime.gc.gen2_collections"] = (statistics.median(gc_gen2), "count", f"median of {reps} traced runs")
    overhead = statistics.median(traced_walls) / statistics.median(untraced)
    metrics["trace.overhead_ratio"] = (
        overhead, "ratio", f"traced {statistics.median(traced_walls):.3f} s / untraced "
        f"{statistics.median(untraced):.3f} s in-process wall")
    return Result(
        correct=not problems, attempted=n * 2 * reps, failed=0, metrics=metrics,
        notes=[f"output digest {digest}", f"spans written to {work / 'spans.bin'}"]
        + [f"check failed: {p}" for p in problems],
    )


def _calls(summary: dict) -> dict[str, int]:
    return {name: row["calls"] for name, row in summary.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, launcher: Launcher) -> Result:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = prepare(name, seed, work)
    return traced_run(workload, work, seconds) if trace else end_to_end(workload, work, seconds, launcher)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "defsrl" / "__init__.py").is_file():
        print(f"error: no defsrl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import defsrl

    if Path(defsrl.__file__).resolve().parent != (SRC / "defsrl").resolve():
        print(f"error: imported defsrl from {defsrl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct = True
    launcher = Launcher()
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), launcher)
            result.print(name)
            correct = correct and result.correct
    finally:
        launcher.close()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
