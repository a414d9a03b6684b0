"""Span tracing from outside the program.

The tracer replaces the bindings that each consuming module looks up (for
example ``defsrl.cli.parse_bracketed`` and ``defsrl.corpus.parse_bracketed``)
with wrappers that record a span per call: name, start, end and parent.
Spans live in flat arrays while the run lasts, so recording them allocates
no objects the garbage collector tracks, and are written out at the end.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# (consumer module, attribute, span name). The span name is the layer that
# defines the function; a binding that a later version of the program no
# longer has is skipped, so the same list can trace parent and change.
BINDINGS = (
    ("defsrl.cli", "run_label", "cli.command"),
    ("defsrl.cli", "run_eval", "cli.command"),
    ("defsrl.cli", "run_stats", "cli.command"),
    ("defsrl.cli", "read_corpus", "corpus.read_corpus"),
    ("defsrl.cli", "write_corpus", "corpus.write_corpus"),
    ("defsrl.cli", "evaluate", "corpus.evaluate"),
    ("defsrl.cli", "distribution", "corpus.distribution"),
    ("defsrl.cli", "parse_bracketed", "syntree.parse_bracketed"),
    ("defsrl.cli", "label", "labeler.label"),
    ("defsrl.cli", "default_config", "defaults.default_config"),
    ("defsrl.cli", "load_wordlist", "lexicon.load_wordlist"),
    ("defsrl.cli", "load_gazetteer", "lexicon.load_gazetteer"),
    ("defsrl.corpus", "parse_bracketed", "syntree.parse_bracketed"),
    ("defsrl.corpus", "parse_gold", "rolemodel.parse_gold"),
    ("defsrl.corpus", "serialize_gold", "rolemodel.serialize_gold"),
    ("defsrl.corpus", "pattern_of", "patterns.pattern_of"),
    ("defsrl.labeler", "constituents_after", "syntree.constituents_after"),
    ("defsrl.labeler", "dominated_by", "syntree.dominated_by"),
    ("defsrl.labeler", "longest_rightmost_entry", "lexicon.longest_rightmost_entry"),
    ("defsrl.labeler", "gazetteer_match", "lexicon.gazetteer_match"),
    ("defsrl.labeler", "validate", "rolemodel.validate"),
    ("defsrl.rolemodel", "validate", "rolemodel.validate"),
    ("defsrl.defaults", "load_wordlist", "lexicon.load_wordlist"),
    ("defsrl.defaults", "load_gazetteer", "lexicon.load_gazetteer"),
    ("defsrl.syntree:SynTree", "leaves", "syntree.leaves"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.gc_pause_ns = 0
        self.gc_gen2 = 0
        self._gc_started = 0

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, clock = self.start, self.end, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_started
            self.gc_gen2 += info["generation"] == 2

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and inclusive seconds
        (a call nested directly in a call of the same name is not added
        twice)."""
        n = len(self.start)
        child_ns = [0] * n
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        inclusive_ns = [0] * len(self.names)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        # Children are recorded after their parent, so a reverse pass sees
        # every child before the parent it belongs to.
        for i in range(n - 1, -1, -1):
            nid, p = name_id[i], parent[i]
            duration = end[i] - start[i]
            calls[nid] += 1
            self_ns[nid] += duration - child_ns[i]
            if p >= 0:
                child_ns[p] += duration
            if p < 0 or name_id[p] != nid:
                inclusive_ns[nid] += duration
        return {
            name: {"calls": calls[k], "self_s": self_ns[k] / 1e9, "s": inclusive_ns[k] / 1e9}
            for k, name in enumerate(self.names)
        }

    def write(self, directory: Path) -> None:
        """``spans.json`` (names, array typecodes) plus ``spans.bin``, the
        name-id, parent, start-ns and end-ns arrays back to back."""
        arrays = (self.name_id, self.parent, self.start, self.end)
        with open(directory / "spans.bin", "wb") as out:
            for column in arrays:
                column.tofile(out)
        (directory / "spans.json").write_text(json.dumps({
            "names": self.names,
            "count": len(self.start),
            "columns": ["name_id", "parent", "start_ns", "end_ns"],
            "typecodes": [column.typecode for column in arrays],
        }) + "\n", encoding="utf-8")


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers and the GC pause timer; restore both on exit,
    also when the traced code raises."""
    saved = []
    gc.callbacks.append(tracer._on_gc)
    try:
        for target, attr, name in BINDINGS:
            owner = _resolve(target)
            if attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        gc.callbacks.remove(tracer._on_gc)
