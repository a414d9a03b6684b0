"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the speed a process gets changes within
seconds and drifts by up to 1.6x over minutes, and every timing of the
program moves with it. The harness therefore times a fixed probe -- a small
pure-Python workload of its own that imports nothing from ``defsrl``, so no
change to the program can move it -- between and during the timed
activities, and multiplies each activity's timing by ``REFERENCE_MS``
over the mean time of the probes read closest to it. A reported time is
thus the time the activity would have taken with the machine at the speed
at which the probe takes ``REFERENCE_MS``: a change to the program moves it
in full, a change of machine speed largely cancels out.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

# The probe's time at the reference speed: a round figure near its time
# when the 2-vCPU virtual machine on which the baseline in README.md was
# measured runs in its fast state (window means ranged from 4.7 to 8.4 ms).
REFERENCE_MS = 5.0
ROUNDS = 300

# A bracketed constituency tree like the program's inputs; the probe
# tokenizes and parses it, collects its leaves, builds a dict and encodes
# JSON, the kinds of work that dominate the program.
_TREE = ("(NP (NP (DT a) (JJ small) (NN house)) (PP (IN for) (NP (NNS dogs)))"
         " (SBAR (WHNP (WDT that)) (S (VP (VBP bark) (ADVP (RB loudly))))))")


def _parse(text: str) -> tuple:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    position = 0

    def node() -> tuple:
        nonlocal position
        label = tokens[position + 1]
        position += 2
        children: list = []
        while tokens[position] != ")":
            if tokens[position] == "(":
                children.append(node())
            else:
                children.append(tokens[position])
                position += 1
        position += 1
        return label, children

    return node()


def _leaves(tree: tuple) -> list[str]:
    out: list[str] = []
    for child in tree[1]:
        if isinstance(child, str):
            out.append(child)
        else:
            out.extend(_leaves(child))
    return out


def probe() -> float:
    """Milliseconds for one fixed round of the probe workload."""
    started = time.perf_counter_ns()
    total = 0
    for i in range(ROUNDS):
        words = _leaves(_parse(_TREE))
        index = {word: j for j, word in enumerate(words)}
        total += len(json.dumps({"words": words, "i": i})) + len(index)
    elapsed = (time.perf_counter_ns() - started) / 1e6
    if total <= 0:
        raise AssertionError("probe computed nothing")
    return elapsed


class Speed:
    """Probe readings taken between and during the timed activities.

    The machine's speed changes within seconds, so each activity is scaled
    by the probes closest to it: those read during it and the ``NEAR``
    readings on either side. Call ``between()`` after each activity (and
    once more after the last) and ``every()`` from inside long in-process
    ones.
    """

    NEAR = 4
    INTERVAL_S = 0.1

    def __init__(self) -> None:
        for _ in range(5):  # warm-up
            probe()
        self.times: list[float] = []
        self.readings: list[float] = []  # probe ms, read at self.times
        self.between()

    def read(self) -> None:
        self.times.append(time.perf_counter())
        self.readings.append(probe())

    def between(self) -> None:
        self.read()
        self.read()

    def every(self) -> None:
        """Probe if ``INTERVAL_S`` has passed since the last reading."""
        if time.perf_counter() - self.times[-1] >= self.INTERVAL_S:
            self.read()

    def factor(self, start: float, end: float) -> float:
        """Scale from this machine's time to the reference speed, for an
        activity that ran from ``start`` to ``end`` (``perf_counter``)."""
        first = bisect.bisect_left(self.times, start)
        last = bisect.bisect_right(self.times, end)
        near = self.readings[max(0, first - self.NEAR):last + self.NEAR]
        return REFERENCE_MS / statistics.fmean(near)

    def mean_factor(self) -> float:
        return REFERENCE_MS / statistics.fmean(self.readings)
