"""What importing defsrl loads, checked each in a fresh interpreter.

``import defsrl`` imports no submodule until one of its names is read, and
no module of the package imports ``dataclasses``: a record builds its
``dataclasses`` view the first time something reads it. Each check is a
script for a new interpreter, which inherits this one's environment, so it
tests whichever ``defsrl`` that environment imports.

Run as a script, ``python tests/import_footprint.py`` runs every check and
exits 1, with each failing check's name and error, if any fails; CI runs it
against the installed package. ``tests/test_package.py`` runs each check
against ``src/`` under ``-S``, so that no ``.pth`` file that ``site`` runs
has loaded a module before the check looks for it.
"""

from __future__ import annotations

import subprocess
import sys

CHECKS = {
    # The package alone: no submodule, and neither ``json`` nor
    # ``dataclasses``, which only some submodules need.
    "import-defsrl": """
import sys
import defsrl
loaded = sorted(
    name for name in sys.modules
    if name.startswith("defsrl.") or name in ("json", "dataclasses")
)
assert not loaded, loaded
""",
    # A command's set-up: the CLI and its default config. ``pathlib`` (with
    # the ``urllib.parse`` it imports) would cost about 5 ms of it: the CLI
    # opens files by their path strings.
    "cli-default-config": """
import sys
before = set(sys.modules)
import defsrl.cli
defsrl.cli.default_config()
loaded = sorted(
    name for name in ("dataclasses", "inspect", "pathlib")
    if name in sys.modules and name not in before
)
assert not loaded, loaded
""",
    "star-import": """
import defsrl
namespace = {}
exec("from defsrl import *", namespace)
del namespace["__builtins__"]
assert sorted(namespace) == sorted(defsrl.__all__), sorted(set(namespace) ^ set(defsrl.__all__))
assert all(namespace[name] is getattr(defsrl, name) for name in namespace)
""",
    # One record of each of the sixteen record classes, made before
    # ``dataclasses`` is imported, then read through it.
    "dataclasses-after-defsrl": """
import sys
from defsrl import (
    Annotation, DefinitionRecord, Diagnostic, DistributionReport, EvalReport, Gazetteer,
    LabelerConfig, LabelOutcome, Lexicon, Pattern, PatternElement, Repetition, Role,
    RoleMetrics, RoleSpan, TraceEntry, Violation, parse_bracketed,
)
from defsrl.lexicon import LOCATION, NOUN, TIME, VERB

annotation = Annotation("d", ("a", "dog"), (RoleSpan(Role.SUPERTYPE, 1, 2),))
trace = TraceEntry("supertype", 1, 2, "lexicon entry in anchor NP: 'dog'")
metrics = RoleMetrics(0.5, 1.0, 2 / 3)
pattern = Pattern((PatternElement(Role.SUPERTYPE),))
locations = Gazetteer.from_entries(LOCATION, ["lake district"])
records = [
    parse_bracketed("(NP (DT a) (NN dog))"),
    RoleSpan(Role.EVENT_TIME, 2, 4, 1),
    annotation,
    trace,
    DefinitionRecord("d", "noun", "a dog", "(NP (DT a) (NN dog))", True, annotation, annotation),
    Diagnostic(3, "not JSON"),
    DistributionReport(((pattern, 2),), (pattern,), 3),
    metrics,
    EvalReport(
        {Role.SUPERTYPE: metrics}, {Role.SUPERTYPE: metrics}, 1.0, 0.5,
        {Role.SUPERTYPE: 2}, {Role.SUPERTYPE: 1}, 2,
    ),
    LabelerConfig(
        Lexicon.from_entries(NOUN, ["coach"]), Lexicon.from_entries(VERB, ["run"]),
        locations, Gazetteer.from_entries(TIME, ["dawn"]),
    ),
    LabelOutcome(annotation, (trace,)),
    Lexicon.from_entries(NOUN, ["sea lion"]),
    locations,
    PatternElement(Role.SUPERTYPE, Repetition.PLUS),
    pattern,
    Violation("orphan_subrole", "error", 1, "event_time requires a parent reference"),
]
assert len({record.__class__ for record in records}) == 16
assert "dataclasses" not in sys.modules

import dataclasses

for record in records:
    cls = record.__class__
    names = [field.name for field in dataclasses.fields(record)]
    assert tuple(names) == cls.__slots__ == cls.__match_args__, cls
    assert dataclasses.fields(cls) == dataclasses.fields(record), cls
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record), cls
    assert dataclasses.replace(record) == record, cls
    values = dataclasses.asdict(record)
    assert list(values) == names, cls
    if not hasattr(cls, "__post_init__"):
        changed = dataclasses.replace(record, **{names[-1]: None})
        assert getattr(changed, names[-1]) is None, cls
""",
}


def run_check(
    name: str, env: dict[str, str] | None = None, flags: tuple[str, ...] = ()
) -> subprocess.CompletedProcess:
    """Run the check ``name`` in a new interpreter, started with the options
    ``flags``; ``env`` is its environment, this one's by default."""
    return subprocess.run(
        [sys.executable, *flags, "-c", CHECKS[name]], env=env, capture_output=True, text=True
    )


def main() -> int:
    failed = 0
    for name in CHECKS:
        result = run_check(name)
        if result.returncode:
            failed += 1
            print(f"{name}: failed\n{result.stderr}", file=sys.stderr)
        else:
            print(f"{name}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
