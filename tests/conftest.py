"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately use different algorithms from the library
(flat enumeration with nested loops instead of single-pass recursion) so
agreement between the two is meaningful.
"""

from __future__ import annotations

import random
import warnings
from collections import Counter
from typing import Iterator

from defsrl.corpus import EvalReport, _metrics
from defsrl.labeler import UNCOVERED_RULE, TraceEntry
from defsrl.lexicon import (
    MONTHS,
    TIME,
    LexiconFormatError,
    _ORDINAL,
    _YEAR,
    _normalize_entry,
    gazetteer_match,
)
from defsrl.rolemodel import (
    Annotation,
    ERROR,
    GoldParseError,
    KIND_OVERLAPPING_SPANS,
    KIND_SPAN_OUT_OF_RANGE,
    KIND_SPANS_UNSORTED,
    PARENT_REQUIRED_ROLES,
    PARENT_TARGETS,
    Role,
    RoleSpan,
    Violation,
    validate,
)
from defsrl.syntree import SynTree, TreeParseError, _LEXEME, _strip_functional

# When a property fails, hypothesis's report hook imports this module, which
# imports libcst; where ``mypy_extensions`` is installed, libcst's import warns
# that ``mypy_extensions.TypedDict`` is deprecated, and under ``-W error`` the
# hook crashes and the falsifying example is lost. Import it once here with
# that one warning ignored; every warning raised by code under test stays an
# error. The import is optional: if it fails in any other way (say another
# warning from a newer libcst), the suite still runs and only that report
# hook's example is at risk, as it was without this import.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except Exception:
        pass

INTERNAL_LABELS = ["NP", "VP", "PP", "S", "SBAR", "ADJP", "ADVP", "X", "PRT"]
LEAF_TAGS = ["NN", "NNS", "NNP", "DT", "JJ", "VB", "VBZ", "IN", "RB", "CC", "TO"]
WORDS = [
    "coach", "dog", "large", "runs", "of", "the", "quickly", "fine",
    "player", "frontier", "very", "or", "and", "on", "stone", "blue",
]


def random_tree(rng: random.Random, max_depth: int = 4, max_children: int = 4):
    """A random well-formed tree; leaf spans assigned by position."""

    counter = [0]

    def build(depth: int) -> SynTree:
        if depth >= max_depth or rng.random() < 0.35:
            index = counter[0]
            counter[0] += 1
            return SynTree(
                rng.choice(LEAF_TAGS), (), rng.choice(WORDS), index, index + 1
            )
        children = tuple(
            build(depth + 1) for _ in range(rng.randint(1, max_children))
        )
        return SynTree(
            rng.choice(INTERNAL_LABELS),
            children,
            None,
            children[0].start,
            children[-1].end,
        )

    return build(0)


def messy_render(rng: random.Random, tree: SynTree) -> str:
    """Serialize with random extra whitespace, exercising tolerant parsing."""
    pad = lambda: rng.choice(["", " ", "  ", "\n", "\t"])
    if tree.is_leaf():
        return f"({pad()}{tree.label} {pad()}{tree.token}{pad()})"
    inner = " ".join(messy_render(rng, child) for child in tree.children)
    return f"({pad()}{tree.label} {inner}{pad()})"


# --- brute-force oracles ----------------------------------------------------


def oracle_innermost_leftmost_np(tree: SynTree, min_start: int = 0) -> SynTree | None:
    """Flat-enumeration oracle: all NPs with a noun leaf starting at or after
    ``min_start``, minus those that contain another qualifying NP, then min
    start / min length / max depth."""

    nodes: list[tuple[SynTree, int]] = []

    def collect(node: SynTree, depth: int) -> None:
        nodes.append((node, depth))
        for child in node.children:
            collect(child, depth + 1)

    collect(tree, 0)

    def has_noun(node: SynTree) -> bool:
        return any(
            leaf.label.startswith("NN") for leaf in node.leaves()
        )

    qualifying = [
        (node, depth)
        for node, depth in nodes
        if node.label == "NP"
        and not node.is_leaf()
        and node.start >= min_start
        and has_noun(node)
    ]
    innermost = []
    for node, depth in qualifying:
        contains_other = any(
            other is not node and _is_descendant(other, node)
            for other, _ in qualifying
        )
        if not contains_other:
            innermost.append((node, depth))
    if not innermost:
        return None
    return min(
        innermost, key=lambda item: (item[0].start, item[0].end - item[0].start, -item[1])
    )[0]


def _is_descendant(node: SynTree, ancestor: SynTree) -> bool:
    if node is ancestor:
        return False
    return any(
        node is candidate or _is_descendant(node, candidate)
        for candidate in ancestor.children
    )


def oracle_parse_bracketed(text: str) -> SynTree:
    """Recursive-descent reference parser: a raw (label, children, word)
    tree first, then a second recursive pass that drops trace leaves and
    assigns spans. Same trees, messages and offsets as ``parse_bracketed``."""
    lexemes = [(m.group(), m.start()) for m in _LEXEME.finditer(text)]
    if not lexemes:
        raise TreeParseError("empty tree", 0)
    pos = 0

    def parse_node() -> tuple:
        nonlocal pos
        lexeme, offset = lexemes[pos]
        if lexeme != "(":
            raise TreeParseError("expected '('", offset)
        pos += 1
        if pos >= len(lexemes):
            raise TreeParseError("unbalanced parentheses", len(text))
        lexeme, offset = lexemes[pos]
        if lexeme in "()":
            raise TreeParseError("missing label", offset)
        label = lexeme
        pos += 1
        children: list[tuple] = []
        word: str | None = None
        while True:
            if pos >= len(lexemes):
                raise TreeParseError("unbalanced parentheses", len(text))
            lexeme, offset = lexemes[pos]
            if lexeme == ")":
                pos += 1
                break
            if lexeme == "(":
                if word is not None:
                    raise TreeParseError("token and subtree in one constituent", offset)
                children.append(parse_node())
            else:
                if children or word is not None:
                    raise TreeParseError("unexpected token", offset)
                word = lexeme
                pos += 1
        if word is None and not children:
            raise TreeParseError("empty constituent", offset)
        return (label, children, word)

    def build(raw: tuple, counter: list[int]) -> SynTree | None:
        label, children, word = raw
        if word is not None:
            if label == "-NONE-":
                return None
            index = counter[0]
            counter[0] += 1
            return SynTree(_strip_functional(label), (), word, index, index + 1)
        built = [n for n in (build(c, counter) for c in children) if n is not None]
        if not built:
            return None
        return SynTree(
            _strip_functional(label), tuple(built), None, built[0].start, built[-1].end
        )

    raw = parse_node()
    if pos != len(lexemes):
        raise TreeParseError("trailing content after tree", lexemes[pos][1])
    root = build(raw, [0])
    if root is None:
        raise TreeParseError("tree has no surface tokens", 0)
    return root


def oracle_parse_gold(text: str, definition_id: str = "") -> Annotation:
    """Character-by-character reference reader of the inline format, with
    the whole parent check after the scan. Same annotations, messages and
    offsets as ``parse_gold``."""
    roles = {role.value: role for role in Role}
    tokens: list[str] = []
    segments: list[tuple[Role, int | None, int, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "}":
            raise GoldParseError(f"unmatched '}}' at offset {i}")
        if ch == "{":
            close = text.find("}", i + 1)
            if close < 0:
                raise GoldParseError(f"unclosed '{{' at offset {i}")
            segment = text[i + 1 : close]
            if "{" in segment:
                raise GoldParseError(f"nested '{{' at offset {i}")
            head, bar, body = segment.partition("|")
            if not bar:
                raise GoldParseError(f"segment missing '|' at offset {i}")
            name, at, parent_text = head.partition("@")
            role = roles.get(name.strip())
            if role is None:
                raise GoldParseError(f"unknown role {name.strip()!r}")
            parent: int | None = None
            if at:
                try:
                    parent = int(parent_text)
                except ValueError:
                    raise GoldParseError(
                        f"bad parent reference {parent_text!r}"
                    ) from None
            words = body.split()
            if not words:
                raise GoldParseError(f"empty segment at offset {i}")
            start = len(tokens)
            tokens.extend(words)
            segments.append((role, parent, start, len(tokens)))
            i = close + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "{}":
                j += 1
            tokens.append(text[i:j])
            i = j
    if text.count("|") != len(segments):
        raise GoldParseError("a token holds '|', which the format reserves")

    spans = []
    for index, (role, parent, start, end) in enumerate(segments):
        if parent is None and role in PARENT_REQUIRED_ROLES:
            raise GoldParseError(f"{role.value} requires a parent reference")
        if parent is not None:
            if role not in PARENT_REQUIRED_ROLES:
                raise GoldParseError(
                    f"role {role.value!r} does not take a parent reference"
                )
            if not 0 <= parent < len(segments) or parent == index:
                raise GoldParseError(f"parent index {parent} out of range")
            allowed = PARENT_TARGETS[role]
            target = segments[parent][0]
            if allowed is not None and target not in allowed:
                raise GoldParseError(
                    f"{role.value} cannot attach to {target.value}"
                )
        spans.append(RoleSpan(role, start, end, parent))

    ill_formed = not any(span.role is Role.SUPERTYPE for span in spans)
    return Annotation(definition_id, tuple(tokens), tuple(spans), ill_formed)


def oracle_longest_rightmost(lexicon, tokens) -> tuple[int, str] | None:
    """Plain all-suffixes scan, longest first, no word-count shortcut."""
    for i in range(len(tokens)):
        entry = lexicon.lookup_tokens(tokens[i:])
        if entry is not None:
            return (i, entry)
    return None


def oracle_gazetteer_match(gazetteer, tokens) -> bool:
    """Every window of up to ``max_words`` tokens from every start, joined
    and looked up, with no first-word shortcut; then the time patterns."""
    if not tokens:
        raise ValueError("tokens must be non-empty")
    lowered = [t.lower() for t in tokens]
    n = len(lowered)
    if gazetteer.max_words > 0:
        for i in range(n):
            limit = min(n, i + gazetteer.max_words)
            for j in range(i + 1, limit + 1):
                if " ".join(lowered[i:j]) in gazetteer.entries:
                    return True
    if gazetteer.kind == TIME:
        for i, word in enumerate(lowered):
            if _YEAR.match(word):
                return True
            if _ORDINAL.match(word) and i + 1 < n and lowered[i + 1] == "century":
                return True
            if word in MONTHS:
                return True
    return False


def oracle_lines(text: str) -> Iterator[str]:
    """``lexicon._lines`` one line at a time: a ``str.find`` loop over the
    "\\n"s, each line then split at its "\\r"s (a "\\r" that ends it is half
    of a "\\r\\n")."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start)
        if end < 0:
            end = size
        line = text[start:end]
        start = end + 1
        if "\r" in line:
            yield from line.removesuffix("\r").split("\r")
        else:
            yield line


def oracle_wordlist_entries(text: str, joiner: str) -> list[str]:
    """``lexicon._wordlist_entries`` as a loop over the lines, each stripped,
    skipped when blank or a comment, and normalized on its own."""
    entries = []
    for line_no, line in enumerate(oracle_lines(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            entries.append(_normalize_entry(stripped, joiner))
        except ValueError as exc:
            raise LexiconFormatError(str(exc), line_no) from exc
    return entries


def oracle_event_subroles(
    tokens: tuple[str, ...], event_node: SynTree, config
) -> list[tuple[SynTree, Role]]:
    """``_Engine.event_subroles`` without its pruning: a PP that matches
    neither gazetteer is entered, and every PP nested in it is tried."""
    matches: list[tuple[SynTree, Role]] = []
    stack = [event_node]
    while stack:
        node = stack.pop()
        whole = node.start == event_node.start and node.end == event_node.end
        if node is not event_node and node.label == "PP" and not whole:
            pp_tokens = tokens[node.start : node.end]
            if gazetteer_match(config.location_gazetteer, pp_tokens):
                matches.append((node, Role.EVENT_LOCATION))
                continue
            if gazetteer_match(config.time_gazetteer, pp_tokens):
                matches.append((node, Role.EVENT_TIME))
                continue
        stack.extend(reversed(node.children))
    return matches


def oracle_validate(annotation: Annotation) -> list[Violation]:
    """``validate`` with its overlap block replaced by a scan of every pair
    of spans, whatever their order; the other checks are taken from
    ``validate`` itself, in the same place in the list."""
    spans = annotation.spans
    overlaps = [
        Violation(KIND_OVERLAPPING_SPANS, ERROR, j, f"span {j} overlaps span {i}")
        for i in range(len(spans))
        for j in range(i + 1, len(spans))
        if spans[i].start < spans[j].end and spans[j].start < spans[i].end
    ]
    rest = [v for v in validate(annotation) if v.kind != KIND_OVERLAPPING_SPANS]
    # Range and order checks come before the overlap block.
    head = [v for v in rest if v.kind in (KIND_SPAN_OUT_OF_RANGE, KIND_SPANS_UNSORTED)]
    return head + overlaps + rest[len(head) :]


def oracle_uncovered(annotation: Annotation, trace: list[TraceEntry]) -> list[TraceEntry]:
    """The ``uncovered`` entries ``_Engine.fill_uncovered`` appends after
    ``trace``, found with a set of every covered token index that each token
    is tested against."""
    tokens = annotation.tokens
    accounted = annotation.covered()
    for entry in trace:
        accounted.update(range(entry.start, entry.end))
    out: list[TraceEntry] = []
    gap_start: int | None = None
    for i in range(len(tokens) + 1):
        if i < len(tokens) and i not in accounted:
            if gap_start is None:
                gap_start = i
        elif gap_start is not None:
            text = " ".join(tokens[gap_start:i])
            out.append(TraceEntry(UNCOVERED_RULE, gap_start, i, f"no rule covers {text!r}"))
            gap_start = None
    return out


def oracle_ancestor_path(tree: SynTree, node: SynTree) -> list[SynTree] | None:
    """Root-to-parent path of ``node``; None when node is not in the tree."""
    if tree is node:
        return []
    for child in tree.children:
        path = oracle_ancestor_path(child, node)
        if path is not None:
            return [tree] + path
    return None


def oracle_instance_origin(
    tree: SynTree, supertype_start: int, config
) -> tuple[int, int] | None:
    """The instance-origin rule with its NP found by a scan of every
    subtree for one that starts at 0 and reaches the supertype."""
    if not config.instance_mode or supertype_start <= 0:
        return None
    covers_prefix = any(
        node.label == "NP" and node.start == 0 and node.end >= supertype_start
        for node in tree.subtrees()
    )
    if not covers_prefix:
        return None
    if gazetteer_match(config.location_gazetteer, tree.tokens()[:supertype_start]):
        return (0, supertype_start)
    return None


def oracle_evaluate(gold: list[Annotation], predicted: list[Annotation]) -> EvalReport:
    """Per-pair, per-role scoring with ``spans_of`` for every role, the
    reference for ``corpus.evaluate`` on aligned lists."""
    exact_tp: Counter[Role] = Counter()
    exact_gold: Counter[Role] = Counter()
    exact_pred: Counter[Role] = Counter()
    token_tp: Counter[Role] = Counter()
    token_gold: Counter[Role] = Counter()
    token_pred: Counter[Role] = Counter()
    supertype_hits = 0
    flag_hits = 0

    for g, p in zip(gold, predicted):
        for role in Role:
            g_spans = {(s.start, s.end) for s in g.spans_of(role)}
            p_spans = {(s.start, s.end) for s in p.spans_of(role)}
            exact_tp[role] += len(g_spans & p_spans)
            exact_gold[role] += len(g_spans)
            exact_pred[role] += len(p_spans)
            g_tokens = {i for s in g.spans_of(role) for i in range(s.start, s.end)}
            p_tokens = {i for s in p.spans_of(role) for i in range(s.start, s.end)}
            token_tp[role] += len(g_tokens & p_tokens)
            token_gold[role] += len(g_tokens)
            token_pred[role] += len(p_tokens)
        g_supertype = {
            i for s in g.spans_of(Role.SUPERTYPE) for i in range(s.start, s.end)
        }
        p_supertype = {
            i for s in p.spans_of(Role.SUPERTYPE) for i in range(s.start, s.end)
        }
        supertype_hits += g_supertype == p_supertype
        flag_hits += g.ill_formed == p.ill_formed

    pairs = len(gold)
    return EvalReport(
        exact={
            role: _metrics(exact_tp[role], exact_pred[role], exact_gold[role])
            for role in Role
        },
        token={
            role: _metrics(token_tp[role], token_pred[role], token_gold[role])
            for role in Role
        },
        supertype_accuracy=supertype_hits / pairs if pairs else 1.0,
        ill_formed_agreement=flag_hits / pairs if pairs else 1.0,
        gold_support={role: exact_gold[role] for role in Role},
        predicted_support={role: exact_pred[role] for role in Role},
        pairs=pairs,
    )


# --- random annotations -------------------------------------------------------


_SAFE_WORDS = ["alpha", "beta", "gamma", "delta", "omega", "or", "and", "kappa"]

_TOP_ROLES = [
    Role.SUPERTYPE,
    Role.DIFFERENTIA_QUALITY,
    Role.DIFFERENTIA_EVENT,
    Role.ORIGIN_LOCATION,
    Role.PURPOSE,
    Role.ASSOCIATED_FACT,
    Role.ACCESSORY_DETERMINER,
    Role.ACCESSORY_QUALITY,
]


def random_annotation(rng: random.Random, definition_id: str = "") -> Annotation:
    """A random annotation that passes validation with no errors."""
    spans: list[RoleSpan] = []
    tokens: list[str] = []
    parent_candidates: dict[Role, list[int]] = {
        Role.DIFFERENTIA_QUALITY: [],
        Role.DIFFERENTIA_EVENT: [],
    }

    def add_tokens(count: int) -> tuple[int, int]:
        start = len(tokens)
        for _ in range(count):
            tokens.append(rng.choice(_SAFE_WORDS))
        return start, len(tokens)

    n_spans = rng.randint(1, 6)
    roles = [Role.SUPERTYPE] + [rng.choice(_TOP_ROLES) for _ in range(n_spans - 1)]
    rng.shuffle(roles)
    for role in roles:
        if rng.random() < 0.3:
            add_tokens(rng.randint(1, 2))  # uncovered gap
        start, end = add_tokens(rng.randint(1, 3))
        spans.append(RoleSpan(role, start, end))
        if role in parent_candidates:
            parent_candidates[role].append(len(spans) - 1)

    # Attach sub-roles where parents exist.
    for sub, target in (
        (Role.EVENT_TIME, Role.DIFFERENTIA_EVENT),
        (Role.EVENT_LOCATION, Role.DIFFERENTIA_EVENT),
        (Role.QUALITY_MODIFIER, Role.DIFFERENTIA_QUALITY),
    ):
        hosts = parent_candidates[target]
        if hosts and rng.random() < 0.5:
            start, end = add_tokens(rng.randint(1, 2))
            spans.append(RoleSpan(sub, start, end, rng.choice(hosts)))
    if rng.random() < 0.3:
        host = rng.randrange(len(spans))
        if spans[host].role not in PARENT_REQUIRED_ROLES:
            start, end = add_tokens(1)
            spans.append(RoleSpan(Role.PARTICLE, start, end, host))
    if rng.random() < 0.3:
        add_tokens(rng.randint(1, 2))  # trailing uncovered tokens

    return Annotation(definition_id, tuple(tokens), tuple(spans), False)
