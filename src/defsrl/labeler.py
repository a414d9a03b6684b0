"""The rule engine: assign definition roles from a constituency parse.

The engine is entirely syntactic and deterministic. A noun gloss is anchored
on the innermost, leftmost NP containing a noun: the longest rightmost
lexicon entry inside it becomes the supertype, anything left of it inside
the NP becomes a pre-supertype differentia quality, and the constituents
after the supertype are classified left to right by a fixed rule priority:

    1. PRT                        -> particle (hosted by the supertype)
    2. VP led by TO, or "for" PP
       with a VP directly inside  -> purpose
    3. SBAR / clause, or other PP
       with a VP directly inside  -> associated fact when a differentia
                                     already exists and a non-restrictive
                                     cue opens the clause; else
                                     differentia event
    4. VP (noun glosses)          -> differentia event
    5. PP outside SBAR/VP with a
       location-gazetteer hit     -> origin location
    6. PP / NP / ADJP / ADVP      -> differentia quality (split on CC)

Gazetteer-matched PPs inside a differentia event are carved out as event
location / event time; a leading adverb or adjective directly before the
head of an ADJP/ADVP quality is carved out as its quality modifier. Two
decisions are genuinely semantic and therefore flagged in the rule trace as
documented divergences rather than guessed at: purpose vs. differentia
event for "for"+VP phrases, and accessory vs. differentia quality for
word-list matches.

Verb glosses take the leftmost VB (plus "or"/"and"-conjoined VBs in the
same VP) as supertypes; a verb gloss with no VB leaf falls back to the noun
rules before being declared ill-formed.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

from .lexicon import (
    Gazetteer,
    Lexicon,
    NOUN,
    VERB,
    # The engine hands the gazetteers tokens it has lowercased once; the
    # matcher keeps the public name, under which its calls are traced.
    _gazetteer_match_lowered as gazetteer_match,
    longest_rightmost_entry,
)
from .rolemodel import (
    Annotation,
    DIFFERENTIA_ROLES,
    ERROR,
    Role,
    RoleSpan,
    validate,
)
from .syntree import (
    NOUN_TAG_PREFIX,
    SynTree,
    _constituents_after_walk,
    _numbered_leaves,
    _path,
    _seal,
    innermost_leftmost_np,
)

__all__ = [
    "LabelerConfig",
    "LabelOutcome",
    "TraceEntry",
    "EmptyDefinitionError",
    "DIVERGENCE_PURPOSE_EVENT",
    "DIVERGENCE_ACCESSORY_QUALITY",
    "DEFAULT_ACCESSORY_DETERMINER_PHRASES",
    "DEFAULT_ACCESSORY_QUALITY_WORDS",
    "preprocess_gloss",
    "label",
]

ARTICLES = frozenset(("a", "an", "the"))
_COORDINATORS = frozenset(("or", "and"))

# The roles that the accessory-quality rule reads for every span, bound once:
# reading a member off ``Role`` costs a class-attribute lookup each time.
_DIFFERENTIA_QUALITY = Role.DIFFERENTIA_QUALITY
_QUALITY_MODIFIER = Role.QUALITY_MODIFIER
_ACCESSORY_QUALITY = Role.ACCESSORY_QUALITY
# The order of spans in an annotation.
_BY_SPAN = attrgetter("start", "end")

# Lexical cues opening a non-restrictive clause (an associated fact rather
# than an identifying differentia event).
_FACT_CUES = (("for", "whom"), ("which", "was"), ("whose",))
_LONGEST_FACT_CUE = max(len(cue) for cue in _FACT_CUES)

DEFAULT_ACCESSORY_DETERMINER_PHRASES = (
    "any of several",
    "a type of",
    "a form of",
    "any of a class of",
    "any of various",
    "any of numerous",
)
DEFAULT_ACCESSORY_QUALITY_WORDS = ("large",)

DIVERGENCE_PURPOSE_EVENT = (
    "documented divergence: purpose vs differentia event for 'for'+VP "
    "is semantic; labeled purpose by syntax"
)
DIVERGENCE_ACCESSORY_QUALITY = (
    "documented divergence: accessory vs differentia quality is semantic; "
    "decided by word list and co-present differentia"
)

# The trace rule names: ``TraceEntry.rule`` is always one of these.
SUPERTYPE_RULE = "supertype"
FALLBACK_RULE = "fallback"
LEADING_DT_RULE = "leading-dt"
ACCESSORY_DETERMINER_RULE = "accessory-determiner"
INSTANCE_ORIGIN_RULE = "instance-origin"
PRE_SUPERTYPE_QUALITY_RULE = "pre-supertype-quality"
PARTICLE_RULE = "particle"
PURPOSE_RULE = "purpose"
ORIGIN_LOCATION_RULE = "origin-location"
ASSOCIATED_FACT_RULE = "associated-fact"
DIFFERENTIA_EVENT_RULE = "differentia-event"
EVENT_LOCATION_RULE = "event-location"
EVENT_TIME_RULE = "event-time"
QUALITY_MODIFIER_RULE = "quality-modifier"
DIFFERENTIA_QUALITY_RULE = "differentia-quality"
ACCESSORY_QUALITY_RULE = "accessory-quality"
DEMOTED_RULE = "demoted"
UNCOVERED_RULE = "uncovered"
ILL_FORMED_RULE = "ill-formed"
# The trace rule of a constituent no rule labels; ``lint`` reports these.
UNLABELED_RULE = "unlabeled"

TRACE_RULES = frozenset((
    SUPERTYPE_RULE, FALLBACK_RULE, LEADING_DT_RULE, ACCESSORY_DETERMINER_RULE,
    INSTANCE_ORIGIN_RULE, PRE_SUPERTYPE_QUALITY_RULE, PARTICLE_RULE, PURPOSE_RULE,
    ORIGIN_LOCATION_RULE, ASSOCIATED_FACT_RULE, DIFFERENTIA_EVENT_RULE,
    EVENT_LOCATION_RULE, EVENT_TIME_RULE, QUALITY_MODIFIER_RULE,
    DIFFERENTIA_QUALITY_RULE, ACCESSORY_QUALITY_RULE, DEMOTED_RULE,
    UNCOVERED_RULE, ILL_FORMED_RULE, UNLABELED_RULE,
))


class EmptyDefinitionError(ValueError):
    """The gloss is empty (or empty after cleaning)."""


class _DeterminerWords:
    """The slot of ``LabelerConfig.determiner_words``, on a base class so it
    is no field."""

    __slots__ = ("determiner_words",)


@_seal
class LabelerConfig(_DeterminerWords):
    """Knowledge inputs for the rule engine.

    ``instance_mode`` marks glosses whose definiendum denotes an instance
    (a named individual), enabling the pre-supertype origin-location rule.

    ``determiner_words`` is derived from ``accessory_determiner_phrases``:
    the words of each phrase, in order, without a leading article, as the
    accessory-determiner rule compares them to a gloss. It is built on
    construction and on unpickling and is no field, as a ``Gazetteer``'s
    ``first_words`` is.
    """

    noun_lexicon: Lexicon
    verb_lexicon: Lexicon
    location_gazetteer: Gazetteer
    time_gazetteer: Gazetteer
    accessory_determiner_phrases: tuple[str, ...] = DEFAULT_ACCESSORY_DETERMINER_PHRASES
    accessory_quality_words: frozenset[str] = frozenset(DEFAULT_ACCESSORY_QUALITY_WORDS)
    instance_mode: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "accessory_determiner_phrases",
            tuple(" ".join(p.lower().split()) for p in self.accessory_determiner_phrases),
        )
        object.__setattr__(
            self,
            "accessory_quality_words",
            frozenset(w.lower() for w in self.accessory_quality_words),
        )
        words = [phrase.split() for phrase in self.accessory_determiner_phrases]
        object.__setattr__(
            self,
            "determiner_words",
            tuple(tuple(w[1:] if w and w[0] in ARTICLES else w) for w in words),
        )


@_seal
class TraceEntry:
    """One step of a rule trace: the rule (one of ``TRACE_RULES``) that acted
    on the tokens [start, end), and why."""

    rule: str
    start: int
    end: int
    reason: str


@_seal
class LabelOutcome:
    """An annotation and the trace of the rules that made it, in order."""

    annotation: Annotation
    rule_trace: tuple[TraceEntry, ...]


def preprocess_gloss(gloss: str) -> str:
    """Strip parentheticals and example sentences from a raw gloss.

    Parenthesized substrings (nesting included) are removed, the gloss is
    split on ";", segments opening with a quote (example sentences) are
    dropped, and the first surviving segment is returned with whitespace
    normalized. Raises EmptyDefinitionError when nothing survives.
    """
    depth = 0
    kept: list[str] = []
    for ch in gloss:
        if ch == "(":
            depth += 1
        elif ch == ")":
            if depth > 0:
                depth -= 1
        elif depth == 0:
            kept.append(ch)
    for segment in "".join(kept).split(";"):
        stripped = segment.strip()
        if stripped and stripped[0] not in "\"“`":
            return " ".join(stripped.split())
    raise EmptyDefinitionError("gloss is empty after cleaning")


# ---------------------------------------------------------------------------
# Internal working representation: spans under construction reference their
# parents by object so indices can be resolved once, after final ordering.


class _Span:
    __slots__ = ("role", "start", "end", "parent")

    def __init__(self, role: Role, start: int, end: int, parent: _Span | None = None) -> None:
        self.role = role
        self.start = start
        self.end = end
        self.parent = parent


def _role_spans(ordered: Sequence[_Span]) -> tuple[RoleSpan, ...]:
    """``ordered`` as RoleSpans, each parent resolved to its index in ``ordered``."""
    index = {id(span): i for i, span in enumerate(ordered)}
    make = RoleSpan._make
    # From a list, not a generator: see ``_Engine.tokens``.
    return tuple([
        make(
            span.role,
            span.start,
            span.end,
            index[id(span.parent)] if span.parent is not None else None,
        )
        for span in ordered
    ])


def _has_differentia(spans: Sequence[_Span], excluding: _Span | None = None) -> bool:
    return any(s is not excluding and s.role in DIFFERENTIA_ROLES for s in spans)


class _NounDetection:
    __slots__ = ("np", "hits", "dropped_determiners")

    def __init__(
        self, np: SynTree, hits: list[tuple[tuple[int, int], tuple[int, int] | None]]
    ) -> None:
        self.np = np
        self.hits = hits
        self.dropped_determiners: list[tuple[int, int]] = []


class _DeterminerHit:
    __slots__ = ("span", "redetect_from")

    def __init__(self, span: tuple[int, int], redetect_from: int | None) -> None:
        self.span = span
        self.redetect_from = redetect_from


def _split_on_cc(node: SynTree) -> list[list[SynTree]]:
    """Child groups of ``node`` split at child-level CC leaves."""
    groups: list[list[SynTree]] = []
    current: list[SynTree] = []
    for child in node.children:
        if child.label == "CC":
            if current:
                groups.append(current)
            current = []
        else:
            current.append(child)
    if current:
        groups.append(current)
    return groups


def _premodifier(
    label: str, inside: Sequence[SynTree], end: int
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    # The quality-modifier rule for a quality of constituent ``label`` over
    # the leaves ``inside``, ending at ``end``: the (modifier, shrunk quality)
    # spans when a leading RB/JJ precedes an RB/JJ head in an ADJP/ADVP.
    if label not in ("ADJP", "ADVP") or len(inside) < 2:
        return None
    head, following = inside[0], inside[1]
    if head.label in ("RB", "JJ") and following.label in ("RB", "JJ"):
        return ((head.start, head.end), (head.end, end))
    return None


def _unwrap_clause(node: SynTree) -> SynTree:
    # "under a simple clause or not": a bare S wrapping one constituent is
    # transparent to the rules.
    while node.label == "S" and len(node.children) == 1:
        node = node.children[0]
    return node


def _pp_inner_phrase(pp: SynTree) -> SynTree | None:
    for child in pp.children:
        if child.is_leaf() and child.label in ("IN", "TO"):
            continue
        return _unwrap_clause(child)
    return None


def _leading_cue_match(tokens: Sequence[str]) -> bool:
    # ``tokens``: a clause's first ``_LONGEST_FACT_CUE`` tokens, or all of a
    # shorter clause.
    lowered = tuple([t.lower() for t in tokens])
    return any(lowered[: len(cue)] == cue for cue in _FACT_CUES)


class _Engine:
    """The labeling state of one gloss: its tree, leaves and tokens, the
    spans and trace built so far, and the supertype spans once detected.
    A node's leaves are ``self.leaves[node.start:node.end]``."""

    def __init__(self, tree: SynTree, pos: str, config: LabelerConfig) -> None:
        if tree.token is None and not tree.children:
            raise EmptyDefinitionError("tree has no tokens")
        if tree.start != 0:
            raise ValueError(f"the tree starts at {tree.start}, not at 0")
        self.tree = tree
        self.pos = pos
        self.config = config
        self.leaves = _numbered_leaves(tree)
        # A tuple built from a generator is allocated for ten items and then
        # shrunk, so CPython's per-size tuple free lists drift and fill over
        # a long run; one built from a list is allocated at its size.
        self.tokens = tuple([l.token for l in self.leaves])
        self.work: list[_Span] = []
        self.trace: list[TraceEntry] = []
        self.supertypes: list[_Span] = []
        # The noun detection the supertypes came from; None for a verb's.
        self.noun_info: _NounDetection | None = None

    # -- helpers ----------------------------------------------------------

    def _note(self, rule: str, start: int, end: int, reason: str) -> None:
        self.trace.append(TraceEntry._make(rule, start, end, reason))

    def _lowered(self, start: int, end: int) -> list[str]:
        """The tokens ``[start, end)`` lowercased, as the gazetteers take them.
        Only the windows tried are lowercased: lowering a whole long gloss
        once cost more, since many glosses try no window or short ones."""
        return [t.lower() for t in self.tokens[start:end]]

    def _text(self, start: int, end: int) -> str:
        return " ".join(self.tokens[start:end])

    def _add(self, role: Role, start: int, end: int, rule: str, reason: str,
             parent: _Span | None = None) -> _Span:
        span = _Span(role, start, end, parent)
        self.work.append(span)
        self._note(rule, start, end, reason)
        return span

    # -- rules: each reads the gloss and changes no state ------------------

    def noun_supertypes(self, min_start: int = 0) -> _NounDetection | None:
        np = innermost_leftmost_np(self.tree, min_start)
        if np is None:
            return None
        detection = _NounDetection(np, [])
        for group in _split_on_cc(np):
            group_leaves = self.leaves[group[0].start : group[-1].end]
            k = 0
            while k < len(group_leaves) and group_leaves[k].label == "DT":
                detection.dropped_determiners.append(
                    (group_leaves[k].start, group_leaves[k].end)
                )
                k += 1
            core = group_leaves[k:]
            if not core:
                continue
            hit = longest_rightmost_entry(self.config.noun_lexicon, [l.token for l in core])
            if hit is None:
                continue
            offset, _ = hit
            supertype = (core[offset].start, core[-1].end)
            leftover = (core[0].start, core[offset].start) if offset > 0 else None
            detection.hits.append((supertype, leftover))
        return detection if detection.hits else None

    def verb_supertypes(self) -> list[tuple[int, int]] | None:
        leaves = self.leaves
        verb_indices = [i for i, leaf in enumerate(leaves) if leaf.label.startswith("VB")]
        if not verb_indices:
            return None
        chosen = [verb_indices[0]]
        chosen_set = {verb_indices[0]}
        first_leaf = leaves[verb_indices[0]]
        for i in verb_indices[1:]:
            j = i - 1
            while j >= 0 and j in chosen_set:
                j -= 1
            if (
                j >= 0
                and leaves[j].label == "CC"
                and self.tokens[j].lower() in _COORDINATORS
                and self._conjoined_in_vp(first_leaf, leaves[i])
            ):
                chosen.append(i)
                chosen_set.add(i)
        return [(i, i + 1) for i in chosen]

    def _conjoined_in_vp(self, first: SynTree, candidate: SynTree) -> bool:
        path_a = _path(self.tree, first)
        path_b = _path(self.tree, candidate)
        shared = 0
        for a, b in zip(path_a, path_b):
            if a is not b:
                break
            shared += 1
        if shared == 0 or path_b[shared - 1].label != "VP":
            return False
        return all(node.label == "VP" for node in path_b[shared:-1])

    def determiner(self, supertype_start: int, np: SynTree) -> _DeterminerHit | None:
        if supertype_start == 0:
            return None
        prefix = self.leaves[:supertype_start]

        # Noun-free material reaching back before the anchor NP is the whole
        # determiner expression; leftovers inside it are absorbed.
        if np.start > 0 and not any(l.label.startswith(NOUN_TAG_PREFIX) for l in prefix):
            start = 0
            if (
                prefix[0].label == "DT"
                and self.tokens[0].lower() in ARTICLES
                and supertype_start > 1
            ):
                start = 1
            return _DeterminerHit((start, supertype_start), None)

        # Otherwise a configured phrase may reveal that the anchor NP itself is
        # a determiner expression ("a type of X"); the supertype is then
        # re-detected after the phrase. Matching ignores a leading article on
        # either side. The tokens up to the longest phrase are lowercased
        # once, when a phrase first fits the gloss.
        tokens = self.tokens
        gloss_offset = 1 if tokens[0].lower() in ARTICLES else 0
        phrases = self.config.determiner_words
        lowered = None
        for words in phrases:
            end = gloss_offset + len(words)
            if end <= supertype_start or end >= len(tokens):
                continue
            if lowered is None:
                longest = max(map(len, phrases))
                lowered = tuple([t.lower() for t in tokens[gloss_offset : gloss_offset + longest]])
            if lowered[: len(words)] == words:
                return _DeterminerHit((0, end), end)
        return None

    def instance_origin(self, supertype_start: int) -> tuple[int, int] | None:
        if not self.config.instance_mode or supertype_start <= 0:
            return None
        # The nodes that start at 0 are those on the path to the first leaf.
        covers_prefix = any(
            node.label == "NP" and node.end >= supertype_start
            for node in _path(self.tree, self.leaves[0])
        )
        if covers_prefix and gazetteer_match(
            self.config.location_gazetteer, self._lowered(0, supertype_start)
        ):
            return (0, supertype_start)
        return None

    def event_subroles(self, event_node: SynTree) -> list[tuple[SynTree, Role]]:
        """Maximal PPs inside an event matched by the location/time gazetteers,
        in surface order.

        A PP that is not the whole event and matches neither gazetteer is not
        entered: ``gazetteer_match`` is monotone (a hit in part of a window
        is a hit in the whole window), so no PP nested in it can match.
        """
        location = self.config.location_gazetteer
        time = self.config.time_gazetteer
        start, end = event_node.start, event_node.end
        matches: list[tuple[SynTree, Role]] = []
        stack = [event_node]
        while stack:
            node = stack.pop()
            if (
                node.label == "PP"
                and node is not event_node
                and (node.start != start or node.end != end)
            ):
                # One lowering serves both gazetteers.
                pp_lowered = self._lowered(node.start, node.end)
                if gazetteer_match(location, pp_lowered):
                    matches.append((node, Role.EVENT_LOCATION))
                elif gazetteer_match(time, pp_lowered):
                    matches.append((node, Role.EVENT_TIME))
                continue
            # Only a PP can match, and a leaf has nothing inside it.
            stack += [
                child
                for child in reversed(node.children)
                if child.token is None or child.label == "PP"
            ]
        return matches

    # -- supertype anchoring ----------------------------------------------

    def detect_supertypes(self) -> None:
        if self.pos == VERB:
            verb_spans = self.verb_supertypes()
            if verb_spans:
                self._add_supertypes(verb_spans, "leftmost/conjoined VB")
                return
            self._note(FALLBACK_RULE, 0, 0, "no VB leaf; retrying with noun rules")
        detection = self.noun_supertypes()
        if detection:
            self._apply_noun_hits(detection)

    def _add_supertypes(self, spans: Sequence[tuple[int, int]], why: str) -> None:
        self.supertypes = [
            self._add(Role.SUPERTYPE, start, end, SUPERTYPE_RULE,
                      f"{why} {self._text(start, end)!r}")
            for start, end in spans
        ]

    def _apply_noun_hits(self, detection: _NounDetection) -> None:
        self.noun_info = detection
        self._add_supertypes(
            [supertype for supertype, _ in detection.hits], "lexicon entry in anchor NP:"
        )
        for start, end in detection.dropped_determiners:
            self._note(LEADING_DT_RULE, start, end, "leading determiner discarded")

    def handle_prefix(self) -> None:
        """Accessory determiner, instance origin, and leftover qualities."""
        consumed: list[tuple[int, int]] = []
        supertype_start = self.supertypes[0].start
        hit = self.determiner(supertype_start, self.noun_info.np)
        if hit and hit.redetect_from is not None:
            redo = self.noun_supertypes(hit.redetect_from)
            self._note(
                ACCESSORY_DETERMINER_RULE, hit.span[0], hit.span[1],
                "determiner phrase absorbs the first NP; supertype re-detected" if redo
                else "determiner phrase matched but no supertype follows; kept as is",
            )
            if redo:
                for span in self.supertypes:
                    self.work.remove(span)
                self.work.append(_Span(Role.ACCESSORY_DETERMINER, *hit.span))
                consumed.append(hit.span)
                self._apply_noun_hits(redo)
        elif hit:
            start, end = hit.span
            self._add(
                Role.ACCESSORY_DETERMINER, start, end, ACCESSORY_DETERMINER_RULE,
                f"noun-free expression before the supertype: {self._text(start, end)!r}",
            )
            consumed.append(hit.span)
        else:
            origin = self.instance_origin(supertype_start)
            if origin:
                start, end = origin
                self._add(
                    Role.ORIGIN_LOCATION, start, end, INSTANCE_ORIGIN_RULE,
                    "pre-supertype NP with a location entity (instance definiendum)",
                )
                consumed.append(origin)
        for _, leftover in self.noun_info.hits:
            if leftover is None:
                continue
            if any(s < leftover[1] and leftover[0] < e for s, e in consumed):
                continue
            self._add(
                Role.DIFFERENTIA_QUALITY, leftover[0], leftover[1],
                PRE_SUPERTYPE_QUALITY_RULE,
                "tokens left of the supertype entry inside the anchor NP",
            )

    # -- post-supertype classification --------------------------------------

    def classify(self, constituent: SynTree, ancestors: Sequence[str]) -> None:
        """Label one post-supertype constituent; ``ancestors`` are the labels
        of its proper ancestors in the tree."""
        node = _unwrap_clause(constituent)
        start, end = node.start, node.end

        if node.label == "PRT":
            self._add(
                Role.PARTICLE, start, end, PARTICLE_RULE,
                "PRT completes the supertype", parent=self.supertypes[0],
            )
            return

        if node.label == "VP" and self.leaves[start].label == "TO":
            self._add(
                Role.PURPOSE, start, end, PURPOSE_RULE, "VP opened by TO",
            )
            return

        inner = _pp_inner_phrase(node) if node.label == "PP" else None
        if node.label == "PP" and inner is not None and inner.label == "VP":
            if self.tokens[start].lower() == "for":
                self._add(
                    Role.PURPOSE, start, end, PURPOSE_RULE,
                    f"'for' PP with a VP inside; {DIVERGENCE_PURPOSE_EVENT}",
                )
                return
            self._fact_or_event(node, start, end, "PP with a VP directly inside")
            return

        if node.label in ("SBAR", "S"):
            self._fact_or_event(node, start, end, f"{node.label} after the supertype")
            return

        if node.label == "VP":
            if self.pos == NOUN:
                self._event(node, start, end, "VP after the supertype")
                return
            self._note(
                UNLABELED_RULE, start, end,
                "VP after a verb supertype matches no rule",
            )
            return

        if (
            node.label == "PP"
            and "SBAR" not in ancestors
            and "VP" not in ancestors
            and gazetteer_match(self.config.location_gazetteer, self._lowered(start, end))
        ):
            self._add(
                Role.ORIGIN_LOCATION, start, end, ORIGIN_LOCATION_RULE,
                "PP outside SBAR/VP with a location entity",
            )
            return

        if node.label in ("PP", "NP", "ADJP", "ADVP"):
            self._qualities(node)
            return

        self._note(
            UNLABELED_RULE, start, end,
            f"constituent {node.label} matches no rule",
        )

    def _fact_or_event(self, node: SynTree, start: int, end: int, shape: str) -> None:
        cue_end = min(end, start + _LONGEST_FACT_CUE)
        if _has_differentia(self.work) and _leading_cue_match(self.tokens[start:cue_end]):
            self._add(
                Role.ASSOCIATED_FACT, start, end, ASSOCIATED_FACT_RULE,
                f"{shape}; non-restrictive cue with a differentia already present",
            )
            return
        self._event(node, start, end, shape)

    def _event(self, node: SynTree, start: int, end: int, shape: str) -> None:
        carved = self.event_subroles(node)
        if not carved:
            self._add(Role.DIFFERENTIA_EVENT, start, end, DIFFERENTIA_EVENT_RULE, shape)
            return
        pieces: list[tuple[int, int]] = []
        position = start
        for sub, _ in carved:
            if sub.start > position:
                pieces.append((position, sub.start))
            position = sub.end
        if position < end:
            pieces.append((position, end))
        if not pieces:
            self._add(Role.DIFFERENTIA_EVENT, start, end, DIFFERENTIA_EVENT_RULE, shape)
            return
        primary = self._add(
            Role.DIFFERENTIA_EVENT, pieces[0][0], pieces[0][1],
            DIFFERENTIA_EVENT_RULE, f"{shape}; gazetteer PPs carved out",
        )
        for extra_start, extra_end in pieces[1:]:
            self._add(
                Role.DIFFERENTIA_EVENT, extra_start, extra_end,
                DIFFERENTIA_EVENT_RULE, "event continues past a carved PP",
            )
        for sub, role in carved:
            rule = EVENT_LOCATION_RULE if role is Role.EVENT_LOCATION else EVENT_TIME_RULE
            kind = "location" if role is Role.EVENT_LOCATION else "time"
            self._add(
                role, sub.start, sub.end, rule,
                f"PP inside the event with a {kind} entity", parent=primary,
            )

    def _qualities(self, node: SynTree) -> None:
        groups = _split_on_cc(node)
        if not groups:  # bare preterminal
            groups = [[node]]
        split = len(groups) > 1
        for group in groups:
            start, end = group[0].start, group[-1].end
            carve = _premodifier(node.label, self.leaves[start:end], end)
            if carve:
                (mod_start, mod_end), (rest_start, rest_end) = carve
                quality = _Span(Role.DIFFERENTIA_QUALITY, rest_start, rest_end)
                modifier = _Span(
                    Role.QUALITY_MODIFIER, mod_start, mod_end, parent=quality
                )
                self.work.append(modifier)
                self.work.append(quality)
                self._note(
                    QUALITY_MODIFIER_RULE, mod_start, mod_end,
                    "premodifier before the quality head",
                )
                self._note(
                    DIFFERENTIA_QUALITY_RULE, rest_start, rest_end,
                    f"{node.label} after the supertype",
                )
            else:
                reason = f"{node.label} after the supertype"
                if split:
                    reason += " (CC-separated)"
                self._add(Role.DIFFERENTIA_QUALITY, start, end,
                          DIFFERENTIA_QUALITY_RULE, reason)

    def reclassify_accessory_qualities(self) -> None:
        """Apply the accessory-quality rule left to right; a quality modifier
        whose quality turns accessory becomes a differentia quality itself.

        The rule acts on a single-token JJ differentia quality holding a
        configured accessory-quality word: the word is accessory when another
        differentia quality or event is present."""
        ordered = sorted(self.work, key=_BY_SPAN)
        words = self.config.accessory_quality_words
        modifiers = False  # whether any quality modifier could be demoted
        for span in ordered:
            role, start = span.role, span.start
            if role is _QUALITY_MODIFIER:
                modifiers = True
            if role is not _DIFFERENTIA_QUALITY or span.end - start != 1:
                continue
            word = self.tokens[start]
            if self.leaves[start].label != "JJ" or word.lower() not in words:
                continue
            if _has_differentia(self.work, excluding=span):
                span.role = _ACCESSORY_QUALITY
                self._note(
                    ACCESSORY_QUALITY_RULE, span.start, span.end,
                    f"accessory word {word!r}; {DIVERGENCE_ACCESSORY_QUALITY}",
                )
            else:
                self._note(
                    ACCESSORY_QUALITY_RULE, span.start, span.end,
                    f"accessory word {word!r} kept as differentia quality "
                    f"(only identifying span); {DIVERGENCE_ACCESSORY_QUALITY}",
                )
        if not modifiers:
            return
        for span in reversed(ordered):
            if span.role is _QUALITY_MODIFIER and span.parent.role is _ACCESSORY_QUALITY:
                self._note(
                    DEMOTED_RULE, span.start, span.end,
                    "quality_modifier without a valid parent demoted",
                )
                span.role = _DIFFERENTIA_QUALITY
                span.parent = None

    # -- assembly -----------------------------------------------------------

    def build(self, definition_id: str, ill_formed: bool) -> Annotation:
        self.work.sort(key=_BY_SPAN)
        return Annotation._make(definition_id, self.tokens, _role_spans(self.work), ill_formed)

    def fill_uncovered(self, annotation: Annotation) -> None:
        """Note each maximal run of tokens that no span and no trace entry
        covers, left to right."""
        intervals = sorted(
            [(span.start, span.end) for span in annotation.spans]
            + [(entry.start, entry.end) for entry in self.trace]
        )
        # One interval past the last token closes a trailing gap.
        end_of_gloss = (len(self.tokens), len(self.tokens) + 1)
        reach = 0  # every token before it is covered
        for start, end in intervals + [end_of_gloss]:
            if start >= end:  # a zero-width entry covers nothing
                continue
            if start > reach:
                self._note(
                    UNCOVERED_RULE, reach, start,
                    f"no rule covers {self._text(reach, start)!r}",
                )
            if end > reach:
                reach = end


def label(
    tree: SynTree,
    pos: str,
    config: LabelerConfig,
    definition_id: str = "",
) -> LabelOutcome:
    """Produce a validated annotation plus a full rule trace for one gloss.

    Every token ends up either inside a role span or inside a trace entry;
    glosses with no detectable supertype come back flagged ill-formed with
    no spans. ``tree`` must keep the span contract (``syntree``) and start
    at 0; ValueError otherwise, and EmptyDefinitionError when it has no
    tokens.
    """
    if pos not in (NOUN, VERB):
        raise ValueError(f"pos must be {NOUN!r} or {VERB!r}, got {pos!r}")
    engine = _Engine(tree, pos, config)
    engine.detect_supertypes()
    if not engine.supertypes:
        engine._note(
            ILL_FORMED_RULE, 0, len(engine.tokens),
            "no supertype found; definition lacks the supertype-differentia shape",
        )
        annotation = Annotation._make(definition_id, engine.tokens, (), True)
        return LabelOutcome._make(annotation, tuple(engine.trace))

    if engine.noun_info is not None:
        engine.handle_prefix()

    last_end = max(span.end for span in engine.supertypes)
    for constituent, ancestors in _constituents_after_walk(tree, last_end):
        engine.classify(constituent, ancestors)

    engine.reclassify_accessory_qualities()
    annotation = engine.build(definition_id, False)
    errors = [v for v in validate(annotation) if v.severity == ERROR]
    if errors:
        raise RuntimeError(f"labeling produced an invalid annotation: {errors}")
    engine.fill_uncovered(annotation)
    return LabelOutcome._make(annotation, tuple(engine.trace))
