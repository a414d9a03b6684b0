"""Seeded input generators for the benchmark workloads.

Every generator takes a seed and returns plain data (JSONL text, knowledge
file text, expected outputs); nothing here imports ``defsrl``, so the inputs
do not change when the program under test does. The generators never drop,
repair or filter a record they have produced.

The inline annotation format (``{role@parent|tokens}`` segments between bare
tokens) is re-implemented here in a few lines so that expected gold and the
seeded prediction edits are computed independently of ``defsrl.rolemodel``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# The bundled gold corpus and knowledge files, relative to the checkout root.
BUNDLED_CORPUS = Path("src/defsrl/data/definitions_gold.jsonl")
PACKAGED_NOUNS = Path("src/defsrl/data/nouns.txt")
PACKAGED_LOCATIONS = Path("src/defsrl/data/locations.txt")

# One token per template that gets the record index as a suffix, so that the
# expanded glosses are distinct strings with the template's structure.
TEMPLATE_SUBSTITUTIONS = {
    "footwear": "feet",
    "baseball_coach": "baseball",
    "roadhog": "others",
    "master_of_ceremonies": "host",
    "frontiersman": "lives",
    "dart": "hastily",
    "Bartramian_sandpiper": "uplands",
    "redundancy": "transmission",
    "water_faucet": "cask",
    "Mohorovicic": "discontinuity",
    "camas": "Camassia",
    "Allium": "bulbous",
    "unstaple": "staples",
    "Tertiary_period": "ago",
}

# The documented purpose / differentia-event divergence: the labeler marks
# this template's "for"+VP phrase as purpose where the hand gold says event.
PURPOSE_EVENT_DIVERGENCE = "water_faucet"

# Roles a seeded edit may swap among; sub-roles keep their parent links valid.
SWAPPABLE_ROLES = (
    "differentia_quality",
    "differentia_event",
    "purpose",
    "associated_fact",
    "origin_location",
    "accessory_quality",
    "accessory_determiner",
)
# Per-span edit rates for the eval-stats predictions.
SHIFT_RATE = 0.10
SWAP_RATE = 0.08
DROP_RATE = 0.05


# -- inline annotation format ----------------------------------------------


@dataclass
class Gold:
    """Tokens plus sorted, disjoint (role, parent, start, end) segments."""

    tokens: list[str]
    spans: list[tuple[str, int | None, int, int]] = field(default_factory=list)


def parse_inline(text: str) -> Gold:
    gold = Gold([])
    rest = text
    while rest:
        rest = rest.lstrip()
        if not rest:
            break
        if rest[0] == "{":
            close = rest.index("}")
            head, _, body = rest[1:close].partition("|")
            role, at, parent = head.partition("@")
            start = len(gold.tokens)
            gold.tokens.extend(body.split())
            gold.spans.append((role, int(parent) if at else None, start, len(gold.tokens)))
            rest = rest[close + 1 :]
        else:
            word, _, rest = rest.partition(" ")
            gold.tokens.append(word)
    return gold


def serialize_inline(gold: Gold) -> str:
    parts: list[str] = []
    position = 0
    for role, parent, start, end in gold.spans:
        parts.extend(gold.tokens[position:start])
        head = role if parent is None else f"{role}@{parent}"
        parts.append("{" + head + "|" + " ".join(gold.tokens[start:end]) + "}")
        position = end
    parts.extend(gold.tokens[position:])
    return " ".join(parts)


# -- template workloads ----------------------------------------------------


def load_templates(root: Path) -> list[dict]:
    text = (root / BUNDLED_CORPUS).read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


@dataclass
class TemplateCorpus:
    records: list[dict]  # the JSONL payloads the program reads
    template_ids: list[str]  # template id of each record
    gold: list[Gold]  # template gold with the substitution applied


def expand_templates(templates: list[dict], count: int, seed: int) -> TemplateCorpus:
    """``count`` records, templates in round-robin, in a seeded order.

    The template mix is the same for every seed; the seed picks the record
    order and the numeric suffixes, so the bytes differ across seeds.
    """
    rng = random.Random(f"templates-{seed}")
    base = rng.randrange(10**6)
    order = list(range(count))
    rng.shuffle(order)
    corpus = TemplateCorpus([], [], [])
    for i in order:
        template = templates[i % len(templates)]
        token = TEMPLATE_SUBSTITUTIONS.get(template["id"])
        number = base + i
        tree, gloss = template["tree"], template["gloss"]
        gold = parse_inline(template["gold"])
        if token is not None:
            tree = tree.replace(f" {token})", f" {token}{number})")
            gloss = gloss.replace(token, f"{token}{number}")
            gold.tokens = [f"{t}{number}" if t == token else t for t in gold.tokens]
        record = {"id": f"{template['id']}-{number}", "pos": template["pos"],
                  "gloss": gloss, "tree": tree}
        if template.get("instance"):
            record["instance"] = True
        corpus.records.append(record)
        corpus.template_ids.append(template["id"])
        corpus.gold.append(gold)
    return corpus


def to_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)


def edit_prediction(gold: Gold, rng: random.Random) -> Gold:
    """A parseable prediction: gold with seeded boundary shifts, role swaps
    and dropped spans. Spans stay sorted, disjoint and non-empty, and no
    span that another span names as parent is swapped or dropped."""
    spans = list(gold.spans)
    n = len(gold.tokens)
    referenced = {parent for _, parent, _, _ in spans if parent is not None}
    for k in range(len(spans)):
        role, parent, start, end = spans[k]
        if rng.random() < SHIFT_RATE:
            left_free = spans[k - 1][3] if k else 0
            right_free = spans[k + 1][2] if k + 1 < len(spans) else n
            moves = []
            if end < right_free:
                moves.append((start, end + 1))
            if end - start > 1:
                moves.extend([(start, end - 1), (start + 1, end)])
            if start > left_free:
                moves.append((start - 1, end))
            if moves:
                start, end = rng.choice(moves)
        if (
            rng.random() < SWAP_RATE
            and parent is None
            and role in SWAPPABLE_ROLES
            and k not in referenced
        ):
            role = rng.choice([r for r in SWAPPABLE_ROLES if r != role])
        spans[k] = (role, parent, start, end)
    kept: list[tuple[str, int | None, int, int]] = []
    new_index: dict[int, int] = {}
    for k, span in enumerate(spans):
        if span[0] != "supertype" and k not in referenced and rng.random() < DROP_RATE:
            continue
        new_index[k] = len(kept)
        kept.append(span)
    return Gold(
        list(gold.tokens),
        [(r, None if p is None else new_index[p], s, e) for r, p, s, e in kept],
    )


@dataclass
class EvalCorpus:
    records: list[dict]
    gold: list[Gold]
    predicted: list[Gold]


def eval_corpus(templates: list[dict], count: int, seed: int) -> EvalCorpus:
    corpus = expand_templates(templates, count, seed)
    rng = random.Random(f"edits-{seed}")
    predicted = [edit_prediction(g, rng) for g in corpus.gold]
    for record, g, p in zip(corpus.records, corpus.gold, predicted):
        record["gold"] = serialize_inline(g)
        record["predicted"] = serialize_inline(p)
    return EvalCorpus(corpus.records, corpus.gold, predicted)


def expected_exact_counts(gold: list[Gold], predicted: list[Gold]) -> dict[str, list[int]]:
    """Per role: [exact-span true positives, gold spans, predicted spans]."""
    counts: dict[str, list[int]] = {}
    for g, p in zip(gold, predicted):
        g_spans = {(r, s, e) for r, _, s, e in g.spans}
        p_spans = {(r, s, e) for r, _, s, e in p.spans}
        for role, _, _ in g_spans | p_spans:
            counts.setdefault(role, [0, 0, 0])
        for role, _, _ in g_spans & p_spans:
            counts[role][0] += 1
        for role, _, _ in g_spans:
            counts[role][1] += 1
        for role, _, _ in p_spans:
            counts[role][2] += 1
    return counts


# -- label-long: synthetic long glosses and full-scale knowledge ------------

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "kr", "st", "tr", "pl", "gl", "sh", "th")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_PREPOSITIONS = ("of", "with", "from", "on", "at", "near", "under", "by", "about")
_FUNCTION_WORDS = frozenset(
    ("a", "an", "the", "of", "in", "for", "to", "that", "which", "who", "and",
     "or", "very", "some", "its", "their") + _PREPOSITIONS
)


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))


def _distinct_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        word = _word(rng, rng.choice((2, 2, 3, 3, 4)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


@dataclass
class Knowledge:
    nouns_text: str
    locations_text: str
    nouns: list[str]  # single-word noun entries usable in glosses
    compounds: list[list[str]]  # multiword noun entries
    adjectives: list[str]
    verbs: list[str]
    adverbs: list[str]
    locations: list[list[str]]  # gazetteer entries, display-cased words


NOUN_ENTRIES = 80_000
LOCATION_ENTRIES = 10_000


def make_knowledge(root: Path, seed: int) -> Knowledge:
    """A WordNet-scale noun lexicon and a location gazetteer, both
    including the packaged entries, plus the open-class vocabulary the
    long glosses draw from."""
    rng = random.Random(f"knowledge-{seed}")
    taken = set(_FUNCTION_WORDS)
    packaged_nouns = [
        line.strip() for line in (root / PACKAGED_NOUNS).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    packaged_locations = [
        line.strip() for line in (root / PACKAGED_LOCATIONS).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    single = _distinct_words(rng, NOUN_ENTRIES * 3 // 4, taken)
    compounds: list[list[str]] = []
    seen_compounds: set[str] = set()
    target = NOUN_ENTRIES - len(single) - len(packaged_nouns)
    while len(compounds) < target:
        size = rng.choice((2, 2, 2, 3, 3, 4, 5))
        words = [rng.choice(single) for _ in range(size)]
        key = "_".join(words)
        if key not in seen_compounds:
            seen_compounds.add(key)
            compounds.append(words)
    noun_lines = packaged_nouns + single + ["_".join(w) for w in compounds]
    rng.shuffle(noun_lines)

    names = _distinct_words(rng, LOCATION_ENTRIES * 3 // 5, taken)
    locations: list[list[str]] = []
    seen_locations: set[str] = set()
    while len(locations) + len(packaged_locations) < LOCATION_ENTRIES:
        words = [rng.choice(names).capitalize() for _ in range(rng.choice((1, 1, 2, 2, 3)))]
        key = " ".join(words).lower()
        if key not in seen_locations:
            seen_locations.add(key)
            locations.append(words)
    location_lines = packaged_locations + [" ".join(w) for w in locations]
    rng.shuffle(location_lines)

    return Knowledge(
        nouns_text="# generated noun lexicon\n" + "\n".join(noun_lines) + "\n",
        locations_text="# generated location gazetteer\n" + "\n".join(location_lines) + "\n",
        nouns=single[:20_000],
        compounds=compounds[:5_000],
        adjectives=[w + rng.choice(("al", "ous", "ive", "ic")) for w in _distinct_words(rng, 3_000, taken)],
        verbs=_distinct_words(rng, 3_000, taken),
        adverbs=[w + "ly" for w in _distinct_words(rng, 500, taken)],
        locations=locations,
    )


MAX_DEPTH = 10  # recursion budget; keeps bracket nesting at or below 12
NOUN_SHARE = 0.8
MIN_TOKENS, MAX_TOKENS = 50, 300


class _GlossBuilder:
    """Builds one bracketed tree; ``self.tokens`` counts the leaves."""

    def __init__(self, rng: random.Random, vocab: Knowledge) -> None:
        self.rng = rng
        self.vocab = vocab
        self.tokens = 0

    def leaf(self, tag: str, word: str) -> str:
        self.tokens += 1
        return f"({tag} {word})"

    def base_np(self) -> str:
        rng, v = self.rng, self.vocab
        parts = []
        if rng.random() < 0.6:
            parts.append(self.leaf("DT", rng.choice(("a", "an", "the", "some"))))
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            parts.append(self.leaf("JJ", rng.choice(v.adjectives)))
        if rng.random() < 0.25:
            for word in rng.choice(v.compounds):
                parts.append(self.leaf("NN", word))
        else:
            head = rng.choice(v.nouns) if rng.random() < 0.9 else _word(rng, 3)
            if rng.random() < 0.3:
                parts.append(self.leaf("NNS", head + "s"))
            else:
                parts.append(self.leaf("NN", head))
        return "(NP " + " ".join(parts) + ")"

    def np(self, depth: int) -> str:
        if depth <= 2 or self.rng.random() < 0.35:
            return self.base_np()
        kind = self.rng.random()
        if kind < 0.5:
            return f"(NP {self.base_np()} {self.pp(depth - 1)})"
        if kind < 0.7:
            return f"(NP {self.base_np()} {self.sbar(depth - 1)})"
        if kind < 0.85:
            return f"(NP {self.np(depth - 1)} {self.leaf('CC', self.rng.choice(('and', 'or')))} {self.np(depth - 1)})"
        return f"(NP {self.base_np()} {self.vp(depth - 1)})"

    def pp(self, depth: int) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.15:
            place = " ".join(self.leaf("NNP", w) for w in rng.choice(self.vocab.locations))
            return f"(PP {self.leaf('IN', rng.choice(('in', 'from', 'near')))} (NP {place}))"
        if roll < 0.22:
            return f"(PP {self.leaf('IN', 'in')} (NP {self.leaf('CD', str(rng.randrange(1100, 2000)))}))"
        return f"(PP {self.leaf('IN', rng.choice(_PREPOSITIONS))} {self.np(depth - 1)})"

    def vp(self, depth: int) -> str:
        rng, verb = self.rng, self.rng.choice(self.vocab.verbs)
        if depth <= 2:
            return f"(VP {self.leaf('VBN', verb + 'ed')})"
        roll = rng.random()
        if roll < 0.4:
            return f"(VP {self.leaf('VBN', verb + 'ed')} {self.pp(depth - 1)})"
        if roll < 0.7:
            return f"(VP {self.leaf('VBG', verb + 'ing')} {self.np(depth - 1)})"
        return f"(VP {self.leaf('VBZ', verb + 's')} {self.np(depth - 1)} {self.pp(depth - 1)})"

    def sbar(self, depth: int) -> str:
        wh = self.leaf("WDT", self.rng.choice(("that", "which")))
        return f"(SBAR (WHNP {wh}) (S {self.vp(depth - 2)}))"

    def adjp(self) -> str:
        v, rng = self.vocab, self.rng
        parts = []
        if rng.random() < 0.4:
            parts.append(self.leaf("RB", rng.choice(v.adverbs)))
        parts.append(self.leaf("JJ", rng.choice(v.adjectives)))
        if rng.random() < 0.5:
            parts.append(self.leaf("CC", "and"))
            parts.append(self.leaf("JJ", rng.choice(v.adjectives)))
        return "(ADJP " + " ".join(parts) + ")"

    def purpose(self, depth: int) -> str:
        verb = self.rng.choice(self.vocab.verbs)
        return f"(S (VP {self.leaf('TO', 'to')} (VP {self.leaf('VB', verb)} {self.np(depth - 3)})))"

    def post_modifier(self, depth: int) -> str:
        roll = self.rng.random()
        if roll < 0.35:
            return self.pp(depth)
        if roll < 0.55:
            return self.sbar(depth)
        if roll < 0.7:
            return self.vp(depth)
        if roll < 0.8:
            return self.adjp()
        if roll < 0.88:
            return self.purpose(depth)
        return f"{self.leaf('CC', self.rng.choice(('and', 'or')))} {self.np(depth)}"

    def noun_gloss(self, target: int) -> str:
        parts = [self.base_np()]
        while self.tokens < target:
            parts.append(self.post_modifier(MAX_DEPTH - 1))
        return "(NP " + " ".join(parts) + ")"

    def verb_gloss(self, target: int) -> str:
        v, rng = self.vocab, self.rng
        parts = [self.leaf("VB", rng.choice(v.verbs))]
        if rng.random() < 0.3:
            parts += [self.leaf("CC", "or"), self.leaf("VB", rng.choice(v.verbs))]
        parts.append(self.np(MAX_DEPTH - 1))
        while self.tokens < target:
            roll = rng.random()
            if roll < 0.5:
                parts.append(self.pp(MAX_DEPTH - 1))
            elif roll < 0.7:
                parts.append(f"(ADVP {self.leaf('RB', rng.choice(v.adverbs))})")
            else:
                parts.append(self.np(MAX_DEPTH - 1))
        return "(VP " + " ".join(parts) + ")"


def long_corpus(vocab: Knowledge, count: int, seed: int) -> list[dict]:
    rng = random.Random(f"long-{seed}")
    records = []
    for i in range(count):
        builder = _GlossBuilder(rng, vocab)
        target = rng.randint(MIN_TOKENS, MAX_TOKENS)
        if rng.random() < NOUN_SHARE:
            pos, tree = "noun", builder.noun_gloss(target)
        else:
            pos, tree = "verb", builder.verb_gloss(target)
        gloss = " ".join(tree_tokens(tree))
        records.append({"id": f"long-{seed}-{i}", "pos": pos, "gloss": gloss, "tree": tree})
    return records


def tree_tokens(tree: str) -> list[str]:
    """Surface tokens of a generated bracketed tree (preterminal words)."""
    out = []
    for chunk in tree.split(")"):
        head = chunk.rsplit("(", 1)[-1]
        parts = head.split()
        if len(parts) == 2:
            out.append(parts[1])
    return out
