#!/usr/bin/env python3
"""Regenerate the bundled gold corpus of hand-annotated definition glosses.

Each record carries the raw gloss, a hand-built constituency parse of it,
and a gold annotation in the inline format. The file is written through
write_corpus so it is canonical byte-for-byte.

Usage: ``PYTHONPATH=src python tools/make_bundled_corpus.py`` (no arguments)
rewrites ``src/defsrl/data/definitions_gold.jsonl``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from defsrl.corpus import DefinitionRecord, write_corpus
from defsrl.rolemodel import parse_gold, serialize_gold, validate
from defsrl.syntree import parse_bracketed

RECORDS = [
    {
        "id": "footwear",
        "pos": "noun",
        "gloss": "clothing worn on a person's feet",
        "tree": "(NP (NP (NN clothing)) (VP (VBN worn) (PP (IN on) (NP (NP (DT a) (NN person) (POS 's)) (NNS feet)))))",
        "gold": "{supertype|clothing} {differentia_event|worn on a person 's feet}",
    },
    {
        "id": "baseball_coach",
        "pos": "noun",
        "gloss": "a coach of baseball players",
        "tree": "(NP (NP (DT a) (NN coach)) (PP (IN of) (NP (NN baseball) (NNS players))))",
        "gold": "a {supertype|coach} {differentia_quality|of baseball players}",
    },
    {
        "id": "roadhog",
        "pos": "noun",
        "gloss": "a driver who obstructs others",
        "tree": "(NP (NP (DT a) (NN driver)) (SBAR (WHNP (WP who)) (S (VP (VBZ obstructs) (NP (NNS others))))))",
        "gold": "a {supertype|driver} {differentia_event|who obstructs others}",
    },
    {
        "id": "master_of_ceremonies",
        "pos": "noun",
        "gloss": "a person who acts as host at formal occasions",
        "tree": "(NP (NP (DT a) (NN person)) (SBAR (WHNP (WP who)) (S (VP (VBZ acts) (PP (IN as) (NP (NN host))) (PP (IN at) (NP (JJ formal) (NNS occasions)))))))",
        "gold": "a {supertype|person} {differentia_event|who acts as host} {event_time@1|at formal occasions}",
    },
    {
        "id": "frontiersman",
        "pos": "noun",
        "gloss": "a man who lives on the frontier",
        "tree": "(NP (NP (DT a) (NN man)) (SBAR (WHNP (WP who)) (S (VP (VBZ lives) (PP (IN on) (NP (DT the) (NN frontier)))))))",
        "gold": "a {supertype|man} {differentia_event|who lives} {event_location@1|on the frontier}",
    },
    {
        "id": "dart",
        "pos": "verb",
        "gloss": "run or move very quickly or hastily",
        "tree": "(VP (VB run) (CC or) (VB move) (ADVP (RB very) (RB quickly) (CC or) (RB hastily)))",
        "gold": "{supertype|run} or {supertype|move} {quality_modifier@3|very} {differentia_quality|quickly} or {differentia_quality|hastily}",
    },
    {
        "id": "Bartramian_sandpiper",
        "pos": "noun",
        "gloss": "large plover-like sandpiper of North American fields and uplands",
        "tree": "(NP (NP (JJ large) (JJ plover-like) (NN sandpiper)) (PP (IN of) (NP (NP (JJ North) (JJ American) (NNS fields)) (CC and) (NP (NNS uplands)))))",
        "gold": "{differentia_quality|large plover-like} {supertype|sandpiper} {origin_location|of North American fields and uplands}",
    },
    {
        "id": "redundancy",
        "pos": "noun",
        "gloss": "repetition of messages to reduce the probability of errors in transmission",
        "tree": "(NP (NP (NN repetition)) (PP (IN of) (NP (NNS messages))) (S (VP (TO to) (VP (VB reduce) (NP (NP (DT the) (NN probability)) (PP (IN of) (NP (NP (NNS errors)) (PP (IN in) (NP (NN transmission))))))))))",
        "gold": "{supertype|repetition} {differentia_quality|of messages} {purpose|to reduce the probability of errors in transmission}",
    },
    {
        "id": "water_faucet",
        "pos": "noun",
        "gloss": "a faucet for drawing water from a pipe or cask",
        "tree": "(NP (NP (DT a) (NN faucet)) (PP (IN for) (S (VP (VBG drawing) (NP (NN water)) (PP (IN from) (NP (NP (DT a) (NN pipe)) (CC or) (NP (NN cask))))))))",
        "gold": "a {supertype|faucet} {differentia_event|for drawing water from a pipe or cask}",
    },
    {
        "id": "Mohorovicic",
        "pos": "noun",
        "instance": True,
        "gloss": "Yugoslav geophysicist for whom the Mohorovicic discontinuity was named",
        "tree": "(NP (NP (JJ Yugoslav) (NN geophysicist)) (SBAR (WHPP (IN for) (WHNP (WP whom))) (S (NP (DT the) (NNP Mohorovicic) (NN discontinuity)) (VP (VBD was) (VP (VBN named))))))",
        "gold": "{differentia_quality|Yugoslav} {supertype|geophysicist} {associated_fact|for whom the Mohorovicic discontinuity was named}",
    },
    {
        "id": "camas",
        "pos": "noun",
        "gloss": "any of several plants of the genus Camassia",
        "tree": "(NP (NP (DT any)) (PP (IN of) (NP (NP (JJ several) (NNS plants)) (PP (IN of) (NP (DT the) (NN genus) (NNP Camassia))))))",
        "gold": "{accessory_determiner|any of several} {supertype|plants} {differentia_quality|of the genus Camassia}",
    },
    {
        "id": "Allium",
        "pos": "noun",
        "gloss": "large genus of perennial and biennial pungent bulbous plants",
        "tree": "(NP (NP (JJ large) (NN genus)) (PP (IN of) (NP (ADJP (JJ perennial) (CC and) (JJ biennial)) (JJ pungent) (JJ bulbous) (NNS plants))))",
        "gold": "{accessory_quality|large} {supertype|genus} {differentia_quality|of perennial and biennial pungent bulbous plants}",
    },
    {
        "id": "unstaple",
        "pos": "verb",
        "gloss": "take the staples off",
        "tree": "(VP (VB take) (NP (DT the) (NNS staples)) (PRT (RP off)))",
        "gold": "{supertype|take} {differentia_quality|the staples} {particle@0|off}",
    },
    {
        "id": "Tertiary_period",
        "pos": "noun",
        "gloss": "from 63 million to 2 million years ago",
        "tree": "(ADVP (NP (QP (IN from) (CD 63) (CD million) (TO to) (CD 2) (CD million)) (NNS years)) (RB ago))",
        "gold": "from 63 million to 2 million years ago",
    },
    {
        "id": "Charlotte_Anna_Perkins_Gilman",
        "pos": "noun",
        "instance": True,
        "gloss": "United States feminist",
        "tree": "(NP (NNP United) (NNPS States) (NN feminist))",
        "gold": "{origin_location|United States} {supertype|feminist}",
    },
]


OUT = Path(__file__).resolve().parents[1] / "src" / "defsrl" / "data" / "definitions_gold.jsonl"


def build_text() -> str:
    """The corpus text of RECORDS. Raises ValueError naming the first record
    whose tree tokens differ from its gold tokens or whose gold is invalid."""
    records = []
    for spec in RECORDS:
        tree = parse_bracketed(spec["tree"])
        gold = parse_gold(spec["gold"], spec["id"])
        if tuple(tree.tokens()) != gold.tokens:
            raise ValueError(
                f"{spec['id']}: tree tokens != gold tokens\n"
                f"  tree: {tree.tokens()}\n  gold: {list(gold.tokens)}"
            )
        errors = [v for v in validate(gold) if v.severity == "error"]
        if errors:
            raise ValueError(f"{spec['id']}: invalid gold: {errors}")
        assert serialize_gold(gold) == spec["gold"], spec["id"]
        records.append(
            DefinitionRecord(
                id=spec["id"],
                pos=spec["pos"],
                gloss=spec["gloss"],
                tree=spec["tree"],
                instance=spec.get("instance", False),
                gold=gold,
            )
        )
    return write_corpus(records)


def main(argv: list[str]) -> int:
    if argv:
        print(f"usage: {Path(__file__).name} (takes no arguments; rewrites {OUT.name})",
              file=sys.stderr)
        return 2
    try:
        text = build_text()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    OUT.write_text(text, encoding="utf-8")
    print(f"wrote {len(RECORDS)} records to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
