from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    INTERNAL_LABELS,
    LEAF_TAGS,
    WORDS,
    messy_render,
    oracle_ancestor_path,
    oracle_innermost_leftmost_np,
    oracle_parse_bracketed,
    random_tree,
)
from defsrl.cli import main
from defsrl.corpus import read_corpus
from defsrl.defaults import default_config
from defsrl.labeler import label
from defsrl import syntree
from defsrl.rolemodel import Role, validate
from defsrl.syntree import (
    SynTree,
    TreeParseError,
    _OpenTree,
    _constituents_after_walk,
    _path,
    _recorded_leaves,
    innermost_leftmost_np,
    parse_bracketed,
    serialize,
)

COACH = "(NP (NP (DT a) (NN coach)) (PP (IN of) (NP (NN baseball) (NNS players))))"


def test_parse_single_leaf():
    tree = parse_bracketed("(NP (NN dog))")
    assert tree.label == "NP"
    assert len(tree.children) == 1
    leaf = tree.children[0]
    assert leaf.label == "NN" and leaf.token == "dog"
    assert leaf.span == (0, 1)
    assert tree.span == (0, 1)


def test_parse_two_leaves_spans():
    tree = parse_bracketed("(NP (DT a) (NN coach))")
    assert tree.span == (0, 2)
    assert [leaf.token for leaf in tree.leaves()] == ["a", "coach"]
    assert [leaf.span for leaf in tree.leaves()] == [(0, 1), (1, 2)]


def test_parse_accepts_arbitrary_whitespace():
    tree = parse_bracketed("( NP\n  (DT a)\t( NN  coach ) )")
    assert serialize(tree) == "(NP (DT a) (NN coach))"


def test_functional_tags_stripped():
    tree = parse_bracketed("(NP-SBJ-1 (NN dog))")
    assert tree.label == "NP"
    tree = parse_bracketed("(NP=2 (NN dog))")
    assert tree.label == "NP"


def test_functional_tag_memo_stays_bounded():
    for i in range(3 * syntree._STRIPPED_MAX):
        tree = parse_bracketed(f"(NP-{i} (NN=SBJ-{i} dog))")
        assert (tree.label, tree.children[0].label) == ("NP", "NN")
        assert len(syntree._STRIPPED) <= syntree._STRIPPED_MAX


def test_none_traces_dropped_and_spans_recomputed():
    text = "(S (NP-SBJ (-NONE- *T*-1)) (VP (VB run) (NP (NN home))))"
    tree = parse_bracketed(text)
    assert tree.tokens() == ["run", "home"]
    assert parse_bracketed(text, build=False) == ["run", "home"]
    assert tree.span == (0, 2)
    assert all(leaf.span == (i, i + 1) for i, leaf in enumerate(tree.leaves()))


def test_all_trace_tree_is_an_error():
    for text in ("(S (NP (-NONE- *)))", "(S (NP-SBJ (-NONE- *T*)) (VP (-NONE- *)))"):
        for build in (True, False):
            with pytest.raises(TreeParseError) as info:
                parse_bracketed(text, build=build)
            assert (str(info.value), info.value.offset) == ("tree has no surface tokens (offset 0)", 0)


# Each malformed text with the exact message and offset of its error.
_PARSE_ERRORS = {
    "": ("empty tree", 0),
    "   ": ("empty tree", 0),
    "NP (NN dog)": ("expected '('", 0),
    "(NP (NN dog)": ("unbalanced parentheses", 12),
    "(NP (NN dog) (NN cat)": ("unbalanced parentheses", 21),
    "(NP (NN dog)))": ("trailing content after tree", 13),
    "(NP (NN dog)) (NP (NN cat))": ("trailing content after tree", 14),
    "()": ("missing label", 1),
    "( (NN dog))": ("missing label", 2),
    "(NP (NN dog) ())": ("missing label", 14),
    "(NP)": ("empty constituent", 3),
    "(NP (NN dog) (JJ))": ("empty constituent", 16),
    "(NN dog (NN cat))": ("token and subtree in one constituent", 8),
    "(NN dog cat)": ("unexpected token", 8),
    "(NP (NN dog) stray)": ("unexpected token", 13),
    "(S (NP (NN dog)) (VP (VB runs) (NP (NN x) y)))": ("unexpected token", 42),
    "(S (NP (-NONE- *)) (-NONE- *T*-1))": ("tree has no surface tokens", 0),
}


@pytest.mark.parametrize("text", list(_PARSE_ERRORS))
def test_parse_errors_carry_offsets(text):
    message, offset = _PARSE_ERRORS[text]
    for build in (True, False):
        with pytest.raises(TreeParseError) as info:
            parse_bracketed(text, build=build)
        assert (str(info.value), info.value.offset) == (f"{message} (offset {offset})", offset)


def test_parse_errors_pickle_and_copy():
    with pytest.raises(TreeParseError) as info:
        parse_bracketed("(NP (NN dog)")
    error = info.value
    copies = [copy.copy(error), copy.deepcopy(error)]
    copies += [pickle.loads(pickle.dumps(error, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert other.__class__ is TreeParseError
        assert (str(other), other.offset) == ("unbalanced parentheses (offset 12)", 12)


def test_round_trip_on_random_trees():
    rng = random.Random(11)
    for _ in range(1000):
        tree = random_tree(rng)
        rendered = serialize(tree)
        assert serialize(parse_bracketed(rendered)) == rendered
        assert serialize(parse_bracketed(messy_render(rng, tree))) == rendered


def test_parsed_tree_reproduces_structure():
    rng = random.Random(12)
    for _ in range(200):
        tree = random_tree(rng)
        assert parse_bracketed(serialize(tree)) == tree


def test_serialize_injective_on_random_sample():
    rng = random.Random(13)
    trees = [random_tree(rng) for _ in range(500)]
    rendered = {serialize(t) for t in trees}
    distinct = {t for t in trees}
    assert len(rendered) == len(distinct)


def test_span_arithmetic_invariant():
    rng = random.Random(14)
    for _ in range(200):
        tree = random_tree(rng)
        for node in tree.subtrees():
            leaves = node.leaves()
            assert node.start == leaves[0].start
            assert node.end == leaves[-1].end
            assert all(leaf.end == leaf.start + 1 for leaf in leaves)


def test_innermost_leftmost_np_coach_example():
    tree = parse_bracketed(COACH)
    found = innermost_leftmost_np(tree)
    assert found is not None
    assert found.tokens() == ["a", "coach"]


def test_innermost_leftmost_np_absent_without_np():
    assert innermost_leftmost_np(parse_bracketed("(VP (VB run))")) is None


def test_innermost_leftmost_np_matches_oracle():
    rng = random.Random(15)
    for _ in range(1000):
        tree = random_tree(rng)
        expected = oracle_innermost_leftmost_np(tree)
        actual = innermost_leftmost_np(tree)
        assert actual is expected


def test_innermost_leftmost_np_matches_oracle_at_every_start():
    rng = random.Random(24)
    for _ in range(500):
        tree = random_tree(rng)
        for min_start in range(tree.end + 1):
            expected = oracle_innermost_leftmost_np(tree, min_start)
            assert innermost_leftmost_np(tree, min_start) is expected


def test_innermost_leftmost_np_rejects_spans_that_do_not_number_the_leaves():
    # Without spans every node starts at 0 with length 0; a shift moves the
    # leaves off their root's start; a swap puts two leaves out of order.
    def spanless(node: SynTree) -> SynTree:
        return SynTree(node.label, tuple(spanless(c) for c in node.children), node.token)

    def respanned(node: SynTree, spans: list[tuple[int, int]]) -> SynTree:
        if node.token is not None:
            return dataclasses.replace(node, start=spans[node.start][0], end=spans[node.start][1])
        return dataclasses.replace(node, children=tuple(respanned(c, spans) for c in node.children))

    rng = random.Random(18)
    for _ in range(1000):
        tree = random_tree(rng)
        if tree.token is not None:  # a shifted leaf numbers itself from its start
            continue
        count = tree.end
        shift = rng.choice([-2, -1, 1, 2])
        broken = [
            spanless(tree),
            respanned(tree, [(i + shift, i + shift + 1) for i in range(count)]),
        ]
        if count >= 2:
            swapped = [(i, i + 1) for i in range(count)]
            i, j = rng.sample(range(count), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            broken.append(respanned(tree, swapped))
        for other in broken:
            for min_start in (0, count):
                with pytest.raises(ValueError):
                    innermost_leftmost_np(other, min_start)
    # Leaves numbered right, but an NP whose span reaches past the last one,
    # or an NP with no children; an NP starting before ``min_start`` is never
    # a candidate, but its span still breaks the contract.
    dog, cat = SynTree("NN", (), "dog", 0, 1), SynTree("NN", (), "cat", 1, 2)
    overlong = SynTree("S", (SynTree("NP", (dog, cat), None, 0, 5),), None, 0, 2)
    childless = SynTree("S", (dog, SynTree("NP", (), None, 1, 1)), None, 0, 1)
    for other in (overlong, childless):
        for min_start in (0, 1):
            with pytest.raises(ValueError, match="not its children"):
                innermost_leftmost_np(other, min_start)


def test_innermost_leftmost_np_on_parsed_trees_matches_oracle_at_every_start():
    # A parsed root carries its leaf record, so its walk stops early.
    rng = random.Random(26)
    for _ in range(500):
        tree = parse_bracketed(serialize(random_tree(rng)))
        assert _recorded_leaves(tree) is not None
        for min_start in range(tree.end + 1):
            expected = oracle_innermost_leftmost_np(tree, min_start)
            assert innermost_leftmost_np(tree, min_start) is expected


def test_innermost_leftmost_np_on_copies_and_subtrees_matches_oracle_at_every_start():
    # Neither a copy of a parsed root nor a subtree carries the leaf record,
    # so both number their walked leaves from their own start.
    rng = random.Random(29)
    for _ in range(300):
        tree = parse_bracketed(serialize(random_tree(rng)))
        copies = [
            pickle.loads(pickle.dumps(tree)),
            copy.deepcopy(tree),
            dataclasses.replace(tree),
        ]
        subtrees = [node for node in tree.subtrees() if node is not tree and node.token is None]
        for other in copies + subtrees:
            assert _recorded_leaves(other) is None
            for min_start in range(other.end + 1):
                expected = oracle_innermost_leftmost_np(other, min_start)
                assert innermost_leftmost_np(other, min_start) is expected


def constituents_after(tree: SynTree, start: int) -> list[SynTree]:
    """The constituents ``label()`` classifies after ``start``, without the
    ancestor labels it pairs them with."""
    return [node for node, _ in _constituents_after_walk(tree, start)]


def test_constituents_after_end_is_empty():
    tree = parse_bracketed(COACH)
    assert constituents_after(tree, tree.end) == []


def test_constituents_after_coach_example():
    tree = parse_bracketed(COACH)
    after = constituents_after(tree, 2)
    assert len(after) == 1
    assert after[0].label == "PP"
    assert after[0].tokens() == ["of", "baseball", "players"]


def test_constituents_after_covers_suffix_disjointly():
    rng = random.Random(16)
    for _ in range(500):
        tree = random_tree(rng)
        start = rng.randint(0, tree.end)
        nodes = constituents_after(tree, start)
        covered = []
        for node in nodes:
            covered.extend(range(node.start, node.end))
        assert covered == list(range(start, tree.end))
        assert nodes == sorted(nodes, key=lambda n: n.start)


# Dominance: ``_path`` gives the ancestors the engine reads.


def ancestor_labels(tree: SynTree, node: SynTree) -> list[str]:
    """The labels of the proper ancestors of ``node`` in ``tree``, root first."""
    return [ancestor.label for ancestor in _path(tree, node)[:-1]]


def test_dominated_by_direct_chain():
    tree = parse_bracketed(
        "(SBAR (WHNP (WP who)) (S (VP (VBZ lives) (PP (IN on) (NP (NN frontier))))))"
    )
    pp = next(node for node in tree.subtrees() if node.label == "PP")
    assert ancestor_labels(tree, pp) == ["SBAR", "S", "VP"]


def test_dominated_by_root_has_no_proper_ancestor():
    tree = parse_bracketed(COACH)
    assert ancestor_labels(tree, tree) == []


def test_dominated_by_foreign_node_is_usage_error():
    tree = parse_bracketed(COACH)
    other = parse_bracketed("(VP (VB run))")
    with pytest.raises(ValueError):
        _path(tree, other)
    # Equal to a node of the tree, but not that node.
    twin = parse_bracketed(COACH).children[1]
    assert twin == tree.children[1]
    with pytest.raises(ValueError):
        _path(tree, twin)


def test_dominated_by_matches_path_oracle():
    rng = random.Random(17)
    for _ in range(300):
        tree = random_tree(rng)
        node = rng.choice(list(tree.subtrees()))
        path = oracle_ancestor_path(tree, node)
        assert _path(tree, node) == path + [node]
        assert ancestor_labels(tree, node) == [ancestor.label for ancestor in path]


# --- properties against the recursive reference parser -------------------------


def _shapes(labels, tags, words):
    """Nested (label, children) / (tag, word) tuples: bracketed-tree shapes."""
    leaf = st.tuples(st.sampled_from(tags), st.sampled_from(words))
    return st.recursive(
        leaf,
        lambda kids: st.tuples(st.sampled_from(labels), st.lists(kids, min_size=1, max_size=4)),
        max_leaves=25,
    )


def _render(shape) -> str:
    label, rest = shape
    if isinstance(rest, str):
        return f"({label} {rest})"
    return f"({label} {' '.join(_render(child) for child in rest)})"


def _build(shape, counter: list[int]) -> SynTree:
    label, rest = shape
    if isinstance(rest, str):
        counter[0] += 1
        return SynTree(label, (), rest, counter[0] - 1, counter[0])
    children = tuple(_build(child, counter) for child in rest)
    return SynTree(label, children, None, children[0].start, children[-1].end)


_CANONICAL = _shapes(INTERNAL_LABELS, LEAF_TAGS, WORDS)
# Raw treebank text: functional annotations and trace leaves that parsing
# strips or drops.
_RAW = _shapes(
    INTERNAL_LABELS + ["NP-SBJ-1", "PP=2", "-LRB-"],
    LEAF_TAGS + ["-NONE-", "NN-HL", "-NONE-"],
    WORDS + ["*T*-1", "0"],
)


# Whitespace beyond ASCII space and newline: tab, vertical tab, the
# information separator \x1c, NEL, no-break space and ideographic space.
_SPACES = "\t\x0b\x1c\x85\xa0\u3000"


@st.composite
def _mutated(draw) -> str:
    """Bracket text with a few characters deleted, inserted or swapped."""
    chars = list(_render(draw(_RAW)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["delete", "insert", "swap"]))
        if op == "insert":
            chars[at:at] = draw(st.sampled_from(["(", ")", " ", "\n", "x", "(-NONE- *)", "(NN", *_SPACES]))
        elif chars and at < len(chars):
            if op == "delete":
                del chars[at]
            else:
                other = draw(st.integers(0, len(chars) - 1))
                chars[at], chars[other] = chars[other], chars[at]
    return "".join(chars)


def _outcome(parse, text: str):
    try:
        return ("tree", parse(text))
    except TreeParseError as exc:
        return ("error", str(exc), exc.offset)


@settings(max_examples=300, deadline=None)
@given(_CANONICAL)
def test_parse_inverts_serialize_on_random_trees(shape):
    tree = _build(shape, [0])
    assert parse_bracketed(serialize(tree)) == tree


@settings(max_examples=300, deadline=None)
@given(_RAW)
def test_node_leaves_are_a_slice_of_the_root_leaves(shape):
    text = _render(shape)
    try:
        root = parse_bracketed(text)
    except TreeParseError:  # every leaf was a trace
        return
    leaves = root.leaves()
    assert [leaf.start for leaf in leaves] == list(range(root.end))
    for node in root.subtrees():
        assert leaves[node.start : node.end] == node.leaves()


@settings(max_examples=500, deadline=None)
@given(st.one_of(_mutated(), st.text(alphabet="() \nNP-ONE=x*" + _SPACES, max_size=30)))
def test_parse_matches_reference_parser_on_any_text(text):
    assert _outcome(parse_bracketed, text) == _outcome(oracle_parse_bracketed, text)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        _RAW.map(_render), _mutated(), st.text(alphabet="() \nNP-ONE=x*" + _SPACES, max_size=30)
    )
)
def test_the_check_mode_matches_the_reference_tokens_on_any_text(text):
    expected = _outcome(oracle_parse_bracketed, text)
    if expected[0] == "tree":
        expected = ("tree", expected[1].tokens())
    assert _outcome(partial(parse_bracketed, build=False), text) == expected


# --- the span contract ------------------------------------------------------------


@pytest.fixture(scope="module")
def config():
    return default_config()


def _nudged(tree: SynTree, target: int, field: str, delta: int) -> SynTree:
    """``tree`` rebuilt by hand, with ``field`` of its ``target``-th preorder
    node moved by ``delta``."""
    counter = [-1]

    def rebuild(node: SynTree) -> SynTree:
        counter[0] += 1
        changes = {field: getattr(node, field) + delta} if counter[0] == target else {}
        children = tuple(rebuild(child) for child in node.children)
        return dataclasses.replace(node, children=children, **changes)

    return rebuild(tree)


def _span_queries(tree: SynTree, config) -> dict:
    """Every public query that reads spans, as calls on ``tree``."""
    return {
        "innermost_leftmost_np": lambda: innermost_leftmost_np(tree),
        "innermost_leftmost_np at the end": lambda: innermost_leftmost_np(tree, tree.end),
        "label noun": lambda: label(tree, "noun", config),
        "label verb": lambda: label(tree, "verb", config),
    }


@settings(max_examples=300, deadline=None)
@given(_CANONICAL, st.data())
def test_every_span_query_rejects_one_nudged_span(config, shape, data):
    tree = parse_bracketed(_render(shape))
    target = data.draw(st.integers(0, sum(1 for _ in tree.subtrees()) - 1))
    field = data.draw(st.sampled_from(["start", "end"]))
    delta = data.draw(st.sampled_from([-1, 1]))
    # Rebuilt without the nudge, the tree keeps the contract.
    for query in _span_queries(_nudged(tree, -1, field, delta), config).values():
        query()
    for name, query in _span_queries(_nudged(tree, target, field, delta), config).items():
        with pytest.raises(ValueError):
            query()
            pytest.fail(f"{name} accepted the nudged span")


def test_dominated_by_rejects_a_node_spanning_past_its_children(config):
    # The NP's span covers token 1, the VP's: the verb rule's ``_path``
    # descent, trusting it, would enter the NP and report "barks" as no
    # descendant. ``label()`` checks the spans before any descent.
    dog, barks = SynTree("NN", (), "dog", 0, 1), SynTree("VB", (), "barks", 1, 2)
    np, vp = SynTree("NP", (dog,), None, 0, 2), SynTree("VP", (barks,), None, 1, 2)
    tree = SynTree("S", (np, vp), None, 0, 2)
    with pytest.raises(ValueError, match="NP node spans"):
        label(tree, "verb", config)


# --- deep trees -------------------------------------------------------------------

_DEPTH = 1200
_DEEP = "(NP " * (_DEPTH - 1) + "(NN dog)" + ")" * (_DEPTH - 1)


def test_deep_tree_parses_and_yields_its_leaves():
    tree = parse_bracketed(_DEEP)
    assert tree.span == (0, 1)
    assert [leaf.token for leaf in tree.leaves()] == ["dog"]
    assert sum(1 for _ in tree.subtrees()) == _DEPTH


def test_deep_tree_corpus_reads_and_stats(tmp_path, capsys):
    lines = [
        {"id": "deep", "pos": "noun", "gloss": "dog", "tree": _DEEP, "gold": "{supertype|dog}"},
        {"id": "cat", "pos": "noun", "gloss": "cat", "tree": "(NP (NN cat))",
         "gold": "{supertype|cat}"},
    ]
    text = "".join(json.dumps(line) + "\n" for line in lines)
    records, diagnostics = read_corpus(text)
    assert diagnostics == [] and [r.id for r in records] == ["deep", "cat"]
    path = tmp_path / "deep.jsonl"
    path.write_text(text, encoding="utf-8")
    assert main(["stats", "--input", str(path)]) == 0
    assert "Total" in capsys.readouterr().out


def _preorder(tree: SynTree) -> list[tuple]:
    # Node fields in preorder with child counts determine a tree, so equal
    # lists mean equal trees.
    return [(n.label, n.token, n.start, n.end, len(n.children)) for n in tree.subtrees()]


def test_deep_tree_serializes_and_parses_back():
    tree = parse_bracketed(_DEEP)
    assert serialize(tree) == _DEEP
    assert _preorder(parse_bracketed(serialize(tree))) == _preorder(tree)


_LEAF_REPR = "SynTree(label='NN', children=(), token={!r}, start={}, end={})"


def test_very_deep_and_very_wide_trees_pickle_copy_and_print():
    depth, width = 5_000, 50_000
    deep = parse_bracketed("(NP " * (depth - 1) + "(NN dog)" + ")" * (depth - 1))
    wide = parse_bracketed("(S " + " ".join(f"(NN w{i})" for i in range(width)) + ")")
    deep_text = (
        "SynTree(label='NP', children=(" * (depth - 1)
        + _LEAF_REPR.format("dog", 0, 1)
        + ",), token=None, start=0, end=1)" * (depth - 1)
    )
    wide_text = (
        "SynTree(label='S', children=("
        + ", ".join(_LEAF_REPR.format(f"w{i}", i, i + 1) for i in range(width))
        + f"), token=None, start=0, end={width})"
    )
    for tree, text in ((deep, deep_text), (wide, wide_text)):
        assert repr(tree) == text
        copies = [copy.copy(tree), copy.deepcopy(tree)] + [
            pickle.loads(pickle.dumps(tree, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for other in copies:
            assert other.__class__ is SynTree and other == tree


def test_deep_trees_compare_and_hash():
    first, second = parse_bracketed(_DEEP), parse_bracketed(_DEEP)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    other = parse_bracketed(_DEEP.replace("(NN dog)", "(NNS dog)"))
    assert first != other and other != first


_DEEP_EVENT = (
    "(NP (NP (DT a) (NN man)) (SBAR (WHNP (WP who)) "
    + "(VP " * (_DEPTH - 1)
    + "(VBZ lives) (PP (IN on) (NP (DT the) (NN frontier)))"
    + ")" * (_DEPTH - 1)
    + "))"
)
_DEEP_VERBS = "(VP " * (_DEPTH - 1) + "(VB run) (CC or) (VP (VB move))" + ")" * (_DEPTH - 1)


@pytest.mark.parametrize(
    "text, pos, roles",
    [
        (_DEEP, "noun", []),
        (_DEEP.replace("dog", "man"), "noun", [(Role.SUPERTYPE, 0, 1)]),
        (
            _DEEP_EVENT,
            "noun",
            [(Role.SUPERTYPE, 1, 2), (Role.DIFFERENTIA_EVENT, 2, 4), (Role.EVENT_LOCATION, 4, 7)],
        ),
        (_DEEP_VERBS, "verb", [(Role.SUPERTYPE, 0, 1), (Role.SUPERTYPE, 2, 3)]),
    ],
    ids=["no-lexicon-entry", "supertype", "event-location", "conjoined-verbs"],
)
def test_deep_tree_labels_validate_clean(text, pos, roles):
    annotation = label(parse_bracketed(text), pos, default_config()).annotation
    assert validate(annotation) == []
    assert [(s.role, s.start, s.end) for s in annotation.spans] == roles


def test_deep_tree_corpus_labels(tmp_path):
    lines = [
        {"id": "deep", "pos": "noun", "gloss": "dog", "tree": _DEEP},
        {"id": "cat", "pos": "noun", "gloss": "a coach", "tree": "(NP (DT a) (NN coach))"},
    ]
    path = tmp_path / "deep.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["label", "--input", str(path), "--output", str(out)]) == 0
    records, diagnostics = read_corpus(out.read_text(encoding="utf-8"))
    assert diagnostics == []
    assert [r.id for r in records] == ["deep", "cat"]
    assert all(r.predicted is not None for r in records)


# --- the node contract ----------------------------------------------------------


def _changed(tree: SynTree, target: int, field: str) -> SynTree:
    """``tree`` with one field of its ``target``-th preorder node changed."""
    counter = [-1]

    def rebuild(node: SynTree) -> SynTree:
        counter[0] += 1
        if counter[0] == target:
            if field == "children":
                return dataclasses.replace(node, children=node.children[:-1])
            value = getattr(node, field)
            return dataclasses.replace(
                node, **{field: value + 1 if isinstance(value, int) else f"{value}x"}
            )
        return dataclasses.replace(node, children=tuple(rebuild(c) for c in node.children))

    return rebuild(tree)


def test_equality_and_hash_follow_the_node_fields():
    rng = random.Random(23)
    for _ in range(400):
        tree = random_tree(rng)
        nodes = list(tree.subtrees())
        target = rng.randrange(len(nodes))
        fields = ["label", "start", "end"]
        fields.append("token" if nodes[target].is_leaf() else "children")
        other = _changed(tree, target, rng.choice(fields))
        same = _changed(tree, -1, "label")  # an equal copy, no node shared
        assert (tree == other) == (_preorder(tree) == _preorder(other))
        assert tree == same and hash(tree) == hash(same)
        assert (tree != other) != (tree == other)


def test_equality_with_other_types_is_not_implemented():
    tree = parse_bracketed(COACH)
    assert tree.__eq__(serialize(tree)) is NotImplemented
    assert tree != serialize(tree) and tree != None  # noqa: E711

    class Node(SynTree):
        pass

    leaf = SynTree("NN", (), "dog", 0, 1)
    other = Node("NN", (), "dog", 0, 1)
    assert leaf != other and other != leaf
    assert SynTree("NP", (leaf,), None, 0, 1) != SynTree("NP", (other,), None, 0, 1)


def test_nodes_are_immutable():
    tree = parse_bracketed(COACH)
    for field in ("label", "children", "token", "start", "end"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tree, field, getattr(tree, field))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(tree, field)
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
        tree.extra = 1


def _treebank_text(tree: SynTree, draw) -> str:
    """``tree`` written as raw treebank text: a functional tag on some
    labels and trace leaves among some children, which parsing strips and
    drops again."""
    label = tree.label + draw(st.sampled_from(["", "", "-SBJ", "-SBJ-1", "=2"]))
    if tree.token is not None:
        return f"({label} {tree.token})"
    parts = [_treebank_text(child, draw) for child in tree.children]
    for _ in range(draw(st.integers(0, 2))):
        parts.insert(draw(st.integers(0, len(parts))), "(-NONE- *T*-1)")
    return f"({label} {' '.join(parts)})"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_every_parsed_node_is_a_frozen_syntree(seed, data):
    tree = random_tree(random.Random(seed))
    parsed = parse_bracketed(_treebank_text(tree, data.draw))
    assert parsed == tree
    for node in parsed.subtrees():
        assert type(node) is SynTree
        for name in ("label", "children", "token", "start", "end", "_leaf_record", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
        with pytest.raises(TypeError):
            vars(node)
    # Neither a parsed node nor a node that ``SynTree._make`` made pickles
    # as the twin class it was written on.
    made = SynTree._make(parsed.label, parsed.children, parsed.token, parsed.start, parsed.end)
    assert type(made) is SynTree and made == parsed
    assert _OpenTree.__name__.startswith("_Open")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for tree in (parsed, made):
            assert b"_Open" not in pickle.dumps(tree, protocol)
    for other in (copy.copy(parsed), copy.deepcopy(parsed)):
        assert other == parsed
        assert all(type(node) is SynTree for node in other.subtrees())


def test_nodes_round_trip_through_replace_pickle_and_deepcopy():
    tree = parse_bracketed(COACH)
    assert dataclasses.replace(tree) == tree
    relabeled = dataclasses.replace(tree, label="NX")
    assert relabeled.label == "NX" and relabeled.children is tree.children
    assert [f.name for f in dataclasses.fields(SynTree)] == [
        "label", "children", "token", "start", "end"
    ]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(tree, protocol)) == tree
    assert copy.deepcopy(tree) == tree
    assert copy.copy(tree) == tree


def test_node_repr_is_the_dataclass_repr():
    tree = parse_bracketed("(NP (DT a) (NN dog))")
    assert repr(tree) == (
        "SynTree(label='NP', children=("
        "SynTree(label='DT', children=(), token='a', start=0, end=1), "
        "SynTree(label='NN', children=(), token='dog', start=1, end=2)"
        "), token=None, start=0, end=2)"
    )
    assert SynTree("X") == SynTree("X", (), None, 0, 0)
    assert repr(SynTree("X")) == "SynTree(label='X', children=(), token=None, start=0, end=0)"


def test_copy_shares_the_children_and_deepcopy_rebuilds_them():
    tree = parse_bracketed(COACH)
    shallow = copy.copy(tree)
    assert shallow == tree and shallow is not tree and shallow.children is tree.children
    deep = copy.deepcopy(tree)
    assert deep == tree
    assert not any(a is b for a, b in zip(deep.subtrees(), tree.subtrees()))


class _Tagged(SynTree):
    pass


def test_subclass_nodes_keep_their_class_through_copies_and_repr():
    dog = _Tagged("NN", (), "dog", 1, 2)
    tree = SynTree("NP", (SynTree("DT", (), "a", 0, 1), dog), None, 0, 2)
    for other in [copy.copy(tree), copy.deepcopy(tree)] + [
        pickle.loads(pickle.dumps(tree, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ]:
        assert other == tree
        assert [n.__class__ for n in other.subtrees()] == [SynTree, SynTree, _Tagged]
    assert repr(tree).endswith(
        "_Tagged(label='NN', children=(), token='dog', start=1, end=2)), token=None, start=0, end=2)"
    )


# ``parse_bracketed("(NP (NN dog))")`` as pickled (protocols 0 and 2) by the
# version whose nodes pickled as their field lists.
_FIELD_LIST_PICKLES = (
    b"ccopy_reg\n_reconstructor\np0\n(cdefsrl.syntree\nSynTree\np1\nc__builtin__\nobject\n"
    b"p2\nNtp3\nRp4\n(lp5\nVNP\np6\na(g0\n(g1\ng2\nNtp7\nRp8\n(lp9\nVNN\np10\na(taVdog\n"
    b"p11\naI0\naI1\nabtp12\naNaI0\naI1\nab.",
    b"\x80\x02cdefsrl.syntree\nSynTree\nq\x00)\x81q\x01]q\x02(X\x02\x00\x00\x00NPq\x03h\x00)"
    b"\x81q\x04]q\x05(X\x02\x00\x00\x00NNq\x06)X\x03\x00\x00\x00dogq\x07K\x00K\x01eb\x85q"
    b"\x08NK\x00K\x01eb.",
)


def test_trees_pickled_as_field_lists_still_load():
    tree = parse_bracketed("(NP (NN dog))")
    for data in _FIELD_LIST_PICKLES:
        loaded = pickle.loads(data)
        assert loaded == tree and repr(loaded) == repr(tree)
        assert loaded.children[0].__class__ is SynTree


# --- the leaf record of a parsed root ---------------------------------------------


def _copies(tree: SynTree) -> dict[str, SynTree]:
    copies = {
        "replace": dataclasses.replace(tree),
        "replace-label": dataclasses.replace(tree, label="NX"),
        "deepcopy": copy.deepcopy(tree),
        "copy": copy.copy(tree),
    }
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies[f"pickle-{protocol}"] = pickle.loads(pickle.dumps(tree, protocol))
    return copies


def test_only_a_parsed_root_records_its_leaves():
    tree = parse_bracketed(COACH)
    record = _recorded_leaves(tree)
    assert isinstance(record, tuple)
    assert list(record) == tree.leaves() and tree.leaves() is not tree.leaves()
    assert [leaf.token for leaf in record] == tree.tokens()
    assert all(_recorded_leaves(node) is None for node in tree.subtrees() if node is not tree)
    assert _recorded_leaves(parse_bracketed("(NN dog)")) == (parse_bracketed("(NN dog)"),)
    assert _recorded_leaves(SynTree("NN", (), "dog", 0, 1)) is None


def test_equality_hash_repr_and_pickle_ignore_the_leaf_record():
    rng = random.Random(27)
    for _ in range(200):
        tree = parse_bracketed(serialize(random_tree(rng)))
        same = _changed(tree, -1, "label")  # an equal copy built by hand
        assert _recorded_leaves(same) is None
        assert tree == same and same == tree and hash(tree) == hash(same)
        assert repr(tree) == repr(same)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(tree, protocol) == pickle.dumps(same, protocol)


def test_copies_carry_no_leaf_record_and_walk_for_the_same_leaves():
    rng = random.Random(28)
    for _ in range(100):
        tree = parse_bracketed(serialize(random_tree(rng)))
        if tree.token is not None:  # a relabeled leaf is another leaf
            continue
        leaves = tree.leaves()
        for route, other in _copies(tree).items():
            assert _recorded_leaves(other) is None, route
            assert other.leaves() == leaves, route
            assert [leaf.span for leaf in other.leaves()] == [leaf.span for leaf in leaves]
            if route.startswith("replace"):  # the children are shared
                assert all(a is b for a, b in zip(other.leaves(), leaves, strict=True))
            else:
                assert other == tree and innermost_leftmost_np(other) == innermost_leftmost_np(tree)


def test_leaf_record_cannot_be_assigned_or_deleted():
    tree = parse_bracketed(COACH)
    record = _recorded_leaves(tree)
    for node in (tree, tree.children[0], SynTree("NN", (), "dog", 0, 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            node._leaf_record = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            del node._leaf_record
    assert _recorded_leaves(tree) is record
    assert _recorded_leaves(tree.children[0]) is None
