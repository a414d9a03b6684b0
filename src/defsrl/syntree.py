"""Bracketed constituency trees and the span queries the labeling rules need.

Input follows the usual treebank conventions: internal nodes carry phrase
labels (NP, VP, PP, SBAR, ...), preterminals carry POS tags, and every leaf
is a surface token. Two normalizations are applied while parsing so query
code only ever sees bare categories over surface tokens: functional
annotations on labels ("NP-SBJ", "NP=2") are stripped, and trace leaves
("-NONE-") are dropped with spans recomputed.

Every span query relies on one span contract, which ``parse_bracketed`` keeps:
a tree's leaves span ``tree.start, tree.start + 1, ...`` in surface order, one
token each, and each internal node has children and spans from its first
child's start to its last child's end. The queries raise ValueError otherwise.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, fields
from itertools import islice
from typing import Iterator, Literal, overload

__all__ = [
    "SynTree",
    "TreeParseError",
    "parse_bracketed",
    "serialize",
    "innermost_leftmost_np",
    "dominated_by",
]

_FUNC_SPLIT = re.compile(r"[-=]")
_LEXEME = re.compile(r"[()]|[^\s()]+")

# Any NN-initial tag counts as a common/proper noun (NN, NNS, NNP, NNPS).
NOUN_TAG_PREFIX = "NN"


class TreeParseError(ValueError):
    """Malformed bracketed-tree text. ``offset`` is a character position."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class _LeafRecord:
    """The slot of a parsed root's leaves, in surface order.

    It lives on a base class so that it is no dataclass field: ``==``,
    ``hash``, ``repr``, ``pickle``, ``deepcopy`` and ``dataclasses.replace``
    all ignore it, and a copy made by any of them carries no record. Only
    ``parse_bracketed`` sets it; assigning or deleting it raises
    ``FrozenInstanceError``, as for a field.
    """

    __slots__ = ("_leaf_record",)


@dataclass(frozen=True, slots=True, eq=False)
class SynTree(_LeafRecord):
    """A constituency-tree node over the half-open token span [start, end).

    A node is a leaf exactly when ``token`` is present, in which case it has
    no children and its span has length one. Instances are immutable, so all
    queries are pure and safe under concurrent use.
    """

    label: str
    children: tuple["SynTree", ...] = ()
    token: str | None = None
    start: int = 0
    end: int = 0

    def __eq__(self, other: object) -> bool:
        # The generated ``__eq__`` compares the field tuples, children
        # pairwise; this walks the node pairs with a stack instead of one
        # nested call per tree level.
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if (
                a.__class__ is not b.__class__
                or a.label != b.label
                or a.token != b.token
                or a.start != b.start
                or a.end != b.end
                or len(a.children) != len(b.children)
            ):
                return False
            pairs.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        # Equal trees serialize alike; trees that differ only in their spans
        # just share a hash. ``serialize`` walks without recursing.
        return hash(serialize(self))

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    def is_leaf(self) -> bool:
        return self.token is not None

    def leaves(self) -> list["SynTree"]:
        """All leaf nodes in surface order.

        A root from ``parse_bracketed`` returns the leaves it recorded; any
        other node (a subtree, a copy, a tree built by hand) walks its
        subtree. Under the span contract (module docstring),
        ``root.leaves()[node.start:node.end] == node.leaves()``.
        """
        record = _recorded_leaves(self)
        if record is not None:
            return list(record)
        return [node for node in self.subtrees() if node.token is not None]

    def tokens(self) -> list[str]:
        return [leaf.token for leaf in self.leaves()]

    def subtrees(self) -> Iterator["SynTree"]:
        """Preorder iterator over this node and all descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __str__(self) -> str:
        return serialize(self)


_set_label = SynTree.label.__set__
_set_children = SynTree.children.__set__
_set_token = SynTree.token.__set__
_set_start = SynTree.start.__set__
_set_end = SynTree.end.__set__
_set_leaf_record = _LeafRecord._leaf_record.__set__


# The ``__setattr__`` and ``__delattr__`` of a frozen dataclass with
# ``slots=True`` refuse the fields, but meet any other name (here the leaf
# record) with a TypeError from a ``super()`` over the class as it was
# before ``slots=True`` rebuilt it (Python 3.10 to 3.13). These refuse
# every name alike.
def _refuse_assignment(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# The generated ``__setstate__`` zips the fields with any state, so the dict
# pickled by a version whose records had a ``__dict__`` would fill each field
# with its own name. This one reads such a dict by field name.
def _set_state(self: object, state: object) -> None:
    names = [field.name for field in fields(self)]
    if isinstance(state, dict):
        if state.keys() != set(names):
            raise TypeError(f"cannot unpickle {type(self).__name__} from {list(state)}")
        state = map(state.__getitem__, names)
    for name, value in zip(names, state):
        object.__setattr__(self, name, value)


def _seal(cls: type) -> None:
    """Fit a slotted frozen record class with the three methods above."""
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    cls.__setstate__ = _set_state


_seal(SynTree)


def _recorded_leaves(node: SynTree) -> tuple[SynTree, ...] | None:
    """The leaves ``parse_bracketed`` recorded on ``node``, or None when it
    is not a parsed root (or is a copy of one)."""
    return getattr(node, "_leaf_record", None)


def _numbered_leaves(tree: SynTree) -> tuple[SynTree, ...]:
    """The leaves of ``tree`` in surface order: a parsed root's record, or
    else a walk that raises ValueError at a span breaking the contract."""
    record = _recorded_leaves(tree)
    if record is not None:
        return record
    leaves: list[SynTree] = []
    for node in tree.subtrees():
        children = node.children
        if node.token is None:
            if not children or node.start != children[0].start or node.end != children[-1].end:
                raise ValueError(f"{node.label} node spans {node.span}, not its children")
            continue
        i = tree.start + len(leaves)
        if children or node.start != i or node.end != i + 1:
            raise ValueError(f"leaf {node.token!r} at {node.span}, not a bare leaf at {(i, i + 1)}")
        leaves.append(node)
    return tuple(leaves)


# ``_strip_functional`` of the raw labels met so far. A corpus can carry any
# number of distinct labels, so the memo starts over when it is full.
_STRIPPED: dict[str, str] = {}
_STRIPPED_MAX = 1024


def _strip_functional(label: str) -> str:
    # Leading-dash labels (-NONE-, -LRB-, ...) are atoms, not annotated tags.
    if label.startswith("-"):
        return label
    match = _FUNC_SPLIT.search(label)
    if match and match.start() > 0:
        return label[: match.start()]
    return label


def _stripped(raw: str) -> str:
    """``_strip_functional(raw)``, remembered in ``_STRIPPED``."""
    if len(_STRIPPED) >= _STRIPPED_MAX:
        _STRIPPED.clear()
    label = _STRIPPED[raw] = _strip_functional(raw)
    return label


def _offset(text: str, index: int) -> int:
    """Character offset of the ``index``-th lexeme of ``text``."""
    return next(islice(_LEXEME.finditer(text), index, None)).start()


@overload
def parse_bracketed(text: str, *, build: Literal[True] = ...) -> SynTree: ...
@overload
def parse_bracketed(text: str, *, build: Literal[False]) -> list[str]: ...
def parse_bracketed(text: str, *, build: bool = True) -> SynTree | list[str]:
    """Parse one bracketed tree, tolerating arbitrary whitespace.

    Raises TreeParseError (with a character offset) on unbalanced
    parentheses, missing labels, mixed token/subtree constituents, trailing
    content, or a tree with no surface tokens. With ``build=False`` the same
    walk only checks the text: it raises the same errors, builds no node and
    returns the surface tokens in order, ``parse_bracketed(text).tokens()``.
    """
    # The same lexemes as ``_LEXEME.findall(text)``: both split on exactly
    # the ``str.isspace()`` characters.
    lexemes = text.replace("(", " ( ").replace(")", " ) ").split()
    count = len(lexemes)
    if not count:
        raise TreeParseError("empty tree", 0)
    if lexemes[0] != "(":
        raise TreeParseError("expected '('", _offset(text, 0))
    labels = _STRIPPED  # a local name for the per-node lookups
    # Nodes are built by the slots' own setters, not by ``SynTree(...)``,
    # whose ``object.__setattr__`` calls look each slot up by name.
    new, tree_class = object.__new__, SynTree
    set_label, set_children, set_token = _set_label, _set_children, _set_token
    set_start, set_end = _set_start, _set_end
    # Open internal constituents, outermost first: (raw label, kept
    # children). Preterminals never get a frame. Trace leaves and
    # constituents left empty by dropping them are not kept, so spans count
    # surface tokens only.
    frames: list[tuple[str, list[SynTree]]] = []
    found: list = []  # the surface leaves (tokens when not building), in order
    leaf_count = 0
    pos = 1  # just past a "(": a label comes next
    try:
        while True:
            raw = lexemes[pos]
            if raw == "(" or raw == ")":
                raise TreeParseError("missing label", _offset(text, pos))
            lexeme = lexemes[pos + 1]
            pos += 2
            if lexeme == "(":
                frames.append((raw, []))
                continue
            if lexeme == ")":
                raise TreeParseError("empty constituent", _offset(text, pos - 1))
            # A preterminal, (TAG token): one step, no frame.
            closing = lexemes[pos]
            if closing != ")":
                if closing == "(":
                    raise TreeParseError(
                        "token and subtree in one constituent", _offset(text, pos)
                    )
                raise TreeParseError("unexpected token", _offset(text, pos))
            pos += 1
            # Left None when not building, so no frame keeps a child and
            # no constituent is built either.
            node: SynTree | None = None
            if raw != "-NONE-":
                if not build:
                    found.append(lexeme)
                else:
                    label = labels.get(raw)
                    if label is None:
                        label = _stripped(raw)
                    node = new(tree_class)
                    set_label(node, label)
                    set_children(node, ())
                    set_token(node, lexeme)
                    set_start(node, leaf_count)
                    set_end(node, leaf_count + 1)
                    found.append(node)
                    leaf_count += 1
            # Close constituents up to the next "(" or the end of the tree.
            while frames:
                if node is not None:
                    frames[-1][1].append(node)
                lexeme = lexemes[pos]
                pos += 1
                if lexeme == "(":
                    break
                if lexeme != ")":
                    raise TreeParseError("unexpected token", _offset(text, pos - 1))
                raw, kept = frames.pop()
                if kept:
                    label = labels.get(raw)
                    if label is None:
                        label = _stripped(raw)
                    node = new(tree_class)
                    set_label(node, label)
                    set_children(node, tuple(kept))
                    set_token(node, None)
                    set_start(node, kept[0].start)
                    set_end(node, kept[-1].end)
                else:
                    node = None
            if not frames:
                break
    except IndexError:  # the lexemes ran out inside the tree
        raise TreeParseError("unbalanced parentheses", len(text)) from None
    if pos < count:
        raise TreeParseError("trailing content after tree", _offset(text, pos))
    if not found:
        raise TreeParseError("tree has no surface tokens", 0)
    if not build:
        return found
    _set_leaf_record(node, tuple(found))
    return node


def serialize(tree: SynTree) -> str:
    """Canonical single-line form: ``(LABEL child ...)``, leaves ``(TAG token)``."""
    parts: list[str] = []
    # Nodes still to write, and the separators and closing brackets between
    # them, last first.
    stack: list[SynTree | str] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item.token is not None:
            parts.append(f"({item.label} {item.token})")
        else:
            parts.append(f"({item.label} ")
            stack.append(")")
            for index in range(len(item.children) - 1, -1, -1):
                stack.append(item.children[index])
                if index:
                    stack.append(" ")
    return "".join(parts)


def innermost_leftmost_np(tree: SynTree, min_start: int = 0) -> SynTree | None:
    """The innermost, leftmost NP dominating at least one noun leaf.

    Only NPs starting at or after ``min_start`` qualify. "Innermost" means
    the NP dominates no other qualifying NP; ties are broken by smallest
    start, then shortest span, then greatest depth. Returns None when no NP
    qualifies. Raises ValueError when the spans break the span contract.

    Under the contract the innermost qualifying NPs are disjoint, so the
    first qualifying NP met in postorder is the answer. Nodes finish in
    postorder by growing end, so the leaves before a node's end are scanned
    once, left to right, as the walk needs them.
    """
    first = tree.start
    leaves = _numbered_leaves(tree)
    scanned = max(min_start, first)
    last_noun = -1  # the last noun leaf in [min_start, scanned)
    stack = [tree] if tree.token is None else []  # internal nodes
    entered: list[SynTree] = []  # nodes whose children are still on the stack
    while stack:
        node = stack[-1]
        if not entered or entered[-1] is not node:
            entered.append(node)
            # A subtree ending at or before ``min_start`` holds no NP that
            # starts at or after it.
            for child in reversed(node.children):
                if child.token is None and child.end > min_start:
                    stack.append(child)
            continue
        stack.pop()
        entered.pop()
        if node.label == "NP" and node.start >= min_start:
            end = node.end
            while scanned < end:
                if leaves[scanned - first].label.startswith(NOUN_TAG_PREFIX):
                    last_noun = scanned
                scanned += 1
            if last_noun >= node.start:
                return node
    return None


def _constituents_after_walk(
    tree: SynTree, start: int
) -> list[tuple[SynTree, tuple[str, ...]]]:
    """The maximal constituents at or after ``start``: in surface order, pairwise
    non-nested and covering [start, tree.end). Each comes with the labels of its
    proper ancestors (the nodes the walk descended through), root first."""
    if not tree.start <= start <= tree.end:
        raise ValueError(f"start {start} outside token range [{tree.start}, {tree.end}]")
    out: list[tuple[SynTree, tuple[str, ...]]] = []
    stack: list[tuple[SynTree, tuple[str, ...]]] = [(tree, ())]
    while stack:
        node, above = stack.pop()
        if node.start >= start:
            out.append((node, above))
        elif node.end > start:
            inner = above + (node.label,)
            stack.extend((child, inner) for child in reversed(node.children))
    return out


def dominated_by(node: SynTree, ancestor_label: str, within: SynTree) -> bool:
    """True iff a proper ancestor of ``node`` inside ``within`` has the label.

    Nodes are located by identity along the spans, so ``node`` must be the
    actual object taken from ``within``. Raises ValueError when it is not
    found there, or when the spans of ``within`` break the span contract.
    """
    _numbered_leaves(within)
    return any(ancestor.label == ancestor_label for ancestor in _path(within, node)[:-1])


def _path(root: SynTree, node: SynTree) -> list[SynTree]:
    """The nodes from ``root`` down to ``node``, both included.

    The descent takes, at each level, the child whose span holds
    ``node.start``, so ``root`` must keep the span contract; callers check
    it. Raises ValueError when ``node`` itself (by identity) is not reached.
    """
    path = [root]
    current = root
    while current is not node:
        for child in current.children:
            if child.start <= node.start < child.end:
                current = child
                break
        else:
            raise ValueError("node is not a descendant of the given tree")
        path.append(current)
    return path
