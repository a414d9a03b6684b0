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

import copyreg
import re
from itertools import islice
from operator import attrgetter
from reprlib import recursive_repr
from typing import Callable, Iterator, Literal, overload

__all__ = [
    "SynTree",
    "TreeParseError",
    "parse_bracketed",
    "serialize",
    "innermost_leftmost_np",
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

    def __reduce__(self) -> tuple:
        # ``args`` holds only the formatted message, which ``__init__`` does
        # not take: ``pickle`` and ``copy`` rebuild through ``__new__`` and
        # restore ``offset`` from the instance dict.
        return copyreg.__newobj__, (self.__class__, *self.args), self.__dict__


def _refuse_assignment(self: object, name: str, value: object) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self: object, name: str) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _written_init(
    cls: type, names: tuple[str, ...], defaults: dict[str, object]
) -> Callable[..., None]:
    """``cls.__init__``, compiled once from its field names as ``dataclasses``
    compiles one: each argument is stored by its slot's own setter, a field
    in ``defaults`` takes that plain value when its argument is left out,
    and ``__post_init__`` runs last when ``cls`` has one."""
    namespace: dict[str, object] = {}
    params, body = [], []
    for name in names:
        namespace[f"_set_{name}"] = getattr(cls, name).__set__
        if name in defaults:
            namespace[f"_default_{name}"] = defaults[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        body.append(f"    _set_{name}(self, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class _DataclassView:
    """A record's ``__dataclass_fields__`` or ``__dataclass_params__``, made
    the first time something reads it (``dataclasses.fields``, ``replace``,
    ``asdict``, ``is_dataclass``, or ``dataclass`` on a subclass).

    Both come from ``dataclass(slots=True, init=False, repr=False,
    eq=False)`` applied to a throwaway class with the record's name,
    module, docstring, annotations and defaults, and are then stored on
    the record in place of the two views. So ``dataclasses`` sees the
    record as such a dataclass, and is imported only by a caller that
    uses it.
    """

    __slots__ = ("defaults", "record", "name")

    def __init__(self, defaults: dict[str, object]) -> None:
        self.defaults = defaults

    def __set_name__(self, record: type, name: str) -> None:
        self.record, self.name = record, name

    def __get__(self, instance: object, owner: type | None = None) -> object:
        from dataclasses import dataclass

        record = self.record
        shape = type(record.__name__, (), {
            "__module__": record.__module__,
            "__qualname__": record.__qualname__,
            "__doc__": record.__doc__,
            "__annotations__": record.__annotations__,
            **self.defaults,
        })
        shape = dataclass(slots=True, init=False, repr=False, eq=False)(shape)
        record.__dataclass_fields__ = shape.__dataclass_fields__
        record.__dataclass_params__ = shape.__dataclass_params__
        return getattr(record, self.name)


def _twin(record: type) -> type:
    """A class of ``record``'s layout, its bases and ``__slots__``, but with
    ``object``'s own ``__setattr__``: each field of an instance is written by
    a plain slot store, which CPython specializes (the record's refusing
    ``__setattr__`` keeps it from doing so). Once its fields are written, the
    instance becomes a ``record`` by a ``__class__`` store, which CPython
    allows only between classes of the same layout."""
    name = f"_Open{record.__name__}"
    return type(name, record.__bases__, {
        "__slots__": record.__slots__,
        "__module__": record.__module__,
        "__qualname__": name,
    })


class _Maker:
    """A record's ``_make(*fields)``, compiled the first time it is read, as
    ``_DataclassView`` builds its view, and then stored on the record.

    ``_make`` takes every field, in order, and makes the record as
    ``record(*fields)`` does, by plain stores on a ``_twin`` instance: it
    writes the fields, stores the record as the ``__class__``, and then runs
    ``__post_init__`` when the record has one. A record made so has the
    same type, ``==``, ``hash``, ``repr`` and pickles. defsrl makes the
    records of its hot paths so, since each call of ``record(...)`` writes
    every field through its slot's setter.
    """

    __slots__ = ("record",)

    def __set_name__(self, record: type, name: str) -> None:
        self.record = record

    def __get__(self, instance: object, owner: type | None = None) -> Callable[..., object]:
        record = self.record
        names = record.__slots__
        namespace = {"_Twin": _twin(record), "_Record": record}
        body = ["    self = _Twin()"]
        body += [f"    self.{name} = {name}" for name in names]
        body.append("    self.__class__ = _Record")
        if hasattr(record, "__post_init__"):
            body.append("    self.__post_init__()")
        body.append("    return self")
        exec(f"def _make({', '.join(names)}):\n" + "\n".join(body), namespace)
        make = namespace["_make"]
        make.__qualname__ = f"{record.__qualname__}._make"
        record._make = staticmethod(make)
        return make


def _seal(cls: type) -> type:
    """Declare ``cls`` an immutable record: the class decorator of every
    defsrl record, which then behaves as a frozen dataclass with ``__slots__``.

    Every annotation of ``cls``'s own body is a field, in order, and a class
    attribute of that name is its default. ``cls`` is made again with those
    fields as its ``__slots__`` and ``__match_args__``, and without the
    defaults as class attributes, as ``dataclass(slots=True)`` makes it. Its
    ``__dataclass_fields__`` and ``__dataclass_params__`` are
    ``_DataclassView``s, so ``dataclasses.fields``, ``replace``, ``asdict``
    and ``is_dataclass`` work, and ``__dataclass_params__`` reads
    ``frozen=False``: a subclass declared ``@dataclass(frozen=True)`` is
    refused by ``dataclasses`` itself, as a frozen dataclass over a
    non-frozen one. This writes the methods once, from the field names,
    read through one ``attrgetter``:

    - ``__init__`` (see ``_written_init``);
    - ``__repr__``, ``==`` and ``hash`` as a frozen dataclass has them, over
      the tuple of field values, except where ``cls`` defines its own (as
      ``SynTree`` does);
    - ``__replace__``, which ``copy.replace`` calls on Python 3.13 and
      later: a new record of the same class from the fields, with
      ``changes`` taking their place, as ``dataclasses.replace`` makes it;
    - ``__getstate__`` and ``__setstate__``, which ``pickle`` and ``copy``
      use; ``__setstate__`` runs ``__post_init__`` too, so derived state is
      built again. A dict state, as pickled by a version whose records had a
      ``__dict__``, is read by field name and refused unless its keys are
      the fields, give or take the base classes' slots (derived state, such
      as a ``Gazetteer``'s ``first_words``);
    - ``__setattr__`` and ``__delattr__``, which raise
      ``FrozenInstanceError`` for every name, not only the fields.

    It also gives ``cls`` a private maker, ``cls._make(*fields)``, which
    makes the record by plain slot stores on a twin class of the same
    layout (see ``_twin`` and ``_Maker``), for the records that defsrl
    makes on its hot paths. The maker is compiled the first time it is
    read, so importing a record compiles nothing more.
    """
    namespace = dict(vars(cls))
    names = tuple(namespace.get("__annotations__", ()))
    defaults = {name: namespace.pop(name) for name in names if name in namespace}
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    namespace["__slots__"] = names
    namespace.setdefault("__match_args__", names)
    namespace["__qualname__"] = cls.__qualname__
    namespace["__dataclass_fields__"] = _DataclassView(defaults)
    namespace["__dataclass_params__"] = _DataclassView(defaults)
    namespace["_make"] = _Maker()
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    if len(names) == 1:
        # ``attrgetter`` of one name gives the bare value, not a 1-tuple.
        only = attrgetter(names[0])

        def values(record: object) -> tuple:
            return (only(record),)

    else:
        values = attrgetter(*names)
    derived = {slot for base in cls.__mro__[1:] for slot in getattr(base, "__slots__", ())}
    post_init = getattr(cls, "__post_init__", None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    @recursive_repr()
    def __repr__(self) -> str:
        items = ", ".join(map("{}={!r}".format, names, values(self)))
        return f"{self.__class__.__qualname__}({items})"

    def __replace__(self, /, **changes: object) -> object:
        return self.__class__(**dict(zip(names, values(self)), **changes))

    def __getstate__(self) -> list:
        return list(values(self))

    def __setstate__(self, state: object) -> None:
        if isinstance(state, dict):
            if state.keys() - derived != set(names):
                raise TypeError(f"cannot unpickle {type(self).__name__} from {list(state)}")
            state = map(state.__getitem__, names)
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)
        if post_init is not None:
            post_init(self)

    cls.__init__ = _written_init(cls, names, defaults)
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    cls.__replace__ = __replace__
    cls.__getstate__ = __getstate__
    cls.__setstate__ = __setstate__
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    if "__eq__" not in cls.__dict__:
        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
    return cls


class _LeafRecord:
    """The slot of a parsed root's leaves, in surface order.

    It lives on a base class so that it is no dataclass field: ``==``,
    ``hash``, ``repr``, ``pickle``, ``deepcopy`` and ``dataclasses.replace``
    all ignore it, and a copy made by any of them carries no record. Only
    ``parse_bracketed`` sets it; assigning or deleting it raises
    ``FrozenInstanceError``, as for a field.
    """

    __slots__ = ("_leaf_record",)


@_seal
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
        # A frozen dataclass's ``__eq__`` compares the field tuples, children
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

    def __repr__(self) -> str:
        # A frozen dataclass's ``__repr__``, written with a stack instead of
        # one nested call per tree level. A child whose class writes its own
        # ``__repr__`` is written by it.
        parts: list[str] = []
        stack: list[SynTree | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            children = item.children
            parts.append(f"{item.__class__.__qualname__}(label={item.label!r}, children=(")
            stack.append(
                f"{',' if len(children) == 1 else ''}), token={item.token!r}, "
                f"start={item.start!r}, end={item.end!r})"
            )
            for index in range(len(children) - 1, -1, -1):
                child = children[index]
                writes_itself = child.__class__.__repr__ is SynTree.__repr__
                stack.append(child if writes_itself else repr(child))
                if index:
                    stack.append(", ")
        return "".join(parts)

    def __copy__(self) -> "SynTree":
        # A new node over the same children; ``__reduce__`` would rebuild
        # them all.
        copied = object.__new__(self.__class__)
        copied.__setstate__(self.__getstate__())
        return copied

    def __reduce__(self) -> tuple:
        # ``pickle`` and ``copy.deepcopy`` get the nodes as one flat preorder
        # tuple, each with its class, its fields but the children, and its
        # child count, and ``_rebuilt_tree`` puts them together again; so
        # neither recurses once per tree level.
        nodes = []
        stack = [self]
        while stack:
            node = stack.pop()
            children = node.children
            nodes.append(
                (node.__class__, node.label, node.token, node.start, node.end, len(children))
            )
            stack.extend(reversed(children))
        return _rebuilt_tree, (tuple(nodes),)

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


# ``_build_walk`` writes each node as an ``_OpenTree`` and then makes it a
# ``SynTree``.
_OpenTree = _twin(SynTree)


def _rebuilt_tree(nodes: tuple) -> SynTree:
    """The tree that ``SynTree.__reduce__`` flattened into ``nodes``."""
    # Fields are written by ``SynTree``'s slot setters, not through an
    # ``_OpenTree``: a node may be of a subclass, whose layout is not
    # ``SynTree``'s.
    set_label, set_children = SynTree.label.__set__, SynTree.children.__set__
    set_token, set_start = SynTree.token.__set__, SynTree.start.__set__
    set_end = SynTree.end.__set__
    built: list[SynTree] = []
    # Backwards through the preorder, each node's children are the last
    # ones built, first child on top.
    for cls, label, token, start, end, arity in reversed(nodes):
        node = object.__new__(cls)
        children = built[len(built) - arity:]
        del built[len(built) - arity:]
        children.reverse()
        set_label(node, label)
        set_children(node, tuple(children))
        set_token(node, token)
        set_start(node, start)
        set_end(node, end)
        built.append(node)
    (root,) = built
    return root


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


def _misplaced(text: str, pos: int, lexeme: str) -> TreeParseError:
    """The error for ``lexeme``, at ``pos``, where a preterminal's ")" belongs."""
    if lexeme == "(":
        return TreeParseError("token and subtree in one constituent", _offset(text, pos))
    return TreeParseError("unexpected token", _offset(text, pos))


# ``_build_walk`` and ``_check_walk`` read the lexemes of one tree from just
# past its first "(" and return the position just past its last ")". They
# raise the same errors, at the same lexemes, in the same order, and an
# IndexError when the lexemes run out inside the tree.


def _build_walk(text: str, lexemes: list[str]) -> tuple[SynTree | None, list[SynTree], int]:
    """The tree's root (None when every leaf is a trace), its surface leaves
    in order, and the position past it."""
    labels = _STRIPPED  # a local name for the per-node lookups
    open_tree, tree_class = _OpenTree, SynTree
    # Open internal constituents, outermost first: (raw label, kept
    # children). Preterminals never get a frame. Trace leaves and
    # constituents left empty by dropping them are not kept, so spans count
    # surface tokens only.
    frames: list[tuple[str, list[SynTree]]] = []
    leaves: list[SynTree] = []
    pos = 1  # just past a "(": a label comes next
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
        if lexemes[pos] != ")":
            raise _misplaced(text, pos, lexemes[pos])
        pos += 1
        node: SynTree | None = None
        if raw != "-NONE-":
            label = labels.get(raw)
            if label is None:
                label = _stripped(raw)
            start = len(leaves)
            node = open_tree()
            node.label = label
            node.children = ()
            node.token = lexeme
            node.start = start
            node.end = start + 1
            node.__class__ = tree_class
            leaves.append(node)
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
                node = open_tree()
                node.label = label
                node.children = tuple(kept)
                node.token = None
                node.start = kept[0].start
                node.end = kept[-1].end
                node.__class__ = tree_class
            else:
                node = None
        if not frames:
            return node, leaves, pos


def _check_walk(text: str, lexemes: list[str]) -> tuple[list[str], int]:
    """The tree's surface tokens in order, and the position past it."""
    tokens: list[str] = []
    depth = 0  # open internal constituents; preterminals are not counted
    pos = 1  # just past a "(": a label comes next
    while True:
        raw = lexemes[pos]
        if raw == "(" or raw == ")":
            raise TreeParseError("missing label", _offset(text, pos))
        lexeme = lexemes[pos + 1]
        pos += 2
        if lexeme == "(":
            depth += 1
            continue
        if lexeme == ")":
            raise TreeParseError("empty constituent", _offset(text, pos - 1))
        if lexemes[pos] != ")":
            raise _misplaced(text, pos, lexemes[pos])
        pos += 1
        if raw != "-NONE-":
            tokens.append(lexeme)
        while depth:
            lexeme = lexemes[pos]
            pos += 1
            if lexeme == "(":
                break
            if lexeme != ")":
                raise TreeParseError("unexpected token", _offset(text, pos - 1))
            depth -= 1
        if not depth:
            return tokens, pos


@overload
def parse_bracketed(text: str, *, build: Literal[True] = ...) -> SynTree: ...
@overload
def parse_bracketed(text: str, *, build: Literal[False]) -> list[str]: ...
def parse_bracketed(text: str, *, build: bool = True) -> SynTree | list[str]:
    """Parse one bracketed tree, tolerating arbitrary whitespace.

    Raises TreeParseError (with a character offset) on unbalanced
    parentheses, missing labels, mixed token/subtree constituents, trailing
    content, or a tree with no surface tokens. With ``build=False`` a second
    walk only checks the text: it raises the same errors, with the same
    messages and offsets, builds no node and returns the surface tokens in
    order, ``parse_bracketed(text).tokens()``.
    """
    # The same lexemes as ``_LEXEME.findall(text)``: both split on exactly
    # the ``str.isspace()`` characters.
    lexemes = text.replace("(", " ( ").replace(")", " ) ").split()
    if not lexemes:
        raise TreeParseError("empty tree", 0)
    if lexemes[0] != "(":
        raise TreeParseError("expected '('", _offset(text, 0))
    try:
        if build:
            root, found, pos = _build_walk(text, lexemes)
        else:
            found, pos = _check_walk(text, lexemes)
    except IndexError:  # the lexemes ran out inside the tree
        raise TreeParseError("unbalanced parentheses", len(text)) from None
    if pos < len(lexemes):
        raise TreeParseError("trailing content after tree", _offset(text, pos))
    if not found:
        raise TreeParseError("tree has no surface tokens", 0)
    if not build:
        return found
    _LeafRecord._leaf_record.__set__(root, tuple(found))
    return root


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
    proper ancestors (the nodes the walk descended through), root first.
    ``start`` must lie in [tree.start, tree.end]."""
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
