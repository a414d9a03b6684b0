"""The record mechanism: how a defsrl record is declared (``_seal``), built,
compared, pickled and shown to ``dataclasses``. Each record class stays in
the module that defines it, since a pickle names a class by its module.
"""

from __future__ import annotations

from operator import attrgetter
from reprlib import recursive_repr

TYPE_CHECKING = False
if TYPE_CHECKING:  # ``typing`` is not imported at run time
    from collections.abc import Callable


def _refuse_assignment(self: object, name: str, value: object) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self: object, name: str) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _compiled(
    record: type, name: str, params: tuple[str, ...], stores: list[str],
    namespace: dict[str, object], tail: str = "",
) -> Callable[..., object]:
    """``record``'s method ``name``, compiled once from its field names as
    ``dataclasses`` compiles one: ``def name(params)`` runs the statements
    ``stores``, then ``self.__post_init__()`` when ``record`` has one, then
    ``tail``. ``namespace`` holds the globals its code reads."""
    body = list(stores)
    if hasattr(record, "__post_init__"):
        body.append("self.__post_init__()")
    if tail:
        body.append(tail)
    exec(f"def {name}({', '.join(params)}):\n    " + "\n    ".join(body), namespace)
    function = namespace[name]
    function.__qualname__ = f"{record.__qualname__}.{name}"
    return function


class _Lazy:
    """A record's class attribute, made the first time it is read:
    ``build(record)`` gives the attributes to store on the record, this one
    among them, in place of their descriptors, so each is built once."""

    __slots__ = ("build", "record", "name")

    def __init__(self, build: Callable[[type], dict[str, object]]) -> None:
        self.build = build

    def __set_name__(self, record: type, name: str) -> None:
        self.record, self.name = record, name

    def __get__(self, instance: object, owner: type | None = None) -> object:
        record = self.record
        for name, value in self.build(record).items():
            setattr(record, name, value)
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


def _maker(record: type) -> dict[str, object]:
    """A record's maker, ``_make(*fields)``: it takes every field, in order,
    and makes the record as ``record(*fields)`` does, by plain stores on a
    ``_twin`` instance. It writes the fields, stores the record as the
    ``__class__``, and then runs ``__post_init__`` when the record has one.
    A record made so has the same type, ``==``, ``hash``, ``repr`` and
    pickles. defsrl makes the records of its hot paths so, since each call
    of ``record(...)`` writes every field through its slot's setter."""
    names = record.__slots__
    stores = ["self = _Twin()", *(f"self.{name} = {name}" for name in names)]
    stores.append("self.__class__ = _Record")
    namespace = {"_Twin": _twin(record), "_Record": record}
    make = _compiled(record, "_make", names, stores, namespace, "return self")
    return {"_make": staticmethod(make)}


def _seal(cls: type) -> type:
    """Declare ``cls`` an immutable record: the class decorator of every
    defsrl record, which then behaves as a frozen dataclass with ``__slots__``.

    Every annotation of ``cls``'s own body is a field, in order, and a class
    attribute of that name is its default. ``cls`` is made again with those
    fields as its ``__slots__`` and ``__match_args__``, and without the
    defaults as class attributes, as ``dataclass(slots=True)`` makes it.
    This writes the methods once, from the field names, read through one
    ``attrgetter``:

    - ``__init__``, compiled by ``_compiled``: each argument is stored by its
      slot's own setter, a field's default is taken when its argument is
      left out, and ``__post_init__`` runs last when ``cls`` has one;
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

    Three more attributes are ``_Lazy``, so importing a record compiles
    nothing more and imports no ``dataclasses``. The maker ``_make`` (see
    ``_maker``) is one. ``__dataclass_fields__`` and ``__dataclass_params__``,
    which ``dataclasses.fields``, ``replace``, ``asdict``, ``is_dataclass``
    and ``dataclass`` on a subclass read, are built together by
    ``dataclass(slots=True, init=False, repr=False, eq=False)`` on a
    throwaway class with the record's name, module, docstring, annotations
    and defaults. So ``dataclasses`` sees the record as such a dataclass,
    and ``__dataclass_params__`` reads ``frozen=False``: a subclass declared
    ``@dataclass(frozen=True)`` is refused by ``dataclasses`` itself, as a
    frozen dataclass over a non-frozen one.
    """
    namespace = dict(vars(cls))
    names = tuple(namespace.get("__annotations__", ()))
    defaults = {name: namespace.pop(name) for name in names if name in namespace}
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    namespace["__slots__"] = names
    namespace.setdefault("__match_args__", names)
    namespace["__qualname__"] = cls.__qualname__

    def dataclass_view(record: type) -> dict[str, object]:
        from dataclasses import dataclass

        shape = type(record.__name__, (), {
            "__module__": record.__module__,
            "__qualname__": record.__qualname__,
            "__doc__": record.__doc__,
            "__annotations__": record.__annotations__,
            **defaults,
        })
        shape = dataclass(slots=True, init=False, repr=False, eq=False)(shape)
        fields, params = shape.__dataclass_fields__, shape.__dataclass_params__
        return {"__dataclass_fields__": fields, "__dataclass_params__": params}

    namespace["__dataclass_fields__"] = _Lazy(dataclass_view)
    namespace["__dataclass_params__"] = _Lazy(dataclass_view)
    namespace["_make"] = _Lazy(_maker)
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

    init_globals = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    init_globals.update({f"_default_{name}": value for name, value in defaults.items()})
    params = ("self", *(f"{name}=_default_{name}" if name in defaults else name for name in names))
    stores = [f"_set_{name}(self, {name})" for name in names]
    cls.__init__ = _compiled(cls, "__init__", params, stores, init_globals)
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
