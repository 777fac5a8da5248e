"""Frozen slotted records whose ``__init__`` stores through their slots.

A frozen dataclass's generated ``__init__`` sets each field with
``object.__setattr__(self, name, value)``, because the class's own
``__setattr__`` raises: a global lookup, an attribute lookup and a call
into the generic attribute machinery, once per field. A slotted class
already has a member descriptor per field, and that descriptor's
``__set__`` stores straight into the slot without consulting
``__setattr__``. The simulator builds a ``PacketIn``, a ``FlowMod`` and a
``PacketOut`` per table miss and the decoder one message per capture line,
so :func:`slot_init` compiles, once per class, an ``__init__`` that calls
those descriptors: a ``FlowMod`` costs about half of what the generated
one did.

Everything else stays the dataclass's own: fields, defaults, ``==``,
``hash``, ``repr``, ``dataclasses.replace``, pickling and the
``FrozenInstanceError`` an assignment raises. The compiled ``__init__``
has the generated one's signature, defaults and annotations.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Sequence, Type, TypeVar

T = TypeVar("T")


def _init_source(names: Sequence[str], defaults: Dict[str, Any]) -> str:
    """The source of a factory taking each field's setter (``_s_<name>``)
    and default (``_d_<name>``) and returning the ``__init__``."""
    params = ", ".join(f"{n}=_d_{n}" if n in defaults else n for n in names)
    body = "".join(f"\n        _s_{n}(self, {n})" for n in names) or "\n        pass"
    free = ", ".join([*(f"_s_{n}" for n in names), *(f"_d_{n}" for n in defaults)])
    return f"def factory({free}):\n    def __init__(self, {params}):{body}\n    return __init__"


def slot_init(cls: Type[T]) -> Type[T]:
    """Give a ``@dataclass(frozen=True, slots=True)`` class an ``__init__``
    compiled from :func:`dataclasses.fields` that stores each argument
    through its slot's member descriptor. Apply it above the dataclass
    decorator.

    Raises:
        TypeError: the class is not a frozen slotted dataclass, defines
            ``__post_init__``, or has a field the compiled ``__init__``
            would not reproduce (``default_factory``, ``init=False``,
            ``kw_only``).
    """
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen or "__slots__" not in cls.__dict__:
        raise TypeError(f"{cls.__name__} is not a frozen slotted dataclass")
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} defines __post_init__")
    fields = dataclasses.fields(cls)
    for f in fields:
        if f.default_factory is not dataclasses.MISSING or not f.init or f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name}: only plain fields, with or without a default")
    names = [f.name for f in fields]
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    namespace: Dict[str, Any] = {"__name__": cls.__module__}
    exec(_init_source(names, defaults), namespace)
    init = namespace["factory"](
        *(getattr(cls, n).__set__ for n in names), *defaults.values()
    )
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
    cls.__init__ = init  # type: ignore[misc]
    return cls
