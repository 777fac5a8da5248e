"""The compiled ``__init__`` of :func:`repro.openflow.frozen.slot_init`.

Every message class, ``TableMiss`` and ``Match`` must build exactly what a
plain ``@dataclass(frozen=True, slots=True)`` with the same fields builds,
with the same signature, and must not be left on the generated
``__init__``.

The module needs no pytest, so the same checks run under interpreters
that lack it::

    PYTHONPATH=src python3.13 tests/test_slot_init.py
"""

import copy
import dataclasses
import inspect
import pickle

from repro.openflow import messages
from repro.openflow.frozen import slot_init
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import ControlMessage, FlowModCommand, FlowRemovedReason
from repro.openflow.switch import TableMiss

CLASSES = (
    ControlMessage,
    messages.PacketIn,
    messages.PacketOut,
    messages.FlowMod,
    messages.FlowRemoved,
    messages.PortStatus,
    messages.FlowStatsReply,
    messages.EchoRequest,
    TableMiss,
    Match,
)

#: A value per annotation, unequal to every default, so a keyword that
#: landed in the wrong slot shows.
SAMPLES = {
    "float": 2.5,
    "str": "sw7",
    "int": 9,
    "bool": False,
    "Optional[int]": 41,
    "Optional[str]": "h3",
    "FlowKey": FlowKey("h1", "h2", 40000, 80),
    "Match": Match("h1", "h2", 40000, 80, "udp"),
    "FlowModCommand": FlowModCommand.DELETE,
    "FlowRemovedReason": FlowRemovedReason.HARD_TIMEOUT,
}


def twin(cls):
    """A plain frozen slotted dataclass with ``cls``'s fields."""
    spec = [
        (f.name, f.type)
        if f.default is dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, slots=True)


def typed(obj):
    return [(f.name, getattr(obj, f.name), type(getattr(obj, f.name))) for f in dataclasses.fields(obj)]


def raises(exc, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except exc as caught:
        return caught
    raise AssertionError(f"{fn} did not raise {exc.__name__}")


def test_every_message_class_is_listed():
    found = {
        value
        for value in vars(messages).values()
        if isinstance(value, type) and issubclass(value, ControlMessage)
    }
    assert found <= set(CLASSES), found - set(CLASSES)


def test_no_class_keeps_the_generated_init():
    for cls in CLASSES:
        # The generated frozen __init__ stores through object.__setattr__.
        assert "__setattr__" in twin(cls).__init__.__code__.co_names
        assert "__setattr__" not in cls.__init__.__code__.co_names, cls
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        assert cls.__init__.__module__ == cls.__module__


def test_signature_equals_the_dataclass_one():
    for cls in CLASSES:
        assert inspect.signature(cls) == inspect.signature(twin(cls)), cls
        assert inspect.signature(cls.__init__) == inspect.signature(twin(cls).__init__), cls


def test_positional_keyword_and_default_construction():
    for cls in CLASSES:
        plain = twin(cls)
        fields = dataclasses.fields(cls)
        values = [SAMPLES[f.type] for f in fields]
        names = [f.name for f in fields]
        required = [v for f, v in zip(fields, values) if f.default is dataclasses.MISSING]
        built = [
            (cls(*values), plain(*values)),
            (cls(**dict(zip(names, values))), plain(**dict(zip(names, values)))),
            (cls(*required), plain(*required)),
        ]
        for got, want in built:
            assert typed(got) == typed(want), cls
            assert repr(got) == repr(want)
        assert built[0][0] == built[1][0] and hash(built[0][0]) == hash(built[1][0])
        for args in ((), (*values, 0)):
            if args or required:
                want_error = str(raises(TypeError, plain, *args))
                assert str(raises(TypeError, cls, *args)) == want_error


def test_assignment_raises_frozen_instance_error():
    for cls in CLASSES:
        obj = cls(*(SAMPLES[f.type] for f in dataclasses.fields(cls)))
        for f in dataclasses.fields(cls):
            raises(dataclasses.FrozenInstanceError, setattr, obj, f.name, None)
            raises(dataclasses.FrozenInstanceError, delattr, obj, f.name)
        assert not hasattr(obj, "__dict__")


def test_replace_copy_and_pickle_round_trip():
    for cls in CLASSES:
        fields = dataclasses.fields(cls)
        obj = cls(*(SAMPLES[f.type] for f in fields))
        for same in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(same) is cls and typed(same) == typed(obj)
        last = fields[-1]
        changed = dataclasses.replace(obj, **{last.name: None})
        assert getattr(changed, last.name) is None
        assert typed(dataclasses.replace(changed, **{last.name: getattr(obj, last.name)})) == typed(obj)


def test_the_helper_refuses_what_it_would_not_reproduce():
    refused = [
        dataclasses.make_dataclass(
            "Factory", [("x", "list", dataclasses.field(default_factory=list))], frozen=True, slots=True
        ),
        dataclasses.make_dataclass(
            "NoInit", [("x", "int", dataclasses.field(default=0, init=False))], frozen=True, slots=True
        ),
        dataclasses.make_dataclass(
            "KwOnly", [("x", "int", dataclasses.field(kw_only=True))], frozen=True, slots=True
        ),
        dataclasses.make_dataclass("Thawed", [("x", "int")], slots=True),
        dataclasses.make_dataclass("Unslotted", [("x", "int")], frozen=True),
        dataclasses.make_dataclass(
            "PostInit", [("x", "int")], frozen=True, slots=True, namespace={"__post_init__": lambda self: None}
        ),
    ]
    for cls in refused:
        generated = cls.__init__
        raises(TypeError, slot_init, cls)
        assert cls.__init__ is generated


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} passed")
