"""Controller-log (de)serialization: JSON-lines capture files.

FlowDiff's workflow separates capture from analysis — a log recorded
today is the baseline diffed against next week's capture — so logs must
round-trip through storage. The format is one JSON object per line with a
``type`` tag, append-friendly and greppable, in the spirit of the text
logs the paper's Figure 3 sketches.

The format is spelled out once, in the field table (:data:`_HEAD`,
:data:`_FLOW_FIELDS` and :data:`_MESSAGES`): one row per field per message
type, giving its JSON key, its attribute, its kind, its default when the
key is absent and whether it may be null. :func:`message_to_json`, the
JSON-path decode, the canonical patterns and the key text of :func:`line`
are built from it. The rows are in the order :func:`line` writes the
fields, which is also the message class's field order.

Decode contract (:class:`CaptureDecoder`, which :func:`message_from_json`,
:func:`load_log`, :func:`read_log` and the daemon's file tail all run):

* **Skipped:** lines that are empty or all whitespace, so hand-edited
  captures stay loadable. Whitespace around a record (``\r\n`` line
  ends, indentation) is ignored; keys the decoder does not know are too.
* **Raises** :class:`ValueError`, and nothing else, for a line that is
  not one control message: malformed JSON, text after the record, a JSON
  value that is not an object, an unknown ``type``, an absent key the
  table gives no default, a ``null`` where the table allows none, a
  value that is not of its field's kind — and, where bytes are read
  (:func:`read_log`, the file tail), bytes that are not UTF-8.
  :func:`load_log` prefixes the 1-based line number. The kinds:

  - ``float``: a finite JSON number, integer or not but never a boolean,
    read as a ``float`` (a ``ts`` of ``Infinity`` would wedge the
    daemon's window clock, a ``NaN`` break the log's sort order);
  - ``int``: an exact integer, never a float or a boolean;
  - ``str``: a string; ``bool``: ``true`` or ``false``;
  - an enum: one of its values;
  - a 5-tuple (``flow``, ``match``): an object whose fields are of their
    kinds; a ``match`` field may also be null or absent (a wildcard).

  Modeling sorts dpids and flows, hashes reply and chain ids, compares
  counters and shares matches by value, where ``True == 1`` and
  ``2 == 2.0``: a value of another type would raise ``TypeError`` there,
  or make a result depend on which of two equal values came first. Every
  other key is optional and defaults as the message classes do, which is
  what keeps old captures readable.
* **Canonical lines:** a ``packet_in``, ``packet_out``, ``flow_mod`` or
  ``flow_removed`` line exactly as :func:`line` writes it with ordinary
  values (floats written with a ``.``, exact integers, strings with no
  escape or control character, concrete 5-tuples, ``corr`` absent rather
  than null, an LF or CRLF end) is matched by one compiled pattern per
  type and built from its groups, without the JSON tokenizer. Every other
  line takes the JSON path, which is the contract: it alone says what is
  accepted, what each error reads and which line it names, and the tests
  hold the pattern path to it.
* **Shared:** messages that carry equal 5-tuples get the *same*
  :class:`FlowKey` / :class:`Match` object (both are immutable), and
  equal strings (a switch's ``dpid``) the same ``str``, because a capture
  is many messages over few endpoint pairs and fewer switches; a
  canonical line's 5-tuple is looked up by its text first, parsed on its
  first sight only, into the same by-value tables. The tables that do
  this live as long as their decoder: one :func:`load_log` or
  :func:`read_log` call, one batch of the file tail, one
  :func:`message_from_json` call.
* **Memory:** :func:`read_log` and :func:`load_log` read the file one
  line at a time, so a read holds one line besides the messages it
  returns, never the whole file, its text or a list of its lines. A
  canonical 5-tuple's strings are shared through the decoder's string
  table on the first sight of its text, as the JSON path shares them.
  :func:`dump_log` holds at most :data:`_CHUNK` lines and
  :data:`_MEMO_LIMIT` 5-tuple texts besides the log it writes.
* **Encode:** :func:`dump_log` writes one line per message, byte-identical
  to ``json.dumps(message_to_json(m)) + "\n"``, from a per-type template
  (:func:`line`) rather than a dict per message: finite floats, exact ints
  and strings are formatted as ``json.dumps`` formats them
  (``float.__repr__``, ``int.__repr__``, ``encode_basestring_ascii``,
  each inlined in the template by its field's kind) and every other value
  (NaN/±inf, booleans, ``None``, ...) goes through ``json.dumps`` itself.
  Within one call, the text of a 5-tuple object is rendered once and
  reused by the following lines that carry the same object (the simulator
  shares one ``FlowKey`` and one ``Match`` per flow), from a memo that
  starts over at :data:`_MEMO_LIMIT` entries; lines go out
  :data:`_CHUNK` to a ``write``.
* **Order:** messages enter the :class:`ControllerLog` in file order; the
  log sorts by ``(timestamp, arrival)``, so a time-ordered file is read
  back exactly as written.
"""

from __future__ import annotations

import enum
import json
import re
from operator import attrgetter
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Type,
)

from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import (
    ControlMessage,
    EchoRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowRemovedReason,
    FlowStatsReply,
    PacketIn,
    PacketOut,
    PortStatus,
)

#: Capture-format version. The format itself is versionless on the wire
#: (each line is a self-describing message object — old captures must stay
#: loadable), but the tests pin the table's key set under this constant:
#: changing a serialized key without bumping it fails them.
FORMAT_VERSION = 1

# -- the field table --------------------------------------------------------

_str_json = json.encoder.encode_basestring_ascii

#: What a kind's ``read`` returns for a value that is not of the kind.
_BAD: Any = object()
#: The ``default`` of a field whose key must be present.
_REQUIRED: Any = object()


class _Kind(NamedTuple):
    """How the values of one kind are read, written and matched.

    Attributes:
        name: the kind's name in error texts.
        read: ``(decoder, JSON value)`` -> the attribute's value, or
            :data:`_BAD` when the value is not of the kind.
        write: the attribute's value -> its JSON value.
        text: the regex of a value as :func:`line` writes it with ordinary
            values, without a capture group; inside double quotes when
            ``quoted``.
        code: the expression :func:`line` writes a value with, ``{0}``
            standing for the value.
        members: an enum's values -> its members (empty for other kinds).
    """

    name: str
    read: Callable[[Any, Any], Any]
    write: Callable[[Any], Any]
    text: str
    quoted: bool = False
    code: str = "_scalar({0})"
    members: Dict[Any, Any] = {}


def _same(value: Any) -> Any:
    return value


def _read_float(decoder: Any, value: Any) -> Any:
    if type(value) is float or type(value) is int:
        try:
            value = float(value)
        except OverflowError:  # an int past the float range
            return _BAD
        if value - value == 0.0:  # finite: inf - inf and nan - nan are nan
            return value
    return _BAD


def _read_str(decoder: Any, value: Any) -> Any:
    if type(value) is str:
        return decoder._strings.setdefault(value, value)
    return _BAD


def _exactly(kind: type) -> Callable[[Any, Any], Any]:
    return lambda decoder, value: value if type(value) is kind else _BAD


#: A float written with a ``.``, at most 16 digits before it and at most
#: a two-digit exponent after it, so always finite: how ``float.__repr__``
#: writes every float in [1e-4, 1e16) and most others in [1e-99, 1e100).
_FLOAT = _Kind(
    "float",
    _read_float,
    _same,
    r"-?(?:0|[1-9][0-9]{0,15})\.[0-9]+(?:e[-+][0-9]{2})?",
    code="(_float_repr({0}) if type({0}) is float and {0} - {0} == 0.0 else _scalar({0}))",
)
#: Matched: an exact integer of at most 18 digits.
_INT = _Kind(
    "int",
    _exactly(int),
    _same,
    r"-?(?:0|[1-9][0-9]{0,17})",
    code="(_int_repr({0}) if type({0}) is int else _scalar({0}))",
)
#: Matched: a string with no escape or control character.
_STR = _Kind(
    "str",
    _read_str,
    _same,
    r'[^"\\\x00-\x1f]*',
    quoted=True,
    code="(_str_json({0}) if type({0}) is str else _scalar({0}))",
)
_BOOL = _Kind("bool", _exactly(bool), _same, "true|false")


def _enum(cls: Type[enum.Enum]) -> _Kind:
    """The kind of an enum, written as its members' values. An unknown
    value raises the enum's own ``ValueError``, an unhashable one
    ``TypeError``."""
    members = {member.value: member for member in cls}
    return _Kind(
        cls.__name__,
        lambda decoder, value: members.get(value) or cls(value),
        attrgetter("value"),
        "|".join(map(re.escape, members)),
        quoted=True,
        code="_scalar({0}.value)",
        members=members,
    )


_COMMAND = _enum(FlowModCommand)
_REASON = _enum(FlowRemovedReason)


class _Field(NamedTuple):
    """One row of the table: a field of a message type or a 5-tuple."""

    key: str
    attr: str
    kind: _Kind
    #: The attribute's value when the key is absent.
    default: Any = _REQUIRED
    #: Whether ``null`` is read, as ``None``.
    nullable: bool = False
    #: Written only when not ``None`` (and matched only when present).
    sparse: bool = False


#: The key that names a line's message type.
_TYPE = "type"
#: The fields every message type starts with.
_HEAD = (
    _Field("ts", "timestamp", _FLOAT),
    _Field("dpid", "dpid", _STR),
    _Field("corr", "corr_id", _INT, None, nullable=True, sparse=True),
)
#: The fields of a ``flow``; a ``match`` has the same, each nullable and
#: null when absent (a wildcard).
_FLOW_FIELDS = (
    _Field("src", "src", _STR),
    _Field("dst", "dst", _STR),
    _Field("sport", "src_port", _INT),
    _Field("dport", "dst_port", _INT),
    _Field("proto", "proto", _STR, "tcp"),
)
_MATCH_FIELDS = tuple(field._replace(default=None, nullable=True) for field in _FLOW_FIELDS)


def _pattern(kind: _Kind, group: bool = True) -> str:
    """The regex of a canonical value of ``kind``, its text in a capture
    group when ``group``."""
    text = ("(%s)" if group else "(?:%s)") % kind.text
    return '"%s"' % text if kind.quoted else text


def _write_five_tuple(key: Any) -> Optional[Dict[str, Any]]:
    if key is None:
        return None
    return {field.key: getattr(key, field.attr) for field in _FLOW_FIELDS}


#: Matched: a 5-tuple of five concrete fields.
_KEY = r"\{%s\}" % ", ".join(
    "%s: %s" % (re.escape(_str_json(field.key)), _pattern(field.kind, group=False))
    for field in _FLOW_FIELDS
)
_FIVE_TUPLE_CODE = "('null' if {0} is None else five_tuple({0}))"
_FLOW = _Kind(
    "flow",
    lambda decoder, value: decoder._flow(value),
    _write_five_tuple,
    _KEY,
    code=_FIVE_TUPLE_CODE,
)
_MATCH = _Kind(
    "match",
    lambda decoder, value: decoder._match(value),
    _write_five_tuple,
    _KEY,
    code=_FIVE_TUPLE_CODE,
)

#: Per message type: its class and the fields after :data:`_HEAD`.
_MESSAGES: Dict[str, Tuple[Type[ControlMessage], Tuple[_Field, ...]]] = {
    "packet_in": (
        PacketIn,
        (
            _Field("flow", "flow", _FLOW, nullable=True),
            _Field("in_port", "in_port", _INT, 0),
            _Field("buffer_id", "buffer_id", _INT, 0),
        ),
    ),
    "packet_out": (
        PacketOut,
        (
            _Field("flow", "flow", _FLOW, nullable=True),
            _Field("out_port", "out_port", _INT, 0),
            _Field("buffer_id", "buffer_id", _INT, 0),
        ),
    ),
    "flow_mod": (
        FlowMod,
        (
            _Field("match", "match", _MATCH, nullable=True),
            _Field("out_port", "out_port", _INT, 0),
            _Field("idle", "idle_timeout", _FLOAT, 5.0),
            _Field("hard", "hard_timeout", _FLOAT, 0.0),
            _Field("priority", "priority", _INT, 0),
            _Field("command", "command", _COMMAND, FlowModCommand.ADD),
            _Field("in_reply_to", "in_reply_to", _INT, None, nullable=True),
        ),
    ),
    "flow_removed": (
        FlowRemoved,
        (
            _Field("match", "match", _MATCH, nullable=True),
            _Field("duration", "duration", _FLOAT, 0.0),
            _Field("bytes", "byte_count", _INT, 0),
            _Field("packets", "packet_count", _INT, 0),
            _Field("reason", "reason", _REASON, FlowRemovedReason.IDLE_TIMEOUT),
        ),
    ),
    "port_status": (
        PortStatus,
        (
            _Field("port", "port", _INT, 0),
            _Field("live", "live", _BOOL, True),
        ),
    ),
    "flow_stats": (
        FlowStatsReply,
        (
            _Field("match", "match", _MATCH, nullable=True),
            _Field("bytes", "byte_count", _INT, 0),
            _Field("packets", "packet_count", _INT, 0),
            _Field("duration", "duration", _FLOAT, 0.0),
        ),
    ),
    "echo": (EchoRequest, (_Field("replied", "replied", _BOOL, True),)),
}
#: Per message class: its type name and every field, head first.
_NAMES = {cls: (name, _HEAD + body) for name, (cls, body) in _MESSAGES.items()}

# -- encode ------------------------------------------------------------------


def message_to_json(message: ControlMessage) -> Dict[str, Any]:
    """Encode one control message as a JSON-able dict.

    Raises:
        TypeError: for unknown message classes.
    """
    spec = _NAMES.get(type(message))
    if spec is None:
        raise TypeError(f"cannot serialize {type(message).__name__}")
    name, fields = spec
    out: Dict[str, Any] = {_TYPE: name}
    for field in fields:
        value = getattr(message, field.attr)
        if value is not None or not field.sparse:
            out[field.key] = field.kind.write(value)
    return out


_dumps = json.dumps
_float_repr = float.__repr__
_int_repr = int.__repr__


def _scalar(value: Any) -> str:
    """One JSON scalar exactly as ``json.dumps`` writes it."""
    kind = type(value)
    if kind is str:
        return _str_json(value)
    if kind is float:
        if value - value == 0.0:  # finite: inf - inf and nan - nan are nan
            return _float_repr(value)
    elif kind is int:
        return _int_repr(value)
    return _dumps(value)


def _lambda_source(arg: str, template: str, values: Iterable[str]) -> str:
    """The source of ``lambda arg: template % (values)``.

    CPython builds a ``%`` on a literal template of ``%s`` codes the way
    it builds an f-string, but parses a template held in a variable on
    every call: that made :func:`line` 20 % slower on a lab capture. So
    the writers are compiled from source, with the template that the table
    gives written into it as a literal.
    """
    return "lambda %s: %r %% (%s,)" % (arg, template, ", ".join(values))


def _key_text(field: _Field) -> str:
    return "%s: " % _str_json(field.key)


def _line_source(name: str, fields: Tuple[_Field, ...]) -> str:
    """The source of :func:`line` for one message type: each field as its
    kind's ``code`` writes it, a sparse field only when it is not ``None``,
    and a 5-tuple by the ``five_tuple`` the writer is handed."""
    template = "{%s: %s" % (_str_json(_TYPE), _str_json(name))
    values = []
    for field in fields:
        text = ", " + _key_text(field)
        value = field.kind.code.format("m." + field.attr)
        if field.sparse:
            template += "%s"
            value = "('' if m.%s is None else %r + %s)" % (field.attr, text, value)
        else:
            template += text + "%s"
        values.append(value)
    return _lambda_source("m, five_tuple", template + "}\n", values)


#: A ``FlowKey`` or ``Match`` (never ``None``) as ``message_to_json``
#: encodes it.
_KEY_SOURCE = _lambda_source(
    "key",
    "{%s}" % ", ".join(_key_text(field) + "%s" for field in _FLOW_FIELDS),
    (field.kind.code.format("key." + field.attr) for field in _FLOW_FIELDS),
)
#: What the writers' value expressions (each kind's ``code``) call.
_WRITING: Dict[str, Any] = {
    "_scalar": _scalar,
    "_float_repr": _float_repr,
    "_int_repr": _int_repr,
    "_str_json": _str_json,
}
# Compiled together: seven writers compiled one by one at import raised the
# benchmark's stream workloads' peak RSS by 0.9 MiB; compiled at once, not.
_five_tuple, *_writers = eval(
    "(%s,)"
    % ", ".join([_KEY_SOURCE, *(_line_source(name, body) for name, body in _NAMES.values())]),
    _WRITING,
)
#: Per message class: its :func:`line`, given the message and what writes
#: its 5-tuple.
_LINES: Dict[Type[ControlMessage], Callable[[Any, Callable[[Any], str]], str]] = dict(
    zip(_NAMES, _writers)
)


def _unwritable(message: Any) -> Callable[..., str]:
    raise TypeError(f"cannot serialize {type(message).__name__}")


def line(message: ControlMessage) -> str:
    """One capture line: ``json.dumps(message_to_json(message)) + "\\n"``.

    Raises:
        TypeError: for unknown message classes.
    """
    return (_LINES.get(type(message)) or _unwritable(message))(message, _five_tuple)


# -- decode ------------------------------------------------------------------

#: One JSON value from the start of a string -> ``(value, end)``, without
#: the two whitespace matches the module-level ``loads`` makes per call.
_raw_decode = json.JSONDecoder().raw_decode


class _Refused(Exception):
    """``args``: the field whose value is not of its kind, and the value."""


_FiveTuple = Tuple[Any, ...]


class CaptureDecoder:
    """Turn capture lines into messages, sharing equal 5-tuples and strings.

    See the module docstring for the contract. ``len()`` is the number of
    distinct 5-tuples currently shared, as flows or matches; :meth:`forget`
    drops them and the shared strings, which a reader of an unbounded stream
    must do now and then (the file tail does at every batch it hands off).
    """

    __slots__ = ("_flows", "_matches", "_strings", "_texts")

    def __init__(self) -> None:
        #: Keyed by value: a ``FlowKey`` is its own key (it equals the plain
        #: 5-tuple), a ``Match`` is keyed by its fields.
        self._flows: Dict[_FiveTuple, FlowKey] = {}
        self._matches: Dict[_FiveTuple, Match] = {}
        self._strings: Dict[str, str] = {}
        #: The text of a canonical ``flow`` or ``match`` -> its ``FlowKey``.
        self._texts: Dict[str, FlowKey] = {}

    def __len__(self) -> int:
        # A canonical match's 5-tuple is in both tables: count it once.
        return len(self._flows.keys() | self._matches.keys())

    def forget(self) -> None:
        """Drop the shared 5-tuples and strings (messages already built
        keep theirs)."""
        self._flows.clear()
        self._matches.clear()
        self._strings.clear()
        self._texts.clear()

    def line(self, line: str) -> Optional[ControlMessage]:
        """Decode one capture line; ``None`` for a blank one.

        A canonical line is matched by its type's pattern and built from
        the groups; every other line takes the JSON path, the contract.

        Raises:
            ValueError: the line is not one control message.
        """
        canonical = _CANONICAL.get(line[10:18])
        if canonical is not None:
            found = canonical[0](line)
            if found is not None:
                return canonical[1](self, *found.groups())
        try:
            data, end = _raw_decode(line)
        except json.JSONDecodeError as exc:
            # Blank and indented lines end up here too: no value at column 0.
            stripped = line.strip()
            if not stripped:
                return None
            if stripped != line:
                return self.line(stripped)
            raise ValueError(f"invalid JSON ({exc.msg}, column {exc.pos + 1})") from None
        except RecursionError:
            raise ValueError("invalid JSON (nested too deeply)") from None
        rest = line[end:]
        if rest and rest.strip():
            raise ValueError(f"invalid JSON (extra data, column {end + 1})")
        return self.message(data)

    def message(self, data: Any) -> ControlMessage:
        """Build the message one decoded JSON object describes: each
        field of its type read by its kind, and the class built
        positionally, in table order.

        Raises:
            ValueError: ``data`` does not describe a control message.
        """
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        name = data.get(_TYPE)
        spec = _MESSAGES.get(name) if isinstance(name, str) else None
        if spec is None:
            raise ValueError(f"unknown control message type {name!r}")
        cls, body = spec
        try:
            return cls(*self._read(_HEAD + body, data))
        except KeyError as exc:
            raise ValueError(f"{name} message without {exc.args[0]!r}") from None
        except _Refused as exc:
            field, value = exc.args
            raise ValueError(f"{name} message with a bad {field.key!r} ({value!r})") from None
        except TypeError as exc:
            # A 5-tuple field of the wrong kind, or an unhashable enum value.
            raise ValueError(f"{name} message with a bad field ({exc})") from None

    def _read(self, fields: Tuple[_Field, ...], data: Dict[str, Any]) -> List[Any]:
        """The value of each field in ``data``, read by its kind.

        Raises:
            KeyError: a field without a default is absent.
            _Refused: a value is not of its field's kind.
        """
        values: List[Any] = []
        for field in fields:
            if field.key not in data:
                if field.default is _REQUIRED:
                    raise KeyError(field.key)
                values.append(field.default)
                continue
            value = data[field.key]
            if value is None and field.nullable:
                values.append(None)
                continue
            read = field.kind.read(self, value)
            if read is _BAD:
                raise _Refused(field, value)
            values.append(read)
        return values

    def _read_five_tuple(self, kind: _Kind, fields: Tuple[_Field, ...], data: Any) -> _FiveTuple:
        if not isinstance(data, dict):
            raise ValueError(f"{kind.name} is neither an object nor null: {data!r}")
        try:
            return tuple(self._read(fields, data))
        except _Refused as exc:
            field, value = exc.args
            name = field.kind.name
            what = f"neither {name} nor null" if field.nullable else f"not {name}"
            # Named with its message type by :meth:`message`.
            raise TypeError(f"{kind.name} {field.key!r} is {what}: {value!r}") from None

    def _flow(self, data: Any) -> FlowKey:
        key = self._read_five_tuple(_FLOW, _FLOW_FIELDS, data)
        return self._flows.get(key) or self._new_flow(key)

    def _new_flow(self, key: _FiveTuple) -> FlowKey:
        flow = FlowKey(*key)
        self._flows[flow] = flow
        return flow

    def _match(self, data: Any) -> Match:
        key = self._read_five_tuple(_MATCH, _MATCH_FIELDS, data)
        return self._matches.get(key) or self._new_match(key)

    def _new_match(self, key: _FiveTuple) -> Match:
        match = self._matches[key] = Match(*key)
        return match

    # -- canonical lines: one builder per pattern, one parameter per field,
    # -- named by its attribute, in table order

    def _text(self, text: str) -> FlowKey:
        """The key of a canonical 5-tuple's text, parsed on its first
        sight. Its pattern has typed every field, in table order. A new
        5-tuple's strings are shared through ``_strings``, as the JSON path
        shares them: many flows run between the same few hosts."""
        key = tuple(_raw_decode(text)[0].values())
        flow = self._flows.get(key)
        if flow is None:
            src, dst, src_port, dst_port, proto = key
            strings = self._strings
            flow = self._new_flow(
                (
                    strings.setdefault(src, src),
                    strings.setdefault(dst, dst),
                    src_port,
                    dst_port,
                    strings.setdefault(proto, proto),
                )
            )
        self._texts[text] = flow
        return flow

    def _packet_in(
        self,
        timestamp: str,
        dpid: str,
        corr_id: Optional[str],
        flow: str,
        in_port: str,
        buffer_id: str,
    ) -> PacketIn:
        return PacketIn(
            float(timestamp),
            self._strings.setdefault(dpid, dpid),
            corr_id and int(corr_id),
            self._texts.get(flow) or self._text(flow),
            int(in_port),
            int(buffer_id),
        )

    def _packet_out(
        self,
        timestamp: str,
        dpid: str,
        corr_id: Optional[str],
        flow: str,
        out_port: str,
        buffer_id: str,
    ) -> PacketOut:
        return PacketOut(
            float(timestamp),
            self._strings.setdefault(dpid, dpid),
            corr_id and int(corr_id),
            self._texts.get(flow) or self._text(flow),
            int(out_port),
            int(buffer_id),
        )

    def _flow_mod(
        self,
        timestamp: str,
        dpid: str,
        corr_id: Optional[str],
        match: str,
        out_port: str,
        idle_timeout: str,
        hard_timeout: str,
        priority: str,
        command: str,
        in_reply_to: Optional[str],
    ) -> FlowMod:
        key = self._texts.get(match) or self._text(match)
        return FlowMod(
            float(timestamp),
            self._strings.setdefault(dpid, dpid),
            corr_id and int(corr_id),
            self._matches.get(key) or self._new_match(key),
            int(out_port),
            float(idle_timeout),
            float(hard_timeout),
            int(priority),
            _COMMANDS[command],
            in_reply_to and int(in_reply_to),
        )

    def _flow_removed(
        self,
        timestamp: str,
        dpid: str,
        corr_id: Optional[str],
        match: str,
        duration: str,
        byte_count: str,
        packet_count: str,
        reason: str,
    ) -> FlowRemoved:
        key = self._texts.get(match) or self._text(match)
        return FlowRemoved(
            float(timestamp),
            self._strings.setdefault(dpid, dpid),
            corr_id and int(corr_id),
            self._matches.get(key) or self._new_match(key),
            float(duration),
            int(byte_count),
            int(packet_count),
            _REASONS[reason],
        )


_COMMANDS = _COMMAND.members
_REASONS = _REASON.members
_Fullmatch = Callable[[str], Optional["re.Match[str]"]]


def _canonical(name: str) -> _Fullmatch:
    """The ``fullmatch`` of a canonical line of type ``name``: one group
    per field, in table order, a sparse field's only when present. A null
    5-tuple is not canonical: its builder looks the 5-tuple's text up."""
    parts = [r"\{%s: %s" % (re.escape(_str_json(_TYPE)), re.escape(_str_json(name)))]
    for field in _HEAD + _MESSAGES[name][1]:
        value = _pattern(field.kind)
        if field.nullable and not field.sparse and field.kind not in (_FLOW, _MATCH):
            value = "(?:%s|null)" % value
        text = ", %s: %s" % (re.escape(_str_json(field.key)), value)
        parts.append("(?:%s)?" % text if field.sparse else text)
    parts.append(r"\}\r?\n?")
    return re.compile("".join(parts)).fullmatch


#: The first eight letters of a type name (at offset 10 of a canonical
#: line, after ``{"type": "``) -> that type's pattern and builder.
_CANONICAL: Dict[str, Tuple[_Fullmatch, Callable[..., ControlMessage]]] = {
    name[:8]: (_canonical(name), builder)
    for name, builder in (
        ("packet_in", CaptureDecoder._packet_in),
        ("packet_out", CaptureDecoder._packet_out),
        ("flow_mod", CaptureDecoder._flow_mod),
        ("flow_removed", CaptureDecoder._flow_removed),
    )
}


def message_from_json(data: Dict[str, Any]) -> ControlMessage:
    """Decode one control message from its JSON object.

    Raises:
        ValueError: ``data`` does not describe a control message (see the
            module docstring).
    """
    return CaptureDecoder().message(data)


#: Lines :func:`dump_log` joins into one ``write``.
_CHUNK = 256
#: 5-tuple texts :func:`dump_log` keeps at most; past it, the memo starts
#: over. An entry is about 0.25 KiB: at 4,096 a tree simulation peaked
#: 0.9 MiB higher in RSS than with no memo, at 1,024 0.3 MiB.
_MEMO_LIMIT = 1024


def dump_log(log: ControllerLog, fh: IO[str]) -> int:
    """Write a log as JSON lines; returns the number of messages written.

    Each line is :func:`line`'s. The text of a 5-tuple *object* is
    rendered on the first line that carries it and reused by later lines
    that carry the same object (the simulator shares one ``FlowKey`` and
    one ``Match`` per flow, the decoder one per distinct 5-tuple), from a
    memo keyed by ``id`` that starts over at :data:`_MEMO_LIMIT` entries;
    an entry holds its object, so no id is reused while it is in the memo.
    Lines go out :data:`_CHUNK` at a time.

    Raises:
        TypeError: for unknown message classes.
    """
    texts: Dict[int, Tuple[Any, str]] = {}

    def five_tuple(key: Any) -> str:
        hit = texts.get(id(key))
        if hit is None:
            if len(texts) >= _MEMO_LIMIT:
                texts.clear()
            hit = texts[id(key)] = (key, _five_tuple(key))
        return hit[1]

    writers, chunk = _LINES, _CHUNK
    lines: List[str] = []
    append = lines.append
    for message in log:
        append((writers.get(type(message)) or _unwritable(message))(message, five_tuple))
        if len(lines) == chunk:
            fh.write("".join(lines))
            lines.clear()
    if lines:
        fh.write("".join(lines))
    return len(log)


def load_log(fh: IO[str]) -> ControllerLog:
    """Read a JSON-lines capture back into a :class:`ControllerLog`.

    Blank lines are skipped so hand-edited captures stay loadable.

    Raises:
        ValueError: ``"line N: ..."`` for the first line that is not one
            control message (see the module docstring).
    """
    return _decode_lines(fh)


def save_log(log: ControllerLog, path: str) -> int:
    """Write a log to ``path``; returns the message count."""
    with open(path, "w", encoding="utf-8") as fh:
        return dump_log(log, fh)


def read_log(path: str) -> ControllerLog:
    """Load a capture file from ``path``.

    Raises:
        ValueError: ``"line N: ..."`` as :func:`load_log` does; bytes that
            are not UTF-8 are reported first, by the line they sit on.
    """
    with open(path, "rb") as fh:
        lines = _utf8_lines(fh)
        try:
            return _decode_lines(lines)
        except ValueError:
            for _ in lines:  # a non-UTF-8 byte further on wins
                pass
            raise


def _decode_lines(lines: Iterable[str]) -> ControllerLog:
    """The decode loop of :func:`load_log` and :func:`read_log`."""
    messages: List[ControlMessage] = []
    decode = CaptureDecoder().line
    for line_no, line in enumerate(lines, 1):
        try:
            message = decode(line)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from exc
        if message is not None:
            messages.append(message)
    # Sorted in place, stably: file order among equal timestamps, and no
    # second list of the whole capture.
    messages.sort(key=attrgetter("timestamp"))
    return ControllerLog._from_sorted(messages)


def _utf8_lines(fh: IO[bytes]) -> Iterator[str]:
    """The lines of a binary file, decoded.

    Raises:
        ValueError: ``"line N: not UTF-8 (...)"``, with the bad byte's
            offset in the file.
    """
    for line_no, raw in enumerate(fh, 1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            byte = fh.tell() - len(raw) + exc.start
            raise ValueError(
                f"line {line_no}: not UTF-8 ({exc.reason}, byte {byte})"
            ) from exc
