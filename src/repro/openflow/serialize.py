"""Controller-log (de)serialization: JSON-lines capture files.

FlowDiff's workflow separates capture from analysis — a log recorded
today is the baseline diffed against next week's capture — so logs must
round-trip through storage. The format is one JSON object per line with a
``type`` tag, append-friendly and greppable, in the spirit of the text
logs the paper's Figure 3 sketches.

Decode contract (:class:`CaptureDecoder`, which :func:`message_from_json`,
:func:`load_log`, :func:`read_log` and the daemon's file tail all run):

* **Skipped:** lines that are empty or all whitespace, so hand-edited
  captures stay loadable. Whitespace around a record (``\r\n`` line
  ends, indentation) is ignored; keys the decoder does not know are too.
* **Raises** :class:`ValueError`, and nothing else, for a line that is
  not one control message: malformed JSON, text after the record, a JSON
  value that is not an object, a ``flow``/``match`` that is neither an
  object nor ``null``, a missing ``ts``/``dpid``/``flow``/``match`` (or
  ``src``/``dst``/``sport``/``dport`` inside ``flow``), a ``ts`` that is
  not a finite JSON number (``Infinity``, ``NaN``, a string, ``null``, a
  boolean: one would wedge the daemon's window clock or break the log's
  sort order), a ``dpid`` that is not a string, a ``buffer_id`` /
  ``in_reply_to`` / ``corr`` that is an array or object, a ``flow``
  ``src``/``dst``/``proto`` that is not a string or ``sport``/``dport``
  that is not an exact integer, a ``match`` field of any other type than
  its ``flow`` counterpart's or ``null`` (a wildcard; and since matches
  are shared by value, a ``true`` port would otherwise decode as an
  earlier line's ``1``), a ``flow_removed``
  ``duration``/``bytes``/``packets`` that is not a number (modeling sorts
  dpids and flows, hashes reply and chain ids and compares counters, so
  each would raise ``TypeError`` there), an unknown
  ``type``, an unknown ``command``/``reason`` — and, where bytes are read
  (:func:`read_log`, the file tail), bytes that are not UTF-8.
  :func:`load_log` prefixes the 1-based line number. Every other key is
  optional and defaults as the message classes do, which is what keeps
  old captures readable.
* **Canonical lines:** a ``packet_in``, ``packet_out``, ``flow_mod`` or
  ``flow_removed`` line exactly as :func:`line` writes it with ordinary
  values (floats written with a ``.``, exact integers, strings with no
  escape or control character, concrete 5-tuples, ``corr`` an integer or
  absent, ``in_reply_to`` an integer or ``null``, an LF or CRLF end) is
  matched by one compiled pattern per type and built from its groups,
  without the JSON tokenizer. Every other line takes the JSON path, which
  is the contract: it alone says what is accepted, what each error reads
  and which line it names, and the tests hold the pattern path to it.
* **Shared:** messages that carry equal 5-tuples get the *same*
  :class:`FlowKey` / :class:`Match` object (both are immutable), and
  messages from one switch the same ``dpid`` string, because a capture is
  many messages over few endpoint pairs and fewer switches; a canonical
  line's 5-tuple is looked up by its text first, parsed on its first
  sight only, into the same by-value tables. The tables that do this live
  as long as their decoder: one :func:`load_log` or :func:`read_log`
  call, one batch of the file tail, one :func:`message_from_json` call.
* **Memory:** :func:`read_log` and :func:`load_log` read the file one
  line at a time, so a read holds one line besides the messages it
  returns, never the whole file, its text or a list of its lines.
* **Encode:** :func:`dump_log` writes one line per message, byte-identical
  to ``json.dumps(message_to_json(m)) + "\n"``, from a per-type template
  (:func:`line`) rather than a dict per message: finite floats, exact ints
  and strings are formatted as ``json.dumps`` formats them
  (``float.__repr__``, ``int.__repr__``, ``encode_basestring_ascii``) and
  every other value (NaN/±inf, booleans, ``None``, ...) goes through
  ``json.dumps`` itself.
* **Order:** messages enter the :class:`ControllerLog` in file order; the
  log sorts by ``(timestamp, arrival)``, so a time-ordered file is read
  back exactly as written.
"""

from __future__ import annotations

import json
import re
from operator import attrgetter
from typing import IO, Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Type

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
#: loadable), but the schema manifest checked by the ``schema-drift`` lint
#: rule of :mod:`repro.qa` is keyed by this constant: changing any
#: serialized field of :func:`message_to_json` without bumping it fails
#: ``repro lint``.
FORMAT_VERSION = 1

_TYPES: Dict[str, Type[ControlMessage]] = {
    "packet_in": PacketIn,
    "packet_out": PacketOut,
    "flow_mod": FlowMod,
    "flow_removed": FlowRemoved,
    "port_status": PortStatus,
    "flow_stats": FlowStatsReply,
    "echo": EchoRequest,
}
_NAMES = {cls: name for name, cls in _TYPES.items()}


def _flow_to_json(flow: Optional[FlowKey]) -> Optional[Dict[str, Any]]:
    if flow is None:
        return None
    return {
        "src": flow.src,
        "dst": flow.dst,
        "sport": flow.src_port,
        "dport": flow.dst_port,
        "proto": flow.proto,
    }


def _match_to_json(match: Optional[Match]) -> Optional[Dict[str, Any]]:
    if match is None:
        return None
    return {
        "src": match.src,
        "dst": match.dst,
        "sport": match.src_port,
        "dport": match.dst_port,
        "proto": match.proto,
    }


def message_to_json(message: ControlMessage) -> Dict[str, Any]:
    """Encode one control message as a JSON-able dict.

    Raises:
        TypeError: for unknown message classes.
    """
    name = _NAMES.get(type(message))
    if name is None:
        raise TypeError(f"cannot serialize {type(message).__name__}")
    out: Dict[str, Any] = {
        "type": name,
        "ts": message.timestamp,
        "dpid": message.dpid,
    }
    if message.corr_id is not None:
        out["corr"] = message.corr_id
    if isinstance(message, PacketIn):
        out.update(
            flow=_flow_to_json(message.flow),
            in_port=message.in_port,
            buffer_id=message.buffer_id,
        )
    elif isinstance(message, PacketOut):
        out.update(
            flow=_flow_to_json(message.flow),
            out_port=message.out_port,
            buffer_id=message.buffer_id,
        )
    elif isinstance(message, FlowMod):
        out.update(
            match=_match_to_json(message.match),
            out_port=message.out_port,
            idle=message.idle_timeout,
            hard=message.hard_timeout,
            priority=message.priority,
            command=message.command.value,
            in_reply_to=message.in_reply_to,
        )
    elif isinstance(message, FlowRemoved):
        out.update(
            match=_match_to_json(message.match),
            duration=message.duration,
            bytes=message.byte_count,
            packets=message.packet_count,
            reason=message.reason.value,
        )
    elif isinstance(message, PortStatus):
        out.update(port=message.port, live=message.live)
    elif isinstance(message, FlowStatsReply):
        out.update(
            match=_match_to_json(message.match),
            bytes=message.byte_count,
            packets=message.packet_count,
            duration=message.duration,
        )
    elif isinstance(message, EchoRequest):
        out.update(replied=message.replied)
    return out


_dumps = json.dumps
_float_repr = float.__repr__
_int_repr = int.__repr__
_str_json = json.encoder.encode_basestring_ascii


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


def _five_tuple(key: Any) -> str:
    """A ``FlowKey`` or ``Match`` as :func:`_flow_to_json` /
    :func:`_match_to_json` encode it."""
    if key is None:
        return "null"
    return '{"src": %s, "dst": %s, "sport": %s, "dport": %s, "proto": %s}' % (
        _scalar(key.src),
        _scalar(key.dst),
        _scalar(key.src_port),
        _scalar(key.dst_port),
        _scalar(key.proto),
    )


#: Per message type: the fields after ``type``/``ts``/``dpid``/``corr``,
#: in :func:`message_to_json`'s order.
_BODIES: Dict[Type[ControlMessage], Callable[[Any], str]] = {
    PacketIn: lambda m: (
        ', "flow": %s, "in_port": %s, "buffer_id": %s}\n'
        % (_five_tuple(m.flow), _scalar(m.in_port), _scalar(m.buffer_id))
    ),
    PacketOut: lambda m: (
        ', "flow": %s, "out_port": %s, "buffer_id": %s}\n'
        % (_five_tuple(m.flow), _scalar(m.out_port), _scalar(m.buffer_id))
    ),
    FlowMod: lambda m: (
        ', "match": %s, "out_port": %s, "idle": %s, "hard": %s, "priority": %s,'
        ' "command": %s, "in_reply_to": %s}\n'
        % (
            _five_tuple(m.match),
            _scalar(m.out_port),
            _scalar(m.idle_timeout),
            _scalar(m.hard_timeout),
            _scalar(m.priority),
            _scalar(m.command.value),
            _scalar(m.in_reply_to),
        )
    ),
    FlowRemoved: lambda m: (
        ', "match": %s, "duration": %s, "bytes": %s, "packets": %s, "reason": %s}\n'
        % (
            _five_tuple(m.match),
            _scalar(m.duration),
            _scalar(m.byte_count),
            _scalar(m.packet_count),
            _scalar(m.reason.value),
        )
    ),
    PortStatus: lambda m: (
        ', "port": %s, "live": %s}\n' % (_scalar(m.port), _scalar(m.live))
    ),
    FlowStatsReply: lambda m: (
        ', "match": %s, "bytes": %s, "packets": %s, "duration": %s}\n'
        % (
            _five_tuple(m.match),
            _scalar(m.byte_count),
            _scalar(m.packet_count),
            _scalar(m.duration),
        )
    ),
    EchoRequest: lambda m: ', "replied": %s}\n' % _scalar(m.replied),
}
_HEADS = {cls: '{"type": %s, "ts": ' % _str_json(name) for cls, name in _NAMES.items()}


def line(message: ControlMessage) -> str:
    """One capture line: ``json.dumps(message_to_json(message)) + "\\n"``.

    Raises:
        TypeError: for unknown message classes.
    """
    cls = type(message)
    body = _BODIES.get(cls)
    if body is None:
        raise TypeError(f"cannot serialize {cls.__name__}")
    corr = message.corr_id
    return '%s%s, "dpid": %s%s%s' % (
        _HEADS[cls],
        _scalar(message.timestamp),
        _scalar(message.dpid),
        "" if corr is None else ', "corr": ' + _scalar(corr),
        body(message),
    )


#: One JSON value from the start of a string -> ``(value, end)``, without
#: the two whitespace matches the module-level ``loads`` makes per call.
_raw_decode = json.JSONDecoder().raw_decode

_COMMANDS = {member.value: member for member in FlowModCommand}
_REASONS = {member.value: member for member in FlowRemovedReason}
#: The exact types a ``ts`` may have (``bool`` is an ``int``, not a time).
_TS_TYPES = (float, int)
#: JSON types a field must not have, by what modeling does with it: a
#: ``buffer_id`` / ``in_reply_to`` is hashed to pair a reply, a ``corr``
#: to group a flow's chain, a ``flow_removed`` counter compared with the
#: others of its flow.
_UNHASHABLE = (list, dict)
_NOT_A_NUMBER = (str, type(None), list, dict)
#: The type each ``flow`` field, and each ``match`` field that is not null,
#: must have exactly: modeling sorts flows, which raises ``TypeError``
#: between a string and a number (or ``None``).
_FLOW_FIELDS = (("src", str), ("dst", str), ("sport", int), ("dport", int), ("proto", str))

# Canonical lines: what :func:`line` writes for the four flow-bearing
# types with ordinary values. Each piece accepts a subset of what the JSON
# path accepts, and its text converts to the value, of the type, that the
# JSON path yields for it.
#: The text of a string with no escape or control character.
_CHARS = r'[^"\\\x00-\x1f]*'
#: An exact integer of at most 18 digits.
_INT = r"-?(?:0|[1-9][0-9]{0,17})"
#: A float written with a ``.``, at most 16 digits before it and at most
#: a two-digit exponent after it, so always finite: how ``float.__repr__``
#: writes every float in [1e-4, 1e16) and most others in [1e-99, 1e100).
_FLOAT = r"-?(?:0|[1-9][0-9]{0,15})\.[0-9]+(?:e[-+][0-9]{2})?"
#: A ``flow`` / ``match`` of five concrete fields.
_KEY = r'\{"src": "%s", "dst": "%s", "sport": %s, "dport": %s, "proto": "%s"\}' % (
    (_CHARS, _CHARS, _INT, _INT, _CHARS)
)
_Fullmatch = Callable[[str], Optional["re.Match[str]"]]


def _canonical(name: str, body: str) -> _Fullmatch:
    """The ``fullmatch`` of one type's canonical line: the head
    :func:`line` writes (``corr`` present or not), ``body``, an LF or CRLF."""
    head = r'\{"type": "%s", "ts": (%s), "dpid": "(%s)"(?:, "corr": (%s))?' % (
        (name, _FLOAT, _CHARS, _INT)
    )
    return re.compile(head + body + r"\}\r?\n?").fullmatch


def _one_of(values: Iterable[str]) -> str:
    return '"(%s)"' % "|".join(values)


_FiveTuple = Tuple[Any, Any, Any, Any, Any]


class CaptureDecoder:
    """Turn capture lines into messages, sharing equal 5-tuples and dpids.

    See the module docstring for the contract. ``len()`` is the number of
    distinct 5-tuples currently shared, as flows or matches; :meth:`forget`
    drops them and the shared dpids, which a reader of an unbounded stream
    must do now and then (the file tail does at every batch it hands off).
    """

    __slots__ = ("_flows", "_matches", "_dpids", "_texts")

    def __init__(self) -> None:
        #: Keyed by value: a ``FlowKey`` is its own key (it equals the plain
        #: 5-tuple), a ``Match`` is keyed by its fields.
        self._flows: Dict[_FiveTuple, FlowKey] = {}
        self._matches: Dict[_FiveTuple, Match] = {}
        self._dpids: Dict[str, str] = {}
        #: The text of a canonical ``flow`` or ``match`` -> its ``FlowKey``.
        self._texts: Dict[str, FlowKey] = {}

    def __len__(self) -> int:
        # A canonical match's 5-tuple is in both tables: count it once.
        return len(self._flows.keys() | self._matches.keys())

    def forget(self) -> None:
        """Drop the shared 5-tuples and dpids (messages already built keep
        theirs)."""
        self._flows.clear()
        self._matches.clear()
        self._dpids.clear()
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
        """Build the message one decoded JSON object describes.

        Construction is positional, in dataclass field order.

        Raises:
            ValueError: ``data`` does not describe a control message.
        """
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        try:
            name = data.get("type")
            ts = data["ts"]
            if type(ts) not in _TS_TYPES or ts - ts != 0:  # inf - inf is nan
                raise ValueError(f"{name} message with a bad 'ts' ({ts!r})")
            dpid = data["dpid"]
            if type(dpid) is not str:
                raise ValueError(f"{name} message with a bad 'dpid' ({dpid!r})")
            dpid = self._dpids.setdefault(dpid, dpid)
            corr = _field(name, data, "corr", None, _UNHASHABLE)
            if name == "packet_in":
                return PacketIn(
                    ts,
                    dpid,
                    corr,
                    self._flow(data["flow"]),
                    data.get("in_port", 0),
                    _field(name, data, "buffer_id", 0, _UNHASHABLE),
                )
            if name == "packet_out":
                return PacketOut(
                    ts,
                    dpid,
                    corr,
                    self._flow(data["flow"]),
                    data.get("out_port", 0),
                    _field(name, data, "buffer_id", 0, _UNHASHABLE),
                )
            if name == "flow_mod":
                command = data.get("command", "add")
                return FlowMod(
                    ts,
                    dpid,
                    corr,
                    self._match(data["match"]),
                    data.get("out_port", 0),
                    data.get("idle", 5.0),
                    data.get("hard", 0.0),
                    data.get("priority", 0),
                    _COMMANDS.get(command) or FlowModCommand(command),
                    _field(name, data, "in_reply_to", None, _UNHASHABLE),
                )
            if name == "flow_removed":
                reason = data.get("reason", "idle_timeout")
                return FlowRemoved(
                    ts,
                    dpid,
                    corr,
                    self._match(data["match"]),
                    _field(name, data, "duration", 0.0, _NOT_A_NUMBER),
                    _field(name, data, "bytes", 0, _NOT_A_NUMBER),
                    _field(name, data, "packets", 0, _NOT_A_NUMBER),
                    _REASONS.get(reason) or FlowRemovedReason(reason),
                )
            if name == "port_status":
                return PortStatus(ts, dpid, corr, data.get("port", 0), data.get("live", True))
            if name == "flow_stats":
                return FlowStatsReply(
                    ts,
                    dpid,
                    corr,
                    self._match(data["match"]),
                    data.get("bytes", 0),
                    data.get("packets", 0),
                    data.get("duration", 0.0),
                )
            if name == "echo":
                return EchoRequest(ts, dpid, corr, data.get("replied", True))
        except KeyError as exc:
            raise ValueError(f"{name} message without {exc.args[0]!r}") from None
        except TypeError as exc:
            # A flow field of the wrong type, or an unhashable value where a
            # 5-tuple field or enum name belongs.
            raise ValueError(f"{name} message with a bad field ({exc})") from None
        raise ValueError(f"unknown control message type {name!r}")

    def _flow(self, data: Any) -> Optional[FlowKey]:
        if data is None:
            return None
        if not isinstance(data, dict):
            raise ValueError(f"flow is neither an object nor null: {data!r}")
        key = (data["src"], data["dst"], data["sport"], data["dport"], data.get("proto", "tcp"))
        for (field, kind), value in zip(_FLOW_FIELDS, key):
            if type(value) is not kind:
                # Named with its message type by :meth:`message`.
                raise TypeError(f"flow {field!r} is not {kind.__name__}: {value!r}")
        flow = self._flows.get(key)
        if flow is None:
            flow = FlowKey(*key)
            self._flows[flow] = flow
        return flow

    def _match(self, data: Any) -> Optional[Match]:
        if data is None:
            return None
        if not isinstance(data, dict):
            raise ValueError(f"match is neither an object nor null: {data!r}")
        try:
            key = (data["src"], data["dst"], data["sport"], data["dport"], data["proto"])
        except KeyError:
            # Not written by this encoder: an absent field is a wildcard.
            key = (
                data.get("src"),
                data.get("dst"),
                data.get("sport"),
                data.get("dport"),
                data.get("proto"),
            )
        # Typed like a flow's fields, so that sharing by value never hands
        # one line's ``1`` to another's ``true``; null stays a wildcard.
        for (field, kind), value in zip(_FLOW_FIELDS, key):
            if value is not None and type(value) is not kind:
                # Named with its message type by :meth:`message`.
                raise TypeError(f"match {field!r} is neither {kind.__name__} nor null: {value!r}")
        return self._matches.get(key) or self._new_match(key)

    def _new_match(self, key: _FiveTuple) -> Match:
        match = self._matches[key] = Match(*key)
        return match

    # -- canonical lines: one builder per pattern, groups in field order --

    def _text(self, text: str) -> FlowKey:
        """The key of a 5-tuple's text, parsed on its first sight."""
        flow = self._texts[text] = self._flow(_raw_decode(text)[0])
        return flow  # type: ignore[return-value]

    def _packet_in(
        self, ts: str, dpid: str, corr: Optional[str], flow: str, in_port: str, buffer_id: str
    ) -> PacketIn:
        return PacketIn(
            float(ts),
            self._dpids.setdefault(dpid, dpid),
            corr and int(corr),
            self._texts.get(flow) or self._text(flow),
            int(in_port),
            int(buffer_id),
        )

    def _packet_out(
        self, ts: str, dpid: str, corr: Optional[str], flow: str, out_port: str, buffer_id: str
    ) -> PacketOut:
        return PacketOut(
            float(ts),
            self._dpids.setdefault(dpid, dpid),
            corr and int(corr),
            self._texts.get(flow) or self._text(flow),
            int(out_port),
            int(buffer_id),
        )

    def _flow_mod(
        self,
        ts: str,
        dpid: str,
        corr: Optional[str],
        match: str,
        out_port: str,
        idle: str,
        hard: str,
        priority: str,
        command: str,
        in_reply_to: Optional[str],
    ) -> FlowMod:
        key = self._texts.get(match) or self._text(match)
        return FlowMod(
            float(ts),
            self._dpids.setdefault(dpid, dpid),
            corr and int(corr),
            self._matches.get(key) or self._new_match(key),
            int(out_port),
            float(idle),
            float(hard),
            int(priority),
            _COMMANDS[command],
            in_reply_to and int(in_reply_to),
        )

    def _flow_removed(
        self,
        ts: str,
        dpid: str,
        corr: Optional[str],
        match: str,
        duration: str,
        byte_count: str,
        packet_count: str,
        reason: str,
    ) -> FlowRemoved:
        key = self._texts.get(match) or self._text(match)
        return FlowRemoved(
            float(ts),
            self._dpids.setdefault(dpid, dpid),
            corr and int(corr),
            self._matches.get(key) or self._new_match(key),
            float(duration),
            int(byte_count),
            int(packet_count),
            _REASONS[reason],
        )


#: The first eight letters of a type name (at offset 10 of a canonical
#: line) -> that type's pattern and builder.
_CANONICAL: Dict[str, Tuple[_Fullmatch, Callable[..., ControlMessage]]] = {
    "packet_i": (
        _canonical(
            "packet_in",
            r', "flow": (%s), "in_port": (%s), "buffer_id": (%s)' % (_KEY, _INT, _INT),
        ),
        CaptureDecoder._packet_in,
    ),
    "packet_o": (
        _canonical(
            "packet_out",
            r', "flow": (%s), "out_port": (%s), "buffer_id": (%s)' % (_KEY, _INT, _INT),
        ),
        CaptureDecoder._packet_out,
    ),
    "flow_mod": (
        _canonical(
            "flow_mod",
            r', "match": (%s), "out_port": (%s), "idle": (%s), "hard": (%s), "priority": (%s),'
            r' "command": %s, "in_reply_to": (?:(%s)|null)'
            % (_KEY, _INT, _FLOAT, _FLOAT, _INT, _one_of(_COMMANDS), _INT),
        ),
        CaptureDecoder._flow_mod,
    ),
    "flow_rem": (
        _canonical(
            "flow_removed",
            r', "match": (%s), "duration": (%s), "bytes": (%s), "packets": (%s), "reason": %s'
            % (_KEY, _FLOAT, _INT, _INT, _one_of(_REASONS)),
        ),
        CaptureDecoder._flow_removed,
    ),
}


def _field(name: Any, data: Dict[str, Any], key: str, default: Any, rejected: Any) -> Any:
    """``data[key]`` (``default`` when absent), unless of a ``rejected`` type."""
    value = data.get(key, default)
    if type(value) in rejected:
        raise ValueError(f"{name} message with a bad {key!r} ({value!r})")
    return value


def message_from_json(data: Dict[str, Any]) -> ControlMessage:
    """Decode one control message from its JSON object.

    Raises:
        ValueError: ``data`` does not describe a control message (see the
            module docstring).
    """
    return CaptureDecoder().message(data)


def dump_log(log: ControllerLog, fh: IO[str]) -> int:
    """Write a log as JSON lines; returns the number of messages written."""
    fh.writelines(map(line, log))
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
