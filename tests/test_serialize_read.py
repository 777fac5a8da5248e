"""The line-at-a-time reader behind ``read_log`` / ``load_log`` against
the whole-text decoder it replaced, and the pattern path of
:meth:`CaptureDecoder.line` against the JSON path.

The oracle of the reader is that decoder, kept verbatim: read the whole
file, decode it, split it into lines and hand every line to
:meth:`CaptureDecoder.line`. The oracle of the pattern path is
``CaptureDecoder().message(json.loads(text))``.
"""

import dataclasses
import gc
import io
import json
import os
import tempfile
import time
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import (
    EchoRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowRemovedReason,
    PacketIn,
    PacketOut,
)
from repro.openflow.serialize import (
    _CANONICAL,
    CaptureDecoder,
    line,
    load_log,
    message_to_json,
    read_log,
    save_log,
)
from repro.scenarios import scalability_sim, three_tier_lab
from tests import test_serialize_cli as cli


def oracle_load_text(text):
    messages = []
    decode = CaptureDecoder().line
    for line_no, line in enumerate(text.split("\n"), 1):
        try:
            message = decode(line)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from exc
        if message is not None:
            messages.append(message)
    return ControllerLog(messages)


def oracle_read_log(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"line {line_no}: not UTF-8 ({exc.reason}, byte {exc.start})"
        ) from exc
    return oracle_load_text(text)


#: Multi-byte UTF-8 of every width (2, 3 and 4 bytes) inside strings.
NAMES = st.sampled_from(["a", "srv12", "ä", "сервер", "主机", "x😀"])
PORTS = st.integers(0, 65535)
STAMPS = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0, 1e6)
FLOWS = st.none() | st.builds(FlowKey, NAMES, NAMES, PORTS, PORTS)
MATCHES = st.none() | st.builds(Match, st.none() | NAMES, NAMES, st.none() | PORTS)
HEADER = dict(timestamp=STAMPS, dpid=NAMES)
MESSAGES = st.one_of(
    st.builds(PacketIn, **HEADER, flow=FLOWS, buffer_id=PORTS),
    st.builds(PacketOut, **HEADER, flow=FLOWS, buffer_id=PORTS),
    st.builds(FlowMod, **HEADER, match=MATCHES, in_reply_to=st.none() | PORTS),
    st.builds(FlowRemoved, **HEADER, match=MATCHES),
    st.builds(EchoRequest, **HEADER),
)
#: How a record sits on its line: alone, or with whitespace a hand edit
#: or a Windows tool leaves around it.
LAYOUTS = st.sampled_from(["%s", "%s\r", "  %s", "\t%s \r", "%s   ", " %s\t"])
#: Lines that hold no record.
NOISE = st.sampled_from(["", "   ", "\t", "\r", " \r"])
LINES = st.lists(
    st.tuples(LAYOUTS, MESSAGES).map(lambda p: p[0] % json.dumps(message_to_json(p[1])))
    | NOISE,
    max_size=25,
)
BAD = st.sampled_from(
    [
        "{nope",
        "nope",
        '{"type": "echo", "ts": 1.0, "dpid": "sw1"} x',
        "42",
        "[" * 50,
        '{"type": "echo", "dpid": "sw1"}',
        '{"type": "echo", "ts": NaN, "dpid": "ä"}',
        '{"type": "packet_in", "ts": 1.0, "dpid": null, "flow": null}',
        '{"type": "echo", "ts": 1.0,',
        # One record over two lines: each line on its own is not a record.
        '{"type": "echo", "ts": 1.0,\n "dpid": "sw1"}',
        '  {"type": "mystery", "ts": 1.0, "dpid": "主机"}\r',
    ]
)


def capture(lines, final_newline):
    return "\n".join(lines) + ("\n" if final_newline and lines else "")


def sharing(log):
    """Per message, for ``flow``/``match``/``dpid``: the index of the first
    message that holds the very same object."""
    first = {}
    rows = []
    for i, message in enumerate(log):
        row = []
        for name in ("flow", "match", "dpid"):
            value = getattr(message, name, None)
            row.append(None if value is None else first.setdefault((name, id(value)), i))
        rows.append(tuple(row))
    return rows


def assert_same_log(got, want):
    got, want = list(got), list(want)
    assert got == want
    assert repr(got) == repr(want)
    assert sharing(got) == sharing(want)


def attempt(reader, arg):
    """What ``reader(arg)`` returns, or the text of the error it raised."""
    try:
        return reader(arg)
    except ValueError as exc:
        return f"ValueError: {exc}"


def read_both(raw):
    """``read_log`` and the oracle on the bytes ``raw``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "capture.jsonl")
        with open(path, "wb") as fh:
            fh.write(raw)
        return attempt(read_log, path), attempt(oracle_read_log, path)


def load_both(text):
    """``load_log`` and the oracle on ``text``."""
    return attempt(load_log, io.StringIO(text)), attempt(oracle_load_text, text)


class TestReaderEqualsWholeText:
    @given(LINES, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_read_log_equals_the_oracle(self, lines, final_newline):
        got, want = read_both(capture(lines, final_newline).encode("utf-8"))
        assert_same_log(got, want)

    @given(LINES, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_load_log_equals_the_oracle(self, lines, final_newline):
        got, want = load_both(capture(lines, final_newline))
        assert_same_log(got, want)

    @given(LINES, st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_dpids_are_one_object_per_read(self, lines, final_newline):
        got, _ = read_both(capture(lines, final_newline).encode("utf-8"))
        dpids = [message.dpid for message in got]
        assert len({id(dpid) for dpid in dpids}) == len(set(dpids))


class TestReaderErrors:
    @given(LINES, BAD, st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_a_bad_line_is_reported_as_the_oracle_reports_it(
        self, lines, bad, data, final_newline
    ):
        lines.insert(data.draw(st.integers(0, len(lines))), bad)
        text = capture(lines, final_newline)
        got, want = read_both(text.encode("utf-8"))
        assert want.startswith("ValueError: line ")
        assert got == want
        got, want = load_both(text)
        assert got == want

    @given(
        LINES,
        BAD,
        st.data(),
        st.sampled_from([b"\xff", b"\xe4", b"\xc3(", b"\xf0\x9f\x98", b"\xed\xa0\x80"]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_non_utf8_byte_wins_over_an_earlier_bad_line(
        self, lines, bad, data, junk, final_newline
    ):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, bad)
        raw = [line.encode("utf-8") for line in lines]
        later = data.draw(st.integers(at, len(raw) - 1))
        cut = data.draw(st.integers(0, len(raw[later])))
        raw[later] = raw[later][:cut] + junk + raw[later][cut:]
        blob = b"\n".join(raw) + (b"\n" if final_newline else b"")
        got, want = read_both(blob)
        assert "not UTF-8" in want
        assert got == want

    def test_a_5_mib_line_is_read_in_linear_time(self, tmp_path):
        echo = '{"type": "echo", "ts": 1.0, "dpid": "sw1"}'
        long = '{"type": "echo", "ts": 1.0, "dpid": "%s" oops}' % ("x" * (5 << 20))
        text = "\n".join([echo, long, echo]) + "\n"
        path = str(tmp_path / "capture.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for reader, oracle, arg in (
            (read_log, oracle_read_log, path),
            (lambda t: load_log(io.StringIO(t)), oracle_load_text, text),
        ):
            started = time.perf_counter()
            got = attempt(reader, arg)
            assert time.perf_counter() - started < 2.0
            assert got == attempt(oracle, arg)
            assert got.startswith("ValueError: line 2: invalid JSON")


def test_read_log_holds_no_whole_file_buffer(tmp_path):
    """What a read allocates beyond the messages it keeps stays a small,
    fixed allowance; a reader that held the file's bytes, its text or a
    list of its lines would need a multiple of the file."""
    path = str(tmp_path / "capture.jsonl")
    save_log(three_tier_lab(seed=3).run(0.5, 70.0, drain=5.0), path)
    assert os.path.getsize(path) >= 8_000_000
    gc.collect()
    tracemalloc.start()
    try:
        log = read_log(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log) > 30_000
    assert peak - retained < 2 << 20


def test_equal_stamps_keep_file_order_around_late_lines(tmp_path):
    """A read sorts by timestamp and keeps file order among equal stamps,
    as appending the lines one by one to a ``ControllerLog`` would."""
    stamps = [2.0, 1.0, 2.0, 0.5, 1.0, 2.0]
    text = "".join(
        '{"type": "echo", "ts": %s, "dpid": "sw%d"}\n' % (ts, i)
        for i, ts in enumerate(stamps)
    )
    path = str(tmp_path / "capture.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    appended = ControllerLog()
    appended.extend(CaptureDecoder().line(line) for line in text.splitlines())
    for log in (read_log(path), load_log(io.StringIO(text)), appended):
        assert [m.dpid for m in log] == ["sw3", "sw1", "sw4", "sw0", "sw2", "sw5"]
        assert [m.dpid for m in log.window(1.0, 2.0)] == ["sw1", "sw4"]


def typed(value):
    """``value`` with the type of every field, 5-tuples field by field."""
    if isinstance(value, FlowKey):
        return tuple(typed(part) for part in value)
    if dataclasses.is_dataclass(value):
        return tuple(typed(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value, type(value)


def decode_both(texts):
    """Each text through one decoder's ``line`` and through another's JSON
    path: per text, the message or the text of the error."""
    fast, slow = CaptureDecoder(), CaptureDecoder()
    return (
        [attempt(fast.line, text) for text in texts],
        [attempt(lambda t: slow.message(json.loads(t)), text) for text in texts],
    )


def canonical(text):
    """Whether ``text`` takes the pattern path."""
    pattern = _CANONICAL.get(text[10:18])
    return pattern is not None and pattern[0](text) is not None


#: ``line()``'s own end, a CRLF one, or none (the last line of a file).
ENDS = st.sampled_from(["\n", "\r\n", ""])
#: Where a string belongs, now and then one ``line()`` escapes; where a
#: float belongs, now and then an int. The JSON path keeps each as it is.
TEXTS = cli.HOSTS | cli.ODD_TEXT
TIMES = cli.SECONDS | st.integers(0, 10**6)
KEYS = st.builds(FlowKey, TEXTS, TEXTS, cli.PORTS, cli.PORTS, cli.PROTOS | cli.ODD_TEXT)
FLOW_HEADER = dict(
    cli.HEADER,
    timestamp=cli.HEADER["timestamp"] | st.integers(0, 10**6),
    dpid=cli.HEADER["dpid"] | cli.ODD_TEXT,
)
#: The four flow-bearing types with concrete 5-tuples: mostly canonical.
FLOW_MESSAGES = st.one_of(
    st.builds(PacketIn, **FLOW_HEADER, flow=KEYS, in_port=cli.PORTS, buffer_id=cli.COUNTS),
    st.builds(PacketOut, **FLOW_HEADER, flow=KEYS, out_port=cli.PORTS, buffer_id=cli.COUNTS),
    st.builds(
        FlowMod,
        **FLOW_HEADER,
        match=KEYS.map(Match.exact),
        out_port=cli.PORTS,
        idle_timeout=TIMES,
        hard_timeout=TIMES,
        priority=cli.PORTS,
        command=st.sampled_from(FlowModCommand),
        in_reply_to=st.none() | cli.COUNTS,
    ),
    st.builds(
        FlowRemoved,
        **FLOW_HEADER,
        match=KEYS.map(Match.exact),
        duration=TIMES,
        byte_count=cli.COUNTS,
        packet_count=cli.COUNTS,
        reason=st.sampled_from(FlowRemovedReason),
    ),
)
#: Every message type and every odd value ``line()`` can write (``ts``
#: finite), at every end and in every padding a line may have.
CANDIDATES = st.tuples(FLOW_MESSAGES | cli.MESSAGES | cli.ODD_MESSAGES, ENDS, LAYOUTS).map(
    lambda p: p[2] % (line(p[0])[:-1] + p[1])
)


class TestCanonicalLines:
    @given(CANDIDATES)
    @settings(max_examples=500, deadline=None)
    def test_line_decodes_as_the_json_path_does(self, text):
        [got], [want] = decode_both([text])
        assert got == want
        assert repr(got) == repr(want)
        if not isinstance(want, str):
            assert typed(got) == typed(want)

    @given(st.lists(CANDIDATES, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_one_object_per_five_tuple_and_dpid(self, texts):
        got, want = decode_both(texts)
        assert [repr(m) for m in got] == [repr(m) for m in want]
        got = [m for m in got if not isinstance(m, str)]
        want = [m for m in want if not isinstance(m, str)]
        assert got == want
        assert sharing(got) == sharing(want)
        for name in ("flow", "match", "dpid"):
            values = [getattr(m, name) for m in got if getattr(m, name, None) is not None]
            assert len({id(value) for value in values}) == len(set(values))

    def test_simulated_captures_take_the_pattern_on_every_line(self, tmp_path):
        """The drift pin: an encoder change the patterns do not follow
        would silently send every line down the slower JSON path."""
        network, workload = scalability_sim(n_apps=4, seed=11)
        workload.start(0.5, 3.0)
        network.sim.run(until=6.0)
        captures = {
            "lab": three_tier_lab(seed=3).run(0.5, 20.0, drain=5.0),
            "tree": network.log,
        }
        for name, log in captures.items():
            path = str(tmp_path / f"{name}.jsonl")
            save_log(log, path)
            with open(path, encoding="utf-8") as fh:
                texts = fh.readlines()
            assert len(texts) > 2000
            assert [text for text in texts if not canonical(text)] == [], name
            assert list(read_log(path)) == list(log)
