"""Tests for log serialization and the command-line interface."""

import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import (
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
from repro.scenarios import three_tier_lab
from repro.openflow.serialize import (
    dump_log,
    line,
    load_log,
    message_from_json,
    message_to_json,
    read_log,
    save_log,
)

KEY = FlowKey("a", "b", 1000, 80)


def sample_log():
    log = ControllerLog()
    log.append(PacketIn(timestamp=1.0, dpid="sw1", flow=KEY, in_port=2, buffer_id=7))
    log.append(
        FlowMod(
            timestamp=1.001,
            dpid="sw1",
            match=Match.exact(KEY),
            out_port=3,
            idle_timeout=5.0,
            in_reply_to=7,
        )
    )
    log.append(PacketOut(timestamp=1.001, dpid="sw1", flow=KEY, out_port=3, buffer_id=7))
    log.append(
        FlowRemoved(
            timestamp=7.0,
            dpid="sw1",
            match=Match.exact(KEY),
            duration=1.2,
            byte_count=999,
            packet_count=3,
            reason=FlowRemovedReason.IDLE_TIMEOUT,
        )
    )
    log.append(PortStatus(timestamp=8.0, dpid="sw2", port=4, live=False))
    log.append(
        FlowStatsReply(
            timestamp=9.0, dpid="sw1", match=Match.destination("b"), byte_count=5
        )
    )
    log.append(EchoRequest(timestamp=10.0, dpid="sw1", replied=False))
    return log


HOSTS = st.sampled_from(["a", "b", "10.0.0.7", "srv12"])
PORTS = st.integers(0, 65535)
PROTOS = st.sampled_from(["tcp", "udp"])
COUNTS = st.integers(0, 10**9)
SECONDS = st.floats(0, 1e6)
FLOWS = st.none() | st.builds(FlowKey, HOSTS, HOSTS, PORTS, PORTS, PROTOS)
MATCHES = st.none() | st.builds(
    Match,
    st.none() | HOSTS,
    st.none() | HOSTS,
    st.none() | PORTS,
    st.none() | PORTS,
    st.none() | PROTOS,
)
HEADER = dict(
    # Few distinct stamps, so logs hold ties and out-of-order appends.
    timestamp=st.sampled_from([0.0, 1.0, 2.5]) | SECONDS,
    dpid=st.sampled_from(["sw1", "sw2"]),
    corr_id=st.none() | COUNTS,
)
#: Every message type, every field drawn (``flow``/``match`` may be null,
#: matches may wildcard any field, ``corr`` may be absent).
MESSAGES = st.one_of(
    st.builds(PacketIn, **HEADER, flow=FLOWS, in_port=PORTS, buffer_id=COUNTS),
    st.builds(PacketOut, **HEADER, flow=FLOWS, out_port=PORTS, buffer_id=COUNTS),
    st.builds(
        FlowMod,
        **HEADER,
        match=MATCHES,
        out_port=PORTS,
        idle_timeout=SECONDS,
        hard_timeout=SECONDS,
        priority=PORTS,
        command=st.sampled_from(FlowModCommand),
        in_reply_to=st.none() | COUNTS,
    ),
    st.builds(
        FlowRemoved,
        **HEADER,
        match=MATCHES,
        duration=SECONDS,
        byte_count=COUNTS,
        packet_count=COUNTS,
        reason=st.sampled_from(FlowRemovedReason),
    ),
    st.builds(PortStatus, **HEADER, port=PORTS, live=st.booleans()),
    st.builds(
        FlowStatsReply,
        **HEADER,
        match=MATCHES,
        byte_count=COUNTS,
        packet_count=COUNTS,
        duration=SECONDS,
    ),
    st.builds(EchoRequest, **HEADER, replied=st.booleans()),
)

#: Wider than ``MESSAGES``, for the line encoder: text that needs escaping,
#: and wherever a number goes also floats, booleans, ``2**70``, NaN/±inf
#: (never in ``ts``, which the decoder rejects non-finite).
ODD_TEXT = st.sampled_from(["ä", '"', "\\", "\n", "sw1", ""]) | st.text(max_size=4)
ODD_SCALARS = (
    st.integers(-(2**64), 2**64)
    | st.just(2**70)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
    | st.booleans()
)
ODD_FLOWS = st.none() | st.builds(
    FlowKey, ODD_TEXT, ODD_TEXT, ODD_SCALARS, ODD_SCALARS, ODD_TEXT
)
ODD_MATCHES = st.none() | st.builds(
    Match,
    st.none() | ODD_TEXT,
    st.none() | ODD_TEXT,
    st.none() | ODD_SCALARS,
    st.none() | ODD_SCALARS,
    st.none() | ODD_TEXT,
)
ODD_HEADER = dict(
    timestamp=st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
    dpid=ODD_TEXT,
    corr_id=st.none() | ODD_SCALARS,
)
ODD_MESSAGES = st.one_of(
    st.builds(PacketIn, **ODD_HEADER, flow=ODD_FLOWS, in_port=ODD_SCALARS, buffer_id=ODD_SCALARS),
    st.builds(PacketOut, **ODD_HEADER, flow=ODD_FLOWS, out_port=ODD_SCALARS, buffer_id=ODD_SCALARS),
    st.builds(
        FlowMod,
        **ODD_HEADER,
        match=ODD_MATCHES,
        out_port=ODD_SCALARS,
        idle_timeout=ODD_SCALARS,
        hard_timeout=ODD_SCALARS,
        priority=ODD_SCALARS,
        command=st.sampled_from(FlowModCommand),
        in_reply_to=st.none() | ODD_SCALARS,
    ),
    st.builds(
        FlowRemoved,
        **ODD_HEADER,
        match=ODD_MATCHES,
        duration=ODD_SCALARS,
        byte_count=ODD_SCALARS,
        packet_count=ODD_SCALARS,
        reason=st.sampled_from(FlowRemovedReason),
    ),
    st.builds(PortStatus, **ODD_HEADER, port=ODD_SCALARS, live=ODD_SCALARS),
    st.builds(
        FlowStatsReply,
        **ODD_HEADER,
        match=ODD_MATCHES,
        byte_count=ODD_SCALARS,
        packet_count=ODD_SCALARS,
        duration=ODD_SCALARS,
    ),
    st.builds(EchoRequest, **ODD_HEADER, replied=ODD_SCALARS),
)

ECHO = '{"type": "echo", "ts": 1.0, "dpid": "sw1"}'
HEAD = '{"type": "%s", "ts": 1.0, "dpid": "sw1"'


class TestLineEncoder:
    @given(MESSAGES | ODD_MESSAGES)
    @settings(max_examples=300)
    def test_line_is_json_dumps_of_message_to_json(self, message):
        assert line(message) == json.dumps(message_to_json(message)) + "\n"


class TestDecodeContract:
    @given(st.lists(MESSAGES, max_size=20))
    @settings(max_examples=60)
    def test_dump_then_load_is_the_same_log(self, messages):
        log = ControllerLog(messages)
        buf = io.StringIO()
        assert dump_log(log, buf) == len(messages)
        restored = load_log(io.StringIO(buf.getvalue()))
        assert list(restored) == list(log)
        assert [type(m) for m in restored] == [type(m) for m in log]

    @given(st.lists(MESSAGES, max_size=20))
    @settings(max_examples=60)
    def test_unsorted_file_loads_as_if_appended_line_by_line(self, messages):
        text = "".join(json.dumps(message_to_json(m)) + "\n" for m in messages)
        appended = ControllerLog()
        for message in messages:
            appended.append(message)
        loaded = load_log(io.StringIO(text))
        assert list(loaded) == list(appended)
        assert loaded.time_span == appended.time_span

    @given(MESSAGES)
    @settings(max_examples=60)
    def test_old_capture_lines_get_the_class_defaults(self, message):
        """A line with every optional key left out decodes to the message
        class's own defaults (idle 5.0, proto "tcp", command "add", ...)."""
        subject = {
            name: getattr(message, name)
            for name in ("flow", "match")
            if hasattr(message, name)
        }
        bare = type(message)(timestamp=message.timestamp, dpid=message.dpid, **subject)
        data = message_to_json(bare)
        line = {k: data[k] for k in ("type", "ts", "dpid", "flow", "match") if k in data}
        if line.get("flow") is not None and line["flow"]["proto"] == "tcp":
            del line["flow"]["proto"]
        if line.get("match") is not None:
            line["match"] = {k: v for k, v in line["match"].items() if v is not None}
        assert list(load_log(io.StringIO(json.dumps(line)))) == [bare]
        assert message_from_json(line) == bare

    @pytest.mark.parametrize(
        "bad, why",
        [
            pytest.param("{nope", "invalid JSON", id="bad-json"),
            pytest.param("nope", "invalid JSON", id="no-value"),
            pytest.param(ECHO + " trailing", "extra data", id="trailing-text"),
            pytest.param(ECHO + ECHO, "extra data", id="two-records"),
            pytest.param("42", "expected a JSON object, got int", id="int"),
            pytest.param("null", "expected a JSON object, got NoneType", id="null"),
            pytest.param('"x"', "expected a JSON object, got str", id="string"),
            pytest.param("[]", "expected a JSON object, got list", id="list"),
            pytest.param("[" * 100_000, "nested too deeply", id="deep-nesting"),
            pytest.param('{"type": "echo", "dpid": "sw1"}', "without 'ts'", id="no-ts"),
            pytest.param('{"type": "echo", "ts": 1.0}', "without 'dpid'", id="no-dpid"),
            # A ts that is not a finite number used to decode: an infinite
            # one wedged the daemon's window clock, NaN broke the log's sort.
            *(
                pytest.param(
                    '{"type": "echo", "ts": %s, "dpid": "sw1"}' % ts,
                    "echo message with a bad 'ts'",
                    id=f"ts-{name}",
                )
                for name, ts in [
                    ("inf", "Infinity"),
                    ("minus-inf", "-Infinity"),
                    ("nan", "NaN"),
                    ("string", '"abc"'),
                    ("null", "null"),
                    ("bool", "true"),
                ]
            ),
            pytest.param(HEAD % "packet_in" + "}", "without 'flow'", id="no-flow"),
            pytest.param(HEAD % "flow_mod" + "}", "without 'match'", id="no-match"),
            pytest.param(
                HEAD % "packet_out" + ', "flow": {"src": "a"}}',
                "without 'dst'",
                id="flow-without-dst",
            ),
            pytest.param(
                HEAD % "packet_in" + ', "flow": 42}', "flow is neither", id="flow-not-object"
            ),
            pytest.param(
                HEAD % "flow_stats" + ', "match": [1]}', "match is neither", id="match-not-object"
            ),
            pytest.param(
                HEAD % "packet_in"
                + ', "flow": {"src": [], "dst": "b", "sport": 1, "dport": 2}}',
                "bad field",
                id="unhashable-flow-field",
            ),
            # A dpid that is not a string, or a reply id that is an array or
            # object, used to decode and then crash modeling with TypeError.
            *(
                pytest.param(
                    '{"type": "packet_in", "ts": 1.0, "dpid": %s, "flow": null}' % dpid,
                    "packet_in message with a bad 'dpid'",
                    id=f"dpid-{name}",
                )
                for name, dpid in [("null", "null"), ("number", "7"), ("list", '["sw1"]')]
            ),
            *(
                pytest.param(
                    HEAD % kind + ', "%s": null, "%s": %s}' % (subject, field, value),
                    "%s message with a bad '%s'" % (kind, field),
                    id=f"{kind}-{field}-{name}",
                )
                for kind, subject, field in [
                    ("packet_in", "flow", "buffer_id"),
                    ("packet_out", "flow", "buffer_id"),
                    ("flow_mod", "match", "in_reply_to"),
                ]
                for name, value in [("list", "[7]"), ("object", '{"id": 7}')]
            ),
            # So did a flow_removed counter that is not a number.
            *(
                pytest.param(
                    HEAD % "flow_removed" + ', "match": null, "%s": %s}' % (field, value),
                    "flow_removed message with a bad '%s'" % field,
                    id=f"flow_removed-{field}-{name}",
                )
                for field, name, value in [
                    ("bytes", "string", '"12"'),
                    ("packets", "null", "null"),
                    ("duration", "list", "[1.0]"),
                ]
            ),
            pytest.param(
                HEAD % "mystery" + "}",
                "unknown control message type 'mystery'",
                id="unknown-type",
            ),
            pytest.param(
                '{"ts": 1.0, "dpid": "sw1"}', "unknown control message type None", id="no-type"
            ),
            pytest.param(
                HEAD % "flow_mod" + ', "match": null, "command": "explode"}',
                "FlowModCommand",
                id="bad-command",
            ),
            pytest.param(
                HEAD % "flow_mod" + ', "match": null, "command": []}',
                "bad field",
                id="unhashable-command",
            ),
            pytest.param(
                HEAD % "flow_removed" + ', "match": null, "reason": "bored"}',
                "FlowRemovedReason",
                id="bad-reason",
            ),
        ],
    )
    def test_bad_line_is_a_value_error(self, bad, why):
        text = "\n  \n" + ECHO + "\n\n" + bad + "\n" + ECHO + "\n"
        with pytest.raises(ValueError, match="^line 5: .*" + re.escape(why)):
            load_log(io.StringIO(text))

    def test_read_log_names_the_line_of_a_non_utf8_byte(self, tmp_path):
        """It used to be a bare ``UnicodeDecodeError`` with a byte offset."""
        path = tmp_path / "capture.jsonl"
        echo = ECHO.encode("utf-8")
        path.write_bytes(b"\n".join([echo, b"", echo[:8] + b"\xff\xfe" + echo[8:], echo]))
        with pytest.raises(ValueError, match="^line 3: not UTF-8") as err:
            read_log(str(path))
        assert not isinstance(err.value, UnicodeDecodeError)

    @pytest.mark.parametrize("value", [42, None, "x", []], ids=["int", "null", "string", "list"])
    def test_message_from_json_rejects_a_non_object(self, value):
        with pytest.raises(ValueError, match="expected a JSON object"):
            message_from_json(value)

    def test_whitespace_around_a_record_is_ignored(self):
        text = "  " + ECHO + "  \r\n\t" + ECHO + "\r\n \r\n" + ECHO
        assert len(load_log(io.StringIO(text))) == 3

    def test_equal_five_tuples_are_one_object_per_read(self, tmp_path):
        """The sharing guard, by count: as many distinct ``flow``/``match``
        objects as distinct values — and none carried between reads."""
        path = str(tmp_path / "capture.jsonl")
        save_log(three_tier_lab(seed=3).run(0.5, 6.0, drain=5.0), path)
        log = read_log(path)
        for name, kinds in (("flow", (PacketIn, PacketOut)), ("match", (FlowMod, FlowRemoved))):
            keys = [getattr(m, name) for m in log if type(m) in kinds]
            assert len(set(keys)) < len(keys) / 2  # the capture does repeat them
            assert len({id(key) for key in keys}) == len(set(keys))
        again = read_log(path)
        assert list(again) == list(log)
        assert not {id(m.flow) for m in log.packet_ins()} & {
            id(m.flow) for m in again.packet_ins()
        }


class TestSerialization:
    def test_round_trip_all_message_types(self):
        log = sample_log()
        buf = io.StringIO()
        count = dump_log(log, buf)
        assert count == len(log)
        buf.seek(0)
        restored = load_log(buf)
        assert list(restored) == list(log)

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "capture.jsonl")
        log = sample_log()
        save_log(log, path)
        restored = read_log(path)
        assert len(restored) == len(log)
        assert restored.packet_ins()[0].flow == KEY

    def test_blank_lines_skipped(self):
        log = sample_log()
        buf = io.StringIO()
        dump_log(log, buf)
        content = "\n\n" + buf.getvalue() + "\n\n"
        restored = load_log(io.StringIO(content))
        assert len(restored) == len(log)

    def test_malformed_json_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            load_log(io.StringIO("{nope\n"))

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown control message"):
            message_from_json({"type": "mystery", "ts": 0.0, "dpid": "x"})

    def test_unknown_class_rejected(self):
        class Fake:
            timestamp = 0.0
            dpid = "x"

        with pytest.raises(TypeError):
            message_to_json(Fake())  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            line(Fake())  # type: ignore[arg-type]

    @given(
        st.floats(0, 1e6),
        st.sampled_from(["sw1", "sw2"]),
        st.integers(1, 65535),
        st.integers(1, 65535),
    )
    @settings(max_examples=30)
    def test_packet_in_round_trip_property(self, ts, dpid, sport, dport):
        msg = PacketIn(
            timestamp=ts,
            dpid=dpid,
            flow=FlowKey("x", "y", sport, dport, "udp"),
            in_port=1,
        )
        assert message_from_json(message_to_json(msg)) == msg

    def test_wildcard_match_round_trip(self):
        msg = FlowMod(timestamp=1.0, dpid="sw1", match=Match.destination("z"), out_port=1)
        restored = message_from_json(message_to_json(msg))
        assert restored.match == Match.destination("z")
        assert not restored.match.is_microflow


class TestCLI:
    def test_simulate_inspect_diff_workflow(self, tmp_path, capsys):
        baseline = str(tmp_path / "l1.jsonl")
        current = str(tmp_path / "l2.jsonl")
        assert main(["simulate", "--out", baseline, "--duration", "20"]) == 0
        assert main(
            [
                "simulate",
                "--out",
                current,
                "--duration",
                "20",
                "--fault",
                "logging",
                "--target",
                "S3",
            ]
        ) == 0

        assert main(["inspect", baseline]) == 0
        out = capsys.readouterr().out
        assert "PacketIn=" in out
        assert "group [" in out

        # Healthy diff exits 0; fault diff exits 1 and names the suspect.
        assert main(["diff", baseline, baseline]) == 0
        rc = main(["diff", baseline, current])
        out = capsys.readouterr().out
        assert rc == 1
        assert "S3" in out
        assert "DD" in out

    def test_diff_loads_only_what_it_uses(self, tmp_path):
        """The import closure of ``import repro`` and of an offline diff:
        no third-party package, no simulator, no HTTP server."""
        captures = [str(tmp_path / name) for name in ("l1.jsonl", "l2.jsonl")]
        for seed, capture in zip(("3", "4"), captures):
            assert main(["simulate", "--out", capture, "--duration", "5", "--seed", seed]) == 0
        code = (
            "import sys\n"
            "unwanted = ('networkx', 'numpy', 'scipy', 'http.server', 'repro.netsim',\n"
            "            'repro.obs.httpd', 'repro.obs.telemetry', 'repro.openflow.controller')\n"
            "import repro\n"
            "assert not [m for m in unwanted if m in sys.modules], 'import repro'\n"
            "from repro.cli import main\n"
            f"assert main(['diff', *{captures!r}]) in (0, 1)\n"
            "assert not [m for m in unwanted if m in sys.modules], 'repro diff'\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)

    def test_simulating_loads_no_telemetry(self, tmp_path):
        """The simulator feeds only the controller log: a lab run and
        ``repro simulate`` never import the telemetry stand-in."""
        out = str(tmp_path / "l1.jsonl")
        code = (
            "import sys\n"
            "unwanted = ('repro.obs.telemetry', 'repro.obs.heatmap')\n"
            "from repro.scenarios import three_tier_lab\n"
            "assert len(three_tier_lab(seed=3).run(0.5, 5.0))\n"
            "assert not [m for m in unwanted if m in sys.modules], 'lab run'\n"
            "from repro.cli import main\n"
            f"assert main(['simulate', '--out', {out!r}, '--duration', '5']) == 0\n"
            "assert not [m for m in unwanted if m in sys.modules], 'repro simulate'\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)

    def test_unknown_fault_rejected(self, tmp_path):
        out = str(tmp_path / "x.jsonl")
        assert main(["simulate", "--out", out, "--fault", "gremlins"]) == 2

    def test_linkloss_rejects_bad_target(self, tmp_path):
        out = str(tmp_path / "x.jsonl")
        with pytest.raises(SystemExit):
            main(
                ["simulate", "--out", out, "--duration", "1", "--fault", "linkloss", "--target", "S3"]
            )

    def test_telemetry_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["telemetry"])
        assert exit_.value.code == 2
        assert "invalid choice: 'telemetry'" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestCLIRyuFormat:
    def test_inspect_ryu_capture(self, tmp_path, capsys):
        import json as _json

        path = tmp_path / "ryu.jsonl"
        rows = []
        for i in range(12):
            rows.append(
                _json.dumps(
                    dict(
                        event="packet_in",
                        time=0.5 * i,
                        dpid=1,
                        in_port=1,
                        match={
                            "ipv4_src": "10.0.0.1",
                            "ipv4_dst": "10.0.0.2",
                            "tcp_src": 40000 + i,
                            "tcp_dst": 80,
                            "ip_proto": 6,
                        },
                    )
                )
            )
        path.write_text("\n".join(rows))
        assert main(["inspect", str(path), "--format", "ryu", "--no-stability"]) == 0
        out = capsys.readouterr().out
        assert "PacketIn=12" in out
        assert "10.0.0.1" in out


class TestCLIModelPersistence:
    def test_model_then_diff_with_stored_baseline(self, tmp_path, capsys):
        l1 = str(tmp_path / "l1.jsonl")
        l2 = str(tmp_path / "l2.jsonl")
        mdl = str(tmp_path / "baseline.model.json")
        assert main(["simulate", "--out", l1, "--duration", "20"]) == 0
        assert main(
            ["simulate", "--out", l2, "--duration", "20", "--fault", "logging"]
        ) == 0
        assert main(["model", l1, "--out", mdl]) == 0
        out = capsys.readouterr().out
        assert "wrote baseline model" in out
        rc = main(["diff", mdl, l2, "--baseline-model"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DD" in out


class TestCLIErrorPaths:
    def test_model_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["model", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "m.json")])

    def test_diff_with_corrupt_model(self, tmp_path):
        bad = tmp_path / "bad.model.json"
        bad.write_text('{"version": 42}')
        capture = str(tmp_path / "l.jsonl")
        assert main(["simulate", "--out", capture, "--duration", "5"]) == 0
        with pytest.raises(ValueError, match="version"):
            main(["diff", str(bad), capture, "--baseline-model"])

    def test_diff_of_a_capture_with_a_non_string_dpid_names_the_line(self, tmp_path):
        """Such a ``packet_in`` used to decode, and ``repro diff`` then died
        in modeling with a ``TypeError`` traceback."""
        good = str(tmp_path / "good.jsonl")
        bad = str(tmp_path / "bad.jsonl")
        assert main(["simulate", "--out", good, "--duration", "5"]) == 0
        with open(good, encoding="utf-8") as fh:
            lines = fh.readlines()
        record = json.loads(next(text for text in lines[40:] if '"packet_in"' in text))
        record["dpid"] = None
        lines.insert(40, json.dumps(record) + "\n")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(ValueError, match="^line 41: packet_in message with a bad 'dpid'"):
            main(["diff", good, bad])


class TestCLIHtmlReport:
    def test_diff_writes_html(self, tmp_path, capsys):
        l1 = str(tmp_path / "l1.jsonl")
        l2 = str(tmp_path / "l2.jsonl")
        out = str(tmp_path / "report.html")
        assert main(["simulate", "--out", l1, "--duration", "15"]) == 0
        assert main(
            ["simulate", "--out", l2, "--duration", "15", "--fault", "logging"]
        ) == 0
        rc = main(["diff", l1, l2, "--html", out])
        assert rc == 1
        content = open(out).read()
        assert "<!DOCTYPE html>" in content
        assert "S3" in content
