"""The capture format's field table, and the pinned field set of every
serialized family.

Three families leave this codebase as JSON: capture logs
(:mod:`repro.openflow.serialize`), behavior models
(:mod:`repro.core.persist` framing each signature's ``to_dict``) and task
libraries (:mod:`repro.core.tasks.serialize`). A key added, renamed or
dropped in any of them corrupts diffs against artifacts written earlier,
unless the family's ``FORMAT_VERSION`` is bumped so that old readers
refuse loudly. Each family's key set is pinned here under its version: a
change to the keys fails until the version is bumped and the pin is
re-recorded, in one deliberate edit.

The capture format is spelled out once, in the field table of
:mod:`repro.openflow.serialize`; the canonical-line builders stay per
type, and the tests here hold them to it.
"""

import dataclasses
import inspect
import io
import json

import pytest

from repro.core import persist
from repro.core.flowdiff import FlowDiff
from repro.core.tasks import TaskLibrary
from repro.core.tasks.automaton import TaskAutomaton
from repro.core.tasks.library import TaskSignature
from repro.core.tasks import serialize as tasks_serialize
from repro.openflow import serialize
from repro.openflow.match import FlowKey
from repro.openflow.serialize import load_log, read_log, save_log
from repro.scenarios import three_tier_lab
from repro.workload.traces import VMTraceSynthesizer
from tests.test_determinism import DURATION

CAPTURE_FIELDS = {
    1: [
        "buffer_id",
        "bytes",
        "command",
        "corr",
        "dpid",
        "dport",
        "dst",
        "duration",
        "flow",
        "hard",
        "idle",
        "in_port",
        "in_reply_to",
        "live",
        "match",
        "out_port",
        "packets",
        "port",
        "priority",
        "proto",
        "reason",
        "replied",
        "sport",
        "src",
        "ts",
        "type",
    ]
}
MODEL_FIELDS = {
    1: [
        "app_signatures",
        "attachment",
        "bin_width",
        "byte_mean",
        "byte_std",
        "bytes_per_sec",
        "cg",
        "ci",
        "correlations",
        "count",
        "counts",
        "crt",
        "dd",
        "duration_mean",
        "duration_std",
        "edges",
        "epoch",
        "first_seen",
        "flow_count",
        "flows_per_sec",
        "fs",
        "group",
        "infrastructure",
        "isl",
        "links",
        "mean",
        "members",
        "n",
        "n_first",
        "observations",
        "packet_mean",
        "pair",
        "pairs",
        "pc",
        "peaks",
        "per_edge_bytes",
        "port_down_events",
        "pt",
        "services",
        "stability",
        "stats",
        "std",
        "stderr",
        "version",
        "window",
    ]
}
TASK_FIELDS = {
    1: [
        "accept_states",
        "automaton",
        "dp",
        "dst",
        "interleave_threshold",
        "masked",
        "min_sup",
        "n_runs",
        "patterns",
        "proto",
        "service_names",
        "signatures",
        "sp",
        "src",
        "start_states",
        "support",
        "t",
        "transitions",
        "version",
    ]
}


def key_set(value, data_keys=()):
    """Every key of every object in ``value``, sorted. The keys of an
    object held under one of ``data_keys`` are data (group names, task
    names), not fields: only their values are walked."""
    keys = set()

    def walk(item, data):
        if isinstance(item, dict):
            for key, inner in item.items():
                if not data:
                    keys.add(key)
                walk(inner, not data and key in data_keys)
        elif isinstance(item, list):
            for inner in item:
                walk(inner, False)

    walk(value, False)
    return sorted(keys)


def every_type():
    """``(name, class, fields)`` per message type, head first."""
    for name, (cls, body) in serialize._MESSAGES.items():
        yield name, cls, serialize._HEAD + body


TYPES = list(every_type())


class TestPins:
    def test_capture_fields_are_the_table_keys(self):
        keys = {serialize._TYPE}
        keys.update(field.key for field in serialize._FLOW_FIELDS)
        for _, _, fields in every_type():
            keys.update(field.key for field in fields)
        assert {serialize.FORMAT_VERSION: sorted(keys)} == CAPTURE_FIELDS

    def test_model_fields_are_those_of_the_golden_lab_model(self, tmp_path):
        path = str(tmp_path / "lab.jsonl")
        save_log(three_tier_lab(seed=5).run(0.5, float(DURATION)), path)
        model = FlowDiff().model(read_log(path))
        keys = key_set(persist.model_to_dict(model), data_keys={"app_signatures"})
        assert {persist.FORMAT_VERSION: keys} == MODEL_FIELDS

    def test_task_library_fields_are_those_of_a_library_of_both_label_kinds(self):
        """Learning labels flows as masked templates; an automaton over raw
        5-tuples is built directly."""
        synth = VMTraceSynthesizer.ec2_quartet(seed=7)
        library = TaskLibrary(service_names=synth.service_names())
        library.learn("startup", synth.training_runs("i-3486634d", 10))
        raw = TaskAutomaton.build([[FlowKey("vm", "nfs", 40000, 2049)]] * 2)
        library.signatures["mount"] = TaskSignature("mount", raw, False, 2, 0.6)
        keys = key_set(
            tasks_serialize.library_to_dict(library),
            data_keys={"service_names", "signatures"},
        )
        assert {tasks_serialize.FORMAT_VERSION: keys} == TASK_FIELDS


class TestTable:
    @pytest.mark.parametrize("name, cls, fields", TYPES, ids=[t[0] for t in TYPES])
    def test_rows_are_the_class_fields_in_order_with_their_defaults(self, name, cls, fields):
        """Decode builds each message positionally, in table order."""
        declared = dataclasses.fields(cls)
        assert [field.attr for field in fields] == [f.name for f in declared]
        for field, declared_field in zip(fields, declared):
            if field.default is not serialize._REQUIRED:
                assert field.default == declared_field.default
                assert type(field.default) is type(declared_field.default)

    def test_flow_rows_are_the_flow_key_fields(self):
        assert [field.attr for field in serialize._FLOW_FIELDS] == list(FlowKey._fields)
        defaults = {
            field.attr: field.default
            for field in serialize._FLOW_FIELDS
            if field.default is not serialize._REQUIRED
        }
        assert defaults == FlowKey._field_defaults

    @pytest.mark.parametrize("prefix", sorted(serialize._CANONICAL))
    def test_canonical_builders_take_the_table_fields_in_order(self, prefix):
        (name, cls, fields) = [t for t in every_type() if t[0][:8] == prefix][0]
        builder = serialize._CANONICAL[prefix][1]
        assert list(inspect.signature(builder).parameters)[1:] == [f.attr for f in fields]
        assert inspect.signature(builder).return_annotation == cls.__name__

    @pytest.mark.parametrize("name, cls, fields", TYPES, ids=[t[0] for t in TYPES])
    def test_line_writes_the_table_keys_in_order(self, name, cls, fields):
        for corr in (None, 7):
            written = json.loads(serialize.line(cls(timestamp=1.0, dpid="sw1", corr_id=corr)))
            keys = [f.key for f in fields if corr is not None or not f.sparse]
            assert list(written) == [serialize._TYPE, *keys]
            assert written[serialize._TYPE] == name


#: The key a type needs besides the head, set to null.
SUBJECT = {
    "packet_in": "flow",
    "packet_out": "flow",
    "flow_mod": "match",
    "flow_removed": "match",
    "flow_stats": "match",
}


class TestKinds:
    @pytest.mark.parametrize(
        "message, field, value",
        [
            ("flow_mod", "in_reply_to", '"7"'),
            ("flow_mod", "in_reply_to", "true"),
            ("packet_in", "corr", "1.5"),
            ("echo", "corr", "false"),
            ("flow_removed", "bytes", "true"),
            ("flow_removed", "packets", "2.5"),
            ("flow_stats", "bytes", "10.0"),
            ("packet_in", "in_port", "[1]"),
            ("packet_in", "buffer_id", "false"),
            ("packet_out", "out_port", "true"),
            ("flow_mod", "priority", "null"),
            ("port_status", "port", '"eth0"'),
            ("flow_mod", "idle", '"x"'),
            ("flow_mod", "hard", "true"),
            ("flow_removed", "duration", "true"),
            ("flow_stats", "duration", "1e400"),
            ("port_status", "live", "1"),
            ("echo", "replied", '"yes"'),
        ],
    )
    def test_a_value_not_of_its_kind_is_refused(self, message, field, value):
        """Each of these used to decode, and modeling then went wrong
        quietly: a string ``in_reply_to`` never pairs (CRT loses the
        reply), ``true`` counts as one byte, ``2`` and ``2.0`` tie."""
        subject = ', "%s": null' % SUBJECT[message] if message in SUBJECT else ""
        text = '{"type": "%s", "ts": 1.0, "dpid": "sw1"%s, "%s": %s}\n' % (
            message,
            subject,
            field,
            value,
        )
        why = "^line 1: %s message with a bad '%s'" % (message, field)
        with pytest.raises(ValueError, match=why):
            load_log(io.StringIO(text))

    def test_a_float_field_reads_an_integer_as_a_float(self):
        text = (
            '{"type": "flow_mod", "ts": 3, "dpid": "sw1", "match": null, "idle": 5, "hard": 0}\n'
            '{"type": "flow_removed", "ts": 4, "dpid": "sw1", "match": null, "duration": 2}\n'
        )
        mod, removed = load_log(io.StringIO(text))
        values = [mod.timestamp, mod.idle_timeout, mod.hard_timeout, removed.duration]
        assert values == [3.0, 5.0, 0.0, 2.0]
        assert {type(value) for value in values} == {float}
