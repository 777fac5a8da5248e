"""Unit and property tests for flow keys, matches, and masking."""

import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.openflow.match import (
    EPHEMERAL_PORT_FLOOR,
    FlowKey,
    MaskedFlow,
    Match,
    mask_flows,
)

flow_keys = st.builds(
    FlowKey,
    src=st.sampled_from(["h1", "h2", "h3", "10.0.0.1"]),
    dst=st.sampled_from(["h4", "h5", "10.0.0.2"]),
    src_port=st.integers(1, 65535),
    dst_port=st.integers(1, 65535),
    proto=st.sampled_from(["tcp", "udp"]),
)


class TestFlowKey:
    def test_reversed_swaps_everything(self):
        key = FlowKey("a", "b", 1000, 80)
        rev = key.reversed()
        assert rev == FlowKey("b", "a", 80, 1000)

    @given(flow_keys)
    def test_double_reverse_is_identity(self, key):
        assert key.reversed().reversed() == key

    def test_str_representation(self):
        assert str(FlowKey("a", "b", 1, 2, "udp")) == "a:1->b:2/udp"

    def test_hashable_and_ordered(self):
        keys = {FlowKey("a", "b", 1, 2), FlowKey("a", "b", 1, 2)}
        assert len(keys) == 1
        assert FlowKey("a", "b", 1, 2) < FlowKey("b", "a", 1, 2)


def _dataclass_flow_key():
    """The frozen dataclass ``FlowKey`` was before it became a named tuple."""

    @dataclass(frozen=True, order=True)
    class FlowKey:
        src: str
        dst: str
        src_port: int
        dst_port: int
        proto: str = "tcp"

    FlowKey.__qualname__ = "FlowKey"  # its repr names the class by qualname
    return FlowKey


OldFlowKey = _dataclass_flow_key()

any_flow_keys = st.builds(
    FlowKey,
    st.text(max_size=6),
    st.text(max_size=6),
    st.integers(0, 65535),
    st.integers(0, 65535),
    st.sampled_from(["tcp", "udp"]),
)


class TestFlowKeyContract:
    """The named tuple keeps every observable of the dataclass it
    replaced: ``repr``, ``hash`` (so dict and set orders, and every
    digest built from them), ordering, ``str`` and the methods."""

    @given(any_flow_keys)
    def test_repr_and_hash_are_the_dataclass_ones(self, key):
        old = OldFlowKey(*key)
        assert repr(key) == repr(old)
        assert hash(key) == hash(old) == hash(tuple(key))

    @given(st.lists(any_flow_keys, max_size=12))
    def test_sorting_is_field_order(self, keys):
        assert [OldFlowKey(*k) for k in sorted(keys)] == sorted(OldFlowKey(*k) for k in keys)

    @given(any_flow_keys)
    def test_str_reversed_and_endpoints(self, key):
        assert str(key) == f"{key.src}:{key.src_port}->{key.dst}:{key.dst_port}/{key.proto}"
        rev = key.reversed()
        assert type(rev) is FlowKey
        assert tuple(rev) == (key.dst, key.src, key.dst_port, key.src_port, key.proto)
        assert key.endpoints() == (key.src, key.dst)

    def test_keywords_default_and_replace(self):
        key = FlowKey(src="a", dst="b", src_port=1, dst_port=2)
        assert key.proto == "tcp"
        assert key == FlowKey("a", "b", 1, 2, "tcp") == ("a", "b", 1, 2, "tcp")
        assert key._replace(proto="udp") == FlowKey("a", "b", 1, 2, "udp")
        assert key._fields == ("src", "dst", "src_port", "dst_port", "proto")

    @given(any_flow_keys)
    def test_pickle_round_trips(self, key):
        back = pickle.loads(pickle.dumps(key))
        assert back == key and type(back) is FlowKey

    @given(any_flow_keys)
    def test_never_equal_to_its_match(self, key):
        assert key != Match.exact(key)
        assert Match.exact(key) != key


class TestMatch:
    def test_exact_match_is_microflow(self):
        key = FlowKey("a", "b", 1000, 80)
        match = Match.exact(key)
        assert match.is_microflow
        assert match.matches(key)
        assert not match.matches(key.reversed())

    def test_destination_wildcard(self):
        match = Match.destination("b")
        assert not match.is_microflow
        assert match.matches(FlowKey("a", "b", 1, 2))
        assert match.matches(FlowKey("x", "b", 9, 9))
        assert not match.matches(FlowKey("a", "c", 1, 2))

    def test_specificity_ordering(self):
        key = FlowKey("a", "b", 1, 2)
        assert Match.exact(key).specificity == 5
        assert Match.destination("b").specificity == 1
        assert Match().specificity == 0

    def test_empty_match_matches_all(self):
        assert Match().matches(FlowKey("x", "y", 5, 6))

    @given(flow_keys)
    def test_exact_always_matches_own_key(self, key):
        assert Match.exact(key).matches(key)

    def test_str_shows_wildcards(self):
        assert "*" in str(Match.destination("b"))


class TestMaskFlows:
    def test_placeholders_by_first_appearance(self):
        flows = [
            FlowKey("hostA", "hostB", 40000, 2049),
            FlowKey("hostB", "hostA", 2049, 40000),
            FlowKey("hostC", "hostA", 41000, 80),
        ]
        masked = mask_flows(flows)
        assert masked[0].src == "#1"
        assert masked[0].dst == "#2"
        assert masked[1].src == "#2"
        assert masked[1].dst == "#1"
        assert masked[2].src == "#3"

    def test_service_names_preserved(self):
        flows = [FlowKey("vm1", "10.0.0.9", 40000, 2049)]
        masked = mask_flows(flows, service_names={"10.0.0.9": "NFS"})
        assert masked[0].dst == "NFS"
        assert masked[0].src == "#1"

    def test_ephemeral_ports_wildcarded(self):
        flows = [FlowKey("a", "b", EPHEMERAL_PORT_FLOOR + 5, 80)]
        assert mask_flows(flows)[0].src_port == "*"

    def test_well_known_ports_kept(self):
        flows = [FlowKey("a", "b", 68, 67)]
        masked = mask_flows(flows)
        assert masked[0].src_port == "68"
        assert masked[0].dst_port == "67"

    def test_extra_well_known_ports(self):
        flows = [FlowKey("a", "b", 32768, 80)]
        masked = mask_flows(flows, well_known_ports=[32768])
        assert masked[0].src_port == "32768"

    def test_unmasked_hosts_mode(self):
        flows = [FlowKey("hostA", "hostB", 40000, 80)]
        masked = mask_flows(flows, mask_hosts=False)
        assert masked[0].src == "hostA"
        assert masked[0].dst == "hostB"
        assert masked[0].src_port == "*"  # port masking still applies

    def test_figure4_representation(self):
        """Reproduce Figure 4's [#1:*-NFS:2049] template."""
        flows = [FlowKey("hostA", "nfs-server", 45123, 2049)]
        masked = mask_flows(flows, service_names={"nfs-server": "NFS"})
        assert str(masked[0]) == "[#1:*-NFS:2049]"

    @given(st.lists(flow_keys, max_size=30))
    def test_same_key_same_template(self, flows):
        masked = mask_flows(flows)
        seen = {}
        for key, template in zip(flows, masked):
            if key in seen:
                assert seen[key] == template
            seen[key] = template

    @given(st.lists(flow_keys, max_size=30))
    def test_output_length_matches(self, flows):
        assert len(mask_flows(flows)) == len(flows)
