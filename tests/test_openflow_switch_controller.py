"""Unit tests for the switch and controller models."""

import random

import pytest

from repro.openflow.controller import Controller, ControllerConfig
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import FlowMod, PacketIn, PacketOut
from repro.openflow.switch import OpenFlowSwitch, TableMiss

KEY = FlowKey("a", "b", 1000, 80)


class TestSwitch:
    def test_miss_then_hit(self):
        sw = OpenFlowSwitch("sw1")
        out, miss = sw.process_packet(KEY, in_port=1, now=0.0, nbytes=100)
        assert out is None
        assert miss == TableMiss(dpid="sw1", flow=KEY, in_port=1)
        sw.install(Match.exact(KEY), out_port=2, now=0.0)
        out, miss = sw.process_packet(KEY, in_port=1, now=0.1, nbytes=100)
        assert out == 2
        assert miss is None

    def test_counters_on_hit(self):
        sw = OpenFlowSwitch("sw1")
        entry = sw.install(Match.exact(KEY), out_port=2, now=0.0)
        sw.process_packet(KEY, 1, 0.1, 300, npackets=3)
        assert entry.byte_count == 300
        assert entry.packet_count == 3

    def test_miss_count(self):
        sw = OpenFlowSwitch("sw1")
        sw.process_packet(KEY, 1, 0.0, 10)
        sw.process_packet(KEY.reversed(), 1, 0.0, 10)
        assert sw.miss_count == 2

    def test_dead_switch_drops_silently(self):
        sw = OpenFlowSwitch("sw1")
        sw.fail()
        out, miss = sw.process_packet(KEY, 1, 0.0, 10)
        assert out is None and miss is None
        assert sw.expire(100.0) == []

    def test_fail_clears_table(self):
        sw = OpenFlowSwitch("sw1")
        sw.install(Match.exact(KEY), out_port=2, now=0.0)
        sw.fail()
        sw.recover()
        out, miss = sw.process_packet(KEY, 1, 1.0, 10)
        assert miss is not None

    def test_expire_respects_send_flow_removed(self):
        sw = OpenFlowSwitch("sw1")
        sw.install(Match.exact(KEY), out_port=2, now=0.0, idle_timeout=1.0)
        sw.install(
            Match.destination("z"),
            out_port=3,
            now=0.0,
            idle_timeout=1.0,
            send_flow_removed=False,
        )
        expired = sw.expire(10.0)
        assert len(expired) == 1
        assert expired[0][0].match == Match.exact(KEY)


class TestController:
    def make(self, **cfg):
        return Controller(
            route_fn=lambda dpid, flow: 4,
            config=ControllerConfig(**cfg),
            rng=random.Random(0),
        )

    def test_reply_logs_three_messages(self):
        ctrl = self.make()
        reply = ctrl.handle_miss(TableMiss("sw1", KEY, 1), arrived_at=1.0)
        assert reply.flow_mod is not None
        assert reply.packet_out is not None
        assert reply.flow_mod.out_port == 4
        assert reply.ready_at > 1.0
        assert len(ctrl.log.of_type(PacketIn)) == 1
        assert len(ctrl.log.of_type(FlowMod)) == 1
        assert len(ctrl.log.of_type(PacketOut)) == 1

    def test_flow_mod_pairs_with_packet_in(self):
        ctrl = self.make()
        reply = ctrl.handle_miss(TableMiss("sw1", KEY, 1), arrived_at=1.0)
        pin = ctrl.log.of_type(PacketIn)[0]
        assert reply.flow_mod.in_reply_to == pin.buffer_id

    def test_unroutable_flow_gets_no_flow_mod(self):
        ctrl = Controller(route_fn=lambda d, f: None, rng=random.Random(0))
        reply = ctrl.handle_miss(TableMiss("sw1", KEY, 1), arrived_at=1.0)
        assert reply.flow_mod is None
        assert len(ctrl.log.of_type(PacketIn)) == 1
        assert len(ctrl.log.of_type(FlowMod)) == 0

    def test_overload_factor_scales_response(self):
        fast = self.make(response_jitter=0.0)
        slow = self.make(response_jitter=0.0)
        slow.overload_factor = 10.0
        r_fast = fast.handle_miss(TableMiss("sw1", KEY, 1), 1.0)
        r_slow = slow.handle_miss(TableMiss("sw1", KEY, 1), 1.0)
        assert (r_slow.ready_at - 1.0) == pytest.approx(
            10.0 * (r_fast.ready_at - 1.0)
        )

    def test_queueing_behind_busy_controller(self):
        ctrl = self.make(base_response=0.01, response_jitter=0.0)
        r1 = ctrl.handle_miss(TableMiss("sw1", KEY, 1), 1.0)
        r2 = ctrl.handle_miss(TableMiss("sw2", KEY, 1), 1.0)
        assert r2.ready_at >= r1.ready_at + 0.01

    def test_load_factor_grows_with_arrival_rate(self):
        ctrl = self.make(base_response=0.001, response_jitter=0.0, capacity=100.0)
        # Saturate the load window.
        for _ in range(200):
            ctrl._recent_arrivals.append(1.0)
        loaded = ctrl.response_time(1.0)
        idle = ControllerConfig().base_response
        assert loaded > 0.002  # at least 2x inflation near capacity

    def test_dead_controller_never_replies(self):
        ctrl = self.make()
        ctrl.fail()
        reply = ctrl.handle_miss(TableMiss("sw1", KEY, 1), 1.0)
        assert reply.flow_mod is None
        assert reply.ready_at == float("inf")
        ctrl.recover()
        assert ctrl.handle_miss(TableMiss("sw1", KEY, 1), 2.0).flow_mod is not None

    def test_wildcard_rule_mode(self):
        ctrl = self.make(use_microflow_rules=False)
        reply = ctrl.handle_miss(TableMiss("sw1", KEY, 1), 1.0)
        assert not reply.flow_mod.match.is_microflow
        assert reply.flow_mod.match.dst == KEY.dst
