"""Stateful property tests: the flow table against a reference model.

Hypothesis drives random install / lookup / advance-time / expire
sequences against both the real :class:`FlowTable` and a brute-force
reference implementation, checking they never disagree about which entry
matches and what expires.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import FlowKey, Match

HOSTS = ["h1", "h2", "h3"]
PORTS = [80, 443]


def keys():
    return st.builds(
        FlowKey,
        src=st.sampled_from(HOSTS),
        dst=st.sampled_from(HOSTS),
        src_port=st.sampled_from([1000, 2000]),
        dst_port=st.sampled_from(PORTS),
    )


class FlowTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = FlowTable()
        self.reference = []  # list of live FlowEntry mirrors
        self.now = 0.0
        self.out_port = 0

    # ------------------------------------------------------------------

    @rule(key=keys(), idle=st.sampled_from([0.0, 2.0, 5.0]),
          hard=st.sampled_from([0.0, 10.0]),
          priority=st.integers(0, 3),
          wildcard=st.booleans())
    def install(self, key, idle, hard, priority, wildcard):
        self.out_port += 1
        match = Match.destination(key.dst) if wildcard else Match.exact(key)
        entry = FlowEntry(
            match=match,
            out_port=self.out_port,
            priority=priority,
            idle_timeout=idle,
            hard_timeout=hard,
            created_at=self.now,
        )
        self.table.install(entry)
        self.reference = [
            e
            for e in self.reference
            if not (e.match == match and e.priority == priority)
        ]
        self.reference.append(entry)

    @rule(dt=st.floats(0.1, 4.0))
    def advance(self, dt):
        self.now += dt

    @rule(key=keys(), nbytes=st.integers(1, 5000))
    def lookup_and_touch(self, key, nbytes):
        got = self.table.lookup(key, self.now)
        live = [
            e
            for e in self.reference
            if e.expired_reason(self.now) is None and e.match.matches(key)
        ]
        if not live:
            assert got is None
            return
        expected = max(
            live, key=lambda e: (e.priority, e.match.specificity, e.created_at)
        )
        assert got is expected, (got, expected)
        got.record_match(self.now, nbytes)

    @rule()
    def collect_expired(self):
        expired = self.table.collect_expired(self.now)
        expected = {
            id(e)
            for e in self.reference
            if e.expired_reason(self.now) is not None
        }
        assert {id(e) for e, _ in expired} == expected
        self.reference = [
            e for e in self.reference if e.expired_reason(self.now) is None
        ]

    # ------------------------------------------------------------------

    @invariant()
    def table_size_matches_reference(self):
        # The real table may still hold expired entries (lazy eviction),
        # but never fewer than the reference's live set.
        live = sum(
            1 for e in self.reference if e.expired_reason(self.now) is None
        )
        assert len(self.table) >= live


TestFlowTableStateful = FlowTableMachine.TestCase
TestFlowTableStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
