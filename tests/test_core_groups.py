"""Unit tests for application-group extraction and cross-log matching."""

from repro.core.events import FlowArrival
from repro.core.groups import (
    ApplicationGroup,
    extract_groups,
    match_groups,
)
from repro.openflow.match import FlowKey


def arrival(src, dst, t=1.0):
    return FlowArrival(flow=FlowKey(src, dst, 1000, 80), time=t, hops=())


class TestExtractGroups:
    def test_connected_hosts_one_group(self):
        groups = extract_groups([arrival("a", "b"), arrival("b", "c")])
        assert len(groups) == 1
        assert groups[0].members == {"a", "b", "c"}

    def test_disjoint_apps_separate_groups(self):
        groups = extract_groups([arrival("a", "b"), arrival("x", "y")])
        assert len(groups) == 2

    def test_special_node_does_not_merge(self):
        """Two apps sharing only a DNS server stay separate (Section III-B)."""
        arrivals = [
            arrival("a", "b"),
            arrival("x", "y"),
            arrival("a", "dns"),
            arrival("x", "dns"),
        ]
        groups = extract_groups(arrivals, special_nodes={"dns"})
        assert len(groups) == 2
        for group in groups:
            assert "dns" not in group.members
            assert "dns" in group.services

    def test_without_special_marking_groups_merge(self):
        """The same traffic without domain knowledge collapses to one group."""
        arrivals = [
            arrival("a", "b"),
            arrival("x", "y"),
            arrival("a", "dns"),
            arrival("x", "dns"),
        ]
        groups = extract_groups(arrivals)
        assert len(groups) == 1

    def test_service_to_service_traffic_ignored(self):
        arrivals = [arrival("dns", "ntp"), arrival("a", "b")]
        groups = extract_groups(arrivals, special_nodes={"dns", "ntp"})
        assert len(groups) == 1
        assert groups[0].members == {"a", "b"}

    def test_groups_sorted_deterministically(self):
        arrivals = [arrival("z", "w"), arrival("a", "b")]
        groups = extract_groups(arrivals)
        assert groups[0].key < groups[1].key

    def test_owns_edge(self):
        group = ApplicationGroup(
            members=frozenset({"a", "b"}), services=frozenset({"dns"})
        )
        assert group.owns_edge("a", "b")
        assert group.owns_edge("a", "dns")
        assert group.owns_edge("dns", "b")
        assert not group.owns_edge("dns", "dns")
        assert not group.owns_edge("x", "y")


class TestMatchGroups:
    def g(self, *members):
        return ApplicationGroup(members=frozenset(members), services=frozenset())

    def test_identical_groups_pair(self):
        base = [self.g("a", "b"), self.g("x", "y")]
        cur = [self.g("x", "y"), self.g("a", "b")]
        pairs = match_groups(base, cur)
        assert all(b is not None and c is not None for b, c in pairs)
        for b, c in pairs:
            assert b.members == c.members

    def test_shrunk_group_still_pairs(self):
        base = [self.g("a", "b", "c")]
        cur = [self.g("a", "b")]
        pairs = match_groups(base, cur)
        assert pairs[0][1].members == {"a", "b"}

    def test_vanished_group_pairs_none(self):
        pairs = match_groups([self.g("a", "b")], [])
        assert pairs == [(match_groups([self.g("a", "b")], [])[0][0], None)]

    def test_new_group_appended(self):
        pairs = match_groups([], [self.g("n", "m")])
        assert pairs[0][0] is None
        assert pairs[0][1].members == {"n", "m"}

    def test_no_overlap_means_no_pair(self):
        pairs = match_groups([self.g("a", "b")], [self.g("x", "y")])
        matched = [(b, c) for b, c in pairs if b is not None and c is not None]
        assert not matched
        assert len(pairs) == 2

    def test_best_overlap_wins(self):
        base = [self.g("a", "b", "c")]
        cur = [self.g("a", "z"), self.g("a", "b", "q")]
        pairs = match_groups(base, cur)
        paired = [c for b, c in pairs if b is not None and c is not None]
        assert paired[0].members == {"a", "b", "q"}
