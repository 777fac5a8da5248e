"""Property tests for the window grid both monitoring loops share.

Window ``k`` is ``[origin + k·W, origin + (k+1)·W)``; ``index(ts)`` names
the window holding ``ts``, and the batch monitor and the streaming tenant
must place a message in the same window.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.core.flowdiff import FlowDiff
from repro.core.monitor import DiagnosisStream, SlidingDiagnoser
from repro.openflow.log import ControllerLog
from repro.openflow.messages import EchoRequest
from repro.service import TenantPipeline

#: Origins near zero, mid-range, and at Unix-epoch scale (about 1.8e9).
origins = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=1e3, max_value=1e7),
    st.floats(min_value=1.5e9, max_value=2.1e9),
)
widths = st.one_of(
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=1.0, max_value=3600.0),
)


def grid(origin, window):
    stream = DiagnosisStream(FlowDiff(), window)
    stream.origin = origin
    return stream


def placeable_ts(origin, window, fraction):
    """A timestamp at ``fraction`` of the way from ``origin`` to the
    placeable limit, about ``2**42`` windows out."""
    return origin + fraction * window * 2.0**42


class TestGrid:
    @settings(max_examples=300, deadline=None)
    @given(origins, widths, st.floats(min_value=-1.0, max_value=1.0))
    def test_every_placeable_ts_lands_in_exactly_one_window(self, origin, window, fraction):
        stream = grid(origin, window)
        ts = placeable_ts(origin, window, fraction)
        assume(stream.placeable(ts))
        k = stream.index(ts)
        assert stream.edge(k) <= ts < stream.edge(k + 1)

    @settings(max_examples=300, deadline=None)
    @given(origins, widths, st.integers(min_value=-(10**6), max_value=10**6))
    def test_an_edge_opens_its_own_window(self, origin, window, k):
        stream = grid(origin, window)
        assert stream.index(stream.edge(k)) == k

    def test_placeable_rule(self):
        assert not grid(0.0, 10.0).placeable(1e18)
        assert not grid(0.0, 10.0).placeable(1e17)
        assert not grid(0.0, 10.0).placeable(float("inf"))
        assert not grid(0.0, 10.0).placeable(float("nan"))
        assert grid(0.0, 1e-3).placeable(1.8e9)
        assert grid(0.0, 10.0).placeable(1.8e9 + 10.0 * 10**6)


class TestBothLoopsPlaceAlike:
    @settings(max_examples=40, deadline=None)
    @given(
        origins,
        widths,
        st.floats(min_value=1e-3, max_value=100.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_batch_and_tenant_open_the_same_window(self, t_first, window, span, fraction):
        """One message at ``t_first`` is the baseline; the next, at ``ts``,
        is the first past it. Both loops must open the window holding it."""
        origin = t_first + span
        ts = placeable_ts(origin, window, fraction)
        assume(ts >= origin and grid(origin, window).placeable(ts))
        first = EchoRequest(timestamp=t_first, dpid="s1")
        later = EchoRequest(timestamp=ts, dpid="s1")

        batch = SlidingDiagnoser(window=window)
        log = ControllerLog([first, later])
        batch.set_baseline(log, t_first, origin)
        batch.advance(log)

        tenant = TenantPipeline("t", window=window, baseline_span=span)
        tenant.ingest([first, later])

        assert tenant.stream.origin == batch.origin == origin
        assert tenant.stream.k == batch.k == batch.index(ts)
        assert len(tenant.history) == len(batch.history) == (batch.k > 0)
