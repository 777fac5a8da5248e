"""Link model: propagation latency, capacity, loss, and queueing delay.

Links carry three kinds of state FlowDiff experiments manipulate:

* ``loss_rate`` -- per-packet drop probability, raised by the link-loss
  fault; the transport model converts it into retransmission byte/delay
  inflation (Figure 9).
* utilization -- an exponentially decayed estimate of offered load versus
  capacity, fed by every flow the network routes across the link; the
  queueing-delay model inflates effective latency as utilization approaches
  1, which is how background (iperf-style) traffic perturbs the ISL and DD
  signatures (Table I, problem 7).
* ``up`` -- links can be severed to create network disconnectivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class LinkState:
    """Mutable utilization bookkeeping for one link direction-pair."""

    #: Exponentially decayed bytes/second estimate of offered load.
    offered_rate: float = 0.0
    #: Time of the last utilization update.
    updated_at: float = 0.0


@dataclass(slots=True)
class Link:
    """A bidirectional link between two nodes.

    Attributes:
        a: one endpoint node id.
        b: other endpoint node id.
        latency: one-way propagation delay in seconds.
        bandwidth: capacity in bytes per second.
        loss_rate: per-packet drop probability in [0, 1].
        up: live flag; a down link breaks every path through it.
        decay: time constant (seconds) of the utilization estimator.
    """

    a: str
    b: str
    latency: float = 0.0005
    bandwidth: float = 125_000_000.0  # 1 Gbps in bytes/s
    loss_rate: float = 0.0
    up: bool = True
    decay: float = 1.0
    state: LinkState = field(default_factory=LinkState)

    def key(self) -> tuple:
        """Canonical (sorted) endpoint pair identifying the link."""
        return tuple(sorted((self.a, self.b)))

    def record_traffic(self, now: float, nbytes: int, duration: float) -> None:
        """Account a flow of ``nbytes`` spread over ``duration`` seconds.

        The offered-rate estimate decays exponentially between updates, so
        bursts fade and steady background traffic accumulates — enough
        fidelity for congestion to move latency distributions without
        simulating queues packet by packet.
        """
        self._decay_to(now)
        effective_duration = max(duration, 1e-6)
        self.state.offered_rate += nbytes / effective_duration

    def _decay_to(self, now: float) -> None:
        dt = now - self.state.updated_at
        if dt > 0:
            self.state.offered_rate *= pow(2.718281828459045, -dt / self.decay)
            self.state.updated_at = now

    def utilization(self, now: float) -> float:
        """Current load fraction in [0, 1); saturates just below 1."""
        self._decay_to(now)
        if self.bandwidth <= 0:
            return 0.95
        return min(0.95, self.state.offered_rate / self.bandwidth)

    def effective_latency(self, now: float) -> float:
        """Propagation delay inflated by M/M/1-style queueing.

        ``latency / (1 - utilization)``: negligible when idle, several-fold
        under heavy background traffic. This is what shifts the ISL and DD
        signatures during the congestion experiments.
        """
        return self.latency / (1.0 - self.utilization(now))

    def fail(self) -> None:
        """Sever the link."""
        self.up = False

    def recover(self) -> None:
        """Restore the link."""
        self.up = True
