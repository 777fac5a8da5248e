"""Server processing behaviour and its fault hooks.

A server's externally observable behaviour, from the control plane's
vantage point, is the *time between its incoming and outgoing flows* — the
processing delay. The delay-distribution signature peaks at this value
(Section III-B; the custom app's 60 ms is Figure 10's ground truth).

Faults perturb exactly this quantity:

* mis-configured INFO logging adds a fixed overhead per request (Table I,
  problem 1);
* a background CPU hog multiplies service time (problem 3);
* a crash stops the server from producing downstream flows at all
  (problem 4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class DelayModel:
    """A processing-delay distribution: truncated Gaussian.

    Attributes:
        mean: mean service time in seconds.
        std: standard deviation in seconds.
        floor: minimum service time (samples are clamped here).
    """

    mean: float = 0.06
    std: float = 0.005
    floor: float = 0.0005

    def sample(self, rng: random.Random) -> float:
        """Draw one service time."""
        return max(self.floor, rng.gauss(self.mean, self.std))


@dataclass
class ServerBehavior:
    """Mutable per-server state: the delay model plus fault modifiers.

    Attributes:
        delay: the healthy processing-delay model.
        logging_overhead: additive seconds per request (logging fault).
        cpu_factor: multiplicative service-time factor (CPU-contention
            fault); 1.0 when healthy.
        crashed: a crashed server consumes requests without responding or
            producing downstream flows.
    """

    delay: DelayModel = field(default_factory=DelayModel)
    logging_overhead: float = 0.0
    cpu_factor: float = 1.0
    crashed: bool = False

    def service_time(self, rng: random.Random) -> float:
        """Sample the effective service time with all faults applied."""
        return self.delay.sample(rng) * self.cpu_factor + self.logging_overhead


class ServerFarm:
    """A registry of per-host server behaviours.

    Hosts not explicitly configured get a default healthy behaviour on
    first access, so fault injectors can target any host by name.
    """

    def __init__(self, default_delay: Optional[DelayModel] = None) -> None:
        self._default_delay = default_delay or DelayModel()
        self._behaviors: Dict[str, ServerBehavior] = {}

    def behavior(self, host: str) -> ServerBehavior:
        """The behaviour record for ``host`` (created lazily)."""
        if host not in self._behaviors:
            self._behaviors[host] = ServerBehavior(
                delay=DelayModel(
                    mean=self._default_delay.mean,
                    std=self._default_delay.std,
                    floor=self._default_delay.floor,
                )
            )
        return self._behaviors[host]

    def set_delay(self, host: str, mean: float, std: float = 0.0) -> None:
        """Set the healthy processing delay for ``host``."""
        behavior = self.behavior(host)
        behavior.delay.mean = mean
        behavior.delay.std = std

    def enable_logging_fault(self, host: str, overhead: float = 0.04) -> None:
        """Inject the logging-misconfiguration fault (Table I, problem 1)."""
        self.behavior(host).logging_overhead = overhead

    def enable_cpu_fault(self, host: str, factor: float = 3.0) -> None:
        """Inject the high-CPU background-process fault (problem 3)."""
        self.behavior(host).cpu_factor = factor

    def crash(self, host: str) -> None:
        """Crash the application process on ``host`` (problem 4)."""
        self.behavior(host).crashed = True
