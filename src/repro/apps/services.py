"""Special-purpose data center services: DNS, NFS, NTP, DHCP, metadata.

The paper's grouping step needs "domain knowledge to mark the special
purpose nodes inside the data center" (Section III-B): application groups
connected only through a shared DNS or NFS server are separate groups. The
:class:`ServiceDirectory` is that domain knowledge — it names the service
hosts, their well-known ports, and provides the label mapping used when
masking task-signature flows (``NFS:2049`` stays concrete while ordinary
hosts become ``#k`` placeholders).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet

#: Conventional well-known ports for the modeled services.
SERVICE_PORTS = {
    "DNS": 53,
    "NFS": 2049,
    "NTP": 123,
    "DHCP": 67,
    "METADATA": 80,
}


@dataclass
class ServiceDirectory:
    """The set of special-purpose service nodes in a data center.

    Attributes:
        hosts: mapping from service label (``"DNS"``, ``"NFS"``, ...) to
            the host node providing it.
    """

    hosts: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def standard(cls, prefix: str = "svc") -> "ServiceDirectory":
        """A directory with one host per standard service (``svc-dns``...)."""
        return cls(
            hosts={label: f"{prefix}-{label.lower()}" for label in SERVICE_PORTS}
        )

    def host(self, label: str) -> str:
        """The host providing service ``label``.

        Raises:
            KeyError: if the service is not in the directory.
        """
        return self.hosts[label]

    def port(self, label: str) -> int:
        """The well-known port of service ``label`` (default 0 if unknown)."""
        return SERVICE_PORTS.get(label, 0)

    def special_nodes(self) -> FrozenSet[str]:
        """The hosts FlowDiff's grouping must treat as shared services."""
        return frozenset(self.hosts.values())

    def service_names(self) -> Dict[str, str]:
        """Host-to-label mapping for task-signature IP masking."""
        return {host: label for label, host in self.hosts.items()}

    def register_into(self, topology, attach_to: str, latency: float = 0.0001) -> None:
        """Add every service host to ``topology``, attached to one switch.

        Convenience for experiment setup; services live on their own hosts
        off a given (usually core-adjacent) switch.
        """
        for host in self.hosts.values():
            if host not in topology:
                topology.add_host(host)
                topology.add_link(host, attach_to, latency=latency)
