"""Flow keys, wildcard matches, and the IP masking used by task signatures.

The paper defines a flow "by the source-destination IPs and ports"
(Section III-D). :class:`FlowKey` is that identity. :class:`Match` is the
OpenFlow-style match structure installed into switch flow tables; it is
either a *microflow* (every field concrete) or contains wildcards, which is
the paper's Section VI lever for reducing control traffic at the cost of
measurement granularity.

Task signatures additionally need *masked* flows (Table III): concrete host
IPs are replaced with positional placeholders (``#1``, ``#2``, ...) so an
automaton learned on one VM generalizes to any VM, while well-known service
endpoints (e.g. ``NFS:2049``) stay concrete. Ephemeral source ports are
wildcarded to ``*`` exactly as in the paper's Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.openflow.frozen import slot_init

#: Source ports at or above this value are treated as ephemeral (client-side)
#: and wildcarded when building task-signature flow templates.
EPHEMERAL_PORT_FLOOR = 10000


class FlowKey(NamedTuple):
    """The identity of a network flow: a 5-tuple (a named tuple).

    One is decoded per capture line and hashed several times per flow in
    every modeling pass, so it is a tuple: hashing, equality and ordering
    run in C, field by field in declaration order. It therefore compares
    equal to, and hashes like, a plain 5-tuple of the same fields
    (``FlowKey("a", "b", 1, 2) == ("a", "b", 1, 2, "tcp")``), but never
    equals a :class:`Match`. ``_replace`` and ``_fields`` apply to it;
    ``dataclasses.replace`` / ``fields`` do not.

    Attributes:
        src: source endpoint identifier (an IP address or a host name; the
            substrate treats it as an opaque string).
        dst: destination endpoint identifier.
        src_port: transport-layer source port.
        dst_port: transport-layer destination port.
        proto: transport protocol, ``"tcp"`` or ``"udp"``.
    """

    src: str
    dst: str
    src_port: int
    dst_port: int
    proto: str = "tcp"

    def reversed(self) -> "FlowKey":
        """Return the key of the reverse-direction flow (e.g. the response)."""
        return FlowKey(self.dst, self.src, self.dst_port, self.src_port, self.proto)

    def endpoints(self) -> Tuple[str, str]:
        """Return the ``(src, dst)`` endpoint pair."""
        return self.src, self.dst

    def __str__(self) -> str:
        return (
            f"{self.src}:{self.src_port}->{self.dst}:{self.dst_port}/{self.proto}"
        )


@slot_init
@dataclass(frozen=True, slots=True)
class Match:
    """An OpenFlow match: concrete fields match exactly, ``None`` wildcards.

    A match with every field concrete is a *microflow* entry; any ``None``
    field makes it a wildcard entry that aggregates multiple flows under one
    table entry (Section VI, "Wildcard rules").

    Slotted (73 B against 113 B with an instance dict, by tracemalloc),
    with the ``__init__`` of :func:`~repro.openflow.frozen.slot_init`, like
    the messages that carry it.
    """

    src: Optional[str] = None
    dst: Optional[str] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    proto: Optional[str] = None

    @classmethod
    def exact(cls, key: FlowKey) -> "Match":
        """Build the microflow match for ``key``.

        :class:`FlowKey` declares the same fields in the same order, so the
        key unpacks straight into the match.
        """
        return cls(*key)

    @classmethod
    def destination(cls, dst: str) -> "Match":
        """Build a destination-only wildcard match (L2-learning style)."""
        return cls(dst=dst)

    def matches(self, key: FlowKey) -> bool:
        """Return True if ``key`` falls under this match."""
        return (
            (self.src is None or self.src == key.src)
            and (self.dst is None or self.dst == key.dst)
            and (self.src_port is None or self.src_port == key.src_port)
            and (self.dst_port is None or self.dst_port == key.dst_port)
            and (self.proto is None or self.proto == key.proto)
        )

    @property
    def is_microflow(self) -> bool:
        """True when every field is concrete (matches a single flow)."""
        return None not in (
            self.src,
            self.dst,
            self.src_port,
            self.dst_port,
            self.proto,
        )

    @property
    def specificity(self) -> int:
        """The number of concrete fields; used for priority tie-breaking."""
        return sum(
            f is not None
            for f in (self.src, self.dst, self.src_port, self.dst_port, self.proto)
        )

    def __str__(self) -> str:
        def show(v: object) -> str:
            return "*" if v is None else str(v)

        return (
            f"{show(self.src)}:{show(self.src_port)}->"
            f"{show(self.dst)}:{show(self.dst_port)}/{show(self.proto)}"
        )


@dataclass(frozen=True, order=True)
class MaskedFlow:
    """A flow template with host placeholders and wildcarded ephemeral ports.

    This is the representation in the paper's Figure 4: e.g.
    ``[#1:*-NFS:2049]`` becomes ``MaskedFlow("#1", "*", "NFS", "2049")``.
    Ports are strings so that the wildcard ``"*"`` coexists with concrete
    values.
    """

    src: str
    src_port: str
    dst: str
    dst_port: str

    def __str__(self) -> str:
        return f"[{self.src}:{self.src_port}-{self.dst}:{self.dst_port}]"


def mask_flows(
    flows: Sequence[FlowKey],
    service_names: Optional[Mapping[str, str]] = None,
    well_known_ports: Iterable[int] = (),
    mask_hosts: bool = True,
) -> List[MaskedFlow]:
    """Convert concrete flows into generalized :class:`MaskedFlow` templates.

    Host identifiers are replaced by ``#k`` placeholders in order of first
    appearance, except for hosts listed in ``service_names`` (e.g. the NFS
    server), which keep their service name. Source ports at or above
    :data:`EPHEMERAL_PORT_FLOOR` become ``"*"``; destination ports and
    well-known source ports stay concrete. With ``mask_hosts=False`` only
    the port generalization is applied, which reproduces the paper's
    "not masked" task-automaton variant (Table III).

    Args:
        flows: the flow sequence of one task run, in time order.
        service_names: mapping from concrete host identifier to a stable
            service label (``{"10.0.0.9": "NFS"}``).
        well_known_ports: extra source ports to keep concrete even if they
            fall in the ephemeral range.
        mask_hosts: whether to replace non-service hosts with placeholders.

    Returns:
        One :class:`MaskedFlow` per input flow, preserving order.
    """
    services = dict(service_names or {})
    keep_ports = set(well_known_ports)
    placeholders: Dict[str, str] = {}

    def host_label(host: str) -> str:
        if host in services:
            return services[host]
        if not mask_hosts:
            return host
        if host not in placeholders:
            placeholders[host] = f"#{len(placeholders) + 1}"
        return placeholders[host]

    def port_label(port: int) -> str:
        if port in keep_ports or port < EPHEMERAL_PORT_FLOOR:
            return str(port)
        return "*"

    masked = []
    for flow in flows:
        masked.append(
            MaskedFlow(
                src=host_label(flow.src),
                src_port=port_label(flow.src_port),
                dst=host_label(flow.dst),
                dst_port=str(flow.dst_port),
            )
        )
    return masked
