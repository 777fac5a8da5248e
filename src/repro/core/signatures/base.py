"""Shared signature vocabulary: the base contract, kinds, change records."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple


class Signature:
    """Base class of every signature component (CG/FS/CI/DD/PC/PT/ISL/CRT).

    Subclasses are frozen dataclasses holding exactly what their
    ``to_dict`` writes: counts, summaries and histogram peaks, never the
    raw samples they were computed from. Each is built in one place (its
    ``build`` classmethod, called by
    :func:`~repro.core.signatures.application.build_application_signatures`
    and
    :func:`~repro.core.signatures.infrastructure.build_infrastructure_signature`
    for batch and streaming windows alike), so a built signature and a
    reloaded one are the same type with the same fields. ``build``
    arguments vary per component, so the contract is enforced statically
    by the ``signature-contract`` lint rule of :mod:`repro.qa` instead of
    by ``abc``. Every direct subclass must define:

    * ``diff(self, other, ...)`` — change records of ``other`` (current)
      against ``self`` (baseline).
    * ``to_dict(self)`` — the persisted-JSON encoding; consumed by
      :mod:`repro.core.persist`.
    * ``from_dict(cls, data)`` — rebuild from :meth:`to_dict` output. The
      round-trip is an identity: ``from_dict(sig.to_dict()) == sig``
      (``tests/test_signature_contract.py`` checks it per class).
    """

    __slots__ = ()


class SignatureKind(str, enum.Enum):
    """The eight signature components of Figure 2(a) / Section III-C."""

    CG = "CG"  # connectivity graph
    FS = "FS"  # flow statistics
    CI = "CI"  # component interaction
    DD = "DD"  # delay distribution
    PC = "PC"  # partial correlation
    PT = "PT"  # physical topology
    ISL = "ISL"  # inter-switch latency
    CRT = "CRT"  # controller response time


@dataclass(frozen=True)
class ChangeRecord:
    """One detected difference between two signature snapshots.

    Attributes:
        kind: which signature component changed.
        scope: the application group key, or ``"infrastructure"``.
        description: human-readable summary of the change.
        components: physical/logical components (hosts, switches, links as
            ``"a--b"``) implicated — the paper's localization unit.
        magnitude: dimensionless change size (per-kind semantics: edge
            counts for CG/PT, chi-squared for CI, peak shift for DD, delta
            for PC, relative change for FS, mean-shift-in-std for ISL/CRT).
        timestamp: earliest time the change is visible in the current log
            (used to align against the task time series); None when the
            change is an absence.
        direction: ``"added"`` for newly appeared structure, ``"removed"``
            for vanished structure, ``"shifted"`` for value changes —
            problem classification uses this to tell unauthorized access
            (new edges) from failures (missing edges).
    """

    kind: SignatureKind
    scope: str
    description: str
    components: FrozenSet[str] = frozenset()
    magnitude: float = 0.0
    timestamp: Optional[float] = None
    direction: str = "shifted"

    def brief(self) -> str:
        """A one-line rendering used in reports."""
        ts = f" @{self.timestamp:.2f}s" if self.timestamp is not None else ""
        return f"[{self.kind.value}] {self.scope}: {self.description}{ts}"


def edge_component(a: str, b: str) -> str:
    """Canonical component name for the link/edge between two nodes."""
    return f"{a}--{b}"


# ----------------------------------------------------------------------
# JSON encoding helpers shared by the signature ``to_dict``/``from_dict``
# implementations (and re-used by :mod:`repro.core.persist`). Edges are
# 2-lists, edge pairs are 2-lists of 2-lists — JSON has no tuples.
# ----------------------------------------------------------------------


def encode_edge(edge: Tuple[str, str]) -> List[str]:
    """JSON encoding of one directed or sorted edge."""
    return [edge[0], edge[1]]


def decode_edge(data: Any) -> Tuple[str, str]:
    """Inverse of :func:`encode_edge`."""
    return (data[0], data[1])


def encode_pair(pair: Tuple[Tuple[str, str], Tuple[str, str]]) -> List[List[str]]:
    """JSON encoding of an (incoming edge, outgoing edge) pair."""
    return [encode_edge(pair[0]), encode_edge(pair[1])]


def decode_pair(data: Any) -> Tuple[Tuple[str, str], Tuple[str, str]]:
    """Inverse of :func:`encode_pair`."""
    return (decode_edge(data[0]), decode_edge(data[1]))


def finite_or_flag(value: float) -> float:
    """Map ``inf`` to the JSON-safe sentinel ``-1.0`` (decoders reverse it)."""
    return value if value != float("inf") else -1.0


JsonDict = Dict[str, Any]
