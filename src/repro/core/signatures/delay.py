"""The delay-distribution (DD) application signature.

"The delays between dependent flows are time-invariant and can be used as
a reliable indicator of dependencies ... the most frequent delay value is
the processing time at the application node. We use peaks of the delay
distribution frequency as one of the application signatures"
(Section III-B, following Orion). For every node, every (incoming edge,
outgoing edge) pair collects the delays between each incoming flow arrival
and the outgoing flow arrivals that follow it within a window; histogram
peaks of those delays are the signature. A peak shift beyond the operator
threshold flags performance degradation at the connecting server
(Section IV-A).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.analysis.stats import EmpiricalCDF, histogram_peaks
from repro.core.events import FlowArrival
from repro.core.signatures.base import (
    ChangeRecord,
    JsonDict,
    Signature,
    SignatureKind,
    decode_pair,
    edge_component,
    encode_pair,
    finite_or_flag,
)

Edge = Tuple[str, str]
#: An (incoming edge, outgoing edge) pair sharing a middle node.
EdgePair = Tuple[Edge, Edge]


class PairDelays(NamedTuple):
    """What one edge pair's delays come to; exactly what is persisted.

    Attributes:
        peaks: ``(delay, count)`` histogram peaks over *all* pairings of
            an incoming flow with the outgoing flows in its window,
            dominant first — the distribution whose peaks identify
            processing times even under interleaving.
        mean: mean delay to the *first* outgoing flow after each incoming
            flow — the tighter causal estimate used for mean-shift
            detection (an all-pairs mean would be diluted by later
            unrelated flows); -1 when there is none.
        stderr: standard error of that mean; ``inf`` below two samples.
        n: number of all-pairings delays.
        n_first: number of first-pairing delays.
    """

    peaks: Tuple[Tuple[float, int], ...]
    mean: float
    stderr: float
    n: int
    n_first: int


_UNSEEN = PairDelays(peaks=(), mean=-1.0, stderr=float("inf"), n=0, n_first=0)


def pair_delays(
    arrivals: Sequence[FlowArrival],
    window: float = 1.0,
    max_pairs_per_in: int = 8,
) -> Tuple[Dict[EdgePair, List[float]], Dict[EdgePair, List[float]]]:
    """Inter-flow delays at every node: ``(all pairings, first pairings)``.

    Each incoming flow is paired with the outgoing flows of its
    destination that arrive strictly after it, in time order, stopping at
    the first one more than ``window`` later. At most
    ``max_pairs_per_in`` candidates are read per incoming flow (a binary
    search finds the first), so a node costs ``O(n log n)`` however many
    outgoing flows follow. Arrival times are finite (the capture decoder
    rejects any other timestamp).

    Args:
        arrivals: one group's flow arrivals.
        window: how long after an incoming flow an outgoing flow can
            still be considered potentially dependent.
        max_pairs_per_in: cap on outgoing flows paired with one
            incoming flow (bounds quadratic blowup under bursts; true
            dependency peaks survive because they recur).
    """
    # Arrival times per directed edge, then each node's incoming and
    # outgoing flows as ``(time, edge)`` items.
    times_by_edge: Dict[Edge, List[float]] = {}
    for flow, time, _ in arrivals:
        edge = flow[:2]
        times = times_by_edge.get(edge)
        if times is None:
            times_by_edge[edge] = [time]
        else:
            times.append(time)
    incoming: Dict[str, List[Tuple[float, Edge]]] = {}
    outgoing: Dict[str, List[Tuple[float, Edge]]] = {}
    for edge, times in times_by_edge.items():
        items = [(t, edge) for t in times]
        incoming.setdefault(edge[1], []).extend(items)
        outgoing.setdefault(edge[0], []).extend(items)

    cap = max(max_pairs_per_in, 0)
    delays: Dict[EdgePair, List[float]] = {}
    first_delays: Dict[EdgePair, List[float]] = {}
    for node, in_list in incoming.items():
        out_list = outgoing.get(node)
        if not out_list:
            continue
        out_list.sort()
        out_times = [t for t, _ in out_list]
        # Each outgoing flow carries the index of the previous one on its
        # edge: it is the first of its edge after an incoming flow exactly
        # when that index falls before the flow's first candidate.
        candidates: List[Tuple[float, Edge, int]] = []
        last: Dict[Edge, int] = {}
        for j, (t_out, out_edge) in enumerate(out_list):
            candidates.append((t_out, out_edge, last.get(out_edge, -1)))
            last[out_edge] = j
        in_list.sort()
        # Per incoming edge, its row: out edge -> (all, first) delay lists,
        # which are the lists the two result dicts hold.
        rows: Dict[Edge, Dict[Edge, Tuple[List[float], List[float]]]] = {}
        for t_in, in_edge in in_list:
            row = rows.get(in_edge)
            if row is None:
                row = rows[in_edge] = {}
            lo = bisect_right(out_times, t_in)
            for t_out, out_edge, previous in candidates[lo : lo + cap]:
                delay = t_out - t_in
                if delay > window:
                    break
                cell = row.get(out_edge)
                if cell is None:
                    pair = (in_edge, out_edge)
                    cell = row[out_edge] = ([], [])
                    delays[pair], first_delays[pair] = cell
                cell[0].append(delay)
                if previous < lo:
                    cell[1].append(delay)
    return delays, first_delays


def delay_cdf(
    arrivals: Sequence[FlowArrival],
    pair: EdgePair,
    window: float = 1.0,
    max_pairs_per_in: int = 8,
) -> EmpiricalCDF:
    """Empirical CDF of one pair's first-pairing delays (Figure 9(b)).

    It needs the arrivals because the signature holds summaries, not
    samples.
    """
    _, first_delays = pair_delays(arrivals, window, max_pairs_per_in)
    return EmpiricalCDF.from_values(first_delays.get(pair, ()))


@dataclass(frozen=True)
class DelayDistribution(Signature):
    """Inter-flow delay peaks for each dependent edge pair of a group.

    Attributes:
        stats: per edge pair, its :class:`PairDelays`, in pair order.
        bin_width: histogram bin width used for peak extraction (the paper
            plots 20 ms bins).
    """

    stats: Tuple[Tuple[EdgePair, PairDelays], ...]
    bin_width: float = 0.02

    @classmethod
    def build(
        cls,
        arrivals: Sequence[FlowArrival],
        window: float = 1.0,
        bin_width: float = 0.02,
        max_pairs_per_in: int = 8,
        min_peak_count: int = 3,
    ) -> "DelayDistribution":
        """Summarize the inter-flow delays at every node of a group.

        Args:
            arrivals, window, max_pairs_per_in: see :func:`pair_delays`.
            bin_width: histogram bin width in seconds.
            min_peak_count: minimum bin count for a peak to register.
        """
        delays, first_delays = pair_delays(arrivals, window, max_pairs_per_in)
        stats = []
        for pair, vals in sorted(delays.items()):
            first = first_delays.get(pair, ())
            mean = sum(first) / len(first) if first else -1.0
            stderr = float("inf")
            if len(first) >= 2:
                var = sum([(v - mean) ** 2 for v in first]) / (len(first) - 1)
                stderr = (var / len(first)) ** 0.5
            peaks = tuple(histogram_peaks(vals, bin_width, min_count=min_peak_count))
            stats.append((pair, PairDelays(peaks, mean, stderr, len(vals), len(first))))
        return cls(stats=tuple(stats), bin_width=bin_width)

    def to_dict(self) -> JsonDict:
        """The persisted-JSON encoding (see :mod:`repro.core.persist`).

        ``inf`` standard errors travel as the ``-1.0`` sentinel (JSON has
        no infinity).
        """
        return {
            "bin_width": self.bin_width,
            "pairs": [
                {
                    "pair": encode_pair(pair),
                    "peaks": [list(p) for p in s.peaks],
                    "mean": s.mean,
                    "stderr": finite_or_flag(s.stderr),
                    "n": s.n,
                    "n_first": s.n_first,
                }
                for pair, s in self.stats
            ],
        }

    @classmethod
    def from_dict(cls, data: JsonDict) -> "DelayDistribution":
        """Rebuild from :meth:`to_dict` output (exact round-trip)."""
        return cls(
            stats=tuple(
                (
                    decode_pair(entry["pair"]),
                    PairDelays(
                        peaks=tuple((p[0], p[1]) for p in entry["peaks"]),
                        mean=entry["mean"],
                        stderr=(
                            float("inf") if entry["stderr"] < 0 else entry["stderr"]
                        ),
                        n=entry["n"],
                        n_first=entry["n_first"],
                    ),
                )
                for entry in data["pairs"]
            ),
            bin_width=data["bin_width"],
        )

    def pairs(self) -> List[EdgePair]:
        """All edge pairs with delay samples."""
        return [p for p, _ in self.stats]

    def summary(self, pair: EdgePair) -> PairDelays:
        """One edge pair's summary; the no-samples one when absent."""
        for p, s in self.stats:
            if p == pair:
                return s
        return _UNSEEN

    def dominant_peak(self, pair: EdgePair, prominence: float = 1.5) -> float:
        """The most frequent delay for an edge pair; -1 when unknown.

        A dominant peak must stand out: its bin count must be at least
        ``prominence`` times the runner-up's, else the distribution is
        multi-modal (e.g. a reverse-direction pair mixing several causal
        chains) and no single processing time can be attributed — such
        pairs are excluded from stability and diffing rather than allowed
        to flap between near-equal modes.
        """
        return _dominant(self.summary(pair).peaks, prominence)

    def peak_map(self, prominence: float = 1.5) -> Dict[EdgePair, float]:
        """:meth:`dominant_peak` for every sampled pair, in one pass.

        Per-pair :meth:`dominant_peak` calls rescan ``stats`` each time,
        which makes pairwise distances quadratic in the pair count; this
        is the linear batch form ``distance`` uses. Values are the
        dominant delay, or ``-1.0`` for unknown/multi-modal pairs.
        """
        return {pair: _dominant(s.peaks, prominence) for pair, s in self.stats}

    def distance(self, other: "DelayDistribution") -> float:
        """Largest dominant-peak shift (seconds) across common edge pairs."""
        worst = 0.0
        mine = self.peak_map()
        theirs = other.peak_map()
        for pair in set(mine) & set(theirs):
            p1, p2 = mine[pair], theirs[pair]
            if p1 >= 0 and p2 >= 0:
                worst = max(worst, abs(p1 - p2))
        return worst

    def mean_delay(self, pair: EdgePair) -> float:
        """Mean first-pairing delay for an edge pair; -1 when no samples."""
        return self.summary(pair).mean

    def mean_standard_error(self, pair: EdgePair) -> float:
        """Standard error of the first-pairing delay mean; inf when unknown.

        Used to scale the mean-shift significance test: a pair whose
        delays mix several causal chains (e.g. the end-to-end
        client-to-client pair) has a high-variance mean, and a fixed
        threshold there would alarm on sampling noise.
        """
        return self.summary(pair).stderr

    def diff(
        self,
        other: "DelayDistribution",
        scope: str,
        *,
        shift_threshold: float,
        mean_threshold: float,
    ) -> List[ChangeRecord]:
        """Flag edge pairs whose delay distribution moved beyond the threshold.

        Two detectors per edge pair, either sufficing:

        * **peak shift** — the dominant mode moved (a server slowed on
          every request, e.g. logging overhead);
        * **mean shift** — the distribution's mass moved even though the
          mode held (a minority of flows delayed heavily, e.g. the
          retransmission tail that packet loss produces in Figure 9(b)).
          The shift must clear both the absolute ``mean_threshold`` and a
          4-standard-error significance bar, so pairs whose means are
          intrinsically noisy (long multi-hop chains) do not alarm on
          sampling variation.

        The implicated component is the server connecting the two edges —
        "the server that connects the two edges may experience performance
        degradation" (Section IV-A).
        """
        changes: List[ChangeRecord] = []
        for pair in sorted(set(self.pairs()) & set(other.pairs())):
            base_peak = self.dominant_peak(pair)
            cur_peak = other.dominant_peak(pair)
            # A strongly unimodal baseline pair whose current distribution
            # no longer has any dominant mode lost its causal structure —
            # e.g. a server so slow that responses now interleave across
            # requests. That collapse is itself a delay anomaly.
            if (
                self.dominant_peak(pair, prominence=2.0) >= 0
                and cur_peak < 0
                and other.summary(pair).n >= 30
            ):
                in_edge, out_edge = pair
                changes.append(
                    ChangeRecord(
                        kind=SignatureKind.DD,
                        scope=scope,
                        description=(
                            f"delay structure {in_edge}->{out_edge} collapsed "
                            f"(peak at {base_peak * 1000:.0f}ms lost)"
                        ),
                        components=frozenset(
                            {
                                in_edge[1],
                                edge_component(*in_edge),
                                edge_component(*out_edge),
                            }
                        ),
                        magnitude=max(
                            abs(other.mean_delay(pair) - self.mean_delay(pair)),
                            self.bin_width,
                        ),
                    )
                )
                continue
            peak_shift = (
                abs(cur_peak - base_peak) if base_peak >= 0 and cur_peak >= 0 else 0.0
            )
            base_mean = self.mean_delay(pair)
            cur_mean = other.mean_delay(pair)
            mean_shift = (
                abs(cur_mean - base_mean) if base_mean >= 0 and cur_mean >= 0 else 0.0
            )
            # Mean comparisons are only meaningful for unimodal pairs —
            # multi-modal mixtures move their mean with workload mix — and
            # only where the first-pairing estimator is *coherent* with
            # the causal peak: when the mean sits far from the dominant
            # mode, the first pairings are contaminated by cross-request
            # interleaving and the mean tracks workload rate, not server
            # behavior.
            if base_peak < 0 or cur_peak < 0:
                mean_shift = 0.0
            elif abs(base_mean - base_peak) > 1.5 * self.bin_width:
                mean_shift = 0.0
            stderr = max(
                self.mean_standard_error(pair),
                other.mean_standard_error(pair),
            )
            mean_significant = (
                mean_shift > mean_threshold and mean_shift > 4.0 * stderr
            )
            significant = peak_shift > shift_threshold or mean_significant
            shift = max(peak_shift, mean_shift)
            if significant:
                in_edge, out_edge = pair
                node = in_edge[1]
                what = "peak" if peak_shift >= mean_shift else "mean"
                base_v = base_peak if what == "peak" else base_mean
                cur_v = cur_peak if what == "peak" else cur_mean
                changes.append(
                    ChangeRecord(
                        kind=SignatureKind.DD,
                        scope=scope,
                        description=(
                            f"delay {what} {in_edge}->{out_edge} moved "
                            f"{base_v * 1000:.0f}ms -> {cur_v * 1000:.0f}ms"
                        ),
                        components=frozenset(
                            {node, edge_component(*in_edge), edge_component(*out_edge)}
                        ),
                        magnitude=shift,
                    )
                )
        return changes


def _dominant(peaks: Tuple[Tuple[float, int], ...], prominence: float) -> float:
    """The leading peak's delay, or -1 when none stands out."""
    if not peaks or (len(peaks) > 1 and peaks[0][1] < prominence * peaks[1][1]):
        return -1.0
    return peaks[0][0]
