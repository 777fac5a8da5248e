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

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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


@dataclass(frozen=True)
class DelayDistribution(Signature):
    """Inter-flow delay peaks for each dependent edge pair of a group.

    Attributes:
        samples: per edge pair, the raw delay samples (seconds), pairing
            each incoming flow with every outgoing flow in the window —
            the distribution whose histogram peaks identify processing
            times even under interleaving.
        first_samples: per edge pair, only the delay to the *first*
            outgoing flow after each incoming flow — the tighter causal
            estimate used for mean-shift detection and the Figure 9(b)
            CDFs (an all-pairs mean would be diluted by later unrelated
            flows).
        peaks: per edge pair, ``(delay, count)`` histogram peaks, dominant
            first.
        bin_width: histogram bin width used for peak extraction (the paper
            plots 20 ms bins).
        events: raw ``(time, src, dst)`` arrival events, retained only by
            partial builds (``keep_events=True``) so :meth:`merge` can
            re-pair across part boundaries; empty on normal builds and
            never persisted.
    """

    samples: Tuple[Tuple[EdgePair, Tuple[float, ...]], ...]
    first_samples: Tuple[Tuple[EdgePair, Tuple[float, ...]], ...]
    peaks: Tuple[Tuple[EdgePair, Tuple[Tuple[float, int], ...]], ...]
    bin_width: float = 0.02
    events: Tuple[Tuple[float, str, str], ...] = ()

    @classmethod
    def build(
        cls,
        arrivals: Sequence[FlowArrival],
        window: float = 1.0,
        bin_width: float = 0.02,
        max_pairs_per_in: int = 8,
        min_peak_count: int = 3,
        keep_events: bool = False,
    ) -> "DelayDistribution":
        """Collect inter-flow delays at every node of a group.

        Args:
            arrivals: the group's flow arrivals.
            window: how long after an incoming flow an outgoing flow can
                still be considered potentially dependent.
            bin_width: histogram bin width in seconds.
            max_pairs_per_in: cap on outgoing flows paired with one
                incoming flow (bounds quadratic blowup under bursts; true
                dependency peaks survive because they recur).
            min_peak_count: minimum bin count for a peak to register.
            keep_events: retain the raw arrival events, making the result
                a partial signature that :meth:`merge` can combine.
        """
        events = tuple((a.time, a.src, a.dst) for a in arrivals)
        return cls._from_events(
            events, window, bin_width, max_pairs_per_in, min_peak_count, keep_events
        )

    @classmethod
    def merge(
        cls,
        parts: Sequence["DelayDistribution"],
        window: float = 1.0,
        bin_width: float = 0.02,
        max_pairs_per_in: int = 8,
        min_peak_count: int = 3,
        keep_events: bool = False,
    ) -> "DelayDistribution":
        """Combine partial DDs built with ``keep_events=True``.

        Pairing of incoming with outgoing flows crosses slice boundaries
        (an incoming flow near a boundary pairs with outgoing flows up to
        ``window`` seconds into the next slice), so the merge re-runs the
        pairing over the concatenated raw events. The internal sorting of
        per-node event lists makes the result independent of part order;
        the construction parameters must match the parts' builds.

        Raises:
            ValueError: if a non-empty part retained no events.
        """
        events: List[Tuple[float, str, str]] = []
        for part in parts:
            if part.samples and not part.events:
                raise ValueError(
                    "DelayDistribution.merge needs partials built with "
                    "keep_events=True"
                )
            events.extend(part.events)
        return cls._from_events(
            tuple(events), window, bin_width, max_pairs_per_in, min_peak_count,
            keep_events,
        )

    @classmethod
    def _from_events(
        cls,
        events: Tuple[Tuple[float, str, str], ...],
        window: float,
        bin_width: float,
        max_pairs_per_in: int,
        min_peak_count: int,
        keep_events: bool,
    ) -> "DelayDistribution":
        incoming: Dict[str, List[Tuple[float, Edge]]] = {}
        outgoing: Dict[str, List[Tuple[float, Edge]]] = {}
        for time, src, dst in events:
            edge = (src, dst)
            outgoing.setdefault(src, []).append((time, edge))
            incoming.setdefault(dst, []).append((time, edge))

        delays: Dict[EdgePair, List[float]] = {}
        first_delays: Dict[EdgePair, List[float]] = {}
        for node, in_list in incoming.items():
            out_list = sorted(outgoing.get(node, []))
            if not out_list:
                continue
            out_times = [t for t, _ in out_list]
            for t_in, in_edge in sorted(in_list):
                # Binary search for the first outgoing flow after t_in.
                lo, hi = 0, len(out_times)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if out_times[mid] <= t_in:
                        lo = mid + 1
                    else:
                        hi = mid
                paired = 0
                seen_pairs = set()
                for t_out, out_edge in out_list[lo:]:
                    if t_out - t_in > window or paired >= max_pairs_per_in:
                        break
                    pair = (in_edge, out_edge)
                    delays.setdefault(pair, []).append(t_out - t_in)
                    if pair not in seen_pairs:
                        seen_pairs.add(pair)
                        first_delays.setdefault(pair, []).append(t_out - t_in)
                    paired += 1

        peaks = {
            pair: tuple(
                histogram_peaks(vals, bin_width, min_count=min_peak_count)
            )
            for pair, vals in delays.items()
        }
        return cls(
            samples=tuple(
                (pair, tuple(vals)) for pair, vals in sorted(delays.items())
            ),
            first_samples=tuple(
                (pair, tuple(vals)) for pair, vals in sorted(first_delays.items())
            ),
            peaks=tuple(sorted(peaks.items())),
            bin_width=bin_width,
            events=events if keep_events else (),
        )

    def to_dict(self) -> JsonDict:
        """The persisted-JSON encoding: per-pair summaries, no raw samples.

        Peaks plus the first-pairing mean/SE/count per pair — everything
        diffing consumes. ``inf`` standard errors travel as the ``-1.0``
        sentinel (JSON has no infinity).
        """
        return {
            "bin_width": self.bin_width,
            # Persist summaries, not raw samples: peaks plus the
            # first-pairing mean/SE/count per pair.
            "pairs": [
                {
                    "pair": encode_pair(pair),
                    "peaks": [
                        list(p) for p in dict(self.peaks).get(pair, ())
                    ],
                    "mean": self.mean_delay(pair),
                    "stderr": finite_or_flag(self.mean_standard_error(pair)),
                    "n": len(self.samples_for(pair)),
                    "n_first": len(self.first_samples_for(pair)),
                }
                for pair in self.pairs()
            ],
        }

    @classmethod
    def from_dict(cls, data: JsonDict) -> "DelayDistribution":
        """Rebuild from :meth:`to_dict` output.

        Returns a :class:`PersistedDelayDistribution` — diffs identically
        to the original but cannot re-plot sample-level CDFs.
        """
        return PersistedDelayDistribution(data["pairs"], data["bin_width"])

    def pairs(self) -> List[EdgePair]:
        """All edge pairs with delay samples."""
        return [p for p, _ in self.samples]

    def samples_for(self, pair: EdgePair) -> Tuple[float, ...]:
        """Raw (all-pairings) delays for one edge pair."""
        for p, vals in self.samples:
            if p == pair:
                return vals
        return ()

    def first_samples_for(self, pair: EdgePair) -> Tuple[float, ...]:
        """First-pairing (causal-estimate) delays for one edge pair."""
        for p, vals in self.first_samples:
            if p == pair:
                return vals
        return ()

    def dominant_peak(self, pair: EdgePair, prominence: float = 1.5) -> float:
        """The most frequent delay for an edge pair; -1 when unknown.

        A dominant peak must stand out: its bin count must be at least
        ``prominence`` times the runner-up's, else the distribution is
        multi-modal (e.g. a reverse-direction pair mixing several causal
        chains) and no single processing time can be attributed — such
        pairs are excluded from stability and diffing rather than allowed
        to flap between near-equal modes.
        """
        for p, pk in self.peaks:
            if p == pair and pk:
                if len(pk) > 1 and pk[0][1] < prominence * pk[1][1]:
                    return -1.0
                return pk[0][0]
        return -1.0

    def delay_cdf(self, pair: EdgePair) -> EmpiricalCDF:
        """Empirical CDF of one pair's first-pairing delays (Figure 9(b))."""
        return EmpiricalCDF.from_values(self.first_samples_for(pair))

    def peak_map(self, prominence: float = 1.5) -> Dict[EdgePair, float]:
        """:meth:`dominant_peak` for every sampled pair, in one pass.

        Per-pair :meth:`dominant_peak` calls rescan ``peaks`` each time,
        which makes pairwise distances quadratic in the pair count; this
        is the linear batch form ``distance`` uses. Values are the
        dominant delay, or ``-1.0`` for unknown/multi-modal pairs.
        """
        peaks_by_pair = dict(self.peaks)
        out: Dict[EdgePair, float] = {}
        for pair, _vals in self.samples:
            pk = peaks_by_pair.get(pair)
            if not pk or (len(pk) > 1 and pk[0][1] < prominence * pk[1][1]):
                out[pair] = -1.0
            else:
                out[pair] = pk[0][0]
        return out

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
        vals = self.first_samples_for(pair)
        if not vals:
            return -1.0
        return sum(vals) / len(vals)

    def mean_standard_error(self, pair: EdgePair) -> float:
        """Standard error of the first-pairing delay mean; inf when unknown.

        Used to scale the mean-shift significance test: a pair whose
        delays mix several causal chains (e.g. the end-to-end
        client-to-client pair) has a high-variance mean, and a fixed
        threshold there would alarm on sampling noise.
        """
        vals = self.first_samples_for(pair)
        if len(vals) < 2:
            return float("inf")
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        return (var / len(vals)) ** 0.5

    def diff(
        self,
        other: "DelayDistribution",
        scope: str,
        shift_threshold: float = 0.03,
        mean_threshold: float = 0.015,
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
                and len(other.samples_for(pair)) >= 30
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


class PersistedDelayDistribution(DelayDistribution):
    """A DelayDistribution reloaded from summaries (no raw samples).

    Overrides the sample-derived accessors to return the persisted
    mean/SE; ``samples``/``first_samples`` hold placeholder tuples sized
    to the original sample counts so length-based guards (e.g. the
    structure-collapse detector's minimum-sample check) behave the same.
    """

    def __init__(self, pairs: List[JsonDict], bin_width: float) -> None:
        samples = []
        first_samples = []
        peaks = []
        self._means: Dict[EdgePair, float] = {}
        self._stderrs: Dict[EdgePair, float] = {}
        for entry in pairs:
            pair = decode_pair(entry["pair"])
            samples.append((pair, (0.0,) * entry["n"]))
            first_samples.append((pair, (0.0,) * entry["n_first"]))
            peaks.append((pair, tuple(tuple(p) for p in entry["peaks"])))
            self._means[pair] = entry["mean"]
            stderr = entry["stderr"]
            self._stderrs[pair] = float("inf") if stderr < 0 else stderr
        object.__setattr__(self, "samples", tuple(samples))
        object.__setattr__(self, "first_samples", tuple(first_samples))
        object.__setattr__(self, "peaks", tuple(peaks))
        object.__setattr__(self, "bin_width", bin_width)
        object.__setattr__(self, "events", ())

    def mean_delay(self, pair: EdgePair) -> float:  # noqa: D102 - inherited
        return self._means.get(pair, -1.0)

    def mean_standard_error(self, pair: EdgePair) -> float:  # noqa: D102
        return self._stderrs.get(pair, float("inf"))

    def delay_cdf(self, pair: EdgePair) -> EmpiricalCDF:  # noqa: D102
        raise NotImplementedError(
            "raw delay samples are not persisted; rebuild from the log"
        )
