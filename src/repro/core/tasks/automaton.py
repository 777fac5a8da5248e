"""Task automata: compact acceptors for a task's flow-sequence variants.

Built per Section III-D stage (3): the mined closed patterns become
states; each training run is tokenized into a state sequence using the
paper's two rules — prefer the **longer** state first, and among equal
lengths the **more frequent** one — and the automaton's transitions are
the observed state successions. Start states are the runs' first tokens,
accept states their last.

The automaton is label-generic: training labels are usually
:class:`~repro.openflow.match.MaskedFlow` templates, and matching against
concrete flows is injected by the caller (see
:mod:`repro.core.tasks.detector` for the unification semantics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.tasks.mining import mine_states

Label = Hashable
Pattern = Tuple[Label, ...]


@dataclass(frozen=True)
class TaskAutomaton:
    """A finite-state acceptor over flow labels.

    Attributes:
        patterns: state id -> the contiguous flow pattern the state stands
            for (ids are dense, assigned in tokenization-discovery order).
        transitions: state id -> successor state ids.
        start_states: states a run may begin with.
        accept_states: states a run may end with.
        support: state id -> mined support of its pattern.
    """

    patterns: Tuple[Pattern, ...]
    transitions: Tuple[FrozenSet[int], ...]
    start_states: FrozenSet[int]
    accept_states: FrozenSet[int]
    support: Tuple[int, ...]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        runs: Sequence[Sequence[Label]],
        min_sup: float = 0.6,
        max_pattern_length: int = 0,
        edge_min_sup: float = 0.0,
    ) -> "TaskAutomaton":
        """Mine states from ``runs`` and assemble the automaton.

        Args:
            runs: the task's training runs, already reduced to common
                flows (see :func:`repro.core.tasks.mining.filter_to_common`).
            min_sup: minimum pattern support fraction.
            max_pattern_length: optional cap on state pattern length.
            edge_min_sup: minimum fraction of runs that must begin (end)
                with a state for it to stay a start (accept) state, and —
                at half this threshold — use a transition for it to
                survive. 0.0 keeps the paper's permissive construction
                where every training run's endpoints qualify; a positive
                value discards endpoints contributed only by noisy outlier
                runs (duplicated/reordered flows), which otherwise create
                degenerate single-flow accept paths.

        Raises:
            ValueError: if every run is empty (nothing to learn).
        """
        states = mine_states(runs, min_sup, max_pattern_length)
        if not any(runs):
            raise ValueError("cannot build an automaton from empty runs")
        # Sort rule: longer first, then more frequent, then lexical order of
        # the pattern representation for determinism.
        ordered = sorted(
            states.items(), key=lambda kv: (-len(kv[0]), -kv[1], repr(kv[0]))
        )

        pattern_ids: Dict[Pattern, int] = {}
        patterns: List[Pattern] = []
        supports: List[int] = []
        transitions: List[Dict[int, int]] = []
        start_counts: Dict[int, int] = {}
        accept_counts: Dict[int, int] = {}

        def state_id(pattern: Pattern, support: int) -> int:
            if pattern not in pattern_ids:
                pattern_ids[pattern] = len(patterns)
                patterns.append(pattern)
                supports.append(support)
                transitions.append({})
            return pattern_ids[pattern]

        n_tokenized = 0
        for run in runs:
            tokens = cls._tokenize(run, ordered)
            if not tokens:
                continue
            n_tokenized += 1
            ids = [state_id(p, s) for p, s in tokens]
            start_counts[ids[0]] = start_counts.get(ids[0], 0) + 1
            accept_counts[ids[-1]] = accept_counts.get(ids[-1], 0) + 1
            for a, b in zip(ids, ids[1:]):
                transitions[a][b] = transitions[a].get(b, 0) + 1

        endpoint_floor = edge_min_sup * n_tokenized
        edge_floor = edge_min_sup * n_tokenized / 2.0

        def keep(counts: Dict[int, int], floor: float) -> Set[int]:
            kept = {s for s, c in counts.items() if c >= floor}
            return kept if kept else set(counts)

        starts = keep(start_counts, endpoint_floor)
        accepts = keep(accept_counts, endpoint_floor)
        pruned_transitions = []
        for trans in transitions:
            kept_edges = {t for t, c in trans.items() if c >= edge_floor}
            pruned_transitions.append(
                frozenset(kept_edges if kept_edges else trans)
            )

        return cls(
            patterns=tuple(patterns),
            transitions=tuple(pruned_transitions),
            start_states=frozenset(starts),
            accept_states=frozenset(accepts),
            support=tuple(supports),
        )

    @staticmethod
    def _tokenize(
        run: Sequence[Label],
        ordered_states: Sequence[Tuple[Pattern, int]],
    ) -> List[Tuple[Pattern, int]]:
        """Greedy longest-then-most-frequent tokenization of one run.

        Falls back to a singleton pattern when no mined state matches at a
        position (possible after closed pruning when a flow appears in an
        unusual context); the singleton gets support 1.
        """
        tokens: List[Tuple[Pattern, int]] = []
        i = 0
        n = len(run)
        while i < n:
            chosen: Optional[Tuple[Pattern, int]] = None
            for pattern, support in ordered_states:
                m = len(pattern)
                if i + m <= n and tuple(run[i : i + m]) == pattern:
                    chosen = (pattern, support)
                    break
            if chosen is None:
                chosen = ((run[i],), 1)
            tokens.append(chosen)
            i += len(chosen[0])
        return tokens

    # ------------------------------------------------------------------
    # Properties and acceptance
    # ------------------------------------------------------------------

    @property
    def n_states(self) -> int:
        """Number of automaton states."""
        return len(self.patterns)

    def start_labels(self) -> Set[Label]:
        """The labels that can begin a match (first flow of start states)."""
        return {
            self.patterns[s][0] for s in self.start_states if self.patterns[s]
        }

    def flat_labels(self) -> Set[Label]:
        """Every label appearing in any state pattern."""
        out: Set[Label] = set()
        for pattern in self.patterns:
            out.update(pattern)
        return out

    def accepts(self, run: Sequence[Label]) -> bool:
        """Exact acceptance: does ``run`` tokenize into a valid path?

        Used to sanity-check that the automaton precisely represents its
        training runs ("all extracted logs can be precisely represented by
        the constructed automata").
        """
        ordered = sorted(
            (
                (p, self.support[i])
                for i, p in enumerate(self.patterns)
            ),
            key=lambda kv: (-len(kv[0]), -kv[1], repr(kv[0])),
        )
        tokens = self._tokenize(run, ordered)
        ids: List[int] = []
        lookup = {p: i for i, p in enumerate(self.patterns)}
        for pattern, _ in tokens:
            if pattern not in lookup:
                return False
            ids.append(lookup[pattern])
        if not ids:
            return False
        if ids[0] not in self.start_states or ids[-1] not in self.accept_states:
            return False
        return all(b in self.transitions[a] for a, b in zip(ids, ids[1:]))
