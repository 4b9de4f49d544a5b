"""Explicit labelled transition systems.

An :class:`LTS` is the finite graph produced by a completed exploration
(with ``store_transitions=True``): integer state ids, label objects on
edges, and an initial state.  It supports export to :mod:`networkx` for
graph-algorithmic post-processing and is the input to bisimulation
minimization.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.engine.budget import Budget
from repro.engine.core import explore
from repro.engine.result import ExplorationResult
from repro.acsr.printer import format_label, format_term
from repro.acsr.terms import Term

if TYPE_CHECKING:
    import networkx as nx


class LTS:
    """A finite labelled transition system with integer state ids."""

    def __init__(
        self,
        num_states: int,
        initial: int,
        edges: Iterable[Tuple[int, Hashable, int]],
        state_names: Optional[Dict[int, str]] = None,
    ) -> None:
        if not (0 <= initial < max(num_states, 1)):
            raise ValueError(f"initial state {initial} out of range")
        self.num_states = num_states
        self.initial = initial
        self.edges: List[Tuple[int, Hashable, int]] = list(edges)
        self.state_names = state_names or {}
        for src, _, dst in self.edges:
            if not (0 <= src < num_states and 0 <= dst < num_states):
                raise ValueError(f"edge ({src},{dst}) out of range")
        # Lazily built adjacency index (state -> outgoing edge list).
        # Edges are never mutated after construction, so it is built at
        # most once and never invalidated.
        self._adjacency: Optional[List[List[Tuple[Hashable, int]]]] = None

    def _index(self) -> List[List[Tuple[Hashable, int]]]:
        if self._adjacency is None:
            adjacency: List[List[Tuple[Hashable, int]]] = [
                [] for _ in range(self.num_states)
            ]
            for src, label, dst in self.edges:
                adjacency[src].append((label, dst))
            self._adjacency = adjacency
        return self._adjacency

    @classmethod
    def from_exploration(cls, result: ExplorationResult) -> "LTS":
        """Build an LTS from a completed exploration that stored its
        transition table."""
        if result.stored_transitions is None:
            raise ValueError(
                "exploration must be run with store_transitions=True"
            )
        from repro.obs.tracer import current_tracer

        with current_tracer().span("versa.lts.build") as span:
            index: Dict[Term, int] = {}
            for state in result.states():
                index[state] = len(index)
            edges: List[Tuple[int, Hashable, int]] = []
            for state, steps in result.stored_transitions.items():
                src = index[state]
                for label, successor in steps:
                    edges.append((src, label, index[successor]))
            names = {
                idx: format_term(state) for state, idx in index.items()
            }
            span.incr("states", len(index)).incr("edges", len(edges))
            return cls(len(index), index[result.initial], edges, names)

    @classmethod
    def explore(
        cls,
        system,
        *,
        max_states: int = 1_000_000,
        prioritized: bool = True,
        strategy=None,
    ) -> "LTS":
        """Explore ``system`` through the engine and build its LTS.

        Convenience for the common export pipeline: one engine run with
        ``store_transitions=True`` (raising on budget exhaustion -- a
        partial graph would be silently misleading) followed by
        :meth:`from_exploration`.
        """
        result = explore(
            system,
            strategy=strategy,
            prioritized=prioritized,
            budget=Budget(max_states=max_states),
            store_transitions=True,
        )
        return cls.from_exploration(result)

    def successors(self, state: int) -> List[Tuple[Hashable, int]]:
        """Outgoing ``(label, target)`` edges of ``state``.

        Served from the cached adjacency index: O(out-degree) per query
        instead of the previous O(E) rescan of ``self.edges``, which
        made any query loop quadratic in the graph size.
        """
        if not (0 <= state < self.num_states):
            raise ValueError(
                f"state {state} out of range [0, {self.num_states})"
            )
        return list(self._index()[state])

    def deadlock_states(self) -> List[int]:
        adjacency = self._index()
        return [s for s in range(self.num_states) if not adjacency[s]]

    def labels(self) -> List[Hashable]:
        """Distinct edge labels."""
        seen: Dict[Hashable, None] = {}
        for _, label, _ in self.edges:
            seen.setdefault(label, None)
        return list(seen)

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export as a networkx multigraph with ``label`` edge attributes."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        graph.add_nodes_from(range(self.num_states))
        for state, name in self.state_names.items():
            graph.nodes[state]["name"] = name
        for src, label, dst in self.edges:
            graph.add_edge(src, dst, label=format_label(label))
        graph.graph["initial"] = self.initial
        return graph

    def to_dot(self) -> str:
        """Graphviz DOT rendering (labels in VERSA-like syntax)."""
        lines = ["digraph lts {", "  rankdir=LR;"]
        lines.append(
            f'  {self.initial} [shape=doublecircle];'
        )
        deadlocks = set(self.deadlock_states())
        for state in range(self.num_states):
            if state in deadlocks:
                lines.append(f'  {state} [color=red, style=bold];')
        for src, label, dst in self.edges:
            text = format_label(label).replace('"', "'")
            lines.append(f'  {src} -> {dst} [label="{text}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"LTS(states={self.num_states}, edges={len(self.edges)}, "
            f"initial={self.initial})"
        )
