"""Communication-group division and the pipelined sync schedule (§3.1).

Logical groups whose intra-group Ring-AllReduce crosses a PCB boundary
contend for the shared PCB NICs.  SoCFlow puts mutually-contending
groups into different *communication groups* (CGs) and runs the CGs'
synchronisations one after another, interleaved with compute (Figure 7),
so no two contending rings are ever on the wire together.

CG division is graph colouring on the conflict graph; Theorem 2 of the
integrity-greedy mapping bounds every vertex degree by 2, so the graph
is a union of paths/cycles and two colours suffice via DFS (the paper's
"minimum bipartite graph colouring").  A greedy fallback covers
non-integrity mappings, whose conflict graphs can be arbitrary.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.network import NetworkFabric
from .mapping import MappingResult

__all__ = ["build_conflict_graph", "divide_into_cgs", "CommunicationPlan"]


def _conflicts(mapping: MappingResult) -> list[tuple[int, int]]:
    """Pairs of logical groups that share a PCB NIC, in group order."""
    split = sorted(mapping.split_groups)
    pcbs_of = {g: {mapping.topology.pcb_of(s) for s in mapping.groups[g]}
               for g in split}
    return [(g, h) for i, g in enumerate(split) for h in split[i + 1:]
            if pcbs_of[g] & pcbs_of[h]]


def build_conflict_graph(mapping: MappingResult) -> "networkx.Graph":
    """Vertices = logical groups; edge = the two groups share a PCB NIC."""
    # networkx costs a tenth of a second to import and every run plans:
    # only a caller that wants the graph object (or an odd cycle below)
    # pays for it
    import networkx as nx
    graph = nx.Graph()
    graph.add_nodes_from(range(mapping.num_groups))
    graph.add_edges_from(_conflicts(mapping))
    return graph


def divide_into_cgs(mapping: MappingResult) -> list[list[int]]:
    """Colour the conflict graph; each colour class is one CG.

    Non-split groups never contend, so they join the first CG.  With an
    integrity-greedy mapping the result has at most two CGs.
    """
    neighbours: dict[int, list[int]] = {
        group: [] for group in range(mapping.num_groups)}
    for g, h in _conflicts(mapping):
        neighbours[g].append(h)
        neighbours[h].append(g)
    colors: dict[int, int] = {}
    # 2-colouring of each component, as networkx's ``bipartite.color``
    # of its subgraph assigns it: a group nobody contends with gets 0,
    # and of a component the first vertex *that walk meets* gets 1 —
    # the lowest group, or, where the component is less than half the
    # graph, the first of the vertex ``set`` the subgraph view iterates
    # instead.  Greedy fallback on odd cycles.
    for root in neighbours:
        if root in colors:
            continue
        colors[root] = 0
        component, bipartite = [root], True
        for group in component:             # grows while it is walked
            for other in neighbours[group]:
                if other not in colors:
                    colors[other] = 1 - colors[group]
                    component.append(other)
                elif colors[other] == colors[group]:
                    bipartite = False
        nodes = sorted(component)
        if not bipartite:
            import networkx as nx
            colors.update(nx.coloring.greedy_color(
                build_conflict_graph(mapping).subgraph(nodes),
                strategy="DSATUR"))
        elif len(nodes) > 1:
            first = (next(iter(set(nodes)))
                     if 2 * len(nodes) < len(neighbours) else nodes[0])
            if colors[first] == 0:
                for group in nodes:
                    colors[group] = 1 - colors[group]
    num_colors = max(colors.values(), default=0) + 1
    cgs: list[list[int]] = [[] for _ in range(num_colors)]
    for group in range(mapping.num_groups):
        cgs[colors[group]].append(group)
    return [cg for cg in cgs if cg]


@dataclass
class CommunicationPlan:
    """A full schedule: which rings sync together, and in what order."""

    mapping: MappingResult
    cgs: list[list[int]]

    @classmethod
    def from_mapping(cls, mapping: MappingResult) -> "CommunicationPlan":
        return cls(mapping, divide_into_cgs(mapping))

    @property
    def num_cgs(self) -> int:
        return len(self.cgs)

    def planned_sync_seconds(self, fabric: NetworkFabric, nbytes: float,
                             num_tensors: float | None = None) -> list[float]:
        """Per-CG ring all-reduce times, run in sequence (no contention).

        ``num_tensors`` prices the schedule for one gradient *bucket*
        (bucketed fusion interleaves the pipelined CGs at bucket
        granularity: every bucket runs the full CG sequence on its own
        slice of the payload).
        """
        times: list[float] = []
        for cg in self.cgs:
            rings = [self.mapping.groups[g] for g in cg]
            times.append(fabric.concurrent_ring_allreduce_time(
                rings, nbytes, num_tensors=num_tensors))
        return times

    def unplanned_sync_seconds(self, fabric: NetworkFabric, nbytes: float,
                               num_tensors: float | None = None) -> float:
        """All rings at once (what happens without planning)."""
        return fabric.concurrent_ring_allreduce_time(
            self.mapping.groups, nbytes, num_tensors=num_tensors)
