"""Integrity-greedy logical→physical mapping (§3.1, Figure 5c).

The problem: place N logical groups of size M/N onto K PCBs of
``socs_per_pcb`` SoCs so that ``C`` — the *maximum over PCBs* of the
number of PCB-splitting (inter-PCB) logical groups touching that PCB —
is minimised (Eq. 2–3).

The algorithm (two phases):

1. *Integrity phase*: pack as many whole logical groups as fit on each
   PCB without splitting.
2. *Squeeze phase*: lay the remaining groups out contiguously over the
   remaining SoC slots in order.

Theorem 1 (optimality of C) and Theorem 2 (each logical group contends
with ≤ 2 others for a NIC) are both checked by the property tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.topology import ClusterTopology

__all__ = ["MappingResult", "integrity_greedy_mapping", "naive_mapping",
           "nic_conflict_count", "contention_degree"]


@dataclass
class MappingResult:
    """groups[g] is the list of SoC ids hosting logical group ``g``."""

    groups: list[list[int]]
    topology: ClusterTopology
    split_groups: set[int] = field(init=False)

    def __post_init__(self):
        self.split_groups = {
            g for g, socs in enumerate(self.groups)
            if len({self.topology.pcb_of(s) for s in socs}) > 1
        }

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def inter_pcb_groups_on(self, pcb: int) -> list[int]:
        """L_i^inter of Eq. 2: split groups with members on this PCB."""
        return [g for g in self.split_groups
                if any(self.topology.pcb_of(s) == pcb
                       for s in self.groups[g])]

    def conflict_count(self) -> int:
        """C of Eq. 3: the max NIC conflict over all PCBs."""
        return max((len(self.inter_pcb_groups_on(p))
                    for p in range(self.topology.num_pcbs)), default=0)


def _group_sizes(num_socs: int, num_groups: int) -> list[int]:
    base = num_socs // num_groups
    remainder = num_socs % num_groups
    return [base + (1 if g < remainder else 0) for g in range(num_groups)]


def _available_socs(topology: ClusterTopology,
                    alive: "set[int] | list[int] | None") -> list[int]:
    if alive is None:
        return list(range(topology.num_socs))
    available = sorted(set(alive))
    if not available:
        raise ValueError("no surviving SoCs to map groups onto")
    for s in available:
        topology.pcb_of(s)                      # range-checks the SoC id
    return available


def integrity_greedy_mapping(topology: ClusterTopology, num_groups: int,
                             alive: "set[int] | list[int] | None" = None
                             ) -> MappingResult:
    """The paper's mapping algorithm (optimal C, contention degree ≤ 2).

    ``alive`` restricts placement to the surviving SoCs after faults:
    groups are sized over the survivors and both phases skip dead
    chips.  On a holey survivor set the whole-group phase can strand
    PCB fragments whose sizes happen to align with a contiguous
    layout's group boundaries, so when ``alive`` is given the result is
    compared against the contiguous layout and the lower-conflict one
    wins (ties keep the greedy; contiguous layouts also satisfy the
    Theorem 2 contention bound, so both theorems survive the choice).
    """
    available = _available_socs(topology, alive)
    if not 1 <= num_groups <= len(available):
        raise ValueError(f"need 1 <= num_groups <= {len(available)}")
    sizes = _group_sizes(len(available), num_groups)
    alive_set = set(available)
    free_on_pcb = {p: [s for s in topology.socs_on_pcb(p) if s in alive_set]
                   for p in range(topology.num_pcbs)}
    placed: dict[int, list[int]] = {}

    # Phase 1: whole-group placement, round-robin over PCBs so whole
    # groups spread out and the leftover slots stay contiguous per PCB.
    pending = sorted(range(num_groups), key=lambda g: -sizes[g])
    still_pending: list[int] = []
    for g in pending:
        home = next((p for p in range(topology.num_pcbs)
                     if len(free_on_pcb[p]) >= sizes[g]), None)
        if home is None:
            still_pending.append(g)
            continue
        placed[g] = free_on_pcb[home][:sizes[g]]
        free_on_pcb[home] = free_on_pcb[home][sizes[g]:]

    # Phase 2: squeeze the rest into the remaining slots, in SoC order,
    # keeping each group's members contiguous in the squeezed order.
    leftovers = [s for p in range(topology.num_pcbs) for s in free_on_pcb[p]]
    cursor = 0
    for g in sorted(still_pending):
        placed[g] = leftovers[cursor:cursor + sizes[g]]
        cursor += sizes[g]

    result = MappingResult([placed[g] for g in range(num_groups)], topology)
    if alive is not None:
        contiguous = naive_mapping(topology, num_groups, alive=alive)
        if contiguous.conflict_count() < result.conflict_count():
            return contiguous
    return result


def naive_mapping(topology: ClusterTopology, num_groups: int,
                  alive: "set[int] | list[int] | None" = None
                  ) -> MappingResult:
    """Sequential blocks with no integrity phase (the ablation baseline)."""
    available = _available_socs(topology, alive)
    if not 1 <= num_groups <= len(available):
        raise ValueError(f"need 1 <= num_groups <= {len(available)}")
    sizes = _group_sizes(len(available), num_groups)
    groups: list[list[int]] = []
    cursor = 0
    for size in sizes:
        groups.append(available[cursor:cursor + size])
        cursor += size
    return MappingResult(groups, topology)


def nic_conflict_count(mapping: MappingResult) -> int:
    """Alias for Eq. 3's C on a finished mapping."""
    return mapping.conflict_count()


def contention_degree(mapping: MappingResult, group: int) -> int:
    """How many *other* split groups share a PCB NIC with ``group``."""
    if group not in mapping.split_groups:
        return 0
    pcbs = {mapping.topology.pcb_of(s) for s in mapping.groups[group]}
    rivals = set()
    for other in mapping.split_groups - {group}:
        other_pcbs = {mapping.topology.pcb_of(s)
                      for s in mapping.groups[other]}
        if pcbs & other_pcbs:
            rivals.add(other)
    return len(rivals)
