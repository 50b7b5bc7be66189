"""SoC-Cluster hardware model (the paper's §2.1 server, simulated).

The real testbed is a 2U server with 60 Snapdragon 865 SoCs on 12 PCBs
(5 per PCB): each SoC reaches its PCB NIC at 1 Gbps, each PCB shares
one 1 Gbps NIC towards a 20 Gbps switch.  This package reproduces that
machine as a calibrated performance model:

- :mod:`spec` — processors, SoCs, GPUs, per-model compute profiles.
- :mod:`topology` — the PCB/SoC physical layout; edge sites behind WAN
  uplinks.
- :mod:`network` — link-level transfer times with NIC contention.
- :mod:`energy` — busy/idle power accounting.
- :mod:`trace` — diurnal (tidal) utilisation traces and idle windows.
- :mod:`clock` — simulated wall clock with per-phase accounting.
- :mod:`faults` — seeded unplanned-fault injection (crashes, NIC
  flaps, stragglers, preemption storms).
"""

from .spec import (GPU_REGISTRY, SOC_REGISTRY, GpuSpec, ModelProfile,
                   ProcessorSpec, SoCSpec, model_profile)
from .topology import ClusterTopology, EdgeSite, WanFabric
from .network import Flow, NetworkFabric
from .faults import (FaultInjector, FaultSchedule, FaultSpecError,
                     NicDegradation, PreemptionStorm, SoCCrash,
                     StragglerFault, parse_fault_spec)
from .energy import EnergyModel, EnergyReport
from .trace import TidalTrace, IdleWindow
from .workload import (PreemptionEvent, Session, SessionIndex,
                       SessionSimulator, derive_training_events)
from .clock import PhaseClock

__all__ = [
    "ProcessorSpec", "SoCSpec", "GpuSpec", "ModelProfile", "model_profile",
    "SOC_REGISTRY", "GPU_REGISTRY", "ClusterTopology", "NetworkFabric",
    "Flow", "EnergyModel", "EnergyReport", "TidalTrace", "IdleWindow",
    "PreemptionEvent", "Session", "SessionIndex", "SessionSimulator",
    "derive_training_events",
    "EdgeSite", "WanFabric",
    "PhaseClock",
    "FaultInjector", "FaultSchedule", "FaultSpecError", "NicDegradation",
    "PreemptionStorm", "SoCCrash", "StragglerFault", "parse_fault_spec",
]
