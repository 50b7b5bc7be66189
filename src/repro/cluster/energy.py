"""Energy accounting for training runs (Figures 9 and 11).

Energy = Σ processor-busy-time × busy power + idle time × idle power.
The model charges communication time at idle power plus a small NIC
adder — mobile NICs draw well under a watt — which reproduces the
paper's observation that long synchronisation both slows training *and*
wastes energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .spec import SoCSpec

__all__ = ["EnergyModel", "EnergyReport"]

#: extra draw while a SoC's NIC is actively transferring, watts
_NIC_ACTIVE_WATTS = 0.7


@dataclass
class EnergyReport:
    """Accumulated joules, broken down by source."""

    cpu_j: float = 0.0
    npu_j: float = 0.0
    network_j: float = 0.0
    idle_j: float = 0.0

    @property
    def total_j(self) -> float:
        return self.cpu_j + self.npu_j + self.network_j + self.idle_j

    @property
    def total_kj(self) -> float:
        return self.total_j / 1e3

    def __add__(self, other: "EnergyReport") -> "EnergyReport":
        return EnergyReport(self.cpu_j + other.cpu_j,
                            self.npu_j + other.npu_j,
                            self.network_j + other.network_j,
                            self.idle_j + other.idle_j)


@dataclass
class EnergyModel:
    """Charges a fleet of SoCs (or a GPU) for each training phase."""

    soc: SoCSpec
    report: EnergyReport = field(default_factory=EnergyReport)

    def charge_compute(self, seconds: float, num_socs: int,
                       cpu_fraction: float = 1.0) -> None:
        """Compute phase: ``cpu_fraction`` of time on CPU, rest on NPU.

        Both processors run concurrently during mixed-precision steps, so
        the caller passes the share of *processor-seconds*, not wall time.
        """
        if seconds < 0 or num_socs < 0:
            raise ValueError("negative charge")
        cpu_s = seconds * cpu_fraction * num_socs
        npu_s = seconds * (1.0 - cpu_fraction) * num_socs
        self.report.cpu_j += cpu_s * self.soc.cpu.busy_watts
        self.report.npu_j += npu_s * self.soc.npu.busy_watts
        base = seconds * num_socs * self.soc.idle_watts
        self.report.idle_j += base

    def charge_mixed(self, cpu_busy_s: float, npu_busy_s: float,
                     wall_s: float, num_socs: int) -> None:
        """Mixed-precision step: both processors busy for their own spans.

        ``cpu_busy_s``/``npu_busy_s`` are per-SoC busy times inside a
        wall-clock window of ``wall_s`` (the slower processor defines it).
        """
        if min(cpu_busy_s, npu_busy_s, wall_s, num_socs) < 0:
            raise ValueError("negative charge")
        self.report.cpu_j += cpu_busy_s * num_socs * self.soc.cpu.busy_watts
        self.report.npu_j += npu_busy_s * num_socs * self.soc.npu.busy_watts
        self.report.idle_j += wall_s * num_socs * self.soc.idle_watts

    def charge_network(self, seconds: float, num_socs: int,
                       include_idle: bool = True) -> None:
        """NIC-active draw; ``include_idle=False`` for sync that is
        overlapped under compute (the idle floor is already charged)."""
        if seconds < 0 or num_socs < 0:
            raise ValueError("negative charge")
        self.report.network_j += seconds * num_socs * _NIC_ACTIVE_WATTS
        if include_idle:
            self.report.idle_j += seconds * num_socs * self.soc.idle_watts
