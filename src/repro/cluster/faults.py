"""Seeded fault injection for the SoC-Cluster (the unplanned-failure story).

The paper handles *planned* preemption — user load returns, the
scheduler drops whole logical groups at an epoch boundary (§3).  A
production cluster also sees *unplanned* faults: SoCs crash and reboot,
the shared 1 Gbps PCB NICs degrade or flap, individual chips become
persistent stragglers, and user-load spikes preempt several groups at
once.  This module expresses all four as typed events on an epoch
timeline:

- :class:`SoCCrash` — a chip dies at an epoch boundary and (optionally)
  rejoins later;
- :class:`NicDegradation` — a PCB NIC runs at a fraction of its nominal
  bandwidth, optionally recovering (a *flap* is a degradation with a
  recovery epoch);
- :class:`StragglerFault` — DVFS pins a SoC at a fraction of nominal
  speed from some epoch onward;
- :class:`PreemptionStorm` — user load claims several logical groups at
  once.

A :class:`FaultSchedule` bundles events and answers point-in-time
queries (``dead_socs``, ``nic_multipliers``, ...).  Schedules come from
three places: hand-built event lists, the seeded :class:`FaultInjector`
(rate- or count-based sampling), and the CLI's ``--faults`` spec string
via :func:`parse_fault_spec`.  Everything is deterministic given the
seed, which is what makes recovery regression-testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .topology import ClusterTopology

__all__ = ["FaultSpecError", "SoCCrash", "NicDegradation", "StragglerFault",
           "PreemptionStorm", "FaultSchedule", "FaultInjector",
           "parse_fault_spec", "event_summary"]


class FaultSpecError(ValueError):
    """A ``--faults`` spec string could not be parsed."""


def _check_epoch(epoch: int) -> None:
    if epoch < 0:
        raise ValueError("fault epoch must be non-negative")


@dataclass(frozen=True)
class SoCCrash:
    """``soc`` is dead from the start of ``epoch``.

    ``recover_epoch=None`` means the chip never comes back; otherwise it
    rejoins the survivor pool at the start of ``recover_epoch``.
    """

    epoch: int
    soc: int
    recover_epoch: int | None = None

    def __post_init__(self):
        _check_epoch(self.epoch)
        if self.recover_epoch is not None and self.recover_epoch <= self.epoch:
            raise ValueError("recover_epoch must be after the crash epoch")

    def dead_at(self, epoch: int) -> bool:
        if epoch < self.epoch:
            return False
        return self.recover_epoch is None or epoch < self.recover_epoch


@dataclass(frozen=True)
class NicDegradation:
    """PCB ``pcb``'s shared NIC runs at ``multiplier`` of nominal
    bandwidth from ``epoch``; ``recover_epoch`` turns it into a flap."""

    epoch: int
    pcb: int
    multiplier: float
    recover_epoch: int | None = None

    def __post_init__(self):
        _check_epoch(self.epoch)
        if not 0.0 < self.multiplier < 1.0:
            raise ValueError("multiplier must be in (0, 1)")
        if self.recover_epoch is not None and self.recover_epoch <= self.epoch:
            raise ValueError("recover_epoch must be after the onset epoch")

    def active_at(self, epoch: int) -> bool:
        if epoch < self.epoch:
            return False
        return self.recover_epoch is None or epoch < self.recover_epoch


@dataclass(frozen=True)
class StragglerFault:
    """DVFS pins ``soc`` at ``factor`` of nominal speed from ``epoch``."""

    epoch: int
    soc: int
    factor: float

    def __post_init__(self):
        _check_epoch(self.epoch)
        if not 0.0 < self.factor < 1.0:
            raise ValueError("straggler factor must be in (0, 1)")


@dataclass(frozen=True)
class PreemptionStorm:
    """User load claims ``num_groups`` logical groups at ``epoch``."""

    epoch: int
    num_groups: int = 1

    def __post_init__(self):
        _check_epoch(self.epoch)
        if self.num_groups <= 0:
            raise ValueError("num_groups must be positive")


_EVENT_TYPES = (SoCCrash, NicDegradation, StragglerFault, PreemptionStorm)

_EVENT_KIND_NAMES = {SoCCrash: "crash", NicDegradation: "nic_degradation",
                     StragglerFault: "straggler",
                     PreemptionStorm: "preemption_storm"}


def event_summary(event) -> dict:
    """Flat, JSON-ready description of one fault event (trace ``args``)."""
    if not isinstance(event, _EVENT_TYPES):
        raise TypeError(f"not a fault event: {event!r}")
    summary = {"fault": _EVENT_KIND_NAMES[type(event)], "epoch": event.epoch}
    for field_name in ("soc", "pcb", "multiplier", "factor", "num_groups",
                       "recover_epoch"):
        value = getattr(event, field_name, None)
        if value is not None:
            summary[field_name] = value
    return summary


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable timeline of fault events with point-in-time queries."""

    events: tuple = ()

    def __post_init__(self):
        for event in self.events:
            if not isinstance(event, _EVENT_TYPES):
                raise TypeError(f"not a fault event: {event!r}")
        ordered = tuple(sorted(self.events,
                               key=lambda e: (e.epoch, type(e).__name__,
                                              repr(e))))
        object.__setattr__(self, "events", ordered)

    # -- container protocol ---------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- point-in-time queries ------------------------------------------
    def dead_socs(self, epoch: int) -> set[int]:
        """SoC ids that are down during ``epoch`` (crash ≤ epoch < recovery)."""
        return {e.soc for e in self.events
                if isinstance(e, SoCCrash) and e.dead_at(epoch)}

    def nic_multipliers(self, epoch: int) -> dict[int, float]:
        """pcb -> bandwidth multiplier in effect during ``epoch``.

        Overlapping degradations on one PCB compound multiplicatively.
        """
        mults: dict[int, float] = {}
        for e in self.events:
            if isinstance(e, NicDegradation) and e.active_at(epoch):
                mults[e.pcb] = mults.get(e.pcb, 1.0) * e.multiplier
        return mults

    def straggler_factors(self, epoch: int) -> dict[int, float]:
        """soc -> persistent clock factor for stragglers begun by ``epoch``."""
        factors: dict[int, float] = {}
        for e in self.events:
            if isinstance(e, StragglerFault) and e.epoch <= epoch:
                factors[e.soc] = min(factors.get(e.soc, 1.0), e.factor)
        return factors

    def storms_at(self, epoch: int) -> list[PreemptionStorm]:
        return [e for e in self.events
                if isinstance(e, PreemptionStorm) and e.epoch == epoch]

    def events_at(self, epoch: int) -> tuple:
        """Every event whose onset is exactly ``epoch``."""
        return tuple(e for e in self.events if e.epoch == epoch)

    def enter_epoch(self, epoch: int, fabric) -> set[int]:
        """Bring a run on ``fabric`` to ``epoch``; return the dead set.

        The one per-epoch reader of the schedule, shared by SoCFlow's
        control board and the baselines' epoch loop: the epoch's NIC
        multipliers replace the fabric's, so every later transfer sees
        the degraded links, and each onset becomes one ``fault`` trace
        event plus a ``faults.injected`` count on the fabric's
        telemetry.  Stragglers and storms are the caller's to read.
        """
        fabric.apply_pcb_multipliers(self.nic_multipliers(epoch))
        tel = fabric.telemetry
        if tel.tracer.enabled or tel.metrics.enabled:
            for event in self.events_at(epoch):
                args = event_summary(event)
                kind = args.pop("fault")
                tel.tracer.event("fault", tel.now, name=f"fault:{kind}",
                                 soc=args.pop("soc", None),
                                 pcb=args.pop("pcb", None), fault=kind,
                                 **args)
                tel.metrics.counter("faults.injected", kind=kind).inc()
        return self.dead_socs(epoch)

    @property
    def max_epoch(self) -> int:
        """Last epoch at which any event begins (-1 for an empty schedule)."""
        return max((e.epoch for e in self.events), default=-1)

    def validate_for(self, topology: ClusterTopology) -> "FaultSchedule":
        """Raise if any event references a SoC/PCB outside ``topology``."""
        for e in self.events:
            if isinstance(e, (SoCCrash, StragglerFault)):
                topology.pcb_of(e.soc)          # range-checks the SoC id
            elif isinstance(e, NicDegradation):
                if not 0 <= e.pcb < topology.num_pcbs:
                    raise ValueError(f"PCB id {e.pcb} out of range "
                                     f"[0, {topology.num_pcbs})")
        return self


@dataclass
class FaultInjector:
    """Deterministic fault sampling over a topology.

    Rates are per-epoch probabilities: each epoch every live SoC crashes
    with ``crash_rate``, every PCB NIC flaps with ``flap_rate``, and so
    on.  Two injectors with the same seed and parameters generate the
    same schedule.
    """

    topology: ClusterTopology
    seed: int = 0
    crash_rate: float = 0.0
    crash_outage_epochs: int | None = None     # None = permanent
    flap_rate: float = 0.0
    flap_multiplier: float = 0.25
    flap_outage_epochs: int = 2
    straggler_rate: float = 0.0
    straggler_factor: float = 0.5
    storm_rate: float = 0.0
    storm_groups: int = 1
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)

    def generate(self, max_epochs: int) -> FaultSchedule:
        """Sample a schedule over ``[1, max_epochs)`` (epoch 0 stays clean
        so every run gets at least one fault-free epoch to roll back to).
        """
        events: list = []
        dead: set[int] = set()
        for epoch in range(1, max_epochs):
            for soc in range(self.topology.num_socs):
                if soc in dead:
                    continue
                if self._rng.random() < self.crash_rate:
                    recover = (None if self.crash_outage_epochs is None
                               else epoch + self.crash_outage_epochs)
                    events.append(SoCCrash(epoch, soc, recover))
                    if recover is None:
                        dead.add(soc)
            for pcb in range(self.topology.num_pcbs):
                if self._rng.random() < self.flap_rate:
                    events.append(NicDegradation(
                        epoch, pcb, self.flap_multiplier,
                        epoch + self.flap_outage_epochs))
            for soc in range(self.topology.num_socs):
                if soc not in dead and self._rng.random() < self.straggler_rate:
                    events.append(StragglerFault(epoch, soc,
                                                 self.straggler_factor))
            if self._rng.random() < self.storm_rate:
                events.append(PreemptionStorm(epoch, self.storm_groups))
        return FaultSchedule(tuple(events))

    def sample(self, max_epochs: int, num_crashes: int = 0,
               num_flaps: int = 0, num_stragglers: int = 0) -> FaultSchedule:
        """Exact-count sampling: kill ``num_crashes`` distinct SoCs, flap
        ``num_flaps`` distinct PCB NICs, straggle ``num_stragglers``
        distinct SoCs, at epochs drawn uniformly from ``[1, max_epochs)``.
        """
        if max_epochs < 2:
            raise ValueError("need max_epochs >= 2 to place faults")
        topo = self.topology
        if num_crashes + num_stragglers > topo.num_socs:
            raise ValueError("more per-SoC faults than SoCs")
        if num_flaps > topo.num_pcbs:
            raise ValueError("more flaps than PCBs")
        socs = self._rng.permutation(topo.num_socs)
        events: list = []
        for soc in socs[:num_crashes]:
            epoch = int(self._rng.integers(1, max_epochs))
            events.append(SoCCrash(epoch, int(soc)))
        for soc in socs[num_crashes:num_crashes + num_stragglers]:
            epoch = int(self._rng.integers(1, max_epochs))
            events.append(StragglerFault(epoch, int(soc),
                                         self.straggler_factor))
        pcbs = self._rng.permutation(topo.num_pcbs)
        for pcb in pcbs[:num_flaps]:
            epoch = int(self._rng.integers(1, max_epochs))
            events.append(NicDegradation(
                epoch, int(pcb), self.flap_multiplier,
                epoch + self.flap_outage_epochs))
        return FaultSchedule(tuple(events))


# ----------------------------------------------------------------------
# ``--faults`` spec parsing
# ----------------------------------------------------------------------
# Grammar: clauses separated by ';', each clause ``kind:key=value,...``.
#
#   crash:epoch=1,soc=3[,until=4]
#   nic:epoch=2,pcb=0,mult=0.2[,until=5]        (alias: flap)
#   straggler:epoch=1,soc=7,factor=0.5
#   storm:epoch=3[,groups=2]
#   random:seed=7,epochs=8[,crashes=4][,flaps=1][,stragglers=2]
#
# ``random`` clauses need a topology to sample over.

_INT_KEYS = {"epoch", "soc", "pcb", "until", "groups", "seed", "epochs",
             "crashes", "flaps", "stragglers"}
_FLOAT_KEYS = {"mult", "factor"}


def _parse_fields(kind: str, body: str) -> dict:
    fields: dict = {}
    for pair in filter(None, (p.strip() for p in body.split(","))):
        if "=" not in pair:
            raise FaultSpecError(
                f"malformed field {pair!r} in {kind!r} clause "
                "(expected key=value)")
        key, _, raw = pair.partition("=")
        key = key.strip()
        raw = raw.strip()
        try:
            if key in _INT_KEYS:
                fields[key] = int(raw)
            elif key in _FLOAT_KEYS:
                fields[key] = float(raw)
            else:
                raise FaultSpecError(
                    f"unknown field {key!r} in {kind!r} clause")
        except ValueError as err:
            raise FaultSpecError(
                f"bad value {raw!r} for field {key!r}") from err
    return fields


def _require(fields: dict, kind: str, *keys: str) -> None:
    missing = [k for k in keys if k not in fields]
    if missing:
        raise FaultSpecError(
            f"{kind!r} clause missing field(s): {', '.join(missing)}")


def parse_fault_spec(spec: str,
                     topology: ClusterTopology | None = None
                     ) -> FaultSchedule:
    """Parse a ``--faults`` spec string into a :class:`FaultSchedule`.

    Raises :class:`FaultSpecError` on any malformed input.  When a
    ``topology`` is given, SoC/PCB ids are range-checked and ``random``
    clauses are allowed.
    """
    events: list = []
    clauses = [c.strip() for c in spec.split(";") if c.strip()]
    if not clauses:
        raise FaultSpecError("empty fault spec")
    for clause in clauses:
        kind, sep, body = clause.partition(":")
        kind = kind.strip().lower()
        if not sep:
            raise FaultSpecError(
                f"malformed clause {clause!r} (expected kind:key=value,...)")
        fields = _parse_fields(kind, body)
        try:
            if kind == "crash":
                _require(fields, kind, "epoch", "soc")
                events.append(SoCCrash(fields["epoch"], fields["soc"],
                                       fields.get("until")))
            elif kind in ("nic", "flap"):
                _require(fields, kind, "epoch", "pcb", "mult")
                events.append(NicDegradation(fields["epoch"], fields["pcb"],
                                             fields["mult"],
                                             fields.get("until")))
            elif kind == "straggler":
                _require(fields, kind, "epoch", "soc", "factor")
                events.append(StragglerFault(fields["epoch"], fields["soc"],
                                             fields["factor"]))
            elif kind == "storm":
                _require(fields, kind, "epoch")
                events.append(PreemptionStorm(fields["epoch"],
                                              fields.get("groups", 1)))
            elif kind == "random":
                if topology is None:
                    raise FaultSpecError(
                        "'random' clauses need a cluster topology")
                _require(fields, kind, "seed", "epochs")
                injector = FaultInjector(topology, seed=fields["seed"])
                events.extend(injector.sample(
                    fields["epochs"],
                    num_crashes=fields.get("crashes", 0),
                    num_flaps=fields.get("flaps", 0),
                    num_stragglers=fields.get("stragglers", 0)))
            else:
                raise FaultSpecError(f"unknown fault kind {kind!r}")
        except FaultSpecError:
            raise
        except ValueError as err:
            raise FaultSpecError(f"invalid {kind!r} clause: {err}") from err
    schedule = FaultSchedule(tuple(events))
    if topology is not None:
        try:
            schedule.validate_for(topology)
        except ValueError as err:
            raise FaultSpecError(str(err)) from err
    return schedule
