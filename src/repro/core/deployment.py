"""One deployment builder: the paper's packet-level set-up in one spec.

Every packet-level experiment in the paper (§4.3.1) uses one set-up: an
availability trace, an Anemone profile per endsystem, and queries
injected at chosen times.  :class:`Deployment` is that set-up as a
frozen value and the one place that decides the trace family
(``"farsite"``, ``"gnutella"``, ``"always_on"`` or a caller's own
:class:`~repro.traces.availability.TraceSet`), the seeding convention
(trace from ``seed``, dataset from ``seed + 1`` unless a shared dataset
is passed in, ``master_seed`` is ``seed``), pretraining (always: the
paper's warmup) and the ground-truth oracle (always attached; its hooks
are read-only, so an audited run is event-for-event identical to an
unaudited one).  Sweeps are :func:`dataclasses.replace` loops::

    base = Deployment(trace="farsite", population=250, horizon=5 * 3600.0)
    for population in (80, 160, 320):
        run = replace(base, population=population).run([(1800.0, sql)])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.core.config import SeaweedConfig
from repro.core.query import QueryDescriptor
from repro.core.system import SeaweedSystem
from repro.obs.observer import Observer
from repro.traces.availability import AvailabilitySchedule, TraceSet
from repro.traces.farsite import generate_farsite_trace
from repro.traces.gnutella import generate_gnutella_trace
from repro.workload.anemone import AnemoneDataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.audit.oracle import GroundTruthOracle
    from repro.faults.plan import FaultPlan

#: The generated trace families a spec may name.
TRACE_FAMILIES = ("farsite", "gnutella", "always_on")


class QueryScheduleError(ValueError):
    """A query scheduled at or past the end of its run."""


class DeploymentRun(NamedTuple):
    """What :meth:`Deployment.run` returns; the system can run on."""

    system: SeaweedSystem
    oracle: "GroundTruthOracle"
    descriptors: tuple[QueryDescriptor, ...]
    fingerprint: dict


@dataclass(frozen=True)
class Deployment:
    """A packet-level deployment spec; :meth:`build` and :meth:`run` it."""

    #: A family in :data:`TRACE_FAMILIES` or a caller's own trace.
    trace: Union[str, TraceSet] = "farsite"
    #: Endsystems; a caller's own trace is assigned to them at random.
    population: int = 400
    #: Length of a generated trace, and where :meth:`run` stops by default.
    horizon: float = 8 * 3600.0
    seed: int = 0
    #: A shared dataset; ``None`` draws ``num_profiles`` from ``seed + 1``.
    dataset: Optional[AnemoneDataset] = None
    num_profiles: int = 40
    config: Optional[SeaweedConfig] = None
    startup_stagger: float = 300.0
    #: Vary (only) this to rerun with other endsystemIds (Fig. 9c).
    id_seed: Optional[int] = None
    #: A mutable database copy per endsystem (live feeds need it).
    private_databases: bool = False
    fault_plan: Optional["FaultPlan"] = None

    def __post_init__(self) -> None:
        if isinstance(self.trace, str) and self.trace not in TRACE_FAMILIES:
            raise ValueError(
                f"unknown trace kind {self.trace!r} (choose from {TRACE_FAMILIES})"
            )

    def trace_set(self) -> TraceSet:
        """The availability trace: the caller's own, or drawn from ``seed``."""
        if isinstance(self.trace, TraceSet):
            return self.trace
        if self.trace == "always_on":
            schedule = AvailabilitySchedule.always_on(self.horizon)
            return TraceSet([schedule] * self.population, self.horizon)
        generate = (
            generate_farsite_trace if self.trace == "farsite" else generate_gnutella_trace
        )
        return generate(
            self.population, horizon=self.horizon, rng=np.random.default_rng(self.seed)
        )

    def build(self, observer: Optional[Observer] = None) -> SeaweedSystem:
        """The pretrained system at t=0 with the oracle attached
        (``system.auditor``)."""
        dataset = self.dataset
        if dataset is None:
            dataset = AnemoneDataset(
                num_profiles=self.num_profiles,
                rng=np.random.default_rng(self.seed + 1),
            )
        system = SeaweedSystem(
            self.trace_set(),
            dataset,
            num_endsystems=self.population,
            config=self.config,
            master_seed=self.seed,
            startup_stagger=self.startup_stagger,
            id_seed=self.id_seed,
            private_databases=self.private_databases,
            observer=observer,
            fault_plan=self.fault_plan,
        )
        system.pretrain_availability()
        system.enable_audit()
        return system

    def run(
        self,
        queries: Sequence[tuple[float, str]],
        until: Optional[float] = None,
        bind_now: bool = True,
        observer: Optional[Observer] = None,
    ) -> DeploymentRun:
        """Build, inject each ``(time, sql)`` query at its time (in time
        order) from a random online endsystem, and run to ``until``
        (default: the horizon).  Raises :class:`QueryScheduleError` for
        a query at or past ``until``, before anything is built."""
        end = self.horizon if until is None else until
        queries = sorted(queries, key=lambda query: query[0])
        late = [at for at, _sql in queries if at >= end]
        if late:
            raise QueryScheduleError(
                f"a query at {late[0]:g} s is at or past the end of the run "
                f"({end:g} s)"
            )
        system = self.build(observer)
        descriptors = []
        for at, sql in queries:
            system.run_until(at)
            _origin, descriptor = system.inject_query(sql, bind_now=bind_now)
            descriptors.append(descriptor)
        system.run_until(end)
        return DeploymentRun(
            system, system.auditor, tuple(descriptors), fingerprint(system, descriptors)
        )


def fingerprint(system: SeaweedSystem, descriptors: Sequence[QueryDescriptor]) -> dict:
    """The numbers a seeded run must reproduce exactly: event count, byte
    totals per category, drop and routing counters, and the query
    outcome — rows, predictor total and status history summed over the
    queries, with the last predictor arrival.  Any change to wire sizes,
    RNG draw order or event scheduling moves it."""
    snapshot = system.metrics_snapshot()
    bandwidth = snapshot["bandwidth"]
    statuses = [
        status
        for descriptor in descriptors
        if (status := system.status_of(descriptor)) is not None
    ]
    ready = [s.predictor_ready_at for s in statuses if s.predictor_ready_at is not None]
    return {
        "events_processed": system.sim.events_processed,
        "total_tx": bandwidth["total_tx"],
        "total_rx": bandwidth["total_rx"],
        "messages": bandwidth["messages"],
        "tx_by_category": dict(sorted(bandwidth["tx_by_category"].items())),
        "drops_by_reason": snapshot["transport"]["drops_by_reason"],
        "overlay_online": snapshot["overlay"]["online"],
        "reroutes": snapshot["overlay"]["reroutes"],
        "routing_drops": snapshot["overlay"]["routing_drops"],
        "rows": sum(status.rows_processed for status in statuses),
        "predictor_ready_at": max(ready, default=None),
        "expected_total": sum(
            status.predictor.expected_total
            for status in statuses
            if status.predictor is not None
        ),
        "history_len": sum(len(status.history) for status in statuses),
    }
