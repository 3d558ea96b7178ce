"""Multi-tenant collision service over the shared tile-executor pool.

The paper frames RBCD as a service the CPU offloads collision queries
to; this module makes that literal for the simulator.  A
:class:`CollisionService` accepts frames from N independent tenant
scene streams, admission-controls each stream with the existing
watchdog rules, batches ready frames across tenants onto **one**
shared :class:`~repro.gpu.parallel.TileExecutor` pool (the "device"),
and demultiplexes the results back to per-tenant futures.

Isolation contract (the serving analogue of the zero-feedback
telemetry contract, asserted by
``tests/serve/test_tenant_isolation.py``): every tenant owns a private
:class:`~repro.core.RBCDSystem` — its own GPU state, ZEBs, tile cache
— and only the worker pool is shared.  Per-tile RBCD work is a pure
function of ``(config, fragments)`` and batches are rendered one frame
at a time, so each tenant's per-frame results (pairs, contacts,
counters, cycles, joules, provenance) are bit-identical to running
that tenant's stream solo, at any worker count, no matter how many
other tenants it shares the pool with.  Admission control only ever
rejects frames *before* they enter the pipeline; it never alters an
admitted frame's result.

Telemetry is tenant-scoped end to end:

* every tenant has its own :class:`~repro.observability.live.LiveMonitor`
  shard (sliding windows, p95 latency sketch, watchdog rules) and a
  ``serve.*`` counter shard; the global view is
  ``CounterRegistry.sum`` over the shards — the exact, associative and
  commutative :class:`~repro.observability.counters.CounterAlgebra`,
  so any merge order reproduces the same global registry bit for bit;
* a shared :class:`~repro.observability.tracer.Tracer` (optional)
  records every span of a served frame inside
  ``tracer.context(tenant=..., stream=..., frame_seq=...)``, so even
  the per-tile spans recorded after the executor shard merge are
  attributable to their tenant;
* :meth:`CollisionService.to_openmetrics` renders ``tenant="..."``
  labelled series, and per-tenant watchdog alerts flow through the
  structured JSON log layer under the tenant's logger.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.core import RBCDFrameResult, RBCDSystem
from repro.gpu.config import GPUConfig
from repro.gpu.parallel import TileExecutor, make_executor
from repro.observability.counters import CounterRegistry
from repro.observability.live import (
    LiveMonitor,
    WatchdogRule,
    default_rules,
)
from repro.observability.log import get_logger, log_event
from repro.observability.openmetrics import (
    MetricFamily,
    metric_name_of,
    render_families,
)

__all__ = [
    "AdmissionError",
    "ServedFrame",
    "TenantSession",
    "CollisionService",
]

_LOG = get_logger(__name__)

# Label value charset for tenant ids: anything is escapable in
# OpenMetrics, but keeping ids conservative keeps logs, label sets and
# URL paths (/healthz/<tenant>) unambiguous.
_TENANT_OK = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)


class AdmissionError(RuntimeError):
    """A frame was refused at the door (backlog or unhealthy tenant).

    Carries the machine-readable ``reason``: ``"backlog"`` when the
    tenant's pending queue is full, ``"unhealthy"`` when a watchdog
    rule is in breach for the tenant.
    """

    def __init__(self, tenant: str, reason: str, detail: str = "") -> None:
        self.tenant = tenant
        self.reason = reason
        message = f"tenant {tenant!r} admission refused: {reason}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


@dataclass(frozen=True)
class ServedFrame:
    """One demultiplexed result: the envelope a tenant's future holds."""

    tenant: str
    stream: str
    frame_seq: int
    batch: int
    result: RBCDFrameResult


@dataclass
class TenantSession:
    """One tenant's private slice of the service.

    ``system`` is the tenant's own :class:`~repro.core.RBCDSystem`
    (sharing only the service's executor pool); ``monitor`` its
    telemetry shard; ``serve_counters`` the admission/batching shard
    merged into the global registry alongside the monitor totals.
    """

    tenant: str
    system: RBCDSystem
    monitor: LiveMonitor
    serve_counters: CounterRegistry
    pending: deque = field(default_factory=deque)
    frame_seq: int = 0

    def registry(self) -> CounterRegistry:
        """This tenant's full counter shard (monitor totals + serve)."""
        return self.monitor.totals_registry().merge(self.serve_counters)


def _serve_counters() -> CounterRegistry:
    registry = CounterRegistry()
    registry.counter(
        "serve.frames_submitted", description="Frames accepted for this tenant."
    )
    registry.counter(
        "serve.frames_completed", description="Frames rendered and demuxed."
    )
    registry.counter(
        "serve.frames_rejected",
        description="Frames refused by admission control.",
    )
    return registry


class CollisionService:
    """Admission-controlled, batching frontend over shared tile workers.

    Parameters
    ----------
    workers, executor_backend:
        The shared pool: every tenant's per-tile RBCD work runs on this
        one executor (``make_executor`` semantics — "thread" or
        "process"; workers=1 stays serial).
    base_config:
        Default :class:`~repro.gpu.config.GPUConfig` for tenants that
        do not bring their own (``register(config=...)`` overrides).
    window, rules:
        Defaults for each tenant's :class:`LiveMonitor` shard.
        ``rules=None`` uses :func:`default_rules`; pass a callable for
        per-tenant rule sets (called with the tenant id).
    tracer:
        Optional shared :class:`~repro.observability.tracer.Tracer`.
        Served frames run inside ``tracer.context(tenant=, stream=,
        frame_seq=)`` so every span — including per-tile spans — is
        tenant-attributable.
    max_pending:
        Admission bound: frames queued per tenant before ``submit``
        raises :class:`AdmissionError` ("backlog").
    admit_unhealthy:
        When False (default), a tenant whose watchdog rules are in
        breach has new frames refused ("unhealthy") until the stream
        recovers.  Rejection is the only feedback admission control is
        allowed: admitted frames are never altered.
    recorder:
        Optional :class:`~repro.observability.FlightRecorder` black
        box.  The service then records every tenant's completed spans
        (routed by the ``tenant`` span attribute), metric snapshots,
        watchdog transitions and admission rejections into the
        recorder's per-stream rings, fingerprints each tenant's
        config, and fires the recorder's triggers on watchdog alerts,
        rejections, and unhandled exceptions in :meth:`step` — so a
        post-mortem dump lands on disk the moment an incident starts.
        When no ``tracer`` was passed, a recorder-owned bounded tracer
        is created so span recording is on without unbounded growth.
        Strictly observational: results are bit-identical with the
        recorder attached or not.
    """

    def __init__(
        self,
        workers: int = 1,
        executor_backend: str | None = None,
        base_config: GPUConfig | None = None,
        window: int = 120,
        rules=None,
        tracer=None,
        max_pending: int = 8,
        admit_unhealthy: bool = False,
        recorder=None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.base_config = (
            base_config if base_config is not None else GPUConfig()
        )
        pool_config = self.base_config.with_executor(
            workers=workers, backend=executor_backend
        )
        self.workers = pool_config.executor_workers
        self.executor: TileExecutor = make_executor(pool_config)
        self.window = window
        self._rules = rules
        self.recorder = recorder
        if recorder is not None:
            tracer = recorder.attach_tracer(tracer)
        self.tracer = tracer
        self.max_pending = max_pending
        self.admit_unhealthy = admit_unhealthy
        self.batches = 0
        self._tenants: dict[str, TenantSession] = {}
        self._lock = threading.Lock()       # queues, counters, tenant map
        self._render_lock = threading.Lock()  # one batch in flight at a time
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Fail pending frames, close tenant systems and the pool."""
        with self._lock:
            self._closed = True
            sessions = list(self._tenants.values())
            for session in sessions:
                while session.pending:
                    _, _, _, future = session.pending.popleft()
                    future.set_exception(
                        AdmissionError(session.tenant, "shutdown")
                    )
        for session in sessions:
            session.system.close()
        self.executor.close()
        log_event(_LOG, "serve.closed", level=logging.DEBUG,
                  tenants=len(sessions))

    def __enter__(self) -> "CollisionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tenants -------------------------------------------------------------

    def register(
        self,
        tenant: str,
        config: GPUConfig | None = None,
        rules: list[WatchdogRule] | None = None,
        window: int | None = None,
        observers=(),
    ) -> TenantSession:
        """Create a tenant session (its own system + telemetry shards).

        The tenant's system observes its frames with
        ``[its monitor, *observers]`` (see :class:`~repro.core.RBCDSystem`).
        """
        if not tenant or not set(tenant) <= _TENANT_OK:
            raise ValueError(
                f"tenant id {tenant!r} must be non-empty [A-Za-z0-9._-]"
            )
        if rules is None:
            factory = self._rules
            if callable(factory):
                rules = factory(tenant)
            elif factory is not None:
                rules = list(factory)
            else:
                rules = default_rules()
        monitor = LiveMonitor(
            window=window if window is not None else self.window,
            rules=rules,
            logger=get_logger(f"repro.serve.tenant.{tenant}"),
        )
        system = RBCDSystem(
            config=config if config is not None else self.base_config,
            executor=self.executor,
            tracer=self.tracer,
            observers=[monitor, *observers],
        )
        if self.recorder is not None:
            self.recorder.attach_monitor(monitor, stream=tenant)
            self.recorder.attach_config(system.config, stream=tenant)
        session = TenantSession(
            tenant=tenant,
            system=system,
            monitor=monitor,
            serve_counters=_serve_counters(),
        )
        with self._lock:
            if self._closed:
                system.close()
                raise RuntimeError("service is closed")
            if tenant in self._tenants:
                system.close()
                raise ValueError(f"tenant {tenant!r} already registered")
            self._tenants[tenant] = session
        log_event(_LOG, "serve.tenant.registered", tenant=tenant,
                  workers=self.workers)
        return session

    def tenants(self) -> list[str]:
        """Registered tenant ids, in the deterministic batching order."""
        with self._lock:
            return sorted(self._tenants)

    def session(self, tenant: str) -> TenantSession:
        with self._lock:
            return self._tenants[tenant]

    # -- admission + submission ----------------------------------------------

    def submit(self, tenant: str, frame, stream: str = "0") -> Future:
        """Queue one prepared GPU frame for a tenant.

        Returns a future resolving to a :class:`ServedFrame`.  Raises
        :class:`AdmissionError` when the tenant's backlog is full or
        its watchdog rules are in breach — rejection happens strictly
        before the frame touches the pipeline, so admitted frames are
        never affected.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            session = self._tenants.get(tenant)
        if session is None:
            raise KeyError(f"unknown tenant {tenant!r}")
        healthy = session.monitor.healthy
        with self._lock:
            if len(session.pending) >= self.max_pending:
                session.serve_counters.add("serve.frames_rejected")
                reason, detail = "backlog", f"{len(session.pending)} pending"
            elif not healthy and not self.admit_unhealthy:
                session.serve_counters.add("serve.frames_rejected")
                reason = "unhealthy"
                detail = ",".join(session.monitor.active_alerts)
            else:
                future: Future = Future()
                seq = session.frame_seq
                session.frame_seq += 1
                session.pending.append((seq, stream, frame, future))
                session.serve_counters.add("serve.frames_submitted")
                return future
        log_event(
            _LOG, "serve.frame.rejected", level=logging.WARNING,
            tenant=tenant, stream=stream, reason=reason, detail=detail,
        )
        if self.recorder is not None:
            self.recorder.record_rejection(
                tenant, reason, detail=detail, stream_name=stream
            )
        raise AdmissionError(tenant, reason, detail)

    # -- batching ------------------------------------------------------------

    def step(self) -> int:
        """Render one batch: at most one ready frame per tenant.

        Tenants are visited in sorted-id order; each admitted frame is
        rendered through that tenant's own system (all tenants share
        the executor pool underneath) and its future resolved with the
        demultiplexed :class:`ServedFrame`.  Returns the number of
        frames rendered (0 = nothing pending).
        """
        with self._render_lock:
            with self._lock:
                batch: list[tuple[TenantSession, int, str, object, Future]] = []
                for tenant in sorted(self._tenants):
                    session = self._tenants[tenant]
                    if session.pending:
                        seq, stream, frame, future = session.pending.popleft()
                        batch.append((session, seq, stream, frame, future))
                if batch:
                    self.batches += 1
                    batch_index = self.batches
            if not batch:
                return 0
            for session, seq, stream, frame, future in batch:
                if not future.set_running_or_notify_cancel():
                    continue
                try:
                    if self.tracer is not None:
                        with self.tracer.context(
                            tenant=session.tenant, stream=stream,
                            frame_seq=seq,
                        ):
                            result = session.system.detect_frame(frame)
                    else:
                        result = session.system.detect_frame(frame)
                except BaseException as exc:  # demux failures per frame
                    if self.recorder is not None:
                        self.recorder.record_exception(
                            session.tenant, exc, frame_seq=seq
                        )
                    future.set_exception(exc)
                    continue
                with self._lock:
                    session.serve_counters.add("serve.frames_completed")
                future.set_result(ServedFrame(
                    tenant=session.tenant, stream=stream, frame_seq=seq,
                    batch=batch_index, result=result,
                ))
            return len(batch)

    def drain(self) -> int:
        """Step until every pending frame is served; returns the count."""
        total = 0
        while True:
            served = self.step()
            if served == 0:
                return total
            total += served

    # -- telemetry -----------------------------------------------------------

    def tenant_registry(self, tenant: str) -> CounterRegistry:
        """One tenant's merged counter shard (monitor totals + serve)."""
        return self.session(tenant).registry()

    def global_registry(self) -> CounterRegistry:
        """The global registry: the exact sum of every tenant shard.

        ``CounterRegistry.sum`` is the associative/commutative
        ``CounterAlgebra`` merge, so this equals merging the shards in
        any interleave the batching produced.
        """
        with self._lock:
            sessions = [self._tenants[t] for t in sorted(self._tenants)]
        return CounterRegistry.sum(session.registry() for session in sessions)

    def healthy(self, tenant: str | None = None) -> bool:
        if tenant is not None:
            return self.session(tenant).monitor.healthy
        with self._lock:
            sessions = list(self._tenants.values())
        return all(s.monitor.healthy for s in sessions)

    def alerts(self) -> dict[str, list]:
        """Per-tenant watchdog alerts fired so far."""
        with self._lock:
            sessions = [self._tenants[t] for t in sorted(self._tenants)]
        return {s.tenant: list(s.monitor.alerts) for s in sessions}

    def health_dict(self, tenant: str | None = None) -> dict:
        """The ``/healthz`` (or ``/healthz/<tenant>``) document."""
        if tenant is not None:
            doc = self.session(tenant).monitor.health_dict()
            doc["tenant"] = tenant
            return doc
        with self._lock:
            sessions = [self._tenants[t] for t in sorted(self._tenants)]
            batches = self.batches
        per_tenant = {s.tenant: s.monitor.health_dict() for s in sessions}
        healthy = all(d["status"] == "ok" for d in per_tenant.values())
        return {
            "status": "ok" if healthy else "failing",
            "batches": batches,
            "tenants": per_tenant,
        }

    def snapshot_dict(self) -> dict:
        """The ``/snapshot.json`` document: global + per-tenant state."""
        with self._lock:
            sessions = [self._tenants[t] for t in sorted(self._tenants)]
            batches = self.batches
        return {
            "batches": batches,
            "workers": self.workers,
            "tenants": {
                s.tenant: {
                    "pending": len(s.pending),
                    "snapshot": s.monitor.snapshot_dict(),
                    "serve": s.serve_counters.as_dict(),
                }
                for s in sessions
            },
            "totals": self.global_registry().as_dict(),
        }

    def metric_families(self) -> list[MetricFamily]:
        """Labelled metric families for the ``/metrics`` exposition."""
        with self._lock:
            sessions = [self._tenants[t] for t in sorted(self._tenants)]
            batches = self.batches
            pending = {s.tenant: len(s.pending) for s in sessions}
        families: list[MetricFamily] = []
        families.append(
            MetricFamily(
                "repro_serve_tenants", "gauge",
                help="Registered tenant sessions.",
            ).add(len(sessions))
        )
        families.append(
            MetricFamily(
                "repro_serve_batches", "counter",
                help="Cross-tenant batches dispatched to the shared pool.",
            ).add(batches, suffix="_total")
        )
        health = MetricFamily(
            "repro_tenant_health", "gauge",
            help="1 while the labelled tenant has no watchdog breach.",
        )
        alerts = MetricFamily(
            "repro_tenant_watchdog_alerts", "counter",
            help="Watchdog alerts fired for the labelled tenant.",
        )
        frames = MetricFamily(
            "repro_tenant_frames", "counter",
            help="Frames served for the labelled tenant.",
        )
        rejected = MetricFamily(
            "repro_tenant_rejected", "counter",
            help="Frames refused by admission control for the tenant.",
        )
        queue = MetricFamily(
            "repro_tenant_pending", "gauge",
            help="Frames queued (admitted, not yet served) per tenant.",
        )
        window = MetricFamily(
            "repro_tenant_window", "gauge",
            help="Per-tenant sliding-window aggregates and quantiles "
                 "(p95 frame latency lives at metric="
                 "\"quantile.frame.wall_ms.p95\").",
        )
        for session in sessions:
            tenant = session.tenant
            health.add(1 if session.monitor.healthy else 0, tenant=tenant)
            alerts.add(
                len(session.monitor.alerts), suffix="_total", tenant=tenant
            )
            frames.add(
                session.serve_counters["serve.frames_completed"],
                suffix="_total", tenant=tenant,
            )
            rejected.add(
                session.serve_counters["serve.frames_rejected"],
                suffix="_total", tenant=tenant,
            )
            queue.add(pending[tenant], tenant=tenant)
            for key, value in sorted(session.monitor.window_values().items()):
                window.add(value, tenant=tenant, metric=key)
        families.extend([health, alerts, frames, rejected, queue, window])

        # Registry counters: one family per counter name, one labelled
        # series per tenant.  The (unexposed) global value is the label
        # sum — exactly CounterAlgebra, which is why no separate global
        # family is needed.
        shards = [(s.tenant, s.registry().as_dict()) for s in sessions]
        names = sorted({name for _, counters in shards for name in counters})
        for name in names:
            family = MetricFamily(
                metric_name_of(name), "counter",
                help=f"Cumulative registry counter {name} by tenant.",
            )
            for tenant, counters in shards:
                if name in counters:
                    family.add(counters[name], suffix="_total", tenant=tenant)
            families.append(family)

        if self.recorder is not None:
            stats = self.recorder.stats()
            dumps = MetricFamily(
                "repro_flightrecorder_dumps", "counter",
                help="Post-mortem documents written by the flight recorder.",
            ).add(stats["dumps_written"], suffix="_total")
            suppressed = MetricFamily(
                "repro_flightrecorder_dumps_suppressed", "counter",
                help="Triggered dumps suppressed by the dump limit.",
            ).add(stats["dumps_suppressed"], suffix="_total")
            depth = MetricFamily(
                "repro_flightrecorder_ring_depth", "gauge",
                help="Events currently buffered per flight-recorder ring.",
            )
            for stream in sorted(stats["streams"]):
                for ring, depth_now in sorted(stats["streams"][stream].items()):
                    depth.add(depth_now, stream=stream, ring=ring)
            depth.add(stats["logs"], stream="_service", ring="logs")
            families.extend([dumps, suppressed, depth])
        return families

    def to_openmetrics(self) -> str:
        """Render the labelled multi-tenant exposition (strictly valid)."""
        return render_families(self.metric_families())
