"""Multi-tenant collision service.

The paper frames RBCD as a service the CPU offloads collision queries
to; this module makes that literal for the simulator.  A
:class:`CollisionService` accepts frames from N independent tenant
scene streams, admission-controls each stream with the existing
watchdog rules, batches ready frames across tenants, renders each
through its tenant's own system, and demultiplexes the results back to
per-tenant futures.

Isolation contract (the serving analogue of the zero-feedback
telemetry contract, asserted by
``tests/serve/test_tenant_isolation.py``): every tenant owns a private
:class:`~repro.core.RBCDSystem` — its own GPU state, ZEBs, tile cache.
Per-tile RBCD work is a pure function of ``(config, fragments)`` and
batches are rendered one frame at a time, so each tenant's per-frame
results (pairs, contacts, counters, cycles, joules, provenance) are
bit-identical to running that tenant's stream solo, no matter how many
other tenants share the service.  Admission control only ever
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
  the per-tile spans are attributable to their tenant;
* :meth:`CollisionService.healthy`, :meth:`CollisionService.alerts`
  and :meth:`CollisionService.global_registry` read the state in
  process, and per-tenant watchdog alerts flow through the structured
  JSON log layer under the tenant's logger.
"""

from __future__ import annotations

import logging
import threading
import warnings
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.core import RBCDFrameResult, RBCDSystem
from repro.gpu.commands import Frame
from repro.gpu.config import GPUConfig
from repro.observability.counters import CounterRegistry
from repro.observability.live import (
    LiveMonitor,
    WatchdogRule,
    default_rules,
)
from repro.observability.log import get_logger, log_event

__all__ = [
    "AdmissionError",
    "ServedFrame",
    "TenantSession",
    "CollisionService",
]

_LOG = get_logger(__name__)

# Tenant id charset: conservative ids keep logger names, span
# attributes and flight-recorder stream names unambiguous.
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

    ``system`` is the tenant's own :class:`~repro.core.RBCDSystem`;
    ``monitor`` its telemetry shard; ``serve_counters`` the
    admission/batching shard merged into the global registry alongside
    the monitor totals.
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
    """Admission-controlled, batching frontend over per-tenant systems.

    Parameters
    ----------
    workers:
        Deprecated, no effect: every tenant renders through its own
        serial tile loop.  The keyword stays only because the benchmark
        harness (``perfbench/workloads.py``) passes it.  Values below 1
        still raise ``ValueError``; any value but 1 warns.
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
        base_config: GPUConfig | None = None,
        window: int = 120,
        rules=None,
        tracer=None,
        max_pending: int = 8,
        admit_unhealthy: bool = False,
        recorder=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers != 1:
            warnings.warn(
                "CollisionService(workers=) has no effect and will be "
                "removed: tiles run in one serial loop per tenant",
                DeprecationWarning,
                stacklevel=2,
            )
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.base_config = (
            base_config if base_config is not None else GPUConfig()
        )
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
        """Fail pending frames; later submissions raise."""
        with self._lock:
            self._closed = True
            sessions = list(self._tenants.values())
            for session in sessions:
                while session.pending:
                    _, _, _, future = session.pending.popleft()
                    future.set_exception(
                        AdmissionError(session.tenant, "shutdown")
                    )
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
                raise RuntimeError("service is closed")
            if tenant in self._tenants:
                raise ValueError(f"tenant {tenant!r} already registered")
            self._tenants[tenant] = session
        log_event(_LOG, "serve.tenant.registered", tenant=tenant)
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
        never affected.  Raises ``KeyError`` for an unknown tenant and
        ``TypeError`` for anything but a
        :class:`~repro.gpu.commands.Frame`, before the frame is queued
        or counted.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            session = self._tenants.get(tenant)
        if session is None:
            raise KeyError(f"unknown tenant {tenant!r}")
        if not isinstance(frame, Frame):
            raise TypeError(
                f"submit expects a repro.gpu.commands.Frame, "
                f"got {type(frame).__name__}"
            )
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
        rendered through that tenant's own system and its future
        resolved with the
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
