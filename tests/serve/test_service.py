"""CollisionService unit tests: admission, batching, demux, telemetry."""

import sys
import threading
import time
import warnings
from collections import deque

import pytest

from repro.gpu.config import GPUConfig
from repro.observability.counters import CounterRegistry
from repro.observability.live import WatchdogRule
from repro.observability.tracer import Tracer
from repro.scenes.benchmarks import workload_by_alias
from repro.serve import (
    AdmissionError,
    CollisionService,
    ServedFrame,
)

CONFIG = GPUConfig().with_screen(96, 64)

# Watchdog rules that never fire: admission stays open, and serving
# tests exercise batching rather than rule thresholds.
QUIET_RULES = [
    WatchdogRule("never", "window.frames", "gt", 1e12, description="off")
]
# A rule in breach from the very first observed frame.
TRIP_RULES = [
    WatchdogRule("always", "window.frames", "ge", 1.0, description="trip")
]


def make_frames(count, scene="cap", phase=0):
    workload = workload_by_alias(scene, detail=1)
    dt = workload.duration_s / workload.default_frames
    return [
        workload.scene.frame_at(
            float(((seq + phase) * dt) % workload.duration_s), CONFIG
        )
        for seq in range(count)
    ]


def make_service(**kwargs):
    kwargs.setdefault("base_config", CONFIG)
    kwargs.setdefault("rules", QUIET_RULES)
    return CollisionService(**kwargs)


class TestRegistration:
    def test_register_and_deterministic_order(self):
        with make_service() as service:
            for tenant in ("zeta", "alpha", "mid"):
                service.register(tenant)
            assert service.tenants() == ["alpha", "mid", "zeta"]

    def test_rejects_duplicate_and_invalid_ids(self):
        with make_service() as service:
            service.register("alice")
            with pytest.raises(ValueError, match="already registered"):
                service.register("alice")
            for bad in ("", "has space", "slash/y", 'quo"te'):
                with pytest.raises(ValueError, match="tenant id"):
                    service.register(bad)

    def test_unknown_tenant_submission(self):
        with make_service() as service:
            with pytest.raises(KeyError):
                service.submit("ghost", object())

    def test_non_frame_submission_is_refused_before_queueing(self):
        with make_service() as service:
            service.register("alice")
            with pytest.raises(TypeError, match="Frame, got str"):
                service.submit("alice", "not a frame")
            assert service.session("alice").pending == deque()
            assert service.tenant_registry("alice")[
                "serve.frames_submitted"
            ] == 0
            assert service.step() == 0

    def test_workers_keyword_is_deprecated_and_inert(self):
        with pytest.raises(ValueError, match="workers"):
            make_service(workers=0)
        with pytest.warns(DeprecationWarning, match="workers"):
            service = make_service(workers=2)
        with service:
            assert not hasattr(service, "workers")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_service(workers=1).close()


class TestBatchingAndDemux:
    def test_serves_interleaved_tenants(self):
        with make_service() as service:
            service.register("alice")
            service.register("bob")
            frames = make_frames(2)
            futures = {
                (tenant, seq): service.submit(tenant, frames[seq])
                for seq in range(2)
                for tenant in ("alice", "bob")
            }
            assert service.drain() == 4
            for (tenant, seq), future in futures.items():
                served = future.result(timeout=10)
                assert isinstance(served, ServedFrame)
                assert served.tenant == tenant
                assert served.frame_seq == seq
                assert served.result.report is not None
            # one frame per tenant per batch, in two batches
            assert service.batches == 2
            assert futures[("alice", 0)].result().batch == 1
            assert futures[("bob", 1)].result().batch == 2

    def test_step_returns_zero_when_idle(self):
        with make_service() as service:
            service.register("alice")
            assert service.step() == 0

    def test_served_results_match_solo_run(self):
        from repro.core import RBCDSystem

        frames = make_frames(2)
        with RBCDSystem(config=CONFIG) as solo:
            want = [solo.detect_frame(f).pairs for f in frames]
        with make_service() as service:
            service.register("alice")
            futures = [service.submit("alice", f) for f in frames]
            service.drain()
            got = [f.result().result.pairs for f in futures]
        assert got == want

    def test_close_fails_pending_futures(self):
        service = make_service()
        service.register("alice")
        future = service.submit("alice", make_frames(1)[0])
        service.close()
        with pytest.raises(AdmissionError, match="shutdown"):
            future.result(timeout=5)
        with pytest.raises(RuntimeError, match="closed"):
            service.submit("alice", make_frames(1)[0])


class TestAdmissionControl:
    def test_backlog_rejection(self):
        with make_service(max_pending=1) as service:
            service.register("alice")
            frames = make_frames(2)
            service.submit("alice", frames[0])
            with pytest.raises(AdmissionError) as excinfo:
                service.submit("alice", frames[1])
            assert excinfo.value.reason == "backlog"
            counters = service.session("alice").serve_counters
            assert counters["serve.frames_rejected"] == 1
            assert counters["serve.frames_submitted"] == 1

    def test_unhealthy_tenant_is_refused_until_recovery(self):
        with make_service(rules=TRIP_RULES) as service:
            service.register("alice")
            frames = make_frames(2)
            service.submit("alice", frames[0])
            assert service.drain() == 1     # first frame trips the rule
            assert not service.healthy("alice")
            with pytest.raises(AdmissionError) as excinfo:
                service.submit("alice", frames[1])
            assert excinfo.value.reason == "unhealthy"
            assert "always" in str(excinfo.value)

    def test_admit_unhealthy_override(self):
        with make_service(rules=TRIP_RULES, admit_unhealthy=True) as service:
            service.register("alice")
            frames = make_frames(2)
            service.submit("alice", frames[0])
            service.drain()
            future = service.submit("alice", frames[1])  # no rejection
            service.drain()
            assert future.result(timeout=10).frame_seq == 1

    def test_rejection_does_not_touch_other_tenants(self):
        with make_service(max_pending=1) as service:
            service.register("alice")
            service.register("bob")
            frames = make_frames(2)
            service.submit("alice", frames[0])
            with pytest.raises(AdmissionError):
                service.submit("alice", frames[1])
            future = service.submit("bob", frames[0])
            service.drain()
            assert future.result(timeout=10).tenant == "bob"


class TestTraceContext:
    def test_every_tile_span_is_tenant_attributable(self):
        tracer = Tracer()
        with make_service(tracer=tracer) as service:
            service.register("alice")
            service.register("bob")
            frames = make_frames(2)
            for seq in range(2):
                for tenant in ("alice", "bob"):
                    service.submit(tenant, frames[seq], stream="s1")
            service.drain()
        tile_spans = tracer.by_name("rbcd.tile")
        assert tile_spans, "expected per-tile spans from the served frames"
        for span in tracer.spans:
            assert span.attrs["tenant"] in ("alice", "bob")
            assert span.attrs["stream"] == "s1"
            assert span.attrs["frame_seq"] in (0, 1)
        # Both tenants contributed spans, distinctly labelled.
        assert {s.attrs["tenant"] for s in tile_spans} == {"alice", "bob"}

    def test_context_does_not_leak_after_serving(self):
        tracer = Tracer()
        with make_service(tracer=tracer) as service:
            service.register("alice")
            service.submit("alice", make_frames(1)[0])
            service.drain()
        with tracer.span("outside"):
            pass
        assert "tenant" not in tracer.by_name("outside")[0].attrs


class TestTelemetryMerge:
    def test_global_registry_is_exact_shard_sum(self):
        with make_service() as service:
            for tenant in ("alice", "bob", "carol"):
                service.register(tenant)
            frames = make_frames(2)
            for seq in range(2):
                for tenant in ("alice", "bob", "carol"):
                    service.submit(tenant, frames[seq])
            service.drain()
            shards = [
                service.tenant_registry(t) for t in service.tenants()
            ]
            merged = CounterRegistry.sum(shards)
            merged_rev = CounterRegistry.sum(list(reversed(shards)))
            global_registry = service.global_registry()
            assert merged == global_registry
            assert merged_rev == global_registry
            assert merged.as_dict() == global_registry.as_dict()
            assert global_registry["serve.frames_completed"] == 6
            assert global_registry["gpu.frames"] == 6

    def test_health_and_alert_readers(self):
        with make_service(rules=TRIP_RULES, admit_unhealthy=True) as service:
            service.register("alice")
            service.register("bob")
            service.submit("alice", make_frames(1)[0])
            service.drain()
            assert not service.healthy("alice")
            assert service.healthy("bob")
            assert not service.healthy()
            alerts = service.alerts()
            assert [a.rule for a in alerts["alice"]] == ["always"]
            assert alerts["bob"] == []
            assert service.session("alice").monitor.frames == 1
            assert service.global_registry()["serve.frames_completed"] == 1
            with pytest.raises(KeyError):
                service.healthy("ghost")


class TestConcurrentClients:
    """Client threads submit while another thread steps the batcher:
    every admitted frame must come back exactly as a serial run
    renders it, and each tenant's telemetry must sum to the serial
    totals."""

    TENANTS = {"t0": ("cap", 0), "t1": ("crazy", 3), "t2": ("sleepy", 5)}
    FRAMES = 3

    @staticmethod
    def outcome(served):
        result = served.result
        return result.pairs, result.stats.as_dict(), result.energy.as_dict()

    def serial(self):
        outcomes, totals = {}, {}
        with make_service() as service:
            for tenant, (scene, phase) in self.TENANTS.items():
                service.register(tenant)
                outcomes[tenant] = []
                for frame in make_frames(self.FRAMES, scene, phase):
                    future = service.submit(tenant, frame)
                    service.drain()
                    outcomes[tenant].append(self.outcome(future.result()))
                totals[tenant] = service.tenant_registry(tenant).as_dict()
        return outcomes, totals

    def concurrent(self):
        frames = {
            tenant: make_frames(self.FRAMES, scene, phase)
            for tenant, (scene, phase) in self.TENANTS.items()
        }
        futures = {tenant: [] for tenant in self.TENANTS}
        errors = []
        clients_done = threading.Event()

        def client(tenant):
            try:
                for frame in frames[tenant]:
                    futures[tenant].append(service.submit(tenant, frame))
                    time.sleep(0.001)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        def stepper():
            while not clients_done.is_set():
                if service.step() == 0:
                    time.sleep(0.0005)
            service.drain()

        with make_service(max_pending=self.FRAMES) as service:
            for tenant in self.TENANTS:
                service.register(tenant)
            threads = [
                threading.Thread(target=client, args=(tenant,))
                for tenant in self.TENANTS
            ]
            batcher = threading.Thread(target=stepper)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave threads finely
            try:
                batcher.start()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                clients_done.set()
                batcher.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in [batcher, *threads])
            assert not errors, errors
            outcomes = {}
            for tenant, tenant_futures in futures.items():
                served = [f.result(timeout=30) for f in tenant_futures]
                assert [s.frame_seq for s in served] == list(
                    range(self.FRAMES)
                )
                outcomes[tenant] = [self.outcome(s) for s in served]
            totals = {
                tenant: service.tenant_registry(tenant).as_dict()
                for tenant in self.TENANTS
            }
        return outcomes, totals

    def test_concurrent_submit_and_step_match_a_serial_run(self):
        serial_outcomes, serial_totals = self.serial()
        outcomes, totals = self.concurrent()
        assert outcomes == serial_outcomes
        assert totals == serial_totals
        assert any(
            pairs for frames in outcomes.values() for pairs, _, _ in frames
        )


def test_non_finite_frame_fails_only_its_future():
    from tests.integration.test_core_api import NON_FINITE, frame_with

    with make_service() as service:
        service.register("alice")
        service.register("bob")
        bad = service.submit("alice", frame_with("model"))
        good = service.submit("bob", make_frames(1)[0])
        assert service.drain() == 2
        with pytest.raises(ValueError, match=NON_FINITE):
            bad.result(timeout=10)
        assert good.result(timeout=10).result.report is not None
