"""CollisionService unit tests: admission, batching, demux, telemetry."""

import urllib.error
import urllib.request
import warnings
from collections import deque

import pytest

from repro.gpu.config import GPUConfig
from repro.observability.counters import CounterRegistry
from repro.observability.live import MetricsServer, WatchdogRule
from repro.observability.openmetrics import (
    parse_openmetrics,
    validate_openmetrics,
)
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
            assert "workers" not in service.snapshot_dict()
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

    def test_openmetrics_exposition_is_strictly_valid_and_labelled(self):
        with make_service() as service:
            service.register("alice")
            service.register("bob")
            frames = make_frames(1)
            service.submit("alice", frames[0])
            service.submit("bob", frames[0])
            service.drain()
            text = service.to_openmetrics()
        assert validate_openmetrics(text) > 0
        families = parse_openmetrics(text)
        frames_family = families["repro_tenant_frames"]["samples"]
        assert (
            "repro_tenant_frames_total", {"tenant": "alice"}, 1.0
        ) in frames_family
        assert (
            "repro_tenant_frames_total", {"tenant": "bob"}, 1.0
        ) in frames_family
        # registry counters are labelled per tenant
        gpu_frames = families["repro_gpu_frames"]["samples"]
        assert ("repro_gpu_frames_total", {"tenant": "alice"}, 1.0) in gpu_frames
        # the per-tenant p95 series the SLO watchdog reads is exposed
        window = families["repro_tenant_window"]["samples"]
        assert any(
            labels.get("metric") == "quantile.frame.wall_ms.p95"
            for _, labels, _ in window
        )

    def test_health_and_snapshot_documents(self):
        with make_service(rules=TRIP_RULES, admit_unhealthy=True) as service:
            service.register("alice")
            service.register("bob")
            service.submit("alice", make_frames(1)[0])
            service.drain()
            assert not service.healthy("alice")
            assert service.healthy("bob")
            assert not service.healthy()
            doc = service.health_dict()
            assert doc["status"] == "failing"
            assert doc["tenants"]["alice"]["status"] == "failing"
            assert doc["tenants"]["bob"]["status"] == "ok"
            assert service.health_dict("bob")["tenant"] == "bob"
            snapshot = service.snapshot_dict()
            assert snapshot["tenants"]["alice"]["snapshot"]["frames"] == 1
            assert snapshot["totals"]["serve.frames_completed"] == 1


def fetch(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


class TestMetricsServerOverService:
    def test_endpoints(self):
        with make_service() as service:
            service.register("alice")
            service.submit("alice", make_frames(1)[0])
            service.drain()
            with MetricsServer(service) as server:
                status, body = fetch(server.url + "/metrics")
                assert status == 200
                assert validate_openmetrics(body) > 0
                assert 'tenant="alice"' in body

                status, body = fetch(server.url + "/healthz")
                assert status == 200

                status, body = fetch(server.url + "/healthz/alice")
                assert status == 200
                assert '"tenant": "alice"' in body

                status, body = fetch(server.url + "/healthz/ghost")
                assert status == 404

                status, body = fetch(server.url + "/snapshot.json")
                assert status == 200
                assert '"batches": 1' in body

                status, body = fetch(server.url + "/nope")
                assert status == 404

    def test_unhealthy_tenant_flips_healthz_to_503(self):
        with make_service(rules=TRIP_RULES, admit_unhealthy=True) as service:
            service.register("alice")
            service.register("bob")
            service.submit("alice", make_frames(1)[0])
            service.drain()
            with MetricsServer(service) as server:
                assert fetch(server.url + "/healthz")[0] == 503
                assert fetch(server.url + "/healthz/alice")[0] == 503
                assert fetch(server.url + "/healthz/bob")[0] == 200


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
