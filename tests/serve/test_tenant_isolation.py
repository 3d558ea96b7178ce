"""Tenant isolation differential: served ≡ solo, bit for bit.

The serving contract under test: a tenant's stream served through a
:class:`~repro.serve.CollisionService` — batched against seven other
tenants, with per-tenant monitors, a
shared tracer and request-scoped context attached — produces results
bit-identical to running that tenant's stream alone on a private
:class:`~repro.core.RBCDSystem` with **no telemetry at all**.  One
comparison therefore proves both laws at once: multi-tenant batching
does not perturb results, and telemetry on ≡ telemetry off.
"""

import contextlib
import random
from typing import Any, NamedTuple

import pytest

from repro.core import RBCDSystem
from repro.gpu.config import GPUConfig
from repro.observability.live import WatchdogRule
from repro.observability.provenance import ProvenanceRecorder
from repro.observability.tracer import Tracer
from repro.scenes.benchmarks import BENCHMARKS, workload_by_alias
from repro.serve import CollisionService

TENANTS = 8
FRAMES = 2
CONFIG = GPUConfig().with_screen(96, 64)
# Breaches on each tenant's last frame: alert evaluation and alert
# logging run inside the served ≡ solo comparison, and no frame is
# refused, because no frame is submitted after a breach.
LATE_RULES = [WatchdogRule("late", "window.frames", "ge", FRAMES)]


class TenantPlan(NamedTuple):
    """One simulated client: tenant id, its scene, a phase offset."""

    tenant: str
    workload: Any
    phase: int

    def frame_at(self, seq: int, config: GPUConfig):
        """The tenant's frame ``seq``: its scene's animation,
        phase-shifted; deterministic given (scene, phase, seq, config)."""
        workload = self.workload
        dt = workload.duration_s / max(workload.default_frames, 1)
        t = ((seq + self.phase) * dt) % max(workload.duration_s, dt)
        return workload.scene.frame_at(float(t), config)


def plan_tenants(count: int, detail: int, seed: int) -> list[TenantPlan]:
    """Round-robin scene assignment with seeded phase offsets."""
    rng = random.Random(seed)
    plans = []
    for i in range(count):
        scene = BENCHMARKS[i % len(BENCHMARKS)]
        workload = workload_by_alias(scene, detail=detail)
        plans.append(
            TenantPlan(f"t{i:02d}-{scene}", workload, rng.randrange(0, 64))
        )
    return plans


def result_fingerprint(result) -> tuple:
    """Everything observable about one RBCDFrameResult, hashable-ish.

    ``RBCDFrameResult`` is not the GPU-level ``FrameResult`` that
    ``tests.gpu.test_parallel.frame_fingerprint`` covers, so this
    builds the serving-level equivalent: exact pair set with full
    contact records, every stats counter, modelled energy, and the raw
    framebuffers.
    """
    report = result.report
    contacts = tuple(
        (
            pair.id_a,
            pair.id_b,
            tuple(points),
        )
        for pair, points in sorted(
            report.contacts.items(), key=lambda kv: (kv[0].id_a, kv[0].id_b)
        )
    )
    energy = (
        tuple(sorted(result.energy.registry().as_dict().items()))
        if result.energy is not None
        else None
    )
    return (
        contacts,
        report.pair_records_written,
        tuple(sorted(result.stats.registry().as_dict().items())),
        energy,
        result.cpu_fallback,
        result.color.tobytes(),
        result.z_buffer.tobytes(),
    )


def solo_fingerprints(plan, config):
    """The reference stream: private system, telemetry fully off."""
    with RBCDSystem(config=config) as system:
        return [
            result_fingerprint(system.detect_frame(plan.frame_at(seq, config)))
            for seq in range(FRAMES)
        ]


@pytest.mark.parametrize("workers", [1, 4])
def test_each_tenant_is_bit_identical_to_solo(workers):
    """``workers`` is the deprecated no-op keyword: any value serves
    the same results (and anything but 1 warns)."""
    config = CONFIG
    plans = plan_tenants(TENANTS, detail=1, seed=7)
    assert len(plans) == TENANTS

    # Served: 8 tenants interleaved, full telemetry on, every
    # tenant's watchdog breaching on its last frame.
    served = {plan.tenant: [] for plan in plans}
    warns = (
        pytest.warns(DeprecationWarning, match="workers")
        if workers != 1 else contextlib.nullcontext()
    )
    with warns:
        service = CollisionService(
            workers=workers,
            base_config=config,
            tracer=Tracer(),
            rules=LATE_RULES,
        )
    with service:
        for plan in plans:
            service.register(plan.tenant)
        futures = []
        for seq in range(FRAMES):
            for plan in plans:
                futures.append(
                    (plan.tenant, service.submit(
                        plan.tenant, plan.frame_at(seq, config)
                    ))
                )
        assert service.drain() == TENANTS * FRAMES
        for tenant, future in futures:
            served[tenant].append(
                result_fingerprint(future.result(timeout=30).result)
            )
        fired = {
            tenant: [alert.rule for alert in alerts]
            for tenant, alerts in service.alerts().items()
        }
    assert fired == {plan.tenant: ["late"] for plan in plans}

    # Solo baselines, one tenant at a time, telemetry off.
    for plan in plans:
        assert served[plan.tenant] == solo_fingerprints(plan, config), (
            f"tenant {plan.tenant} diverged from its solo run "
            f"(workers={workers})"
        )


def test_provenance_matches_solo_recorder():
    """Evidence records for a served tenant equal the solo recorder's."""
    config = CONFIG
    plan = plan_tenants(TENANTS, detail=1, seed=7)[0]

    solo_recorder = ProvenanceRecorder()
    with RBCDSystem(config=config, observers=[solo_recorder]) as system:
        for seq in range(FRAMES):
            system.detect_frame(plan.frame_at(seq, config))

    served_recorder = ProvenanceRecorder()
    plans = plan_tenants(TENANTS, detail=1, seed=7)
    with CollisionService(base_config=config, rules=LATE_RULES) as service:
        for other in plans:
            service.register(
                other.tenant,
                observers=(
                    [served_recorder] if other.tenant == plan.tenant else ()
                ),
            )
        for seq in range(FRAMES):
            for other in plans:
                service.submit(other.tenant, other.frame_at(seq, config))
        service.drain()

    assert served_recorder.frames == solo_recorder.frames
    assert served_recorder.case_counts == solo_recorder.case_counts
    assert served_recorder.records == solo_recorder.records
