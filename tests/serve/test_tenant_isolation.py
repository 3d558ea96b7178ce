"""Tenant isolation differential: served ≡ solo, bit for bit.

The serving contract under test: a tenant's stream served through a
:class:`~repro.serve.CollisionService` — batched against seven other
tenants on one shared executor pool, with per-tenant monitors, a
shared tracer and request-scoped context attached — produces results
bit-identical to running that tenant's stream alone on a private
:class:`~repro.core.RBCDSystem` with **no telemetry at all**.  One
comparison therefore proves both laws at once: multi-tenant batching
does not perturb results, and telemetry on ≡ telemetry off.
"""

import pytest

from repro.core import RBCDSystem
from repro.experiments.loadgen import plan_tenants
from repro.gpu.config import GPUConfig
from repro.observability.provenance import ProvenanceRecorder
from repro.observability.tracer import Tracer
from repro.serve import CollisionService

TENANTS = 8
FRAMES = 2


def config_for(workers: int) -> GPUConfig:
    config = GPUConfig().with_screen(96, 64)
    if workers != 1:
        config = config.with_executor(workers=workers, backend="thread")
    return config


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
    config = config_for(workers)
    plans = plan_tenants(TENANTS, detail=1, seed=7)
    assert len(plans) == TENANTS

    # Served: 8 tenants interleaved on one pool, full telemetry on.
    # admit_unhealthy keeps watchdog breaches (the "crazy" scene blows
    # the paper's activity envelope at this tiny resolution) from
    # rejecting lockstep frames — admission may only reject, and a
    # rejected frame would make the streams diverge by construction.
    served = {plan.tenant: [] for plan in plans}
    with CollisionService(
        workers=workers,
        executor_backend="thread" if workers != 1 else None,
        base_config=config,
        tracer=Tracer(),
        admit_unhealthy=True,
    ) as service:
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

    # Solo baselines, one tenant at a time, telemetry off.
    for plan in plans:
        assert served[plan.tenant] == solo_fingerprints(plan, config), (
            f"tenant {plan.tenant} diverged from its solo run "
            f"(workers={workers})"
        )


def test_provenance_matches_solo_recorder():
    """Evidence records for a served tenant equal the solo recorder's."""
    config = config_for(1)
    plan = plan_tenants(TENANTS, detail=1, seed=7)[0]

    solo_recorder = ProvenanceRecorder()
    with RBCDSystem(config=config, observers=[solo_recorder]) as system:
        for seq in range(FRAMES):
            system.detect_frame(plan.frame_at(seq, config))

    served_recorder = ProvenanceRecorder()
    plans = plan_tenants(TENANTS, detail=1, seed=7)
    with CollisionService(
        base_config=config, admit_unhealthy=True
    ) as service:
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
