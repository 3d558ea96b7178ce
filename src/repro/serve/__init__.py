"""Collision detection as a service: multi-tenant serving frontend.

``repro.serve`` turns the simulator into the thing the paper says the
hardware is — a collision service many clients offload queries to.
:class:`CollisionService` multiplexes N tenant scene streams, each rendered
through its own system, with watchdog-rule admission control; its
health, alerts and merged counters are read in process
(:meth:`~CollisionService.healthy`, :meth:`~CollisionService.alerts`,
:meth:`~CollisionService.global_registry`); ``python -m
repro.experiments.loadgen`` drives it with simulated clients in a
closed loop and writes a deterministic ``rbcd-serve-bench`` document.  Host serving speed is
the repository benchmark's ``serve_tenants`` workload.

The two contracts everything here is tested against:

* **tenant isolation** — each tenant's per-frame results are
  bit-identical to running its stream solo
  (``tests/serve/test_tenant_isolation.py``);
* **exact telemetry merge** — per-tenant counter shards sum to the
  global registry through the associative/commutative
  ``CounterAlgebra``, whatever interleave the batching produced
  (``tests/observability/test_tenant_merge.py``).
"""

from repro.serve.service import (
    AdmissionError,
    CollisionService,
    ServedFrame,
    TenantSession,
)

__all__ = [
    "AdmissionError",
    "CollisionService",
    "ServedFrame",
    "TenantSession",
]
