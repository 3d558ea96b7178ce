"""End-to-end energy accounting: stats in, joules and EDP out.

:class:`EnergyAccount` bundles the two pricing models —
:class:`~repro.energy.gpu_power.GPUEnergyModel` for the graphics
pipeline and :class:`~repro.energy.rbcd_power.RBCDEnergyModel` for the
collision-detection unit — behind one call that turns a frame's
:class:`~repro.gpu.stats.GPUStats` into a :class:`FrameEnergyReport`:
the Figure-10/11-style per-component breakdown, the total, and the
energy-delay product against the *simulated* frame time.

Reports carry the :class:`~repro.observability.counters.CounterAlgebra`
merge algebra, so multi-frame runs accumulate with ``sum(reports)``;
because every energy term is linear in the counters it is priced from,
summing per-frame reports is bit-identical to pricing the summed stats
(asserted by ``tests/energy/test_energy_algebra.py``) — the same
linearity that lets per-tile energy sum to the frame's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.components import ComponentEnergies
from repro.energy.gpu_power import (
    GPUEnergyBreakdown,
    GPUEnergyModel,
    GPUEnergyParams,
)
from repro.energy.rbcd_power import RBCDEnergyBreakdown, RBCDEnergyModel
from repro.gpu.config import GPUConfig
from repro.gpu.stats import GPUStats
from repro.observability.counters import CounterAlgebra, CounterRegistry

__all__ = [
    "FrameEnergyReport",
    "EnergyAccount",
]


@dataclass
class FrameEnergyReport(CounterAlgebra):
    """Energy of one frame (or an accumulation of frames).

    ``delay_s`` is the modelled hardware time
    (``config.cycles_to_seconds(stats.gpu_cycles)``), not host wall
    time; accumulations sum it, so :attr:`edp_js` over a run is the
    run's total energy times its total simulated time.
    """

    gpu: GPUEnergyBreakdown = field(default_factory=GPUEnergyBreakdown)
    rbcd: RBCDEnergyBreakdown = field(default_factory=RBCDEnergyBreakdown)
    delay_s: float = 0.0

    @property
    def total_j(self) -> float:
        return self.gpu.total_j + self.rbcd.total_j

    @property
    def edp_js(self) -> float:
        """Energy-delay product (J*s), the paper's efficiency metric."""
        return self.total_j * self.delay_s

    def registry(self) -> CounterRegistry:
        """Named counter view: ``energy.gpu.*`` + ``energy.rbcd.*``
        plus the combined ``energy.total_j`` / ``energy.delay_s`` /
        ``energy.edp_js`` roll-ups."""
        out = self.gpu.registry() + self.rbcd.registry()
        for name, unit, value in (
            ("energy.total_j", "J", self.total_j),
            ("energy.delay_s", "s", self.delay_s),
            ("energy.edp_js", "Js", self.edp_js),
        ):
            out.counter(name, kind="float", unit=unit)
            out.set(name, value)
        return out

    def as_dict(self) -> dict:
        """Nested JSON-ready view (the bench document's ``energy``)."""
        return {
            "gpu": {**self.gpu.as_dict(), "total_j": self.gpu.total_j},
            "rbcd": {**self.rbcd.as_dict(), "total_j": self.rbcd.total_j},
            "total_j": self.total_j,
            "delay_s": self.delay_s,
            "edp_js": self.edp_js,
        }


class EnergyAccount:
    """Both pricing models over one GPU configuration."""

    def __init__(
        self,
        config: GPUConfig,
        gpu_params: GPUEnergyParams | None = None,
        components: ComponentEnergies | None = None,
    ) -> None:
        self.config = config
        self.gpu_model = GPUEnergyModel(config, params=gpu_params)
        static_w = self.gpu_model.params.static_power_w
        self.rbcd_model = RBCDEnergyModel(
            config, components=components, gpu_static_power_w=static_w
        )

    def frame_report(self, stats: GPUStats) -> FrameEnergyReport:
        """Price one frame's (or an accumulated run's) counters."""
        return FrameEnergyReport(
            gpu=self.gpu_model.breakdown(stats),
            rbcd=self.rbcd_model.breakdown(stats),
            delay_s=self.config.cycles_to_seconds(stats.gpu_cycles),
        )
