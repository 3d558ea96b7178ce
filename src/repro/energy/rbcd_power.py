"""Energy of the RBCD unit, from its McPAT-style components.

Per Section 3.4-3.5 the unit's work decomposes into:

* **sorted insertion**, per collisionable fragment: read the pixel's
  list (M words), M parallel less-than compares, an M-wide mux shift,
  write the list back (M words), plus List-Register traffic;
* **Z-overlap test**, per element read (one word + register), per
  back-face an FF-Stack search (T equality compares + the priority
  encoder), and per detected pair an output-buffer record write;
* **static leakage** of the ZEB SRAM(s), proportional to their size —
  under 1 % of GPU static power for two 8 KB ZEBs (Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.energy.components import ComponentEnergies
from repro.gpu.config import GPUConfig
from repro.gpu.stats import GPUStats
from repro.observability.counters import CounterAlgebra, CounterRegistry


@dataclass
class RBCDEnergyBreakdown(CounterAlgebra):
    """Per-component energy of the RBCD unit (one frame, one tile, or
    any accumulation — every field merges by plain sum via
    :class:`~repro.observability.counters.CounterAlgebra`)."""

    insertion_j: float = 0.0
    overlap_j: float = 0.0
    output_j: float = 0.0
    static_j: float = 0.0

    @property
    def total_j(self) -> float:
        return self.insertion_j + self.overlap_j + self.output_j + self.static_j

    def registry(self) -> CounterRegistry:
        """Named counter view (``energy.rbcd.*``, joules)."""
        out = CounterRegistry()
        for f in fields(self):
            name = f"energy.rbcd.{f.name}"
            out.counter(name, kind="float", unit="J")
            out.set(name, getattr(self, f.name))
        out.counter("energy.rbcd.total_j", kind="float", unit="J")
        out.set("energy.rbcd.total_j", self.total_j)
        return out


class RBCDEnergyModel:
    """Prices the RBCD counters of :class:`GPUStats` into joules."""

    def __init__(
        self,
        gpu_config: GPUConfig,
        components: ComponentEnergies | None = None,
        gpu_static_power_w: float = 0.12,
    ) -> None:
        self.gpu_config = gpu_config
        self.components = components if components is not None else ComponentEnergies()
        self.gpu_static_power_w = gpu_static_power_w

    def insertion_energy_per_fragment_j(self) -> float:
        """Energy of one sorted insertion (3-step read/compare/write)."""
        c = self.components
        m = self.gpu_config.rbcd.list_length
        return (
            m * c.sram_word_read_j          # list into List-Register
            + m * c.register_j
            + m * c.lt_comparator_j         # parallel compare
            + m * c.mux_j                   # shift network
            + m * c.sram_word_write_j       # write back
        )

    def overlap_energy_per_element_j(self) -> float:
        """Energy of analyzing one list element (front or back face)."""
        c = self.components
        t = self.gpu_config.rbcd.ff_stack_entries
        # Read the element, touch the stack; back faces additionally pay
        # the T-wide equality search + priority encode — charged to
        # every element here (halves of the list are back faces, and
        # the search cost dwarfs nothing else; keeping one rate keeps
        # the model monotone in elements read).
        return (
            c.sram_word_read_j
            + c.register_j
            + t * c.eq_comparator_j
            + c.priority_encoder_j
        )

    def static_power_w(self) -> float:
        """Leakage of the configured ZEBs (fraction of GPU static)."""
        cfg = self.gpu_config
        zeb_kb = cfg.rbcd.zeb_size_bytes(cfg.tile_pixels) / 1024.0
        fraction = cfg.rbcd.zeb_count * zeb_kb * self.components.static_fraction_per_kb
        return fraction * self.gpu_static_power_w

    def tile_breakdown(self, result) -> RBCDEnergyBreakdown:
        """Dynamic energy of one computed tile
        (:class:`~repro.rbcd.unit.RBCDTileResult`).

        Static leakage is excluded — it accrues with *frame* time, not
        per tile — so summing a frame's tile breakdowns reproduces its
        dynamic energy exactly
        (``breakdown(stats)`` minus its ``static_j``).
        """
        return RBCDEnergyBreakdown(
            insertion_j=result.zeb.insertions
            * self.insertion_energy_per_fragment_j(),
            overlap_j=result.analyzed_elements
            * self.overlap_energy_per_element_j(),
            output_j=result.overlap.pair_records
            * self.components.pair_record_write_j,
        )

    def breakdown(self, stats: GPUStats) -> RBCDEnergyBreakdown:
        c = self.components
        insertion = stats.zeb_insertions * self.insertion_energy_per_fragment_j()
        overlap = stats.overlap_elements_read * self.overlap_energy_per_element_j()
        output = stats.collision_pairs_emitted * c.pair_record_write_j
        seconds = self.gpu_config.cycles_to_seconds(stats.gpu_cycles)
        static = self.static_power_w() * seconds
        return RBCDEnergyBreakdown(
            insertion_j=insertion,
            overlap_j=overlap,
            output_j=output,
            static_j=static,
        )

    def total_j(self, stats: GPUStats) -> float:
        return self.breakdown(stats).total_j
