"""GPU and RBCD hardware parameters (the paper's Table 2).

Every number that appears in Table 2 of the paper is represented here;
parameters the paper leaves unspecified (tile-cache geometry, shader
cycles per vertex/fragment) are marked as assumptions in the field
comments and exercised by the sensitivity benches.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

@dataclass(frozen=True, slots=True)
class CacheConfig:
    """A set-associative cache with LRU replacement."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    ways: int = 2
    latency_cycles: int = 1

    def __post_init__(self) -> None:
        for field_name in ("size_bytes", "line_bytes", "ways"):
            value = getattr(self, field_name)
            if value <= 0:
                raise ValueError(
                    f"{self.name}: {field_name} must be positive, got {value}"
                )
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line*ways = {self.line_bytes * self.ways}"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass(frozen=True, slots=True)
class QueueConfig:
    """A bounded hardware queue between pipeline stages."""

    name: str
    entries: int
    bytes_per_entry: int


@dataclass(frozen=True, slots=True)
class RBCDConfig:
    """The RBCD unit (Section 3.4-3.5 and Table 2, "RBCD Unit")."""

    # ZEB geometry: per tile, one list per pixel.
    zeb_count: int = 2          # number of ZEB buffers (1 or 2 in the paper)
    list_length: int = 8        # M: elements per pixel list (4/8/16 swept)
    element_bits: int = 32      # total bits per element (Table 2)
    z_bits: int = 18            # assumption: z-depth field width
    id_bits: int = 13           # assumption: object-id field width
    # (z_bits + id_bits + 1 face bit == element_bits)
    ff_stack_entries: int = 8   # T: FF-Stack depth (assumption: == M)
    # Extension (Section 5.3): spare elements dynamically appended to
    # overflowing lists. 0 reproduces the paper's fixed-length design.
    spare_entries_per_tile: int = 0
    # Extension (Section 5.3): notify the CPU to run software CD for a
    # frame whose overflow rate exceeds this threshold (1.0 = never).
    cpu_fallback_overflow_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.zeb_count < 1:
            raise ValueError("need at least one ZEB")
        if self.list_length < 1:
            raise ValueError("ZEB list length must be >= 1")
        if self.z_bits + self.id_bits + 1 != self.element_bits:
            raise ValueError(
                f"element packing {self.z_bits}+{self.id_bits}+1 != "
                f"{self.element_bits} bits"
            )
        if self.ff_stack_entries < 1:
            raise ValueError("FF-Stack needs at least one entry")
        if self.spare_entries_per_tile < 0:
            raise ValueError(
                f"spare_entries_per_tile must be >= 0, "
                f"got {self.spare_entries_per_tile!r}"
            )

    def zeb_size_bytes(self, tile_pixels: int) -> int:
        """On-chip size of one ZEB (8 KB for 256 lists x 8 x 32 bit)."""
        return tile_pixels * self.list_length * self.element_bits // 8


_POSITIVE_FIELDS = (
    "frequency_hz",
    "primitive_assembly_tris_per_cycle",
    "rasterizer_frags_per_cycle",
    "early_z_quads_in_flight",
    "num_vertex_processors",
    "num_fragment_processors",
    "num_texture_caches",
    "mem_bandwidth_bytes_per_cycle",
)
_COST_FIELDS = (
    "cycles_per_vertex",
    "cycles_per_fragment",
    "raster_setup_cycles_per_tri",
    "binning_cycles_per_prim_tile",
    "tile_list_record_bytes",
    "mem_latency_min_cycles",
    "mem_latency_max_cycles",
)


@dataclass(frozen=True, slots=True)
class GPUConfig:
    """The baseline GPU (Table 2) plus modelling assumptions."""

    # Tech specs
    frequency_hz: float = 400e6
    voltage_v: float = 1.0
    technology_nm: int = 32

    # Screen / tiles
    screen_width: int = 800
    screen_height: int = 480
    tile_size: int = 16

    # Queues (Table 2)
    vertex_queue: QueueConfig = QueueConfig("vertex", 16, 136)
    triangle_queue: QueueConfig = QueueConfig("triangle", 16, 388)
    fragment_queue: QueueConfig = QueueConfig("fragment", 64, 233)
    tile_queue: QueueConfig = QueueConfig("tile", 16, 388)

    # Caches (Table 2)
    vertex_cache: CacheConfig = CacheConfig("vertex", 4 * 1024, 64, 2, 1)
    texture_cache: CacheConfig = CacheConfig("texture", 8 * 1024, 64, 2, 1)
    num_texture_caches: int = 4
    l2_cache: CacheConfig = CacheConfig("l2", 128 * 1024, 64, 8, 2)
    color_buffer: CacheConfig = CacheConfig("color", 1024, 64, 1, 1)
    z_buffer_cache: CacheConfig = CacheConfig("z", 1024, 64, 1, 1)
    # Assumption: the Tile Cache (polygon lists in system memory) —
    # Table 2 does not size it; 16 KB 2-way matches the L2:TC traffic
    # ratios reported in Section 5.2.
    tile_cache: CacheConfig = CacheConfig("tile", 16 * 1024, 64, 2, 1)

    # Non-programmable stage throughputs (Table 2)
    primitive_assembly_tris_per_cycle: float = 1.0
    rasterizer_frags_per_cycle: float = 4.0
    early_z_quads_in_flight: int = 8

    # Programmable stages
    num_vertex_processors: int = 1
    num_fragment_processors: int = 4

    # Memory
    mem_latency_min_cycles: int = 50
    mem_latency_max_cycles: int = 100
    mem_bandwidth_bytes_per_cycle: float = 4.0

    # Modelling assumptions (not in Table 2): shader costs.  A Mali-400
    # fragment core sustains ~1 simple fragment per cycle; 4 cycles per
    # fragment across 4 cores keeps raster (4 frags/cycle peak) and
    # shading roughly balanced, which is what lets deferred-culling
    # raster overhead show through as the paper's few-percent time cost.
    cycles_per_vertex: float = 12.0     # vertex-shader cycles per vertex
    cycles_per_fragment: float = 4.0    # fragment-shader cycles per fragment
    raster_setup_cycles_per_tri: float = 1.0  # per-primitive raster setup
    binning_cycles_per_prim_tile: float = 1.0  # polygon-list-builder store rate
    # Record size of a binned primitive in the tile lists (Table 2 gives
    # 388-byte triangle/tile queue entries; the in-memory polygon-list
    # record is smaller).
    tile_list_record_bytes: int = 64

    # RBCD unit attached to this GPU (None-able at the pipeline level).
    rbcd: RBCDConfig = field(default_factory=RBCDConfig)

    def __post_init__(self) -> None:
        # Pixel and tile counts index arrays: a float or a bool here
        # would construct, then fail (or silently mean 1) mid-frame.
        for name in ("screen_width", "screen_height", "tile_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.screen_width <= 0 or self.screen_height <= 0:
            raise ValueError("screen dimensions must be positive")
        if self.tile_size <= 0:
            raise ValueError("tile size must be positive")
        # Throughputs, counts and the clock divide cycle and time
        # figures; per-unit costs multiply them.
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be positive and finite, got {value!r}"
                )
        for name in _COST_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value!r}"
                )

    # -- derived geometry ---------------------------------------------------

    @property
    def tiles_x(self) -> int:
        return -(-self.screen_width // self.tile_size)  # ceil div

    @property
    def tiles_y(self) -> int:
        return -(-self.screen_height // self.tile_size)

    @property
    def tile_count(self) -> int:
        return self.tiles_x * self.tiles_y

    @property
    def tile_pixels(self) -> int:
        return self.tile_size * self.tile_size

    @property
    def mem_latency_avg_cycles(self) -> float:
        return (self.mem_latency_min_cycles + self.mem_latency_max_cycles) / 2.0

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.frequency_hz

    def with_rbcd(self, **kwargs) -> "GPUConfig":
        """Copy of this config with RBCD parameters replaced."""
        return replace(self, rbcd=replace(self.rbcd, **kwargs))

    def with_screen(self, width: int, height: int) -> "GPUConfig":
        """Copy with a different render resolution (tests use small ones)."""
        return replace(self, screen_width=width, screen_height=height)

    # The benchmark harness (``perfbench/workloads.py``) pins the four
    # members below: it selects the vectorized kernels and switches the
    # tile cache off when it builds its config, and records both values.
    # There is one kernel set and no cross-frame tile cache, so the
    # values are fixed.

    @property
    def tile_cache_enabled(self) -> bool:
        """Always False: kept only for the benchmark harness."""
        return False

    def with_tile_cache(self, enabled: bool = False) -> "GPUConfig":
        """Return ``self``; ``enabled=True`` raises ``ValueError``."""
        if enabled:
            raise ValueError("there is no cross-frame tile cache to enable")
        return self

    @property
    def kernel_backend(self) -> str:
        """Always ``"vectorized"``: kept only for the benchmark harness."""
        return "vectorized"

    def with_kernel_backend(self, name: str) -> "GPUConfig":
        """Return ``self``; any name but ``"vectorized"`` raises
        ``ValueError``."""
        if name != "vectorized":
            raise ValueError(f"there is no kernel backend {name!r} to select")
        return self


# The WVGA Mali-400-like configuration used by all paper experiments.
DEFAULT_CONFIG = GPUConfig()
