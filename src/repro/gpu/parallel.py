"""Parallel tile-execution engine with a deterministic merge.

The paper's core observation is that per-tile RBCD work — ZEB sorted
insertion plus the Z-Overlap Test — is fully independent across the
tiles of a TBR GPU: each tile owns its ZEB, its spare pool, and its
slice of the output buffer.  The simulator exploits the same
independence on the host CPU: a :class:`TileExecutor` fans per-tile
work (:func:`repro.rbcd.unit.compute_tile`) out to a pool of workers
and hands the results back **in tile-schedule order**, so the caller's
merge — :meth:`RBCDUnit.absorb` tile by tile — produces collision
reports, counters, and cycle numbers bit-identical to the serial path
regardless of worker count or completion order.

Three backends, selected by :class:`~repro.gpu.config.GPUConfig`:

* ``serial`` — in-process loop, zero dispatch overhead (the default);
* ``thread`` — ``ThreadPoolExecutor``; cheap dispatch, shared memory,
  but insertion/overlap kernels hold the GIL between numpy calls;
* ``process`` — ``ProcessPoolExecutor``; true CPU parallelism, paying
  one config pickle per chunk and one result pickle per tile.

Tiles are batched into chunks (``executor_chunk_tiles``) to amortize
dispatch overhead: most tiles of a real frame carry a handful of
collisionable fragments, far too little work to justify one IPC round
trip each.

Determinism argument (tested by ``tests/gpu/test_parallel.py`` and
``tests/rbcd/test_differential.py``):

1. :func:`compute_tile` is a pure function of ``(config, tile
   fragments)`` — no shared state, and numpy kernels are deterministic
   across threads and processes.
2. ``Executor.map`` returns results in submission order, which is the
   tile-schedule order produced by :func:`gather_tile_tasks`.
3. The merge (absorbing results and summing stats) runs serially over
   that order, so contact-record ordering, counters and the
   per-tile cycle arrays fed to the stall model are identical to a
   serial run.  Simulated ``gpu_cycles`` are computed from those
   per-tile timings — never from wall clock — so they are invariant
   under the worker count.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.gpu.config import GPUConfig
from repro.gpu.stats import TileStats
from repro.observability.counters import CounterRegistry
from repro.observability.log import get_logger, log_event
from repro.rbcd.unit import RBCDTileResult, RBCDUnit, compute_tile

__all__ = [
    "TileTask",
    "TileExecutor",
    "SerialTileExecutor",
    "ThreadPoolTileExecutor",
    "ProcessPoolTileExecutor",
    "make_executor",
    "gather_tile_tasks",
    "chunk_tasks",
    "run_with_tile_cache",
    "merge_tile_results",
    "tile_stats_of",
    "tile_registry_of",
    "tile_energy_registry",
]


_LOG = get_logger(__name__)


@dataclass(frozen=True)
class TileTask:
    """One tile's collisionable fragments, in arrival order.

    Coordinates are global pixel coordinates, exactly what
    :func:`repro.rbcd.unit.compute_tile` expects.  Frozen and
    array-valued so tasks pickle cheaply to process workers.
    """

    tile_index: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    object_id: np.ndarray
    front: np.ndarray

    @property
    def fragment_count(self) -> int:
        return int(self.x.shape[0])


def gather_tile_tasks(frags, config: GPUConfig) -> list[TileTask]:
    """Group a frame's collisionable fragments into per-tile tasks.

    Tasks come back in tile-schedule order (ascending tile index, the
    order the Tile Scheduler visits them) with each tile's fragments in
    their original arrival order — the ordering contract every executor
    backend preserves.
    """
    coll = np.flatnonzero(frags.object_id >= 0)
    if coll.shape[0] == 0:
        return []
    tiles = frags.tile_index(config)[coll]
    order = np.lexsort((coll, tiles))  # per tile, arrival order
    sorted_idx = coll[order]
    sorted_tiles = tiles[order]
    boundaries = np.flatnonzero(np.r_[True, sorted_tiles[1:] != sorted_tiles[:-1]])
    boundaries = np.r_[boundaries, sorted_tiles.shape[0]]
    tasks: list[TileTask] = []
    for b in range(boundaries.shape[0] - 1):
        lo, hi = boundaries[b], boundaries[b + 1]
        idx = sorted_idx[lo:hi]
        tasks.append(
            TileTask(
                tile_index=int(sorted_tiles[lo]),
                x=frags.x[idx],
                y=frags.y[idx],
                z=frags.z[idx],
                object_id=frags.object_id[idx],
                front=frags.front[idx],
            )
        )
    return tasks


def chunk_tasks(
    tasks: Sequence[TileTask], chunk_size: int
) -> list[tuple[TileTask, ...]]:
    """Split a task list into dispatch chunks, preserving order."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [
        tuple(tasks[i : i + chunk_size]) for i in range(0, len(tasks), chunk_size)
    ]


def _run_chunk(
    payload: tuple[GPUConfig, tuple[TileTask, ...]]
) -> list[RBCDTileResult]:
    """Worker entry point: compute every tile of one chunk in order.

    Top-level so it pickles for the process backend.
    """
    config, chunk = payload
    return [
        compute_tile(config, t.tile_index, t.x, t.y, t.z, t.object_id, t.front)
        for t in chunk
    ]


class TileExecutor:
    """Maps per-tile RBCD work over a frame's tile tasks.

    Subclasses implement :meth:`_map_chunks`; :meth:`run` guarantees the
    result list is in task order (tile-schedule order) whatever the
    completion order underneath.  Executors are reusable across frames
    and configs — pass the config per call — and pooled backends keep
    their pool alive until :meth:`close`.
    """

    backend = "serial"

    def run(
        self, config: GPUConfig, tasks: Sequence[TileTask]
    ) -> list[RBCDTileResult]:
        """Compute all tasks; results ordered exactly like ``tasks``."""
        if not tasks:
            return []
        chunks = chunk_tasks(tasks, config.executor_chunk_tiles)
        results: list[RBCDTileResult] = []
        for chunk_results in self._map_chunks(config, chunks):
            results.extend(chunk_results)
        return results

    def _map_chunks(
        self, config: GPUConfig, chunks: list[tuple[TileTask, ...]]
    ) -> Iterable[list[RBCDTileResult]]:
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources (no-op for the serial backend)."""

    def __enter__(self) -> "TileExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialTileExecutor(TileExecutor):
    """The reference backend: compute tiles inline, one at a time."""

    backend = "serial"

    def _map_chunks(self, config, chunks):
        for chunk in chunks:
            yield _run_chunk((config, chunk))


class _PooledTileExecutor(TileExecutor):
    """Shared machinery for the thread/process backends: a lazily
    created ``concurrent.futures`` pool whose ``map`` (order-preserving
    by contract) runs chunks concurrently."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool: Executor | None = None
        # Guards lazy pool creation: an executor shared across host
        # threads (the serving frontend injects one pool into every
        # tenant's GPU) must not double-create or leak a pool when two
        # first frames race.
        self._pool_lock = threading.Lock()

    def _make_pool(self) -> Executor:
        raise NotImplementedError

    def _map_chunks(self, config, chunks):
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._make_pool()
                log_event(
                    _LOG, "executor.pool.started", level=logging.DEBUG,
                    backend=self.backend, workers=self.workers,
                )
            pool = self._pool
        return pool.map(_run_chunk, [(config, chunk) for chunk in chunks])

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
            log_event(
                _LOG, "executor.pool.closed", level=logging.DEBUG,
                backend=self.backend, workers=self.workers,
            )


class ThreadPoolTileExecutor(_PooledTileExecutor):
    """Thread-pool backend: cheap dispatch, GIL-limited speedup."""

    backend = "thread"

    def _make_pool(self) -> Executor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="rbcd-tile"
        )


class ProcessPoolTileExecutor(_PooledTileExecutor):
    """Process-pool backend: true CPU parallelism across tiles."""

    backend = "process"

    def _make_pool(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.workers)


def make_executor(config: GPUConfig) -> TileExecutor:
    """Build the executor a config asks for (see ``executor_backend``)."""
    if config.executor_backend == "serial" or config.executor_workers == 1:
        executor: TileExecutor = SerialTileExecutor()
    elif config.executor_backend == "thread":
        executor = ThreadPoolTileExecutor(config.executor_workers)
    else:
        executor = ProcessPoolTileExecutor(config.executor_workers)
    log_event(
        _LOG, "executor.created", level=logging.DEBUG,
        backend=executor.backend, workers=config.executor_workers,
        chunk_tiles=config.executor_chunk_tiles,
    )
    return executor


def run_with_tile_cache(
    executor: TileExecutor,
    config: GPUConfig,
    tasks: Sequence[TileTask],
    cache,
    tile_keys: dict[int, bytes],
) -> Iterable[tuple[RBCDTileResult, bool]]:
    """Run tile tasks through ``executor`` behind a signature cache.

    Yields ``(result, replayed)`` in tile-schedule order: the full task
    list is first planned against the cache (lookups happen serially,
    in task order, so the hit/miss pattern is deterministic), then only
    the misses are dispatched to the executor — at any worker count —
    and the replayed hits are interleaved back in place.  Because
    replayed results are the very objects a previous frame computed,
    the merged stream is bit-identical to a cache-off run; only the
    host work (and the modelled savings the cache accounts) changes.

    ``cache`` is a :class:`~repro.gpu.tilecache.TileResultCache` (duck
    typed to avoid a tiling→parallel import knot); ``tile_keys`` maps
    tile index → canonical signature key, from
    :func:`~repro.gpu.tilecache.frame_tile_keys`.  Every task's tile
    must have a key: a tile with collisionable fragments necessarily
    has collisionable primitives binned to it.
    """
    plan: list[tuple[TileTask, RBCDTileResult | None]] = []
    miss_tasks: list[TileTask] = []
    for task in tasks:
        key = tile_keys.get(task.tile_index)
        if key is None:
            raise KeyError(
                f"tile {task.tile_index} has RBCD work but no signature "
                f"key: the signature layer and the binning disagree"
            )
        cached = cache.lookup(task.tile_index, key)
        plan.append((task, cached))
        if cached is None:
            miss_tasks.append(task)
    miss_results = iter(executor.run(config, miss_tasks))
    for task, cached in plan:
        if cached is not None:
            yield cached, True
        else:
            result = next(miss_results)
            cache.store(task.tile_index, tile_keys[task.tile_index], result)
            yield result, False


def merge_tile_results(
    unit: RBCDUnit, results: Iterable[RBCDTileResult]
) -> list[RBCDTileResult]:
    """Deterministic reduction: absorb results in the given order.

    The caller passes results in tile-schedule order (what
    :meth:`TileExecutor.run` returns); absorbing serially makes the
    unit's report and counters bit-identical to a serial run.
    """
    absorbed = []
    for result in results:
        unit.absorb(result)
        absorbed.append(result)
    return absorbed


def tile_stats_of(result: RBCDTileResult) -> TileStats:
    """Per-tile activity record for one computed tile."""
    return TileStats(
        tile_index=result.tile_index,
        collisionable_fragments=result.zeb.insertions,
        overlap_cycles=result.overlap_cycles,
    )


def tile_registry_of(result: RBCDTileResult) -> CounterRegistry:
    """Named-counter view of one tile's RBCD activity.

    Registries merge by plain per-name sums, so any shard grouping of a
    frame's tile results merges to the same totals the serial absorb
    loop produces — the property that lets per-tile counters survive
    the parallel executor's deterministic merge.
    """
    registry = CounterRegistry()
    for name, kind, value in (
        ("rbcd.zeb_insertions", "int", result.zeb.insertions),
        ("rbcd.zeb_overflow_events", "int", result.zeb.overflow_events),
        ("rbcd.zeb_spare_allocations", "int", result.zeb.spare_allocations),
        ("rbcd.overlap_lists_analyzed", "int", result.analyzed_lists),
        ("rbcd.overlap_elements_read", "int", result.analyzed_elements),
        ("rbcd.ff_stack_overflows", "int", result.overlap.stack_overflows),
        ("rbcd.unmatched_backfaces", "int", result.overlap.unmatched_backfaces),
        ("rbcd.pair_records_written", "int", result.overlap.pair_records),
    ):
        registry.counter(name, kind=kind)
        registry.set(name, value)
    registry.counter("rbcd.insertion_cycles", kind="float", unit="cycles")
    registry.set("rbcd.insertion_cycles", result.insertion_cycles)
    registry.counter("rbcd.overlap_cycles", kind="float", unit="cycles")
    registry.set("rbcd.overlap_cycles", result.overlap_cycles)
    return registry


def tile_evidence_of(result: RBCDTileResult, config, frame: int = 0):
    """Pair-evidence records for one tile's result (shard view).

    ``config`` is the :class:`~repro.gpu.config.GPUConfig` the tile was
    computed under.  Evidence records carry a total order
    ``(frame, tile, record)``, so shards collected from any worker
    interleaving sort to exactly the sequence a serial
    :class:`~repro.observability.provenance.ProvenanceRecorder`
    observes — the provenance analogue of the counter-merge property
    above, asserted by ``tests/observability/test_provenance.py``.
    """
    from repro.observability.provenance import evidence_from_tile

    return evidence_from_tile(result, config, frame=frame)


def tile_energy_registry(result: RBCDTileResult, model) -> CounterRegistry:
    """Named-counter view of one tile's *dynamic* RBCD energy.

    ``model`` is a :class:`~repro.energy.rbcd_power.RBCDEnergyModel`
    (duck-typed to avoid a gpu→energy→gpu import cycle at module
    level).  Every energy term is linear in the tile counters it is
    priced from, so these registries merge across any shard grouping
    to exactly the frame's dynamic RBCD energy — static leakage is
    frame-time-based and excluded, see
    :meth:`~repro.energy.rbcd_power.RBCDEnergyModel.tile_breakdown`.
    """
    return model.tile_breakdown(result).registry()
