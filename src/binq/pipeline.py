"""Per-layer and per-model orchestration of the hybrid quantization pipeline.

Each layer runs: Gaussian fit, the layer's `LayerObjective`, an optional
saliency search over it, the quantized layer the objective builds at the
chosen share, and that layer packed into its .bvq record. No layer depends
on another, so a model's layers run in forked worker processes, one per
usable core that the affinity mask and the cgroup v2 CPU quota allow and as
many as free memory holds. A large layer fits its groups on the cores the
workers leave idle, usable cores // workers threads (at most LAYER_THREADS,
one in a daemonic or tracing process) that start and end within the layer.
Each worker sends back its layer's packed record (about 0.44 bytes per
weight), not the quantized layer (about 1.13), and the parent writes the
records to the artifact in manifest order as they arrive, through a bounded
window of submitted layers. So the parent's memory does not grow with the
layer count, and the artifact and error CSV are the same bytes as from one
process.
"""

import collections
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bit_packer
from .config import QuantConfig
from .errors import BinqError, DomainError, IoError
from .saliency_optimizer import LayerObjective, optimize_saliency
from .tensor_store import (ModelManifest, QuantizedLayer, WeightMatrix, _layer_record,
                           _write_records)
from .weight_stats import fit_gaussian

# Columns of the per-layer error CSV, consumed by downstream plotting.
ERROR_CSV_COLUMNS = ("layer", "m", "n", "p_sal_used", "J", "relative_error",
                     "bits_per_weight")
# A worker's allocations, packing its record included, peak at up to 5.9 times its
# layer's tensor file in the search (traced in fresh processes, numpy 2.4, two threads:
# 5.25 searched and 4.06 pinned on 1024x1024 Student-t layers, 5.9 and 4.8 on a biased
# 512x1024 one; on one thread 4.3 and 4.06, and 5.74 and 4.70 on a biased 512x256 one).
# Packing adds 1.16 beyond the layer, below that peak. 7 leaves a margin.
WORKER_PEAK_PER_FILE_BYTE = 7
# Layers submitted to the pool and not yet written, per worker: finished records
# that wait for an earlier, slower layer are at most this many per worker.
WINDOW_PER_WORKER = 4
# A layer of fewer weights fits its groups on one thread: on 2 cores two threads
# slowed the search of 512x512 Student-t layers (0.080 -> 0.089 s), broke even at
# 384x1024 and sped up 512x1024 (0.155 -> 0.117 s) and larger.
THREADED_WEIGHTS = 1 << 19
# At most this many threads fit one layer: each holds a group fit's temporaries, so
# 3, 4 and 6 threads peak at 5.7, 6.4 and 7.6 times the file (4096x1024, searched).
LAYER_THREADS = 2
# Where this process's cgroup v2 membership is read, and where the hierarchy is mounted.
PROC_CGROUP = Path("/proc/self/cgroup")
CGROUP_ROOT = Path("/sys/fs/cgroup")
PROC_MEMINFO = Path("/proc/meminfo")  # its MemAvailable counts reclaimable page cache


def reconstruct(layer: QuantizedLayer) -> WeightMatrix:
    """Dense reconstruction of a quantized layer."""
    return WeightMatrix(name=layer.name, role=layer.role,
                        data=layer.dense(np.float32))


def reconstruction_error(matrix: WeightMatrix, layer: QuantizedLayer) -> float:
    """Squared Frobenius error between a matrix and its reconstruction."""
    diff = matrix.data.astype(np.float64) - layer.dense()
    return float(np.sum(np.square(diff)))


def _alone() -> bool:
    """Whether this process runs its layers itself, each on one thread: it traces its
    allocations or it is daemonic. A tracemalloc trace would miss a pool's children,
    and a span tracer such as perfbench/tracer.py keeps one span stack per process, so
    concurrent group fits would nest their spans under each other and report each
    other's peaks. A daemon may start no children, and is a worker of its caller's
    own pool, which usually takes every core already. A process that never imported
    multiprocessing is no daemon."""
    import tracemalloc

    mp = sys.modules.get("multiprocessing")
    return tracemalloc.is_tracing() or bool(mp and mp.current_process().daemon)


def _threads(matrix: WeightMatrix, cores: int | None) -> int:
    """Threads that fit `matrix`'s groups: `cores`, or this process's usable cores if
    None, at most LAYER_THREADS; 1 below THREADED_WEIGHTS weights or in a process
    that runs its layers alone (see `_alone`)."""
    if matrix.data.size < THREADED_WEIGHTS or cores == 1 or _alone():
        return 1
    return min(cores or _usable()[0], LAYER_THREADS)


def _quantize(matrix: WeightMatrix, config: QuantConfig | None,
              cap_override: float | None, score: bool, cores: int | None = None):
    """The quantized layer and, if `score`, its J (else None); a failure names the layer.

    J is the search's best evaluation, or one evaluation at the pinned
    share; an all-zero layer, whose J is 0/0, gets 0. The layer's groups are
    fitted on `_threads(matrix, cores)` threads.
    """
    config = config or QuantConfig()
    try:
        matrix.require_finite()
        if matrix.m < 1 or matrix.n < 1:
            raise DomainError("empty matrix")
        cap = config.resolve_p_sal_max(matrix.role, cap_override)
        cfg = replace(config, p_sal_max=cap)
        fit = fit_gaussian(matrix)
        objective = LayerObjective(matrix, fit, cfg, _threads(matrix, cores))

        j = None
        # An all-zero matrix has sigma 0 too.
        if fit.sigma == 0.0:
            p_used = 0.0
        elif cfg.optimize_saliency:
            best = optimize_saliency(objective)
            p_used, j = best.p_sal, best.j
        else:
            p_used = objective.p_cap
        if score and j is None:
            if fit.mu or fit.sigma:  # a pinned share is scored on the shells its layer picks
                layer, ev = objective.scored_layer(p_used)
                return layer, ev.j
            j = 0.0  # mu = sigma = 0 only for an all-zero layer
        return objective.layer(p_used), j
    except (BinqError, ValueError) as exc:
        raise type(exc)(f"layer {matrix.name!r}: {exc}") from exc


def quantize_layer(matrix: WeightMatrix, config: QuantConfig | None = None) -> QuantizedLayer:
    """Quantize one layer: fit, saliency search, and the layer built at the share found.

    With optimize_saliency off the salient share is pinned to the resolved
    cap. All-zero and constant layers degenerate to a single binarized group
    without error.
    """
    return _quantize(matrix, config, None, score=False)[0]


def _quantize_entry(entry, config: QuantConfig, cores: int):
    """(.bvq record, error-CSV row, storage report) of one manifest entry, on up to
    `cores` threads.

    A failure names the layer. The quantized layer is packed here and goes
    no further, so a worker sends back its record, not the layer.
    """
    try:
        matrix = entry.load()
    except (BinqError, ValueError) as exc:
        raise type(exc)(f"layer {entry.name!r}: {exc}") from exc
    layer, j = _quantize(matrix, config, entry.p_sal_max, score=True, cores=cores)
    report = bit_packer.storage_report(layer)
    row = {"layer": entry.name, "m": layer.m, "n": layer.n, "p_sal_used": layer.p_sal_used,
           "J": j, "relative_error": math.sqrt(j), "bits_per_weight": report.bits_per_weight}
    return _layer_record(layer), row, report


def _usable() -> tuple[int, float]:
    """(usable cores, free bytes) that the affinity mask and this process's cgroup v2
    and its ancestors allow: the one rule of the pool's workers and of a layer's threads.

    The cores are the affinity mask's, capped by the smallest ceil(quota / period)
    of a `cpu.max`; free bytes are the smallest `memory.max` - `memory.current`.
    "max", a missing file or no cgroup v2 membership is no limit (inf).
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    cpus = free = math.inf
    try:
        own = CGROUP_ROOT / next(line[3:] for line in PROC_CGROUP.read_text().splitlines()
                                 if line.startswith("0::")).strip().lstrip("/")
    except (OSError, StopIteration):
        return cores, free
    for folder in (own, *own.parents):
        try:
            quota, period = (folder / "cpu.max").read_text().split()
            if quota != "max":
                cpus = min(cpus, -(-int(quota) // int(period)))
        except (OSError, ValueError):
            pass
        try:
            limit = (folder / "memory.max").read_text().strip()
            if limit != "max":
                used = int((folder / "memory.current").read_text())
                free = min(free, max(0, int(limit) - used))
        except (OSError, ValueError):
            pass
        if folder == CGROUP_ROOT:
            break
    return int(min(cores, cpus)), free


def _workers(entries, cores: int, free: float) -> int:
    """Worker processes for these entries: one per layer and usable core, as many
    as free memory (MemAvailable, and `free`, what the cgroup v2 memory limit
    leaves) holds at WORKER_PEAK_PER_FILE_BYTE; 1 for a caller that runs its
    layers alone (see `_alone`)."""
    workers = min(len(entries), cores)
    if workers < 2:
        return workers
    if _alone():
        return 1
    try:
        kb = PROC_MEMINFO.read_text().partition("MemAvailable:")[2].split()[0]
        free = min(free, 1024 * int(kb))
    except (OSError, IndexError, ValueError):  # no file or no field: MemFree, without page cache
        free = min(free, os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    try:  # a tensor may be gone since the manifest was read
        peak = WORKER_PEAK_PER_FILE_BYTE * max(e.path.stat().st_size for e in entries)
    except OSError as exc:
        raise IoError(f"cannot read {exc.filename}: {exc}") from exc
    return int(min(workers, free // peak))


def _in_order(pool, entries, config, cores: int, window: int):
    """The pool's results for the entries in manifest order, with at most
    `window` entries submitted and not yet taken."""
    pending = collections.deque()
    for entry in entries:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(_quantize_entry, entry, config, cores))
    while pending:
        yield pending.popleft().result()


def quantize_model(manifest: ModelManifest, path, config: QuantConfig | None = None):
    """Quantize every manifest layer into the .bvq artifact at `path`.

    Returns (model_report, csv_rows): the size-weighted aggregate storage
    report and one error-CSV row per layer, in manifest order. Each layer's
    record is written as it arrives, so only a few packed records wait at a
    time; any layer failure aborts with the layer name and leaves `path` as
    it was. Layers run in forked workers (see `_workers`).
    """
    config = config or QuantConfig()
    entries = manifest.entries
    reports, rows = [], []

    def records(results):
        for record, row, report in results:
            rows.append(row)
            reports.append(report)
            yield record

    cores, free = _usable()
    workers = _workers(entries, cores, free)
    layer_cores = cores // workers if workers else 1  # a worker's cores, for its threads
    if workers < 2:
        _write_records(path, len(entries), records(
            _quantize_entry(entry, config, layer_cores) for entry in entries))
    else:  # fork: no re-imports, and the executor forks before it starts a thread
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
                try:
                    _write_records(path, len(entries), records(_in_order(
                        pool, entries, config, layer_cores, WINDOW_PER_WORKER * workers)))
                except BaseException:  # quantize no layer whose record would be thrown away
                    pool.shutdown(cancel_futures=True)
                    raise
        except BrokenProcessPool as exc:
            raise DomainError("a layer worker died (killed, or out of memory)") from exc
    return bit_packer.aggregate_reports(reports), rows
