"""Per-layer and per-model orchestration of the hybrid quantization pipeline.

Each layer runs: Gaussian fit, the layer's `LayerObjective`, an optional
saliency search over it, and the quantized layer the objective builds at
the chosen share. No layer depends on another, so a model's layers run in
forked worker processes, one per usable core, and are collected in manifest
order: the artifact and error CSV are the same bytes as from one process.
"""

import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import bit_packer
from .config import QuantConfig
from .errors import BinqError, DomainError
from .saliency_optimizer import LayerObjective, optimize_saliency
from .tensor_store import ModelManifest, QuantizedLayer, WeightMatrix
from .weight_stats import fit_gaussian

# Columns of the per-layer error CSV, consumed by downstream plotting.
ERROR_CSV_COLUMNS = ("layer", "m", "n", "p_sal_used", "J", "relative_error",
                     "bits_per_weight")
# A worker's allocations peak at 5.46 times its layer's tensor file (traced in
# fresh processes on 1024x1024 and 4096x1024 Student-t and a biased 512x256
# layer, search on and off; 4.00 to 4.22 with the search off), with a margin.
WORKER_PEAK_PER_FILE_BYTE = 7


def reconstruct(layer: QuantizedLayer) -> WeightMatrix:
    """Dense reconstruction of a quantized layer."""
    return WeightMatrix(name=layer.name, role=layer.role,
                        data=layer.dense(np.float32))


def reconstruction_error(matrix: WeightMatrix, layer: QuantizedLayer) -> float:
    """Squared Frobenius error between a matrix and its reconstruction."""
    diff = matrix.data.astype(np.float64) - layer.dense()
    return float(np.sum(np.square(diff)))


def _quantize(matrix: WeightMatrix, config: QuantConfig | None,
              cap_override: float | None, score: bool):
    """The quantized layer and, if `score`, its J (else None); a failure names the layer.

    J is the search's best evaluation, or one evaluation at the pinned
    share; an all-zero layer, whose J is 0/0, gets 0.
    """
    config = config or QuantConfig()
    try:
        matrix.require_finite()
        if matrix.m < 1 or matrix.n < 1:
            raise DomainError("empty matrix")
        cap = config.resolve_p_sal_max(matrix.role, cap_override)
        cfg = replace(config, p_sal_max=cap)
        fit = fit_gaussian(matrix)
        objective = LayerObjective(matrix, fit, cfg)

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


def quantize_layer(matrix: WeightMatrix, config: QuantConfig | None = None,
                   cap_override: float | None = None) -> QuantizedLayer:
    """Quantize one layer: fit, saliency search, and the layer built at the share found.

    With optimize_saliency off the salient share is pinned to the resolved
    cap. All-zero and constant layers degenerate to a single binarized group
    without error.
    """
    return _quantize(matrix, config, cap_override, score=False)[0]


def _quantize_entry(entry, config: QuantConfig):
    """(layer, J, storage report) of one manifest entry; a failure names the layer."""
    try:
        matrix = entry.load()
    except (BinqError, ValueError) as exc:
        raise type(exc)(f"layer {entry.name!r}: {exc}") from exc
    layer, j = _quantize(matrix, config, entry.p_sal_max, score=True)
    return layer, j, bit_packer.storage_report(layer)


def quantize_model(manifest: ModelManifest, config: QuantConfig | None = None):
    """Quantize every manifest layer.

    Returns (layers, model_report, csv_rows): the quantized layers in
    manifest order, the size-weighted aggregate storage report, and one
    error-CSV row per layer. Any layer failure aborts with the layer name.
    Layers run in forked workers, one per usable core and layer and as many as
    free memory holds; a daemonic or allocation-tracing caller runs them itself.
    """
    config = config or QuantConfig()
    entries = manifest.entries
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(entries), cores)
    if workers > 1:
        import tracemalloc

        # A tracemalloc trace would miss the children, and a daemon may not
        # start any; a process that never imported multiprocessing is no daemon.
        mp = sys.modules.get("multiprocessing")
        free = (0 if tracemalloc.is_tracing() or (mp and mp.current_process().daemon)
                else os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
        peak = WORKER_PEAK_PER_FILE_BYTE * max(e.path.stat().st_size for e in entries)
        workers = min(workers, free // peak)
    if workers < 2:
        results = list(map(_quantize_entry, entries, [config] * len(entries)))
    else:  # fork: no re-imports, and the executor forks before it starts a thread
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
                results = list(pool.map(_quantize_entry, entries, [config] * len(entries)))
        except BrokenProcessPool as exc:
            raise DomainError("a layer worker died (killed, or out of memory)") from exc
    rows = [{"layer": entry.name, "m": layer.m, "n": layer.n,
             "p_sal_used": layer.p_sal_used, "J": j, "relative_error": math.sqrt(j),
             "bits_per_weight": report.bits_per_weight}
            for entry, (layer, j, report) in zip(entries, results)]
    return ([layer for layer, _, _ in results],
            bit_packer.aggregate_reports([report for _, _, report in results]), rows)
