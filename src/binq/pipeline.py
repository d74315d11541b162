"""Per-layer and per-model orchestration of the hybrid quantization pipeline.

Each layer runs: Gaussian fit, the layer's `LayerObjective`, an optional
saliency search over it, and the quantized layer the objective builds at
the chosen share. Layers are processed independently in manifest order so
artifacts are deterministic.
"""

import math
from dataclasses import replace

import numpy as np

from . import bit_packer
from .config import QuantConfig
from .errors import BinqError, DomainError
from .saliency_optimizer import LayerObjective, evaluate_objective, optimize_saliency
from .tensor_store import ModelManifest, QuantizedLayer, WeightMatrix
from .weight_stats import fit_gaussian

# Columns of the per-layer error CSV, consumed by downstream plotting.
ERROR_CSV_COLUMNS = ("layer", "m", "n", "p_sal_used", "J", "relative_error",
                     "bits_per_weight")


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
    """The quantized layer and, if `score`, its J (else None).

    J is the search's best evaluation, or one evaluation at the pinned
    share; an all-zero layer, whose J is 0/0, gets 0.
    """
    config = config or QuantConfig()
    matrix.require_finite()
    if matrix.m < 1 or matrix.n < 1:
        raise DomainError(f"layer {matrix.name!r} is empty")
    cap = config.resolve_p_sal_max(matrix.role, cap_override)
    cfg = replace(config, p_sal_max=cap)
    fit = fit_gaussian(matrix)
    objective = LayerObjective(matrix, fit, cfg)

    j = None
    # An all-zero matrix has sigma 0 too.
    if fit.sigma == 0.0:
        p_used = 0.0
    elif cfg.optimize_saliency:
        p_used, j = optimize_saliency(matrix, fit, cfg, objective, full_output=True)
    else:
        p_used = cap
    if score and j is None:  # mu = sigma = 0 only for an all-zero layer
        j = (evaluate_objective(matrix, fit, p_used, cfg, objective).j
             if fit.mu or fit.sigma else 0.0)
    return objective.layer(p_used), j


def quantize_layer(matrix: WeightMatrix, config: QuantConfig | None = None,
                   cap_override: float | None = None) -> QuantizedLayer:
    """Quantize one layer: fit, saliency search, and the layer built at the share found.

    With optimize_saliency off the salient share is pinned to the resolved
    cap. All-zero and constant layers degenerate to a single binarized group
    without error.
    """
    return _quantize(matrix, config, cap_override, score=False)[0]


def quantize_model(manifest: ModelManifest, config: QuantConfig | None = None):
    """Quantize every manifest layer.

    Returns (layers, model_report, csv_rows): the quantized layers in
    manifest order, the size-weighted aggregate storage report, and one
    error-CSV row per layer. Any layer failure aborts with the layer name.
    """
    config = config or QuantConfig()
    layers = []
    reports = []
    rows = []
    for entry in manifest.entries:
        try:
            matrix = entry.load()
            layer, j = _quantize(matrix, config, entry.p_sal_max, score=True)
            report = bit_packer.storage_report(layer)
        except (BinqError, ValueError) as exc:
            raise type(exc)(f"layer {entry.name!r}: {exc}") from exc
        layers.append(layer)
        reports.append(report)
        rows.append({
            "layer": entry.name,
            "m": layer.m,
            "n": layer.n,
            "p_sal_used": layer.p_sal_used,
            "J": j,
            "relative_error": math.sqrt(j),
            "bits_per_weight": report.bits_per_weight,
        })
    return layers, bit_packer.aggregate_reports(reports), rows
