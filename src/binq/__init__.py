"""Hybrid 1-2 bit weight quantization with Gaussian-quantile partitioning."""

from .bit_packer import (CodeBook, StorageReport, aggregate_reports, index_bits,
                         max_partitions, pack_stream, storage_budget,
                         storage_report, unpack_stream)
from .config import ROLE_P_SAL_MAX, QuantConfig
from .errors import (BinqError, DomainError, FormatError, IoError,
                     OptimizationError, TruncationError, ValidationError)
from .partitioner import compute_cutoffs
from .pipeline import quantize_layer, quantize_model, reconstruct, reconstruction_error
from .salient_quantizer import (SalientQuant, adaptive_levels, assign_codes,
                                fit_rowwise, level_grid, quantize_salient)
from .saliency_optimizer import (LayerObjective, ObjectiveEval, brent_minimize,
                                 evaluate_objective, optimize_saliency,
                                 sweep_thresholds)
from .tensor_store import (AttentionTensor, ManifestEntry, ModelManifest,
                           QuantizedLayer, Role, WeightMatrix, read_artifact,
                           read_attention, read_layer_headers, read_manifest,
                           read_tensor, write_artifact, write_attention, write_tensor)
from .token_pruner import (PruneDecision, layer_lambda, prune_decisions,
                           retain_mask, retained_count, validate_scores)
from .weight_stats import (GaussianFit, Histogram, default_bin_count,
                           fit_gaussian, histogram, kl_discrete, kl_divergence,
                           probit)

__version__ = "0.1.0"
