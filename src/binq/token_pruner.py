"""Image-token retention decisions from recorded attention scores.

Works entirely on attention files recorded elsewhere, so the math stays
verifiable without any inference stack. Per layer, the mean image-token
attention signals redundancy; the retained set keeps the top tokens by
aggregated attention with deterministic tie-breaking.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .tensor_store import AttentionTensor

_GROUP_SUM_TOL = 1e-6
_IMG_COLUMN = 1  # group order: system, image, instruction, output


@dataclass(frozen=True)
class PruneDecision:
    """Retained image tokens for one layer at a given prune ratio."""

    layer_index: int
    lambda_img: float
    retained: tuple[int, ...]  # sorted ascending


def retained_count(ratio: float, n_img: int) -> int:
    """ceil((1 - ratio) * n_img) with a floor of one retained token.

    The product is rounded at the 9th decimal first so decimal-looking
    ratios (0.95, 0.1, ...) behave like their decimal values.
    """
    if not 0.0 <= ratio < 1.0:
        raise DomainError(f"prune ratio must lie in [0, 1), got {ratio}")
    if n_img < 1:
        raise DomainError(f"need at least one image token, got {n_img}")
    return max(1, math.ceil(round((1.0 - ratio) * n_img, 9)))


def validate_scores(tensor: AttentionTensor):
    """Enforce the attention-mass contracts on one layer's tensor.

    Language-model tensors must have per-token group sums of 1 (within
    1e-6); vision-encoder tensors (no system/instruction/output tokens)
    must carry full image attention per token. All scores must lie in [0, 1].
    Each check is written so that NaN fails it.
    """
    j = tensor.layer_index
    for name, arr in (("group sums", tensor.group_sums),
                      ("image scores", tensor.image_scores)):
        outside = ~((arr >= 0.0) & (arr <= 1.0))
        if outside.any():
            token = int(np.argwhere(outside)[0][0])
            raise ValidationError(
                f"layer {j}: {name} outside [0, 1] at output token {token}")
    sums = tensor.group_sums.astype(np.float64)
    if tensor.is_vision:
        sums, what = sums[:, _IMG_COLUMN], "vision tensor has image attention"
    else:
        sums, what = sums.sum(axis=1), "group sums total"
    dev = np.abs(sums - 1.0)
    if not np.all(dev <= _GROUP_SUM_TOL):
        token = int(np.argmax(dev))
        raise ValidationError(f"layer {j}: {what} {sums[token]:.6f} != 1 at output "
                              f"token {token}")


def layer_lambda(tensor: AttentionTensor) -> float:
    """Mean image attention: total image mass over output tokens / n_img."""
    if tensor.n_img < 1:
        raise DomainError(f"layer {tensor.layer_index}: no image tokens")
    if tensor.n_tokens < 1:
        raise DomainError(f"layer {tensor.layer_index}: no output tokens")
    total = float(tensor.group_sums[:, _IMG_COLUMN].astype(np.float64).sum())
    return total / tensor.n_img


def retain_mask(scores, ratio: float) -> tuple[int, ...]:
    """Indices of the top-k scores, sorted ascending; ties keep the lower index."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    order = np.lexsort((np.arange(scores.size), -scores))
    return tuple(int(i) for i in np.sort(order[:retained_count(ratio, scores.size)]))


def prune_decisions(tensors: list[AttentionTensor], ratio: float,
                    start_layer: int = 0) -> list[PruneDecision]:
    """Per-layer decisions for layers at or beyond start_layer."""
    retained_count(ratio, 1)  # the ratio is checked even when no layer is decided
    decisions = []
    for tensor in tensors:
        if tensor.layer_index < start_layer:
            continue
        validate_scores(tensor)
        aggregated = tensor.image_scores.astype(np.float64).sum(axis=0)
        decisions.append(PruneDecision(tensor.layer_index, layer_lambda(tensor),
                                       retain_mask(aggregated, ratio)))
    return decisions
