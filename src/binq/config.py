"""Quantization configuration shared by the partitioner, quantizers, and packer."""

import math
from dataclasses import dataclass

from .bit_packer import INDEX_WIDTH, max_partitions
from .errors import DomainError

# Default cap on the salient share by component role; vision towers tolerate
# a larger salient budget than language/adaptor stacks.
ROLE_P_SAL_MAX = {"vision": 0.05, "language": 0.01, "adaptor": 0.01}


@dataclass(frozen=True)
class QuantConfig:
    """Tunables of the hybrid quantization pipeline.

    Each field is a `binq quantize` flag. p_sal_max of None defers to the
    per-role default (or a manifest override). n_uns is at most the
    max_partitions(INDEX_WIDTH) = 5 shells that the .bvq index width addresses.
    """

    n_uns: int = 5
    n_bits: int = 2
    p_sal_max: float | None = None
    alpha: float = 1.4
    iters: int = 15
    optimize_saliency: bool = True

    def __post_init__(self):
        # Index codes of at most INDEX_WIDTH bits address one salient group plus n_uns shells.
        if not 1 <= self.n_uns <= max_partitions(INDEX_WIDTH):
            raise DomainError(f"n_uns must lie in [1, {max_partitions(INDEX_WIDTH)}] for "
                              f"{INDEX_WIDTH}-bit index codes, got {self.n_uns}")
        # Salient codes 0..2**n_bits - 1 are stored as uint8.
        if not 1 <= self.n_bits <= 8:
            raise DomainError(f"n_bits must lie in [1, 8], got {self.n_bits}")
        if self.p_sal_max is not None and not 0.0 < self.p_sal_max < 1.0:
            raise DomainError(f"p_sal_max must lie in (0, 1), got {self.p_sal_max}")
        if not 0.0 < self.alpha < math.inf:
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        if self.iters < 1:
            raise DomainError(f"iters must be >= 1, got {self.iters}")

    def resolve_p_sal_max(self, role, override: float | None = None) -> float:
        """Effective salient-share cap: explicit config > override > role default."""
        if self.p_sal_max is not None:
            return self.p_sal_max
        if override is not None:
            if not 0.0 < override < 1.0:
                raise DomainError(f"p_sal_max override must lie in (0, 1), got {override}")
            return override
        key = getattr(role, "value", role)
        try:
            return ROLE_P_SAL_MAX[key]
        except KeyError:
            raise DomainError(f"no default salient cap for role {role!r}") from None
