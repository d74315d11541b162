"""Quantization configuration shared by the partitioner, quantizers, and packer."""

from dataclasses import dataclass

from .bit_packer import max_partitions
from .errors import DomainError

# Default cap on the salient share by component role; vision towers tolerate
# a larger salient budget than language/adaptor stacks.
ROLE_P_SAL_MAX = {"vision": 0.05, "language": 0.01, "adaptor": 0.01}


@dataclass(frozen=True)
class QuantConfig:
    """Tunables of the hybrid quantization pipeline.

    p_sal_max of None defers to the per-role default (or a manifest
    override). scale_width is the stored bit width of every scale factor.
    """

    n_uns: int = 5
    n_bits: int = 2
    p_sal_max: float | None = None
    alpha: float = 1.4
    iters: int = 15
    scale_width: int = 16
    l_i_max: int = 3
    optimize_saliency: bool = True
    fit_atol: float = 1e-8

    def __post_init__(self):
        # Group labels 0..n_uns (n_uns is the salient group) are stored as int8.
        if not 1 <= self.n_uns <= 127:
            raise DomainError(f"n_uns must lie in [1, 127], got {self.n_uns}")
        # Salient codes 0..2**n_bits - 1 are stored as uint8.
        if not 1 <= self.n_bits <= 8:
            raise DomainError(f"n_bits must lie in [1, 8], got {self.n_bits}")
        if self.p_sal_max is not None and not 0.0 < self.p_sal_max < 1.0:
            raise DomainError(f"p_sal_max must lie in (0, 1), got {self.p_sal_max}")
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.iters < 1:
            raise DomainError(f"iters must be >= 1, got {self.iters}")
        if self.scale_width not in (16, 32):
            raise DomainError(f"scale_width must be 16 or 32, got {self.scale_width}")
        # Index codes of at most l_i_max bits must be able to address every
        # group (one salient group plus n_uns unsalient ones).
        if self.n_uns > max_partitions(self.l_i_max):
            raise DomainError(
                f"n_uns={self.n_uns} exceeds the {max_partitions(self.l_i_max)} shells "
                f"addressable with l_i_max={self.l_i_max}")

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
