"""Feature-map *descriptors* used by the IR and the cost models.

The planner reasons about sizes without materializing data, while the
functional simulator carries real NumPy arrays.  :class:`FeatureMapSpec` is
the shared vocabulary: a ``(C, H, W)`` shape plus a
:class:`~repro.core.dtypes.DType`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ShapeError
from .dtypes import DType

__all__ = ["FeatureMapSpec"]


@dataclass(frozen=True)
class FeatureMapSpec:
    """A ``(C, H, W)`` feature-map descriptor with convenience accessors."""

    channels: int
    height: int
    width: int
    dtype: DType = DType.FP32

    def __post_init__(self) -> None:
        if self.channels <= 0 or self.height <= 0 or self.width <= 0:
            raise ShapeError(
                f"non-positive feature map dims ({self.channels},{self.height},{self.width})"
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.channels, self.height, self.width)

    @property
    def hw(self) -> int:
        """Spatial extent (H*W) — the paper's ``HW`` postfix."""
        return self.height * self.width

    @property
    def num_elements(self) -> int:
        return self.channels * self.hw

    @property
    def nbytes(self) -> int:
        return self.num_elements * self.dtype.nbytes
