"""Layer specifications — the planner-facing IR.

A :class:`ConvSpec` captures everything FusePlanner's cost models need about
one convolutional layer: kind (standard / depthwise / pointwise), geometry,
and the folded normalization/activation epilogue that rides along with the
convolution in every implementation the paper compares (cuDNN, TVM, LBL and
FCM all fuse conv+norm+act; only conv+conv fusion differentiates FCMs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from ..core.dtypes import DType
from ..core.ops import out_dim
from ..core.tensor import FeatureMapSpec
from ..errors import ShapeError

__all__ = ["ConvKind", "ConvSpec", "EpilogueSpec"]


class ConvKind(enum.Enum):
    """Convolution flavour; determines the cost model and kernel used."""

    STANDARD = "standard"
    DEPTHWISE = "dw"
    POINTWISE = "pw"

    def __init__(self, value: str) -> None:
        #: the label of plan dumps and geometry keys: "std", "dw" or "pw".
        self.short = "std" if value == "standard" else value


@dataclass(frozen=True)
class EpilogueSpec:
    """Folded elementwise tail of a convolution: norm (affine) + activation."""

    norm: bool = True
    activation: str | None = "relu"


@dataclass(frozen=True)
class ConvSpec:
    """One convolutional layer, fully shape-resolved.

    Attributes:
        name: unique layer name within a model.
        kind: standard / depthwise / pointwise.
        in_channels: IFM depth ``C``.
        out_channels: OFM depth ``M`` (must equal ``in_channels`` for DW).
        in_h, in_w: IFM spatial extent.
        kernel: square filter size (1 for PW).
        stride: spatial stride.
        padding: symmetric zero padding.
        dtype: inference precision of FMs and weights.
        epilogue: folded norm+activation following the conv.
    """

    name: str
    kind: ConvKind
    in_channels: int
    out_channels: int
    in_h: int
    in_w: int
    kernel: int = 1
    stride: int = 1
    padding: int = 0
    dtype: DType = DType.FP32
    epilogue: EpilogueSpec = field(default_factory=EpilogueSpec)

    def __post_init__(self) -> None:
        if min(self.in_channels, self.out_channels, self.in_h, self.in_w) <= 0:
            raise ShapeError(f"{self.name}: non-positive dimension")
        if self.kind is ConvKind.POINTWISE and self.kernel != 1:
            raise ShapeError(f"{self.name}: pointwise layers must have kernel=1")
        if self.kind is ConvKind.DEPTHWISE and self.in_channels != self.out_channels:
            raise ShapeError(
                f"{self.name}: depthwise layers preserve channels "
                f"({self.in_channels} != {self.out_channels})"
            )
        if self.kind is not ConvKind.POINTWISE and self.kernel <= 0:
            raise ShapeError(f"{self.name}: kernel must be positive")
        if not 0 <= self.padding < self.kernel:
            # A padding as large as the kernel gives output tiles that read
            # only padding: their input windows are empty.
            raise ShapeError(
                f"{self.name}: padding {self.padding} must be in [0, kernel {self.kernel})"
            )
        # Validate the output geometry eagerly so broken specs fail at build time.
        out_dim(self.in_h, self.kernel, self.stride, self.padding)
        out_dim(self.in_w, self.kernel, self.stride, self.padding)

    # ---- derived geometry -------------------------------------------------
    @property
    def out_h(self) -> int:
        return out_dim(self.in_h, self.kernel, self.stride, self.padding)

    @property
    def out_w(self) -> int:
        return out_dim(self.in_w, self.kernel, self.stride, self.padding)

    @property
    def ifm(self) -> FeatureMapSpec:
        return FeatureMapSpec(self.in_channels, self.in_h, self.in_w, self.dtype)

    @property
    def ofm(self) -> FeatureMapSpec:
        return FeatureMapSpec(self.out_channels, self.out_h, self.out_w, self.dtype)

    @property
    def weights_shape(self) -> tuple[int, ...]:
        if self.kind is ConvKind.POINTWISE:
            return (self.out_channels, self.in_channels)
        if self.kind is ConvKind.DEPTHWISE:
            return (self.in_channels, self.kernel, self.kernel)
        return (self.out_channels, self.in_channels, self.kernel, self.kernel)

    @property
    def weights_elements(self) -> int:
        n = 1
        for d in self.weights_shape:
            n *= d
        return n

    @property
    def weights_bytes(self) -> int:
        return self.weights_elements * self.dtype.nbytes

    @property
    def macs(self) -> int:
        """Multiply-accumulates of the convolution (per inference, batch 1)."""
        per_output = self.kernel * self.kernel
        if self.kind is not ConvKind.DEPTHWISE:
            per_output *= self.in_channels
        return self.out_channels * self.out_h * self.out_w * per_output

    # ---- transforms -------------------------------------------------------
    def with_dtype(self, dtype: DType) -> "ConvSpec":
        """Same layer at a different precision (FP32 <-> INT8 sweeps)."""
        return replace(self, dtype=dtype)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}[{self.kind.short} {self.in_channels}->{self.out_channels} "
            f"{self.in_h}x{self.in_w} k{self.kernel}s{self.stride} {self.dtype}]"
        )
