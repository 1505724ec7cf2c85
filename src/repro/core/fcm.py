"""Fused Convolutional Module (FCM) taxonomy and fusion legality rules.

Paper §III: an FCM fuses two convolutional layers (each with its trailing
normalization + activation, so up to six layers) into one GPU kernel.  The
possible combinations found in DSC and inverted-residual networks are:

* ``DWPW``    — depthwise followed by pointwise (a DSC block).
* ``PWDW``    — pointwise followed by depthwise, *without* spatial tiling of
  the intermediate, hence no redundant computation.
* ``PWDW_R``  — the same pair *with* spatial tiling; intermediate halo values
  must be redundantly recomputed by neighbouring thread blocks.
* ``PWPW``    — two back-to-back pointwise layers (inverted-residual seams).

The second layer of a pair determines the structural constraint: a PW consumer
needs *all* channels of the intermediate at one pixel, a DW consumer needs a
spatial neighbourhood of *its own* channel.
"""

from __future__ import annotations

import enum

from ..errors import UnsupportedError

__all__ = ["FcmType", "candidate_fcm_types"]


class FcmType(enum.Enum):
    """The four fused module types of paper Fig. 4 (+ the _R variant of Fig. 3b)."""

    DWPW = "dwpw"
    PWDW = "pwdw"
    PWDW_R = "pwdw_r"
    PWPW = "pwpw"

    @property
    def first_kind(self) -> str:
        """Kind ('dw'/'pw') of the producer layer."""
        return "dw" if self in (FcmType.DWPW,) else "pw"

    @property
    def second_kind(self) -> str:
        """Kind ('dw'/'pw') of the consumer layer."""
        return "pw" if self in (FcmType.DWPW, FcmType.PWPW) else "dw"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def candidate_fcm_types(first_kind: str, second_kind: str) -> tuple[FcmType, ...]:
    """FCM types that can implement a ``first -> second`` convolution pair.

    A PW->DW pair has two implementations (tiled with redundancy, or
    untiled without); the other pairs have one each.  DW->DW never occurs in
    the paper's networks and is rejected.
    """
    pair = (first_kind, second_kind)
    if pair == ("dw", "pw"):
        return (FcmType.DWPW,)
    if pair == ("pw", "dw"):
        return (FcmType.PWDW, FcmType.PWDW_R)
    if pair == ("pw", "pw"):
        return (FcmType.PWPW,)
    raise UnsupportedError(f"no FCM fuses a {first_kind}->{second_kind} pair")
