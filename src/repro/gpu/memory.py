"""Simulated memory hierarchy: instrumented global buffers and shared memory.

:class:`GlobalBuffer` wraps a NumPy array and charges every indexed access to
an :class:`~repro.gpu.counters.AccessCounters` instance, so the simulated
kernels cannot touch global data without the traffic being metered — the same
way Nsight Compute observes a real kernel from outside.

:class:`SharedMemory` models one SM's programmer-managed scratchpad: fixed
byte capacity, block-lifetime allocations, capacity violations raise
:class:`~repro.errors.CapacityError` (a real kernel would simply fail to
launch).  Data stored there is *not* charged as global traffic — that is the
entire point of fusion.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import CapacityError, SimulationError
from .counters import AccessCounters

__all__ = ["GlobalBuffer", "SharedMemory"]


class GlobalBuffer:
    """An instrumented global-memory tensor.

    Args:
        name: label used in error messages.
        array: backing NumPy array (owned by the buffer).
        kind: counter category ("ifm", "weights", "ofm", ...).
        counters: tally to charge accesses to.
        elem_bytes: storage bytes per element.  Defaults to the array
            itemsize; INT8 kernels pass 1 even while the functional simulator
            computes in wider dtypes.
    """

    def __init__(
        self,
        name: str,
        array: np.ndarray,
        kind: str,
        counters: AccessCounters,
        elem_bytes: int | None = None,
    ) -> None:
        self.name = name
        self._array = array
        self.kind = kind
        self._counters = counters
        self._elem_bytes = int(elem_bytes if elem_bytes is not None else array.itemsize)
        if self._elem_bytes <= 0:
            raise SimulationError(f"{name}: non-positive element size")

    # ---- properties -----------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def dtype(self) -> np.dtype:
        return self._array.dtype

    @property
    def array(self) -> np.ndarray:
        """Un-instrumented view for result verification after the launch."""
        return self._array

    # ---- instrumented access -----------------------------------------------------
    def load(self, index: Any) -> np.ndarray:
        """Read a slice from global memory, charging the counters."""
        view = self._array[index]
        self._counters.read(self.kind, view.size * self._elem_bytes)
        return view

    def store(self, index: Any, values: np.ndarray) -> None:
        """Write a slice to global memory, charging the counters."""
        target = self._array[index]
        if target.shape != np.shape(values):
            raise SimulationError(
                f"{self.name}: store shape {np.shape(values)} != slot {target.shape}"
            )
        self._array[index] = values
        self._counters.write(self.kind, target.size * self._elem_bytes)


class SharedMemory:
    """One SM's shared-memory scratchpad with block lifetime.

    Allocations model the paper's commBuffer and prefetched weight tiles.
    Traffic through :meth:`write` / :meth:`read` is charged to the counters'
    ``shared_bytes`` (used by the energy model), never to global memory.
    """

    def __init__(self, capacity_bytes: int, counters: AccessCounters) -> None:
        if capacity_bytes <= 0:
            raise CapacityError(f"non-positive shared capacity {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._counters = counters
        self._used = 0
        self._peak = 0
        self._slots: dict[str, np.ndarray] = {}
        self._slot_bytes: dict[str, int] = {}

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def peak_bytes(self) -> int:
        """High-water mark across the block's lifetime."""
        return self._peak

    def alloc(self, name: str, shape: tuple[int, ...], dtype: np.dtype, elem_bytes: int) -> np.ndarray:
        """Reserve a named slot; raises :class:`CapacityError` on overflow."""
        if name in self._slots:
            raise SimulationError(f"shared slot {name!r} already allocated")
        nbytes = int(np.prod(shape)) * int(elem_bytes)
        if self._used + nbytes > self.capacity_bytes:
            raise CapacityError(
                f"shared memory overflow: {self._used} + {nbytes} "
                f"> {self.capacity_bytes} bytes (slot {name!r})"
            )
        buf = np.zeros(shape, dtype=dtype)
        self._slots[name] = buf
        self._slot_bytes[name] = nbytes
        self._used += nbytes
        self._peak = max(self._peak, self._used)
        return buf

    def write(self, name: str, values: np.ndarray) -> None:
        """Store into a slot, charging shared traffic (commBuffer writes)."""
        slot = self._require(name)
        slot[...] = values
        self._counters.smem(self._slot_bytes[name])

    def read(self, name: str) -> np.ndarray:
        """Load from a slot, charging shared traffic (commBuffer reads)."""
        slot = self._require(name)
        self._counters.smem(self._slot_bytes[name])
        return slot

    def free(self, name: str) -> None:
        """Release a slot (block-scoped buffers die with the block)."""
        self._require(name)
        self._used -= self._slot_bytes.pop(name)
        del self._slots[name]

    def _require(self, name: str) -> np.ndarray:
        try:
            return self._slots[name]
        except KeyError:
            raise SimulationError(f"shared slot {name!r} not allocated") from None
