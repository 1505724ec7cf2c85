"""Access counters — the simulator's equivalent of Nsight Compute metrics.

Every simulated kernel records the global-memory bytes it moves, broken down
by direction (read/write) and by tensor kind (ifm, weights, ofm, im2col...),
plus compute work (MACs, including redundant ones) and shared-memory traffic.
The paper's figures are derived from exactly these quantities: Fig. 8 splits
global-memory time into loads and stores; Table II reports redundant-compute
ratios; Table III classifies kernels via the compute/memory balance.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["AccessCounters"]


@dataclass
class AccessCounters:
    """Mutable tally of one (or several aggregated) kernel launches."""

    #: bytes read from global memory, keyed by tensor kind.
    global_reads: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: bytes written to global memory, keyed by tensor kind.
    global_writes: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: bytes moved through shared memory (both directions).
    shared_bytes: int = 0
    #: re-read traffic annotations: (backing tensor bytes, re-read bytes).
    #: A re-read entry whose backing tensor fits in L2 is served from L2
    #: rather than DRAM by the roofline (see :mod:`repro.gpu.roofline`).
    rereads: list[tuple[int, int]] = field(default_factory=list)
    #: useful multiply-accumulates performed.
    macs: int = 0
    #: redundant multiply-accumulates (recomputed intermediate halos).
    redundant_macs: int = 0
    #: number of kernel launches aggregated into this counter.
    kernel_launches: int = 0

    # ---- recording -----------------------------------------------------------
    def read(self, kind: str, nbytes: int) -> None:
        """Record a global-memory load."""
        self.global_reads[kind] += int(nbytes)

    def write(self, kind: str, nbytes: int) -> None:
        """Record a global-memory store."""
        self.global_writes[kind] += int(nbytes)

    def smem(self, nbytes: int) -> None:
        """Record shared-memory traffic (commBuffer reads/writes)."""
        self.shared_bytes += int(nbytes)

    def compute(self, macs: int, redundant: int = 0) -> None:
        """Record MACs; ``redundant`` is the subset recomputed due to fusion."""
        self.macs += int(macs)
        self.redundant_macs += int(redundant)

    def reread(self, tensor_bytes: int, nbytes: int) -> None:
        """Annotate ``nbytes`` of already-counted reads as re-reads of a
        ``tensor_bytes``-sized tensor (candidate for L2 absorption)."""
        if nbytes > 0:
            self.rereads.append((int(tensor_bytes), int(nbytes)))

    def l2_absorbable_bytes(self, l2_capacity_bytes: int) -> int:
        """Re-read bytes whose backing tensor fits in (80% of) L2."""
        budget = int(0.8 * l2_capacity_bytes)
        return sum(b for t, b in self.rereads if t <= budget)

    # ---- aggregation -----------------------------------------------------------
    def batched(self, batch: int, weight_bytes: int = 0) -> "AccessCounters":
        """Counters of the same grid launched once over ``batch`` images.

        A batched kernel keeps the launch count (one grid covers the whole
        batch) while per-image work — traffic, MACs, shared-memory movement —
        scales linearly.  ``weight_bytes`` marks the kernel's weight tensors:
        ``batch - 1`` re-streams of them across the batch are annotated as
        re-reads so the roofline serves them from L2 (DW/PW weight tensors are
        tiny), which is the traffic amortization batching buys on real GPUs.
        GMA totals — the paper's metric, which counts kernel-issued accesses —
        still scale with the batch, matching the per-launch convention used
        everywhere else in the simulator.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        out = AccessCounters()
        for k, v in self.global_reads.items():
            out.global_reads[k] = v * batch
        for k, v in self.global_writes.items():
            out.global_writes[k] = v * batch
        out.shared_bytes = self.shared_bytes * batch
        out.macs = self.macs * batch
        out.redundant_macs = self.redundant_macs * batch
        out.kernel_launches = self.kernel_launches
        out.rereads = [(t, b * batch) for t, b in self.rereads]
        if batch > 1 and weight_bytes > 0:
            out.reread(weight_bytes, (batch - 1) * weight_bytes)
        return out

    def merge(self, other: "AccessCounters") -> "AccessCounters":
        """Accumulate another counter into this one (returns self)."""
        for k, v in other.global_reads.items():
            self.global_reads[k] += v
        for k, v in other.global_writes.items():
            self.global_writes[k] += v
        self.shared_bytes += other.shared_bytes
        self.macs += other.macs
        self.redundant_macs += other.redundant_macs
        self.kernel_launches += other.kernel_launches
        self.rereads.extend(other.rereads)
        return self

    # ---- summaries ------------------------------------------------------------
    @property
    def read_bytes(self) -> int:
        """Total global-memory bytes loaded."""
        return sum(self.global_reads.values())

    @property
    def write_bytes(self) -> int:
        """Total global-memory bytes stored."""
        return sum(self.global_writes.values())

    @property
    def total_bytes(self) -> int:
        """Total global-memory traffic — the paper's GMA metric, in bytes."""
        return self.read_bytes + self.write_bytes

    @property
    def total_macs(self) -> int:
        """All MACs executed, useful plus redundant."""
        return self.macs + self.redundant_macs

    @property
    def redundancy_ratio(self) -> float:
        """Fraction of executed MACs that are redundant (paper Table II rows)."""
        total = self.total_macs
        return self.redundant_macs / total if total else 0.0

    def snapshot(self) -> dict[str, float]:
        """Plain-dict summary for reports and tests."""
        return {
            "read_bytes": self.read_bytes,
            "write_bytes": self.write_bytes,
            "total_bytes": self.total_bytes,
            "shared_bytes": self.shared_bytes,
            "macs": self.macs,
            "redundant_macs": self.redundant_macs,
            "redundancy_ratio": self.redundancy_ratio,
            "kernel_launches": self.kernel_launches,
        }
