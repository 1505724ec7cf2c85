"""Simulated GPU substrate: specs, memory hierarchy, launch engine, roofline, energy."""

from .counters import AccessCounters
from .energy import EnergyBreakdown, energy_of
from .executor import LaunchStats, launch
from .fastpath import DEFAULT_ENGINE, ENGINES, resolve_engine
from .memory import GlobalBuffer, SharedMemory
from .roofline import KernelTiming, time_kernel
from .specs import ALL_GPUS, GTX1660, ORIN, RTX_A4000, GpuSpec, gpu_by_name

__all__ = [
    "AccessCounters",
    "EnergyBreakdown",
    "energy_of",
    "LaunchStats",
    "launch",
    "DEFAULT_ENGINE",
    "ENGINES",
    "resolve_engine",
    "GlobalBuffer",
    "SharedMemory",
    "KernelTiming",
    "time_kernel",
    "ALL_GPUS",
    "GTX1660",
    "ORIN",
    "RTX_A4000",
    "GpuSpec",
    "gpu_by_name",
]
