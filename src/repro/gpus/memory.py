"""Memory-hierarchy model.

The analytical kernel models express their memory behaviour as "bytes moved from DRAM"
plus a set of *efficiency* factors describing how well the access pattern uses the
hardware: coalescing, vectorised accesses, the read-only (texture) cache path, L2
reuse, and shared-memory bank conflicts.  This module centralises those factors so the
per-kernel models stay small and the calibration knobs live in one place.

Every factor is an array function: the models call them with value columns (one
NumPy array per parameter, see :mod:`repro.gpus.columns`) and get one factor per
configuration back; a plain number works too and yields a 0-d array.  Branches are
``np.where`` over both arms, so an arm must be computable on every row -- guard its
argument (``np.maximum(width, 1)``) when the other arm covers the rows it would
fail on.  ``math`` functions (``log2``, ``gcd``) go through
:func:`~repro.gpus.columns.unique_map`, which calls them once per distinct
parameter value and keeps every factor bit-identical to scalar Python; arithmetic,
``min``/``max`` and ``sqrt`` stay plain NumPy because they are IEEE-exact there.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Any

import numpy as np

from repro.gpus.columns import unique_map
from repro.gpus.specs import GPUSpec

__all__ = [
    "MemoryTraffic",
    "coalescing_efficiency",
    "vector_access_efficiency",
    "read_only_cache_factor",
    "l2_reuse_factor",
    "bank_conflict_factor",
    "dram_time_ms",
    "shared_memory_bytes",
]


@dataclass(frozen=True)
class MemoryTraffic:
    """DRAM traffic of one kernel launch, split by direction.

    Each field is a number or a column of per-configuration values.

    Attributes
    ----------
    read_bytes / write_bytes:
        Bytes moved from / to DRAM assuming perfect caching of reused data.
    efficiency:
        Combined access efficiency in ``(0, 1]``; effective bandwidth is
        ``peak * efficiency``.
    """

    read_bytes: Any
    write_bytes: Any
    efficiency: Any = 1.0

    @property
    def total_bytes(self) -> Any:
        """Total DRAM traffic in bytes."""
        return self.read_bytes + self.write_bytes


def coalescing_efficiency(gpu: GPUSpec, block_size_x: Any) -> np.ndarray:
    """Fraction of a 32-byte DRAM sector that is useful for a warp's accesses.

    Warps whose x-dimension spans at least a full warp access consecutive addresses
    and are fully coalesced.  Narrow blocks in x (the degenerate 1/2/4/8-wide blocks
    that several BAT benchmarks allow) waste most of each memory transaction.
    """
    block_size_x = np.asarray(block_size_x)
    # A warp is folded over several rows; only block_size_x consecutive elements per
    # row are useful out of a warp-wide transaction.  The floor reflects that the L2
    # still captures part of the wasted sectors for neighbouring rows.
    return np.where(block_size_x >= gpu.warp_size, 1.0,
                    np.maximum(block_size_x / gpu.warp_size, 0.125))


def vector_access_efficiency(gpu: GPUSpec, vector_width: Any) -> np.ndarray:
    """Bandwidth multiplier of vectorised loads/stores (float2/float4/...).

    Wider accesses reduce the number of memory instructions and improve achieved
    bandwidth up to the device's preferred width; widths beyond the preferred width
    increase register pressure without bandwidth benefit and are slightly penalised.
    """
    vector_width = np.asarray(vector_width)
    vector_width = np.where(vector_width <= 0, 1, vector_width)
    preferred = gpu.preferred_vector_width
    # 1 -> 0.82, preferred -> 1.0, log-shaped ramp.
    span = math.log2(preferred) if preferred > 1 else 1.0
    ramp = 0.82 + 0.18 * (unique_map(math.log2, vector_width) / span)
    # Over-wide accesses: mild penalty per doubling beyond preferred.
    over = unique_map(math.log2, vector_width / preferred)
    return np.where(vector_width <= preferred, ramp, np.maximum(1.0 - 0.06 * over, 0.7))


def read_only_cache_factor(gpu: GPUSpec, use_read_only: Any) -> np.ndarray:
    """Bandwidth multiplier for routing loads through the read-only/texture path.

    The benefit is larger on Turing (smaller, unified L1) than on Ampere (bigger L1),
    which is one of the architecture-specific effects behind the paper's portability
    asymmetries.
    """
    return np.where(np.asarray(use_read_only) != 0,
                    1.10 if gpu.architecture == "Turing" else 1.04, 1.0)


def l2_reuse_factor(gpu: GPUSpec, working_set_bytes: Any) -> np.ndarray:
    """Fraction of traffic served by DRAM after L2 reuse.

    Working sets that fit in L2 are served mostly from cache; the factor approaches a
    floor of 0.35 (DRAM still has to be touched once).  Working sets much larger than
    L2 see no reuse (factor 1.0).
    """
    working_set_bytes = np.asarray(working_set_bytes, dtype=float)
    ratio = working_set_bytes / (gpu.l2_cache_kb * 1024.0)
    with np.errstate(divide="ignore"):
        # Smooth decay of reuse as the working set overflows L2.
        overflow = np.minimum(1.0, 0.65 + 0.35 * (1.0 - 1.0 / ratio))
    return np.where(working_set_bytes <= 0, 1.0,
                    np.where(ratio <= 1.0, 0.35 + 0.30 * ratio, overflow))


def bank_conflict_factor(gpu: GPUSpec, block_size_x: Any, use_padding: Any,
                         banks: int = 32) -> np.ndarray:
    """Shared-memory slowdown factor caused by bank conflicts (>= 1).

    Mirrors the Convolution kernel's padding optimisation: when ``block_size_x`` is
    not a multiple of the number of banks, unpadded shared-memory tiles suffer
    conflicts; padding removes them at a negligible footprint cost.
    """
    block_size_x = np.asarray(block_size_x)
    # Conflict degree grows as the stride's gcd with the bank count shrinks.
    degree = banks // unique_map(lambda b: math.gcd(b, banks), block_size_x)
    conflicted = 1.0 + 0.05 * np.minimum(degree, 8)
    return np.where((np.asarray(use_padding) != 0) | (block_size_x % banks == 0),
                    1.0, conflicted)


def dram_time_ms(gpu: GPUSpec, traffic: MemoryTraffic) -> np.ndarray:
    """Time to move ``traffic`` at the achieved bandwidth, in milliseconds."""
    efficiency = np.minimum(np.maximum(traffic.efficiency, 1e-3), 1.0)
    achieved = gpu.peak_bandwidth_bytes * efficiency
    return traffic.total_bytes / achieved * 1e3


def shared_memory_bytes(elements: float, element_size: int = 4,
                        padding_elements: float = 0.0) -> float:
    """Shared-memory footprint of a tile in bytes."""
    return (elements + padding_elements) * element_size
