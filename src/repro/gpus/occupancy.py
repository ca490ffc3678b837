"""CUDA occupancy calculator.

Occupancy -- the ratio of resident warps to the maximum the SM supports -- is the single
most important latency-hiding metric on NVIDIA GPUs, and most of the interesting
interactions between tuning parameters (block size x unroll factor x shared-memory
usage) act through it: larger tiles and deeper unrolling raise per-thread register and
shared-memory demands, which lowers the number of blocks the SM can keep resident,
which in turn reduces the hardware's ability to hide memory latency.

The calculation follows the standard CUDA occupancy rules: the number of resident
blocks per SM is the minimum of four limits (block-count limit, warp limit, register
limit, shared-memory limit), and occupancy is then resident warps over maximum warps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.core.errors import ResourceLimitError
from repro.gpus.specs import GPUSpec

__all__ = ["OccupancyResult", "OccupancyColumns", "compute_occupancy",
           "occupancy_columns"]

#: Resident-block limits in the order the minimum is taken (ties go to the first).
_LIMITS = np.array(["blocks", "warps", "registers", "shared_memory"])


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of an occupancy calculation for one launch configuration.

    Attributes
    ----------
    blocks_per_sm:
        Resident thread blocks per SM (0 when the block cannot launch at all).
    active_warps:
        Resident warps per SM.
    occupancy:
        ``active_warps / max_warps_per_sm`` in ``[0, 1]``.
    limiting_factor:
        Which resource bound the block count (``"blocks"``, ``"warps"``,
        ``"registers"``, ``"shared_memory"`` or ``"launch_bounds"``).
    warps_per_block:
        Warps needed by one block (ceil of threads / warp size).
    """

    blocks_per_sm: int
    active_warps: int
    occupancy: float
    limiting_factor: str
    warps_per_block: int


class OccupancyColumns(NamedTuple):
    """:class:`OccupancyResult` over a block: one array per field."""

    blocks_per_sm: np.ndarray
    active_warps: np.ndarray
    occupancy: np.ndarray
    limiting_factor: np.ndarray
    warps_per_block: np.ndarray

    def take(self, rows: np.ndarray) -> "OccupancyColumns":
        """The given rows."""
        return OccupancyColumns(self.blocks_per_sm[rows], self.active_warps[rows],
                                self.occupancy[rows], self.limiting_factor[rows],
                                self.warps_per_block[rows])

    def row(self, i: int) -> OccupancyResult:
        """Row ``i`` as a scalar :class:`OccupancyResult`."""
        return OccupancyResult(blocks_per_sm=int(self.blocks_per_sm[i]),
                               active_warps=int(self.active_warps[i]),
                               occupancy=float(self.occupancy[i]),
                               limiting_factor=str(self.limiting_factor[i]),
                               warps_per_block=int(self.warps_per_block[i]))


def _limit_error(gpu: GPUSpec, check: int, threads_per_block: Any,
                 shared_mem_per_block_bytes: Any) -> ResourceLimitError:
    if check == 1:
        return ResourceLimitError("thread block must contain at least one thread",
                                  resource="threads", requested=threads_per_block, limit=1)
    if check == 2:
        return ResourceLimitError(
            f"{threads_per_block} threads per block exceeds the device limit "
            f"of {gpu.max_threads_per_block}",
            resource="threads_per_block", requested=threads_per_block,
            limit=gpu.max_threads_per_block)
    return ResourceLimitError(
        f"{shared_mem_per_block_bytes / 1024:.1f} KiB shared memory per block exceeds "
        f"the device limit of {gpu.shared_mem_per_block_kb} KiB",
        resource="shared_memory", requested=shared_mem_per_block_bytes,
        limit=gpu.shared_mem_per_block_kb * 1024)


def occupancy_columns(gpu: GPUSpec, threads_per_block: Any, registers_per_thread: Any,
                      shared_mem_per_block_bytes: Any
                      ) -> tuple[OccupancyColumns, dict[int, ResourceLimitError]]:
    """Column form of :func:`compute_occupancy` over equally long arrays.

    Returns the occupancy columns and, keyed by row position, the error of every
    row that breaks a hard device limit (the other fields of such rows are
    meaningless).  The limits are checked in the scalar order -- threads, block
    size, shared memory -- and an error is built only for a row that fails one.
    """
    threads = np.asarray(threads_per_block)
    smem = np.asarray(shared_mem_per_block_bytes)
    check = np.where(threads <= 0, 1,
                     np.where(threads > gpu.max_threads_per_block, 2,
                              np.where(smem > gpu.shared_mem_per_block_kb * 1024, 3, 0)))
    failing = np.flatnonzero(check)
    errors = {i: _limit_error(gpu, c, t, s) for i, c, t, s in zip(
        failing.tolist(), check[failing].tolist(), threads[failing].tolist(),
        smem[failing].tolist())}
    # Real compilers spill to local memory instead of failing; the per-kernel
    # models apply a spill penalty.  Here we clamp so occupancy stays defined.
    registers = np.minimum(np.maximum(registers_per_thread, 1.0),
                           float(gpu.max_registers_per_thread))

    with np.errstate(divide="ignore", invalid="ignore"):
        warps_per_block = np.ceil(threads / gpu.warp_size).astype(np.int64)
        # The four CUDA limits on resident blocks per SM.
        limit_blocks = np.full(threads.shape, gpu.max_blocks_per_sm, dtype=np.int64)
        limit_warps = np.floor_divide(gpu.max_warps_per_sm, np.maximum(warps_per_block, 1))
        regs_per_block = registers * warps_per_block * gpu.warp_size
        limit_registers = np.where(
            regs_per_block > 0,
            np.floor_divide(float(gpu.registers_per_sm), regs_per_block), limit_blocks)
        limit_shared = np.where(
            smem > 0,
            np.floor_divide(float(gpu.shared_mem_per_sm_kb * 1024),
                            np.where(smem > 0, smem, 1.0)), limit_blocks)
    limits = np.stack([limit_blocks, limit_warps, limit_registers.astype(np.int64),
                       limit_shared.astype(np.int64)])
    which = limits.argmin(axis=0)
    blocks_per_sm = np.maximum(limits.min(axis=0), 0)
    active_warps = blocks_per_sm * warps_per_block
    return OccupancyColumns(
        blocks_per_sm=blocks_per_sm,
        active_warps=active_warps,
        occupancy=np.minimum(active_warps / gpu.max_warps_per_sm, 1.0),
        limiting_factor=_LIMITS[which],
        warps_per_block=warps_per_block), errors


def compute_occupancy(gpu: GPUSpec, threads_per_block: int, registers_per_thread: float,
                      shared_mem_per_block_bytes: float,
                      max_blocks_per_sm_hint: int = 0) -> OccupancyResult:
    """Compute the occupancy of a launch configuration on ``gpu``.

    The single-launch case of :func:`occupancy_columns`.

    Parameters
    ----------
    gpu:
        Target device specification.
    threads_per_block:
        Total threads in one block (product of the block dimensions).
    registers_per_thread:
        Estimated register usage per thread (the per-kernel models estimate this from
        unroll/tile factors).
    shared_mem_per_block_bytes:
        Static + dynamic shared memory requested per block.
    max_blocks_per_sm_hint:
        The ``__launch_bounds__`` / ``blocks_per_sm`` tuning parameter.  Note that the
        hint asks the compiler to *target* this many resident blocks (by limiting
        register usage); it does not limit how many blocks the hardware may keep
        resident, so it does not appear as a scheduling cap here -- its register
        effect is handled by the caller.  Zero means "no hint".

    Raises
    ------
    ResourceLimitError
        If the block can never launch on this device: too many threads per block,
        more shared memory than the per-block limit, or more registers per thread
        than the hardware cap.
    """
    columns, errors = occupancy_columns(gpu, np.array([threads_per_block]),
                                        np.array([registers_per_thread], dtype=float),
                                        np.array([shared_mem_per_block_bytes]))
    if errors:
        raise errors[0]
    return columns.row(0)
