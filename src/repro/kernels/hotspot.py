"""Hotspot benchmark (paper Sec. IV-C, Table III).

Thermal simulation of a processor die: an iterative 5-point stencil over a 2D grid of
temperatures driven by per-cell power dissipation.  BAT's version is a from-scratch
reimplementation of the Rodinia kernel that can use any thread-block shape, any amount
of work per thread (``tile_size_x/y``) and -- crucially -- *temporal tiling*
(``temporal_tiling_factor``): one kernel launch advances the stencil several time steps
by keeping an enlarged halo in shared memory, trading redundant computation for a large
reduction in DRAM traffic.

Temporal tiling is what produces the paper's most striking result for this benchmark:
the best configurations are an order of magnitude (11--12x) faster than the median,
because the kernel is memory-bound and a working temporal tile slashes traffic by the
tiling factor, while most of the search space either does not use temporal tiling or
overflows shared memory with it.  The same mechanism produces the dense cluster of
highly-performing configurations that lets random search converge quickly (Fig. 2b).
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.gpus.columns import ConfigColumns, unique_map
from repro.gpus.memory import MemoryTraffic, coalescing_efficiency
from repro.gpus.occupancy import OccupancyColumns
from repro.gpus.perfmodel import AnalyticalKernelModel, KernelLaunchConfig, ilp_factor
from repro.gpus.specs import GPUSpec
from repro.kernels.base import KernelBenchmark, Workload
from repro.kernels.reference import hotspot_reference

__all__ = ["HotspotModel", "create_benchmark", "PARAMETERS", "CONSTRAINTS"]

#: Thread-block x sizes: {1, 2, 4, 8, 16} plus every multiple of 32 up to 1024
#: (37 values, matching the count in Table III).
_BLOCK_SIZE_X = (1, 2, 4, 8, 16) + tuple(range(32, 1025, 32))

#: Tunable parameters exactly as listed in Table III of the paper.
PARAMETERS: tuple[Parameter, ...] = (
    Parameter("block_size_x", _BLOCK_SIZE_X, default=32,
              description="thread block dimension x"),
    Parameter("block_size_y", (1, 2, 4, 8, 16, 32), default=8,
              description="thread block dimension y"),
    Parameter("tile_size_x", tuple(range(1, 11)), description="outputs per thread in x"),
    Parameter("tile_size_y", tuple(range(1, 11)), description="outputs per thread in y"),
    Parameter("temporal_tiling_factor", tuple(range(1, 11)),
              description="stencil iterations fused into one kernel launch"),
    Parameter("loop_unroll_factor_t", tuple(range(1, 11)),
              description="unroll factor of the fused time loop"),
    Parameter("sh_power", (0, 1), description="cache the power input in shared memory"),
    Parameter("blocks_per_sm", (0, 1, 2, 3, 4),
              description="__launch_bounds__ occupancy hint (0 = none)"),
)

#: Constraints from the kernel's launch rules: between 32 and 1024 threads per block,
#: and the time-loop unroll factor must divide the temporal tiling factor.
CONSTRAINTS = ConstraintSet([
    "block_size_x * block_size_y >= 32",
    "block_size_x * block_size_y <= 1024",
    "temporal_tiling_factor % loop_unroll_factor_t == 0",
])


class HotspotModel(AnalyticalKernelModel):
    """Analytical performance model of the Hotspot stencil kernel."""

    #: Floating-point operations per cell per stencil step.
    FLOPS_PER_CELL = 15.0

    def __init__(self, grid_size: int, total_iterations: int):
        super().__init__("hotspot", occupancy_saturation=0.25, noise_sigma=0.018)
        self.grid_size = int(grid_size)
        self.total_iterations = int(total_iterations)

    # ------------------------------------------------------------------- helpers

    @staticmethod
    def _tile_shape(config: ConfigColumns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (config["block_size_x"] * config["tile_size_x"],
                config["block_size_y"] * config["tile_size_y"],
                config["temporal_tiling_factor"])

    # ---------------------------------------------------------------- launch shape

    def launch_config(self, config: ConfigColumns, gpu: GPUSpec) -> KernelLaunchConfig:
        bx = config["block_size_x"]
        by = config["block_size_y"]
        tx = config["tile_size_x"]
        ty = config["tile_size_y"]
        unroll_t = config["loop_unroll_factor_t"]
        sh_power = config["sh_power"]
        bpsm = config["blocks_per_sm"]

        tile_x, tile_y, ttf = self._tile_shape(config)
        grid = np.ceil(self.grid_size / tile_x) * np.ceil(self.grid_size / tile_y)
        launches = np.ceil(self.total_iterations / ttf)

        # Shared memory holds the temperature tile including the temporal halo
        # (updated in place between fused steps) and optionally the power tile.
        halo = 2 * ttf
        smem_elems = (tile_x + halo) * (tile_y + halo)
        shared_bytes = (smem_elems * 4 * (1 + sh_power)).astype(float)

        # Registers grow with per-thread outputs and with the unrolled time loop.
        registers = 18 + 2.2 * tx * ty + 1.2 * unroll_t + 1.0 * ttf

        # The launch-bounds hint caps resident blocks but lets the compiler cut
        # register usage in exchange.
        registers = np.where(
            bpsm > 0,
            np.minimum(registers, gpu.registers_per_sm / np.maximum(bpsm * bx * by, 1)),
            registers)

        return KernelLaunchConfig(
            threads_per_block=bx * by,
            grid_blocks=grid,
            registers_per_thread=registers,
            shared_mem_bytes=shared_bytes,
            blocks_per_sm_hint=bpsm,
            launches=launches,
        )

    # -------------------------------------------------------------------- work

    def flops(self, config: ConfigColumns, gpu: GPUSpec) -> np.ndarray:
        tile_x, tile_y, ttf = self._tile_shape(config)
        # Temporal tiling recomputes the halo: each fused step processes a tile grown
        # by the remaining halo, so redundant work rises with the tiling factor.
        redundancy = ((tile_x + ttf) * (tile_y + ttf)) / (tile_x * tile_y).astype(float)
        cells = float(self.grid_size) * float(self.grid_size)
        return cells * self.total_iterations * self.FLOPS_PER_CELL * redundancy

    def traffic(self, config: ConfigColumns, gpu: GPUSpec) -> MemoryTraffic:
        bx = config["block_size_x"]
        tile_x, tile_y, ttf = self._tile_shape(config)

        cells = float(self.grid_size) * float(self.grid_size)
        launches = np.ceil(self.total_iterations / ttf)
        halo = 2 * ttf
        halo_overhead = ((tile_x + halo) * (tile_y + halo)) / (tile_x * tile_y).astype(float)

        # Per launch: read temperature + power (with halo), write temperature.  Without
        # the shared-memory power cache the power grid is re-fetched on every fused
        # time step instead of once per launch.
        power_factor = np.where(config["sh_power"] != 0, 1.0, 1.3)
        reads = launches * cells * 4.0 * halo_overhead * (1.0 + power_factor)
        writes = launches * cells * 4.0

        efficiency = coalescing_efficiency(gpu, bx)
        return MemoryTraffic(read_bytes=reads, write_bytes=writes, efficiency=efficiency)

    # ----------------------------------------------------------- compute efficiency

    def compute_efficiency(self, config: ConfigColumns, gpu: GPUSpec,
                           occupancy: OccupancyColumns) -> np.ndarray:
        tx = config["tile_size_x"]
        ty = config["tile_size_y"]
        unroll_t = config["loop_unroll_factor_t"]
        bx = config["block_size_x"]

        base = 0.45  # stencil arithmetic with neighbour shuffles sustains less of peak
        ilp = ilp_factor(unroll_t, 4 if gpu.architecture == "Turing" else 8)
        work_per_thread = 1.0 + 0.04 * unique_map(math.log2, np.maximum(tx * ty, 1))
        # Very narrow blocks in x serialise the shared-memory accesses.
        narrow_penalty = np.where(bx >= 16, 1.0, 0.75)
        return base * ilp * work_per_thread * narrow_penalty


def _reference(config: Mapping[str, Any], rng, grid_size: int = 48, iterations: int = 8,
               **kwargs: Any):
    """Reference driver bound to the benchmark (small default size for tests)."""
    return hotspot_reference.run(config, rng, grid_size=grid_size, iterations=iterations,
                                 **kwargs)


def create_benchmark(grid_size: int = 4096, total_iterations: int = 60) -> KernelBenchmark:
    """Create the Hotspot benchmark instance (paper-scale default: 4096^2 grid, 60 steps)."""
    space = SearchSpace(PARAMETERS, CONSTRAINTS, name="hotspot")
    workload = Workload(
        name=f"{grid_size}x{grid_size}_{total_iterations}iters",
        sizes={"grid_size": grid_size, "total_iterations": total_iterations},
        description="Processor thermal simulation (Rodinia Hotspot, reimplemented)",
    )
    model = HotspotModel(grid_size, total_iterations)
    return KernelBenchmark(
        name="hotspot",
        display_name="Hotspot",
        space=space,
        model=model,
        workload=workload,
        reference=_reference,
        description="Iterative 5-point thermal stencil with temporal tiling",
        application_domain="thermal modeling",
        origin="Rodinia benchmark suite (re-implemented for tunability)",
        paper_table="Table III",
    )
