"""Pnpoly benchmark (paper Sec. IV-D, Table IV).

Point-in-polygon classification of a massive LiDAR point cloud against a query polygon,
the GPU kernel of a geospatial database operator (Goncalves et al.).  Each thread
classifies ``tile_size`` points with the crossing-number algorithm; the
``between_method`` and ``use_method`` parameters select between algebraically
equivalent formulations of the edge-straddling test and of the parity accumulation,
which differ in branch divergence and instruction mix.

The search space is the smallest in the suite (4 092 configurations, no static
constraints -- Table VIII lists Cardinality == Constrained), which is why the paper can
afford exhaustive evaluation and the fitness-flow-graph centrality analysis for it.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.gpus.columns import ConfigColumns, unique_map
from repro.gpus.memory import MemoryTraffic
from repro.gpus.occupancy import OccupancyColumns
from repro.gpus.perfmodel import AnalyticalKernelModel, KernelLaunchConfig
from repro.gpus.specs import GPUSpec
from repro.kernels.base import KernelBenchmark, Workload
from repro.kernels.reference import pnpoly_reference

__all__ = ["PnpolyModel", "create_benchmark", "PARAMETERS", "CONSTRAINTS"]

#: Thread-block x sizes: multiples of 32 (31 values, matching the count in Table IV).
_BLOCK_SIZE_X = tuple(range(32, 32 * 32, 32))

#: Per-thread tile sizes: 1 plus the even numbers 2..20 (11 values).
_TILE_SIZE = (1,) + tuple(range(2, 21, 2))

#: Tunable parameters exactly as listed in Table IV of the paper.
PARAMETERS: tuple[Parameter, ...] = (
    Parameter("block_size_x", _BLOCK_SIZE_X, default=256, description="threads per block"),
    Parameter("tile_size", _TILE_SIZE, description="points processed per thread"),
    Parameter("between_method", (0, 1, 2, 3),
              description="algorithm variant of the edge-straddling test"),
    Parameter("use_method", (0, 1, 2),
              description="algorithm variant of the inside/outside accumulation"),
)

#: The Pnpoly kernel has no static constraints (Table VIII: Constrained == Cardinality).
CONSTRAINTS = ConstraintSet([])


class PnpolyModel(AnalyticalKernelModel):
    """Analytical performance model of the point-in-polygon kernel.

    The kernel loops over all polygon vertices for every point, so it is compute-bound
    with a heavily branch-dependent inner loop.  The method selectors change the
    branch-divergence behaviour, and they interact with the architecture family:
    Turing's independent integer pipe favours the predicated/bitwise variants less
    than Ampere does, which is one of the effects behind the poor cross-family
    portability the paper reports for this benchmark (Fig. 5b).
    """

    #: Floating-point/integer operations per point-vertex test.
    OPS_PER_EDGE = 9.0

    def __init__(self, num_points: int, num_vertices: int):
        super().__init__("pnpoly", occupancy_saturation=0.85, noise_sigma=0.015)
        self.num_points = int(num_points)
        self.num_vertices = int(num_vertices)

    # ---------------------------------------------------------------- launch shape

    def launch_config(self, config: ConfigColumns, gpu: GPUSpec) -> KernelLaunchConfig:
        block = config["block_size_x"]
        tile = config["tile_size"]

        grid = np.ceil(self.num_points / (block * tile))
        # Each in-flight point needs its coordinates and a parity/crossing register;
        # the counting variant (use_method == 1) keeps an extra integer alive.
        registers = 20 + 2.4 * tile + np.where(config["use_method"] == 1, 2.0, 0.0)
        # The polygon vertices are staged once per block in shared memory.
        shared_bytes = float(self.num_vertices * 2 * 4)

        return KernelLaunchConfig(
            threads_per_block=block,
            grid_blocks=grid,
            registers_per_thread=registers,
            shared_mem_bytes=shared_bytes,
            launches=1,
        )

    # -------------------------------------------------------------------- work

    def flops(self, config: ConfigColumns, gpu: GPUSpec) -> float:
        return self.OPS_PER_EDGE * float(self.num_points) * float(self.num_vertices)

    def traffic(self, config: ConfigColumns, gpu: GPUSpec) -> MemoryTraffic:
        # Points are read once (two float coordinates) and a boolean/int result written.
        reads = float(self.num_points) * 8.0 + float(self.num_vertices) * 8.0
        writes = float(self.num_points) * 4.0
        return MemoryTraffic(read_bytes=reads, write_bytes=writes, efficiency=1.0)

    # ----------------------------------------------------------- compute efficiency

    def compute_efficiency(self, config: ConfigColumns, gpu: GPUSpec,
                           occupancy: OccupancyColumns) -> np.ndarray:
        tile = config["tile_size"]

        base = 0.50

        # Instruction-mix / divergence cost of the edge-straddling variants.  The
        # multiplicative variant (2) is branch-free and maps well onto Ampere's FMA
        # pipes; the comparison variants lean on the integer/predicate path that
        # Turing dedicates more resources to.  The spread between the best and worst
        # variant is substantial (the inner loop is nothing but this test), which is
        # what gives the benchmark its ~1.5x tuning headroom despite having only four
        # parameters.
        if gpu.architecture == "Ampere":
            between_factors, use_factors = [0.84, 0.78, 1.00, 0.72], [0.95, 0.86, 1.00]
        else:
            between_factors, use_factors = [1.00, 0.92, 0.82, 0.76], [1.00, 0.94, 0.88]
        between_factor = np.array(between_factors)[config["between_method"]]
        use_factor = np.array(use_factors)[config["use_method"]]

        # More points per thread amortise the per-point setup, with a sweet spot that
        # is architecture dependent (deeper batches help Ampere's dual-issue pipes).
        best_tile = 12 if gpu.architecture == "Ampere" else 6
        tile_factor = np.where(
            tile <= best_tile,
            0.86 + 0.14 * (unique_map(math.log2, np.maximum(tile, 1)) / math.log2(best_tile)),
            np.maximum(1.0 - 0.05 * unique_map(math.log2, tile / best_tile), 0.85))

        return base * between_factor * use_factor * tile_factor


def _reference(config: Mapping[str, Any], rng, num_points: int = 2048,
               num_vertices: int = 24, **kwargs: Any):
    """Reference driver bound to the benchmark (small default size for tests)."""
    return pnpoly_reference.run(config, rng, num_points=num_points,
                                num_vertices=num_vertices, **kwargs)


def create_benchmark(num_points: int = 20_000_000, num_vertices: int = 600) -> KernelBenchmark:
    """Create the Pnpoly benchmark instance (paper-scale default: 2e7 points, 600 vertices)."""
    space = SearchSpace(PARAMETERS, CONSTRAINTS, name="pnpoly")
    workload = Workload(
        name=f"{num_points}pts_{num_vertices}verts",
        sizes={"num_points": num_points, "num_vertices": num_vertices},
        description="Point-in-polygon query of a LiDAR point cloud (geospatial database operator)",
    )
    model = PnpolyModel(num_points, num_vertices)
    return KernelBenchmark(
        name="pnpoly",
        display_name="PnPoly",
        space=space,
        model=model,
        workload=workload,
        reference=_reference,
        description="Crossing-number point-in-polygon classification",
        application_domain="geospatial information systems",
        origin="Goncalves et al. spatial column-store",
        paper_table="Table IV",
    )
