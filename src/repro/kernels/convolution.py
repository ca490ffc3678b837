"""Convolution benchmark (paper Sec. IV-E, Table V).

2D convolution of a large image with a dense filter, from van Werkhoven et al.'s
adaptive-tiling GPU convolution library.  Each thread block computes a tile of
``(block_size_x * tile_size_x) x (block_size_y * tile_size_y)`` output pixels from an
input region staged in shared memory (output tile plus filter halo).  ``use_padding``
pads the shared-memory rows to avoid bank conflicts when ``block_size_x`` is not a
multiple of the number of banks, and ``read_only`` routes image loads through the
read-only (texture) cache.

Convolution is the hardest benchmark to tune in the paper: the good configurations are
a small corner of the space where the shared tile fits, the halo overhead is amortised
by large tiles, the block shape keeps loads coalesced and occupancy stays high -- these
requirements pull in opposite directions, producing strong parameter interactions.
Random search consequently needs hundreds of evaluations to reach 90% of optimal
(Fig. 2d), and the regression model's R^2 is visibly lower than for the other
benchmarks (Sec. VI-F).
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.gpus.columns import ConfigColumns, unique_map
from repro.gpus.memory import (
    MemoryTraffic,
    bank_conflict_factor,
    coalescing_efficiency,
    read_only_cache_factor,
)
from repro.gpus.occupancy import OccupancyColumns
from repro.gpus.perfmodel import AnalyticalKernelModel, KernelLaunchConfig
from repro.gpus.specs import GPUSpec
from repro.kernels.base import KernelBenchmark, Workload
from repro.kernels.reference import convolution_reference

__all__ = ["ConvolutionModel", "create_benchmark", "PARAMETERS", "CONSTRAINTS"]

#: Tunable parameters exactly as listed in Table V of the paper.
PARAMETERS: tuple[Parameter, ...] = (
    Parameter("block_size_x", (1, 2, 4, 8, 16, 32, 48, 64, 80, 96, 112, 128), default=16,
              description="thread block dimension x"),
    Parameter("block_size_y", (1, 2, 4, 8, 16, 32), default=16,
              description="thread block dimension y"),
    Parameter("tile_size_x", tuple(range(1, 9)), description="output pixels per thread in x"),
    Parameter("tile_size_y", tuple(range(1, 9)), description="output pixels per thread in y"),
    Parameter("use_padding", (0, 1), description="pad shared memory to avoid bank conflicts"),
    Parameter("read_only", (0, 1), description="load the image through the read-only cache"),
)

#: Launch constraints: a full warp at minimum, the CUDA block limit at maximum.
CONSTRAINTS = ConstraintSet([
    "block_size_x * block_size_y >= 32",
    "block_size_x * block_size_y <= 1024",
])


class ConvolutionModel(AnalyticalKernelModel):
    """Analytical performance model of the adaptive-tiling 2D convolution kernel."""

    def __init__(self, image_size: int, filter_size: int):
        super().__init__("convolution", occupancy_saturation=0.50, noise_sigma=0.030)
        self.image_size = int(image_size)
        self.filter_size = int(filter_size)

    # ------------------------------------------------------------------- helpers

    def _tile_dims(self, config: ConfigColumns) -> tuple[np.ndarray, np.ndarray]:
        return (config["block_size_x"] * config["tile_size_x"],
                config["block_size_y"] * config["tile_size_y"])

    def _shared_tile_bytes(self, config: ConfigColumns) -> np.ndarray:
        tile_x, tile_y = self._tile_dims(config)
        halo = self.filter_size - 1
        pad = np.where(config["use_padding"] != 0, 1, 0)
        return ((tile_x + halo + pad) * (tile_y + halo) * 4).astype(float)

    # ---------------------------------------------------------------- launch shape

    def launch_config(self, config: ConfigColumns, gpu: GPUSpec) -> KernelLaunchConfig:
        bx = config["block_size_x"]
        by = config["block_size_y"]
        tx = config["tile_size_x"]
        ty = config["tile_size_y"]

        tile_x, tile_y = self._tile_dims(config)
        out = self.image_size - self.filter_size + 1
        grid = np.ceil(out / tile_x) * np.ceil(out / tile_y)

        # One accumulator per output pixel of the thread plus input staging registers.
        registers = 16 + 2.0 * tx * ty + 0.5 * (tx + ty)
        shared_bytes = self._shared_tile_bytes(config)

        return KernelLaunchConfig(
            threads_per_block=bx * by,
            grid_blocks=grid,
            registers_per_thread=registers,
            shared_mem_bytes=shared_bytes,
            launches=1,
        )

    # -------------------------------------------------------------------- work

    def flops(self, config: ConfigColumns, gpu: GPUSpec) -> float:
        out = self.image_size - self.filter_size + 1
        return 2.0 * float(out) * float(out) * self.filter_size * self.filter_size

    def traffic(self, config: ConfigColumns, gpu: GPUSpec) -> MemoryTraffic:
        bx = config["block_size_x"]

        tile_x, tile_y = self._tile_dims(config)
        halo = self.filter_size - 1
        out = self.image_size - self.filter_size + 1

        # Every block reads its output tile plus the halo; small tiles re-read the halo
        # many times over the whole image.
        halo_overhead = ((tile_x + halo) * (tile_y + halo)) / (tile_x * tile_y).astype(float)
        reads = float(out) * float(out) * 4.0 * halo_overhead
        reads = reads + self.filter_size * self.filter_size * 4.0
        writes = float(out) * float(out) * 4.0

        efficiency = coalescing_efficiency(gpu, bx)
        efficiency = efficiency * read_only_cache_factor(gpu, config["read_only"])
        efficiency = efficiency / bank_conflict_factor(gpu, bx, config["use_padding"])
        return MemoryTraffic(read_bytes=reads, write_bytes=writes,
                             efficiency=np.minimum(efficiency, 1.0))

    # ----------------------------------------------------------- compute efficiency

    def compute_efficiency(self, config: ConfigColumns, gpu: GPUSpec,
                           occupancy: OccupancyColumns) -> np.ndarray:
        bx = config["block_size_x"]
        by = config["block_size_y"]
        tx = config["tile_size_x"]
        ty = config["tile_size_y"]

        base = 0.52
        # Per-thread output tiles create register-level reuse of the filter and image
        # rows; the sweet spot is architecture dependent (larger on Ampere) and the
        # penalty on either side is steep -- small tiles waste the filter reuse, large
        # tiles thrash registers.  Together with the aspect-ratio and coalescing
        # requirements this makes the well-performing region a small corner of the
        # space, which is why the paper finds Convolution the hardest benchmark for
        # random search (Fig. 2d) and the hardest to model (lowest R^2).
        work = tx * ty
        best_work = 16 if gpu.architecture == "Ampere" else 8
        work_factor = np.where(
            work <= best_work,
            0.62 + 0.38 * (unique_map(math.log2, np.maximum(work, 1)) / math.log2(best_work)),
            np.maximum(1.0 - 0.10 * unique_map(math.log2, work / best_work), 0.7))

        # Wide-and-flat blocks keep warps row-aligned for the shared-memory reads;
        # tall-and-narrow blocks serialise them.  The preferred aspect ratio differs
        # between the families (Ampere's wider L1 sectors reward wider rows).
        best_aspect = 16.0 if gpu.architecture == "Ampere" else 4.0
        aspect = bx / np.maximum(by, 1)
        aspect_factor = np.maximum(
            1.0 - 0.07 * np.abs(unique_map(math.log2, np.maximum(aspect, 1e-3) / best_aspect)),
            0.60)

        # The x-tile depth controls how many consecutive pixels a thread loads at once;
        # even values vectorise into float2/float4 accesses.
        vector_factor = np.where(tx % 4 == 0, 1.04, np.where(tx % 2 == 0, 1.0, 0.93))

        # Shared-memory bank conflicts also slow the compute phase of the inner loop.
        conflict = bank_conflict_factor(gpu, bx, config["use_padding"])

        return base * work_factor * aspect_factor * vector_factor / conflict


def _reference(config: Mapping[str, Any], rng, image_size: int = 96, filter_size: int = 9,
               **kwargs: Any):
    """Reference driver bound to the benchmark (small default size for tests)."""
    return convolution_reference.run(config, rng, image_size=image_size,
                                     filter_size=filter_size, **kwargs)


def create_benchmark(image_size: int = 4096, filter_size: int = 17) -> KernelBenchmark:
    """Create the Convolution benchmark (paper-scale default: 4096^2 image, 17x17 filter)."""
    space = SearchSpace(PARAMETERS, CONSTRAINTS, name="convolution")
    workload = Workload(
        name=f"{image_size}x{image_size}_f{filter_size}",
        sizes={"image_size": image_size, "filter_size": filter_size},
        description="Dense 2D convolution with adaptive tiling (van Werkhoven et al.)",
    )
    model = ConvolutionModel(image_size, filter_size)
    return KernelBenchmark(
        name="convolution",
        display_name="Convolution",
        space=space,
        model=model,
        workload=workload,
        reference=_reference,
        description="2D image convolution with shared-memory tiling",
        application_domain="image processing / machine learning",
        origin="van Werkhoven et al. GPU convolution library",
        paper_table="Table V",
    )
