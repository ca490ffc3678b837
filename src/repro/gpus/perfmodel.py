"""Base analytical kernel performance model.

Every BAT benchmark in :mod:`repro.kernels` provides a subclass of
:class:`AnalyticalKernelModel` that describes, for a block of configurations:

* the *launch shape* (threads per block, number of blocks, per-thread registers,
  per-block shared memory) -- consumed by the occupancy calculator;
* the *work* (floating-point operations) and the *DRAM traffic* (bytes, with access
  efficiency) -- consumed by a roofline-style combiner;
* kernel-specific *efficiency factors* (divergence, instruction mix, software caching).

The combiner in :meth:`AnalyticalKernelModel.compose` turns those ingredients into a
simulated runtime.  It is deliberately a *latency-aware roofline*: at full occupancy
compute and memory phases overlap (time = max of the two), while at low occupancy the
hardware cannot hide latency and the phases serialise (time tends to their sum).  Two
additional first-order GPU effects are modelled because several tuning parameters act
through them: the *tail effect* (the last wave of blocks underutilises the SMs when the
grid is small) and *register spilling* (configurations whose estimated register demand
exceeds the hardware cap pay a local-memory penalty).

Column model
------------
The model has one implementation, over value columns.  Every hook receives a
:class:`~repro.gpus.columns.ConfigColumns` block -- ``config["tile_size_x"]`` is an
array with one entry per configuration -- and returns numbers or arrays of the same
length (a per-problem constant such as the total FLOP count may stay a number).
:meth:`AnalyticalKernelModel.estimate_columns` evaluates a whole block in one pass;
the scalar :meth:`~AnalyticalKernelModel.estimate`, :meth:`~AnalyticalKernelModel.time_ms`
and :meth:`~AnalyticalKernelModel.occupancy` are its one-row case.  Writing a hook:

* a branch is ``np.where(cond, a, b)`` with both arms computed on every row, so an
  arm must not raise on rows the other arm covers (guard with ``np.maximum(x, 1)``);
* a lookup table ``{0: 0.85, 1: 0.93}[x]`` is ``np.array([0.85, 0.93])[x]``;
* Python's float ``//`` is ``np.floor_divide``; ``math.ceil(a / b)`` is
  ``np.ceil(a / b)``; ``+ - * /``, ``min``/``max`` and ``sqrt`` are IEEE-exact in
  NumPy and need nothing else;
* every other ``math`` call and every ``**`` goes through
  :func:`~repro.gpus.columns.unique_map`, which applies the Python function once
  per distinct argument.  That keeps results bit-identical to scalar Python
  (NumPy's ``log2``/``power`` may differ in the last ulp) at the cost of a few
  calls per block, because tuning parameters take few distinct values.

Launches that break a device limit are found by one mask in the launch stage
(:meth:`AnalyticalKernelModel.launch_columns`); their
:class:`~repro.core.errors.ResourceLimitError` messages are formatted for the
failing rows only, and :meth:`compose` never sees those rows.

The absolute times produced are approximations -- the reproduction does not claim
nanosecond fidelity -- but the *relative* structure (which parameters matter, how they
interact, how optima move between architectures) follows from the same mechanisms that
drive real hardware, which is what the paper's analyses measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, NamedTuple

import numpy as np

from repro.core.errors import ResourceLimitError
from repro.gpus.columns import ConfigColumns, as_column, unique_map
from repro.gpus.memory import MemoryTraffic, dram_time_ms
from repro.gpus.noise import config_noises
from repro.gpus.occupancy import OccupancyColumns, OccupancyResult, occupancy_columns
from repro.gpus.specs import GPUSpec
from repro.io.columnar import encode_sparse_failure_codes

__all__ = [
    "KernelLaunchConfig",
    "LaunchColumns",
    "ModelEstimate",
    "ModelColumns",
    "AnalyticalKernelModel",
    "occupancy_throughput_factor",
    "ilp_factor",
    "tail_effect_factor",
]


@dataclass(frozen=True)
class KernelLaunchConfig:
    """Launch shape of one kernel invocation, or a column of them.

    Each field is a number or an array with one entry per configuration of a block.

    Attributes
    ----------
    threads_per_block:
        Total threads per block (product of the block dimensions).
    grid_blocks:
        Total number of thread blocks launched.
    registers_per_thread:
        Estimated register demand per thread.
    shared_mem_bytes:
        Shared memory requested per block, in bytes.
    blocks_per_sm_hint:
        Value of a ``__launch_bounds__``-style tuning parameter (0 = no hint).
    launches:
        Number of back-to-back kernel launches needed for the whole problem (e.g.
        Hotspot performs ``total_iterations / temporal_tiling_factor`` launches).
    """

    threads_per_block: Any
    grid_blocks: Any
    registers_per_thread: Any
    shared_mem_bytes: Any
    blocks_per_sm_hint: Any = 0
    launches: Any = 1

    def columns(self, n: int) -> "KernelLaunchConfig":
        """Every field as an array of length ``n``."""
        return KernelLaunchConfig(**{f.name: as_column(getattr(self, f.name), n)
                                     for f in fields(self)})

    def take(self, rows: np.ndarray) -> "KernelLaunchConfig":
        """The given rows of a column launch."""
        return KernelLaunchConfig(**{f.name: getattr(self, f.name)[rows]
                                     for f in fields(self)})

    def row(self, i: int) -> "KernelLaunchConfig":
        """Row ``i`` of a column launch, as plain numbers."""
        return KernelLaunchConfig(
            threads_per_block=int(self.threads_per_block[i]),
            grid_blocks=int(self.grid_blocks[i]),
            registers_per_thread=float(self.registers_per_thread[i]),
            shared_mem_bytes=float(self.shared_mem_bytes[i]),
            blocks_per_sm_hint=int(self.blocks_per_sm_hint[i]),
            launches=int(self.launches[i]))


@dataclass
class ModelEstimate:
    """Full breakdown of one simulated measurement.

    The analysis layer only needs :attr:`time_ms`, but the breakdown is kept for the
    ablation benchmarks and for debugging model calibration.
    """

    time_ms: float
    compute_time_ms: float
    memory_time_ms: float
    occupancy: OccupancyResult
    launch: KernelLaunchConfig
    factors: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable breakdown."""
        return {
            "time_ms": self.time_ms,
            "compute_time_ms": self.compute_time_ms,
            "memory_time_ms": self.memory_time_ms,
            "occupancy": self.occupancy.occupancy,
            "limiting_factor": self.occupancy.limiting_factor,
            "threads_per_block": self.launch.threads_per_block,
            "grid_blocks": self.launch.grid_blocks,
            "factors": dict(self.factors),
        }


class LaunchColumns(NamedTuple):
    """Launch stage of a block: shape, spill and occupancy of every row.

    ``errors`` maps the row position of every configuration that cannot launch to
    its :class:`~repro.core.errors.ResourceLimitError`; it is the one launchability
    rule that validity checks and measurements share.
    """

    launch: KernelLaunchConfig
    spill_fraction: np.ndarray
    occupancy: OccupancyColumns
    errors: dict[int, ResourceLimitError]

    def launchable(self) -> np.ndarray:
        """Boolean mask of the rows that can launch."""
        mask = np.ones(len(self.spill_fraction), dtype=bool)
        mask[list(self.errors)] = False
        return mask


class ModelColumns(NamedTuple):
    """Simulated measurements of a block (:meth:`AnalyticalKernelModel.estimate_columns`).

    ``time_ms``, ``compute_time_ms``, ``memory_time_ms`` and ``factors`` cover the
    launchable rows, at the positions ``rows``; ``stage`` covers every row.
    """

    stage: LaunchColumns
    rows: np.ndarray
    time_ms: np.ndarray
    compute_time_ms: np.ndarray
    memory_time_ms: np.ndarray
    factors: dict[str, np.ndarray]

    def cache_columns(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """``(values, codes, errors)`` of the block: the columns campaign caches store.

        Launchable rows are valid with the empty error string; every other row holds
        ``inf`` and its launch error, interned as
        :func:`repro.io.columnar.encode_failure_codes` interns the same rows.
        """
        n = len(self.stage.spill_fraction)
        values = np.full(n, math.inf)
        values[self.rows] = self.time_ms
        codes, errors = encode_sparse_failure_codes(
            n, {row: str(error) for row, error in self.stage.errors.items()})
        return values, codes, errors

    def estimate(self, i: int = 0) -> ModelEstimate:
        """Row ``i`` as a :class:`ModelEstimate` (raises if it cannot launch)."""
        if i in self.stage.errors:
            raise self.stage.errors[i]
        k = int(np.searchsorted(self.rows, i))
        return ModelEstimate(
            time_ms=float(self.time_ms[k]),
            compute_time_ms=float(self.compute_time_ms[k]),
            memory_time_ms=float(self.memory_time_ms[k]),
            occupancy=self.stage.occupancy.row(i),
            launch=self.stage.launch.row(i),
            factors={name: float(values[k]) for name, values in self.factors.items()})


# ----------------------------------------------------------------------- helper curves


def occupancy_throughput_factor(occupancy: Any, saturation: float) -> np.ndarray:
    """Fraction of peak throughput sustained at a given occupancy.

    GPUs reach full throughput well below 100% occupancy; ``saturation`` is the
    occupancy at which the curve flattens (lower for compute-bound kernels with high
    ILP, higher for latency/memory-bound kernels).  Below saturation the curve is a
    smooth concave ramp rather than a straight line, matching measured behaviour.
    """
    saturation = min(max(saturation, 1e-3), 1.0)
    x = np.minimum(np.maximum(occupancy, 0.0), 1.0) / saturation
    # Smooth ramp: sqrt-shaped so the first warps contribute the most.
    return np.where(x >= 1.0, 1.0, np.maximum(np.sqrt(x) * (0.55 + 0.45 * x), 0.02))


def ilp_factor(unroll: Any, best_unroll: int, falloff: float = 0.03) -> np.ndarray:
    """Instruction-level-parallelism benefit of partial loop unrolling.

    Benefit grows logarithmically up to ``best_unroll`` and then degrades gently
    (instruction-cache pressure, scheduler pressure).  ``unroll=0`` means "compiler
    decides" and is treated as a modest default benefit.
    """
    unroll = np.asarray(unroll)
    best_unroll = max(best_unroll, 1)
    positive = np.maximum(unroll, 1)
    span = math.log2(best_unroll) if best_unroll > 1 else 1.0
    ramp = 0.80 + 0.20 * (unique_map(math.log2, positive) / span)
    over = unique_map(math.log2, positive / best_unroll)
    return np.where(unroll <= 0, 0.92,
                    np.where(unroll <= best_unroll, ramp,
                             np.maximum(1.0 - falloff * over, 0.75)))


def tail_effect_factor(gpu: GPUSpec, grid_blocks: Any, blocks_per_sm: Any) -> np.ndarray:
    """SM utilisation of the block schedule in ``(0, 1]``.

    When the grid has fewer blocks than the device can keep resident -- or the last
    wave is only partially full -- part of the machine idles.  The factor is the
    fraction of resident-block slots doing useful work averaged over waves.
    """
    grid_blocks = np.asarray(grid_blocks)
    concurrent = gpu.sm_count * np.maximum(blocks_per_sm, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        waves = np.ceil(grid_blocks / concurrent)
        used = np.minimum(grid_blocks / (waves * concurrent), 1.0)
    return np.where(grid_blocks <= 0, 1e-3, used)


# -------------------------------------------------------------------------- base model


class AnalyticalKernelModel:
    """Base class of the per-kernel analytical models.

    Subclasses implement the column hooks :meth:`launch_config`, :meth:`flops`,
    :meth:`traffic`, :meth:`compute_efficiency` and optionally
    :meth:`extra_time_ms` (see the module docstring for how to write one), and
    inherit the roofline combiner plus the noise model.

    Parameters
    ----------
    name:
        Benchmark name, used for noise seeding and reports.
    occupancy_saturation:
        Occupancy at which the kernel reaches full throughput (kernel-specific
        calibration; compute-dense kernels saturate earlier).
    noise_sigma:
        Standard deviation of the persistent per-configuration lognormal model error.
    """

    def __init__(self, name: str, occupancy_saturation: float = 0.45,
                 noise_sigma: float = 0.015):
        self.name = name
        self.occupancy_saturation = occupancy_saturation
        self.noise_sigma = noise_sigma

    # ----------------------------------------------------- subclass responsibilities

    def launch_config(self, config: ConfigColumns, gpu: GPUSpec) -> KernelLaunchConfig:
        """Launch shape of every configuration of the block on ``gpu``."""
        raise NotImplementedError

    def flops(self, config: ConfigColumns, gpu: GPUSpec) -> Any:
        """Total floating-point operations of the whole problem, per configuration."""
        raise NotImplementedError

    def traffic(self, config: ConfigColumns, gpu: GPUSpec) -> MemoryTraffic:
        """DRAM traffic (bytes + access efficiency) of the whole problem, per configuration."""
        raise NotImplementedError

    def compute_efficiency(self, config: ConfigColumns, gpu: GPUSpec,
                           occupancy: OccupancyColumns) -> Any:
        """Fraction of peak FLOP/s the instruction stream can sustain at full occupancy."""
        return 1.0

    def extra_time_ms(self, config: ConfigColumns, gpu: GPUSpec,
                      launch: KernelLaunchConfig) -> Any:
        """Additional fixed time (host-side work, extra launches); default none."""
        return 0.0

    # ------------------------------------------------------------------ composition

    def _effective_registers(self, gpu: GPUSpec,
                             launch: KernelLaunchConfig) -> tuple[np.ndarray, np.ndarray]:
        """Registers per thread after the compiler's launch-feasibility cap.

        Real compilers never emit a kernel that cannot launch because of register
        demand: ``nvcc`` caps the per-thread register count so that at least one block
        fits on an SM (and honours ``__launch_bounds__``) and spills the rest to local
        memory.  Returns ``(effective_registers, spill_fraction)`` columns where the
        spill fraction is the relative amount of demand that had to be spilled.
        """
        demanded = np.maximum(launch.registers_per_thread, 1.0)
        threads = launch.threads_per_block
        hint = launch.blocks_per_sm_hint
        # Hardware cap per thread plus "one block must fit" cap.
        cap = np.minimum(float(gpu.max_registers_per_thread),
                         gpu.registers_per_sm / np.maximum(threads, 1))
        cap = np.where(hint > 0,
                       np.minimum(cap, gpu.registers_per_sm / np.maximum(hint * threads, 1)),
                       cap)
        cap = np.maximum(cap, 16.0)  # the ABI always grants a handful of registers
        fits = demanded <= cap
        return (np.where(fits, demanded, cap),
                np.where(fits, 0.0, (demanded - cap) / demanded))

    def launch_columns(self, config: ConfigColumns, gpu: GPUSpec) -> LaunchColumns:
        """Launch shape, spill and occupancy of a block, and which rows cannot launch.

        A row cannot launch when it breaks a hard device limit (propagated from
        the occupancy calculator) or when no single block stays resident.
        """
        launch = self.launch_config(config, gpu).columns(config.n)
        registers, spill_fraction = self._effective_registers(gpu, launch)
        occ, errors = occupancy_columns(gpu, launch.threads_per_block, registers,
                                        launch.shared_mem_bytes)
        stranded = np.flatnonzero(occ.blocks_per_sm <= 0)
        for i, limit in zip(stranded.tolist(), occ.limiting_factor[stranded].tolist()):
            errors.setdefault(i, ResourceLimitError(
                f"configuration cannot keep a single block resident on {gpu.name}",
                resource=limit))
        return LaunchColumns(launch, spill_fraction, occ, errors)

    def estimate_columns(self, config: ConfigColumns, gpu: GPUSpec,
                         with_noise: bool = True) -> ModelColumns:
        """Simulated measurements of every configuration of a block, in one pass."""
        stage = self.launch_columns(config, gpu)
        rows = np.flatnonzero(stage.launchable())
        time_ms, compute_time_ms, memory_time_ms, factors = self.compose(
            config.take(rows), gpu, stage.launch.take(rows), stage.occupancy.take(rows),
            with_noise=with_noise, spill_fraction=stage.spill_fraction[rows])
        n = len(rows)
        return ModelColumns(stage, rows, as_column(time_ms, n),
                            as_column(compute_time_ms, n), as_column(memory_time_ms, n),
                            {name: as_column(values, n) for name, values in factors.items()})

    def occupancy(self, config: Mapping[str, Any], gpu: GPUSpec) -> OccupancyResult:
        """Occupancy of ``config`` on ``gpu`` (raises ResourceLimitError if unlaunchable)."""
        stage = self.launch_columns(ConfigColumns.from_configs([config]), gpu)
        if stage.errors:
            raise stage.errors[0]
        return stage.occupancy.row(0)

    def estimate(self, config: Mapping[str, Any], gpu: GPUSpec,
                 with_noise: bool = True) -> ModelEstimate:
        """Full simulated measurement of ``config`` on ``gpu`` (a block of one).

        Raises
        ------
        ResourceLimitError
            If the configuration cannot launch on the device (propagated from the
            occupancy calculator); callers treat this as an invalid configuration.
        """
        return self.estimate_columns(ConfigColumns.from_configs([config]), gpu,
                                     with_noise=with_noise).estimate(0)

    def compose(self, config: ConfigColumns, gpu: GPUSpec, launch: KernelLaunchConfig,
                occ: OccupancyColumns, with_noise: bool = True,
                spill_fraction: Any = 0.0
                ) -> tuple[Any, Any, Any, dict[str, Any]]:
        """Combine work, traffic and occupancy into runtime columns.

        Returns ``(time_ms, compute_time_ms, memory_time_ms, factors)`` for the
        (launchable) rows of the block.
        """
        flops = self.flops(config, gpu)
        traffic = self.traffic(config, gpu)
        compute_eff = np.maximum(
            np.minimum(self.compute_efficiency(config, gpu, occ), 1.0), 1e-3)

        occ_factor = occupancy_throughput_factor(occ.occupancy, self.occupancy_saturation)
        tail = tail_effect_factor(gpu, launch.grid_blocks, occ.blocks_per_sm)

        # Register spilling: demand the compiler could not fit goes to local memory,
        # costing extra instructions and extra traffic on every access.
        spill_factor = 1.0 + 1.2 * np.maximum(spill_fraction, 0.0)

        sustained_flops = gpu.peak_flops * compute_eff * occ_factor * tail
        compute_time_ms = flops / sustained_flops * 1e3 * spill_factor

        # DRAM bandwidth is a device-wide resource: even modest occupancy keeps enough
        # loads in flight to approach peak, so the memory stream saturates at a lower
        # occupancy than the ALUs and never degrades as steeply.
        mem_occ_factor = np.maximum(
            occupancy_throughput_factor(occ.occupancy, self.occupancy_saturation * 0.5),
            0.40)
        memory_time_ms = dram_time_ms(gpu, traffic) / np.maximum(mem_occ_factor * tail, 1e-3)

        # Latency-aware overlap: full overlap at saturated occupancy, serialisation
        # when the SM has too few warps to hide either latency.
        hiding = np.minimum(occ.occupancy / self.occupancy_saturation, 1.0)
        overlapped = np.maximum(compute_time_ms, memory_time_ms)
        serialised = np.minimum(compute_time_ms, memory_time_ms)
        kernel_time_ms = overlapped + (1.0 - hiding) * serialised

        # flops()/traffic() describe the WHOLE problem (all launches together); only
        # the per-launch overhead scales with the launch count.
        launch_overhead_ms = (gpu.kernel_launch_overhead_us * 1e-3
                              * np.maximum(launch.launches, 1))
        total = (kernel_time_ms
                 + launch_overhead_ms
                 + self.extra_time_ms(config, gpu, launch))

        factors = {
            "occupancy_factor": occ_factor,
            "tail_factor": tail,
            "compute_efficiency": compute_eff,
            "memory_efficiency": traffic.efficiency,
            "spill_factor": spill_factor,
            "hiding": hiding,
        }

        if with_noise:
            noise = self.noise(config, gpu)
            total = total * noise
            factors["noise"] = noise

        return total, compute_time_ms, memory_time_ms, factors

    def noise(self, config: ConfigColumns, gpu: GPUSpec) -> np.ndarray:
        """Persistent per-configuration model-error factors of a block."""
        return config_noises(gpu.name, self.name, config.rendered(), sigma=self.noise_sigma)

    def time_ms(self, config: Mapping[str, Any], gpu: GPUSpec,
                with_noise: bool = True) -> float:
        """Simulated runtime in milliseconds (shortcut around :meth:`estimate`)."""
        return self.estimate(config, gpu, with_noise=with_noise).time_ms
