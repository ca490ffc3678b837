"""Evaluation caches: the campaign data behind every figure of the paper.

The paper's methodology is cache-centric: for each (benchmark, GPU) pair the authors
either exhaustively evaluate the whole valid search space (Pnpoly, Nbody, GEMM,
Convolution) or evaluate 10 000 random configurations (Hotspot, Dedispersion, Expdist),
and *all* analyses -- distributions, random-search convergence, centrality, speedups,
portability, feature importance -- are then computed from those stored measurements.

:class:`EvaluationCache` is that store.  It maps configurations to measured runtimes,
remembers which configurations were invalid, knows summary statistics, can be encoded
into ML feature matrices, and can be replayed as a :class:`~repro.core.problem.TuningProblem`
so that tuners can be benchmarked against cached data without re-running the device
model (exactly how BAT replays its own caches).

Columnar index table
--------------------
Replayed tuning campaigns perform millions of cache lookups, and keying them by
configuration dictionary (sort, tuple-ify, hash) is what made the seed's simulation
loop Python-bound.  :meth:`EvaluationCache.index_table` exposes the store as a
columnar table keyed by mixed-radix *space index* instead: dense ``row_of`` array for
small spaces, an int->row hash for the huge sampled ones, with aligned float/bool
``values``/``failure`` columns.  The table is built lazily in one batch from the dict
store and kept in sync by :meth:`add`/:meth:`add_observation` (mutations queue and
flush on the next table access), so both views always answer identically.

Cache formats
-------------
Two on-disk formats carry a cache, with one compatibility guarantee between them:

* **JSON** (:mod:`repro.io.cachefile`) is the *interchange* format -- self-describing,
  diffable, byte-deterministic, and frozen: nothing in this module changes a single
  byte of it.
* **Columnar** (:mod:`repro.io.columnar`, :meth:`EvaluationCache.to_columnar` /
  :meth:`~EvaluationCache.from_columnar`) is the *performance* format: fixed-width
  little-endian index/value/failure-code columns behind a checksummed header.
  ``from_columnar(mmap=True)`` opens without rehydrating the observation dictionary
  -- the :class:`CacheIndexTable` is built straight off the memory-mapped columns and
  the dict store materialises lazily only when a dictionary-keyed accessor is
  actually used -- so replay opens are cheap and concurrent readers share pages.

A cache round-tripped through the columnar store serializes back to byte-identical
JSON (same observations, same ``evaluation_index`` assignment, same error strings),
which is what lets the two formats coexist under the byte-identity contracts.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.errors import (CacheMissError, FragmentIntegrityError, ReproError,
                               SerializationError)
from repro.core.problem import TuningProblem
from repro.core.result import LazyConfig, Observation
from repro.core.searchspace import SearchSpace, config_key

__all__ = ["EvaluationCache", "CacheIndexTable"]

#: Cardinality ceiling for the dense ``index -> row`` array of the columnar table
#: (int32 rows: 4 MB per million points).  Above it, lookups go through a hash map.
_DENSE_LOOKUP_MAX = 2_000_000


class CacheIndexTable:
    """Columnar ``space index -> (value, failure)`` view of an evaluation cache.

    ``lookup_one`` answers a single integer-index probe without building any
    configuration dictionary; ``lookup`` is the batch form.  Rows overwrite in
    place when the same index is stored again, mirroring the dict store.  Batch
    lookups against hashed (above-dense-ceiling) tables run through a lazily
    sorted key array and one :func:`numpy.searchsorted` instead of a Python
    ``dict.get`` per probe; scalar probes keep the O(1) hash.
    """

    __slots__ = ("_cardinality", "_dense", "_row_of", "_values", "_failure", "_size",
                 "_sorted_keys", "_sorted_rows")

    def __init__(self, cardinality: int):
        self._cardinality = cardinality
        self._dense = cardinality <= _DENSE_LOOKUP_MAX
        self._row_of: Any = (np.full(cardinality, -1, dtype=np.int32)
                             if self._dense else {})
        self._values = np.empty(0, dtype=float)
        self._failure = np.empty(0, dtype=bool)
        self._size = 0
        # Hashed-path batch index: sorted key/row arrays for searchsorted lookups,
        # rebuilt lazily after any store that introduced new keys.
        self._sorted_keys: np.ndarray | None = None
        self._sorted_rows: np.ndarray | None = None

    @classmethod
    def from_columns(cls, cardinality: int, indices: np.ndarray,
                     values: np.ndarray, failure: np.ndarray) -> "CacheIndexTable":
        """Build a table directly over existing columns (no per-row staging).

        This is how a memory-mapped columnar cache backs its index table: the
        ``values``/``failure`` arrays are adopted by reference (they may be
        read-only mmap views -- :meth:`store` copies on first write), and only
        the ``index -> row`` structure is materialised here.  ``indices`` must
        be duplicate-free, which insertion-ordered cache columns are by
        construction.
        """
        table = cls.__new__(cls)
        indices = np.asarray(indices, dtype=np.int64)
        n = indices.size
        table._cardinality = cardinality
        table._dense = cardinality <= _DENSE_LOOKUP_MAX
        if table._dense:
            row_of = np.full(cardinality, -1, dtype=np.int32)
            row_of[indices] = np.arange(n, dtype=np.int32)
            table._row_of = row_of
        else:
            table._row_of = dict(zip(indices.tolist(), range(n)))
        table._values = np.asarray(values, dtype=float)
        table._failure = np.asarray(failure, dtype=bool)
        table._size = n
        table._sorted_keys = table._sorted_rows = None
        return table

    def __len__(self) -> int:
        return self._size

    def _grow(self, extra: int) -> None:
        need = self._size + extra
        if need <= self._values.size:
            return
        capacity = max(need, 2 * self._values.size, 256)
        self._values = np.resize(self._values, capacity)
        self._failure = np.resize(self._failure, capacity)

    def store(self, indices: np.ndarray, values: np.ndarray,
              failure: np.ndarray) -> None:
        """Insert/overwrite many rows at once (aligned arrays, last write wins)."""
        if indices.size and not self._values.flags.writeable:
            # Tables built over memory-mapped columns adopt read-only views; the
            # first mutation promotes them to private writable copies.
            self._values = self._values.copy()
            self._failure = self._failure.copy()
        if self._dense and indices.size:
            # Collapse duplicate indices within the batch to their last occurrence
            # before allocating rows, or each duplicate would leak a fresh row.
            unique, inverse = np.unique(indices, return_inverse=True)
            if unique.size != indices.size:
                last = np.empty(unique.size, dtype=np.int64)
                last[inverse] = np.arange(indices.size)
                indices, values, failure = unique, values[last], failure[last]
        self._grow(indices.size)
        if self._dense:
            rows = self._row_of[indices]
            fresh = rows < 0
            n_fresh = int(fresh.sum())
            rows[fresh] = self._size + np.arange(n_fresh, dtype=np.int32)
            self._row_of[indices] = rows
            self._size += n_fresh
            self._values[rows] = values
            self._failure[rows] = failure
            return
        row_of = self._row_of
        size = self._size
        for k, index in enumerate(indices.tolist()):
            row = row_of.get(index)
            if row is None:
                row_of[index] = row = size
                size += 1
            self._values[row] = values[k]
            self._failure[row] = failure[k]
        if size != self._size:
            # New keys invalidate the sorted batch index; pure overwrites keep it
            # (rows are stable, and values/failure are read through the row arrays).
            self._sorted_keys = self._sorted_rows = None
        self._size = size

    def _sorted_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``(keys, rows)`` arrays of the hashed store, built on demand.

        One O(n log n) sort per mutation burst replaces the per-probe Python
        ``dict.get`` loop of batch lookups with a single :func:`numpy.searchsorted`
        -- the ROADMAP's "searchsorted batch lookup for hashed cache tables".
        """
        if self._sorted_keys is None:
            keys = np.fromiter(self._row_of.keys(), dtype=np.int64,
                               count=len(self._row_of))
            rows = np.fromiter(self._row_of.values(), dtype=np.int64,
                               count=len(self._row_of))
            order = np.argsort(keys)
            self._sorted_keys = keys[order]
            self._sorted_rows = rows[order]
        return self._sorted_keys, self._sorted_rows

    def lookup_one(self, index: int) -> tuple[float, bool, bool]:
        """``(value, failure, found)`` of one space index.

        Out-of-range indices are misses, exactly like unknown in-range ones (the
        dense path must not let NumPy's negative-index wrapping alias a row).
        """
        if self._dense:
            row = (int(self._row_of[index])
                   if 0 <= index < self._cardinality else -1)
        else:
            row = self._row_of.get(index, -1)
        if row < 0:
            return math.inf, True, False
        return float(self._values[row]), bool(self._failure[row]), True

    def lookup(self, indices: np.ndarray | Sequence[int]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch ``(values, failure, found)`` arrays for an index block.

        Out-of-range indices are misses (see :meth:`lookup_one`).
        """
        idx = np.asarray(indices, dtype=np.int64)
        if self._dense:
            in_range = (idx >= 0) & (idx < self._cardinality)
            rows = np.full(idx.size, -1, dtype=np.int64)
            rows[in_range] = self._row_of[idx[in_range]]
        else:
            rows = np.full(idx.size, -1, dtype=np.int64)
            keys, key_rows = self._sorted_index()
            if keys.size:
                pos = np.searchsorted(keys, idx)
                pos[pos == keys.size] = 0
                hit = keys[pos] == idx
                rows[hit] = key_rows[pos[hit]]
        found = rows >= 0
        values = np.full(idx.size, math.inf, dtype=float)
        failure = np.ones(idx.size, dtype=bool)
        values[found] = self._values[rows[found]]
        failure[found] = self._failure[rows[found]]
        return values, failure, found


class _LazyColumns:
    """Columnar rows adopted by a cache but not yet materialised as Observations.

    Holds the (possibly memory-mapped, read-only) index/value/code arrays plus
    the interned error table of one columnar cache file.  The owning
    :class:`EvaluationCache` answers ``len``/counters/index-table queries straight
    off these arrays and only decodes them into :class:`Observation` objects when
    a dictionary-keyed accessor is actually used.
    """

    __slots__ = ("indices", "values", "codes", "errors")

    def __init__(self, indices: np.ndarray, values: np.ndarray,
                 codes: np.ndarray, errors: Sequence[str]):
        self.indices = indices
        self.values = values
        self.codes = codes
        self.errors = list(errors)

    @property
    def failure(self) -> np.ndarray:
        """Per-row ``Observation.is_failure`` flags, straight from the columns."""
        return (self.codes >= 0) | ~np.isfinite(self.values)


class EvaluationCache:
    """Measured runtimes for one benchmark on one (simulated) GPU.

    Parameters
    ----------
    benchmark:
        Benchmark name (e.g. ``"hotspot"``).
    gpu:
        Device name (e.g. ``"RTX_3090"``).
    space:
        The search space the configurations belong to.
    exhaustive:
        True when the cache covers every valid configuration of the space (affects how
        analyses interpret the data; the paper marks Hotspot/Dedisp/Expdist caches as
        sampled).
    """

    def __init__(self, benchmark: str, gpu: str, space: SearchSpace,
                 exhaustive: bool = False):
        self.benchmark = benchmark
        self.gpu = gpu
        self.space = space
        self.exhaustive = exhaustive
        self._store: dict[tuple, Observation] = {}
        self._lazy: _LazyColumns | None = None
        self._num_failures = 0
        self.metadata: dict[str, Any] = {}
        self._index_table: CacheIndexTable | None = None
        self._index_pending: list[Observation] = []

    # ------------------------------------------------------------- lazy dict store

    @property
    def _entries(self) -> dict[tuple, Observation]:
        """The dictionary store, materialising adopted columns on first touch."""
        if self._lazy is not None:
            self._materialize()
        return self._store

    def _materialize(self) -> None:
        from repro.io.columnar import decode_failure_strings

        lazy, self._lazy = self._lazy, None
        valid, errors = decode_failure_strings(lazy.codes, lazy.errors)
        space, gpu, benchmark = self.space, self.gpu, self.benchmark
        store = self._store
        fast = Observation.fast
        values = lazy.values.tolist()
        for row, index in enumerate(lazy.indices.tolist()):
            obs = fast(LazyConfig(space, index), values[row], bool(valid[row]),
                       errors[row], row, gpu, benchmark)
            store[obs.key] = obs
        # The index table (if already built from these columns) covers every
        # materialised row, so nothing is queued on ``_index_pending`` here.

    # --------------------------------------------------------------------- mutation

    def add(self, config: Mapping[str, Any], value: float, valid: bool = True,
            error: str = "") -> None:
        """Store one measurement (overwrites an existing entry for the same config)."""
        entries = self._entries
        obs = Observation(config=dict(config), value=value if valid else math.inf,
                          valid=valid, error=error,
                          evaluation_index=len(entries),
                          gpu=self.gpu, benchmark=self.benchmark)
        key = config_key(config)
        previous = entries.get(key)
        if previous is not None:
            self._num_failures -= previous.is_failure
        self._num_failures += obs.is_failure
        entries[key] = obs
        if self._index_table is not None:
            self._index_pending.append(obs)

    def add_observation(self, observation: Observation) -> None:
        """Store an existing observation object."""
        entries = self._entries
        key = observation.key
        previous = entries.get(key)
        if previous is not None:
            self._num_failures -= previous.is_failure
        self._num_failures += observation.is_failure
        entries[key] = observation
        if self._index_table is not None:
            self._index_pending.append(observation)

    def update(self, observations: Iterable[Observation]) -> None:
        """Store many observations."""
        for obs in observations:
            self.add_observation(obs)

    # ------------------------------------------------------------- columnar lookups

    def _flush_index_pending(self) -> None:
        pending = self._index_pending
        self._index_pending = []
        indices = self.space.indices_of_configs([o.config for o in pending])
        self._index_table.store(
            indices,
            np.asarray([o.value for o in pending], dtype=float),
            np.asarray([o.is_failure for o in pending], dtype=bool))

    def index_table(self) -> CacheIndexTable:
        """The columnar ``space index -> (value, failure)`` view of this cache.

        Built in one batch on first use and kept in sync with the dict store:
        mutations after the build queue up and flush on the next call, so the two
        views can never answer differently.  Call this per lookup burst (it is just
        an attribute check once built) rather than caching the table elsewhere.
        """
        if self._index_table is None:
            if self._lazy is not None:
                # Columnar-backed cache: build the table straight off the mapped
                # columns.  No observation objects, no dict, no per-row Python.
                lazy = self._lazy
                self._index_table = CacheIndexTable.from_columns(
                    self.space.cardinality, lazy.indices, lazy.values, lazy.failure)
                self._index_pending = []
            else:
                self._index_table = CacheIndexTable(self.space.cardinality)
                self._index_pending = list(self._store.values())
        if self._index_pending:
            self._flush_index_pending()
        return self._index_table

    # ---------------------------------------------------------------------- queries

    def __len__(self) -> int:
        if self._lazy is not None:
            return int(self._lazy.indices.size)
        return len(self._store)

    def __contains__(self, config: Mapping[str, Any]) -> bool:
        return config_key(config) in self._entries

    def __iter__(self) -> Iterator[Observation]:
        return iter(self._entries.values())

    def get(self, config: Mapping[str, Any]) -> Observation | None:
        """The stored observation for ``config`` or None."""
        return self._entries.get(config_key(config))

    def lookup(self, config: Mapping[str, Any]) -> Observation:
        """Like :meth:`get` but raises :class:`CacheMissError` when absent."""
        obs = self.get(config)
        if obs is None:
            raise CacheMissError(
                f"configuration not in {self.benchmark}/{self.gpu} cache: {dict(config)}")
        return obs

    @property
    def observations(self) -> tuple[Observation, ...]:
        """All stored observations (insertion order)."""
        return tuple(self._entries.values())

    def valid_observations(self) -> list[Observation]:
        """Only the successfully measured configurations."""
        return [o for o in self._entries.values() if not o.is_failure]

    def valid_arrays(self) -> tuple[list[dict[str, Any]], np.ndarray]:
        """Configurations and runtimes of the valid entries, in one pass.

        This is the array-native export the graph layer builds on: the configuration
        list is aligned with the float runtime vector, ready to be turned into a digit
        matrix by :meth:`~repro.core.searchspace.SearchSpace.digits_of_configs`.
        """
        configs: list[dict[str, Any]] = []
        values: list[float] = []
        for o in self._entries.values():
            if not o.is_failure:
                configs.append(dict(o.config))
                values.append(o.value)
        return configs, np.asarray(values, dtype=float)

    @property
    def num_valid(self) -> int:
        """Number of successful measurements.

        O(1): a running counter maintained by :meth:`add`/:meth:`add_observation`
        (overwrite-aware), not a scan -- progress and status paths poll these
        properties once per shard.
        """
        return len(self) - self._num_failures

    @property
    def num_invalid(self) -> int:
        """Number of failed configurations stored (O(1), see :attr:`num_valid`)."""
        return self._num_failures

    # ------------------------------------------------------------------- statistics

    def values(self, valid_only: bool = True) -> np.ndarray:
        """Measured runtimes as a float array (valid entries only by default)."""
        if valid_only:
            return np.array([o.value for o in self._entries.values() if not o.is_failure],
                            dtype=float)
        return np.array([o.value for o in self._entries.values()], dtype=float)

    def configs(self, valid_only: bool = True) -> list[dict[str, Any]]:
        """Stored configurations, aligned with :meth:`values`."""
        if valid_only:
            return [dict(o.config) for o in self._entries.values() if not o.is_failure]
        return [dict(o.config) for o in self._entries.values()]

    def best(self) -> Observation:
        """The fastest configuration in the cache."""
        valid = self.valid_observations()
        if not valid:
            raise ReproError(f"cache {self.benchmark}/{self.gpu} has no valid entries")
        return min(valid, key=lambda o: o.value)

    def worst(self) -> Observation:
        """The slowest valid configuration in the cache."""
        valid = self.valid_observations()
        if not valid:
            raise ReproError(f"cache {self.benchmark}/{self.gpu} has no valid entries")
        return max(valid, key=lambda o: o.value)

    def optimum(self) -> float:
        """Runtime of the best configuration (the paper's reference optimum)."""
        return self.best().value

    def median(self) -> float:
        """Median runtime of the valid configurations (Fig. 1 centring, Fig. 4 baseline)."""
        vals = self.values()
        if vals.size == 0:
            raise ReproError(f"cache {self.benchmark}/{self.gpu} has no valid entries")
        return float(np.median(vals))

    def statistics(self) -> dict[str, float]:
        """Summary statistics used by reports."""
        vals = self.values()
        if vals.size == 0:
            raise ReproError(f"cache {self.benchmark}/{self.gpu} has no valid entries")
        return {
            "count": float(len(self._entries)),
            "valid": float(vals.size),
            "best": float(vals.min()),
            "worst": float(vals.max()),
            "median": float(np.median(vals)),
            "mean": float(vals.mean()),
            "std": float(vals.std()),
        }

    # -------------------------------------------------------------------- ML export

    def to_feature_matrix(self, valid_only: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Encode the cache as ``(X, y)`` for the ML substrate.

        ``X`` has one column per parameter (in search-space order), ``y`` holds the
        measured runtimes.
        """
        configs = self.configs(valid_only=valid_only)
        if not configs:
            raise ReproError(f"cache {self.benchmark}/{self.gpu} has no entries to encode")
        X = self.space.encode_batch(configs)
        if valid_only:
            y = self.values(valid_only=True)
        else:
            y = np.array([o.value for o in self._entries.values()], dtype=float)
        return X, y

    # ------------------------------------------------------------------ replay

    def to_problem(self, strict: bool = True, memoize: bool = True) -> TuningProblem:
        """A :class:`TuningProblem` that answers evaluations from this cache.

        The objective is index-native: one probe of :meth:`index_table` per
        evaluation, no dictionary, no hashing of sorted item tuples.  Configuration
        evaluations reach it through :meth:`TuningProblem.evaluate`'s encoding, and
        the side-effect-free peeks answer from the same table.

        Parameters
        ----------
        strict:
            If True (default), configurations missing from the cache raise
            :class:`CacheMissError` (and therefore appear as invalid observations).
            If False, missing configurations are treated as invalid silently.
        """
        def _evaluate_index(index: int) -> float:
            value, failure, found = self.index_table().lookup_one(index)
            if not found:
                if strict:
                    raise CacheMissError(
                        f"configuration not present in {self.benchmark}/{self.gpu} cache")
                return math.inf
            if failure:
                return math.inf
            return value

        def _peek_indices(indices: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            # Pure lookup, so peeking is free of side effects.  ``values`` is
            # normalised to what ``_evaluate_index`` returns (inf for misses and
            # stored failures), stored non-positive values are flagged exactly
            # like the scalar evaluation path would invalidate them, and only
            # strict misses raise (their error string is not value-derived).
            values, failure, found = self.index_table().lookup(indices)
            values = np.where(failure, math.inf, values)
            raises = (~found if strict
                      else np.zeros(indices.size, dtype=bool))
            return values, failure | (values <= 0), raises

        def _peek_one(index: int) -> tuple[float, bool, bool]:
            # Scalar twin of ``_peek_indices`` (same normalisation, one hash
            # probe): what generation-batched population tuners call per
            # candidate while simulating a generation ahead of its bulk
            # evaluation.
            value, failure, found = self.index_table().lookup_one(index)
            if not found:
                return math.inf, True, strict
            if failure:
                return math.inf, True, False
            return value, value <= 0, False

        return TuningProblem(name=self.benchmark, space=self.space,
                             gpu=self.gpu, memoize=memoize,
                             evaluate_index_fn=_evaluate_index,
                             peek_index_fn=_peek_indices,
                             peek_one_fn=_peek_one)

    # ------------------------------------------------------------------ serialization

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form including the search-space description."""
        return {
            "benchmark": self.benchmark,
            "gpu": self.gpu,
            "exhaustive": self.exhaustive,
            "metadata": dict(self.metadata),
            "space": self.space.to_dict(),
            "observations": [o.to_dict() for o in self._entries.values()],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  space: SearchSpace | None = None) -> "EvaluationCache":
        """Inverse of :meth:`to_dict`.

        ``space`` may be supplied to reuse an existing space object (e.g. one that
        carries callable constraints which do not survive JSON round-trips).
        """
        if space is None:
            space = SearchSpace.from_dict(data["space"])
        cache = cls(benchmark=data["benchmark"], gpu=data["gpu"], space=space,
                    exhaustive=bool(data.get("exhaustive", False)))
        cache.metadata.update(data.get("metadata", {}))
        for od in data.get("observations", ()):
            cache.add_observation(Observation.from_dict(od))
        return cache

    # ------------------------------------------------------- columnar serialization

    def to_columnar(self, path: str | Path) -> Path:
        """Write this cache as a columnar file (see :mod:`repro.io.columnar`).

        Requires campaign shape -- every observation's ``evaluation_index`` equal
        to its insertion position and carrying this cache's benchmark/gpu --
        which is what executors, :meth:`from_dict` on executor output and
        :meth:`from_columnar` all produce.  A cache assembled by hand from
        foreign observations cannot round-trip through three columns and is
        refused with :class:`~repro.core.errors.SerializationError`; use the
        JSON writer for it.
        """
        from repro.io import columnar

        path = Path(path)
        meta = {
            "benchmark": self.benchmark,
            "gpu": self.gpu,
            "exhaustive": self.exhaustive,
            "metadata": dict(self.metadata),
            "space": self.space.to_dict(),
        }
        meta["digest"] = columnar.cache_digest(self.benchmark, self.gpu,
                                               meta["space"])
        if self._lazy is not None:
            # Adopted columns re-emit verbatim: a load -> save round trip is
            # byte-identical without materialising a single observation.
            lazy = self._lazy
            columnar.write_columnar(path, "cache", meta,
                                    {"index": lazy.indices, "value": lazy.values,
                                     "code": lazy.codes}, lazy.errors)
            return path
        observations = list(self._store.values())
        indices = np.empty(len(observations), dtype=np.int64)
        plain_rows: list[int] = []
        plain_configs: list[Mapping[str, Any]] = []
        for row, obs in enumerate(observations):
            if (obs.evaluation_index != row or obs.gpu != self.gpu
                    or obs.benchmark != self.benchmark):
                raise SerializationError(
                    f"cache {self.benchmark}/{self.gpu} is not campaign-shaped "
                    f"(observation {row} carries evaluation_index="
                    f"{obs.evaluation_index}, gpu={obs.gpu!r}, benchmark="
                    f"{obs.benchmark!r}); columnar files cannot represent it -- "
                    f"use the JSON writer")
            config = obs.config
            if isinstance(config, LazyConfig):
                indices[row] = config.space_index
            else:
                plain_rows.append(row)
                plain_configs.append(config)
        if plain_rows:
            indices[plain_rows] = self.space.indices_of_configs(plain_configs)
        codes, errors = columnar.encode_failure_codes(
            [o.valid for o in observations], [o.error for o in observations])
        columnar.write_columnar(
            path, "cache", meta,
            {"index": indices,
             "value": np.asarray([o.value for o in observations], dtype=float),
             "code": codes},
            errors)
        return path

    @classmethod
    def from_columnar(cls, path: str | Path, space: SearchSpace | None = None,
                      mmap: bool = True, verify: bool = True) -> "EvaluationCache":
        """Open a columnar cache file; the inverse of :meth:`to_columnar`.

        With ``mmap=True`` (default) the index/value/code columns stay read-only
        views of the memory-mapped file: the :class:`CacheIndexTable` is built
        straight off them and the observation dictionary materialises only when a
        dictionary-keyed accessor is used, so opening for index-native replay
        costs one header parse -- not one Python object per row.  ``space`` may
        be supplied to reuse an existing space object, like :meth:`from_dict`.
        """
        from repro.io import columnar

        payload = columnar.read_columnar(path, mmap=mmap, verify=verify)
        if payload.kind != "cache":
            raise SerializationError(
                f"{path} is a columnar {payload.kind} file, not a cache")
        header = payload.header
        if space is None:
            space = SearchSpace.from_dict(header["space"])
        cache = cls(benchmark=header["benchmark"], gpu=header["gpu"], space=space,
                    exhaustive=bool(header.get("exhaustive", False)))
        cache.metadata.update(header.get("metadata", {}))
        cache.attach_columns(payload.columns["index"], payload.columns["value"],
                              payload.columns["code"], payload.errors)
        return cache

    @classmethod
    def from_columns(cls, benchmark: str, gpu: str, space: SearchSpace,
                     indices: np.ndarray, values: np.ndarray, codes: np.ndarray,
                     errors: Sequence[str],
                     exhaustive: bool = False) -> "EvaluationCache":
        """Build a cache directly over in-memory columns (no per-row inserts).

        The no-decode merge path: executors concatenate shard fragment columns
        (:func:`repro.io.columnar.concat_fragment_columns`) and adopt the result
        here, paired with the shard-order space indices of the plan.
        """
        cache = cls(benchmark=benchmark, gpu=gpu, space=space,
                    exhaustive=exhaustive)
        cache.attach_columns(indices, values, codes, errors)
        return cache

    def attach_columns(self, indices: np.ndarray, values: np.ndarray,
                        codes: np.ndarray, errors: Sequence[str]) -> None:
        if self._store or self._lazy is not None or self._index_table is not None:
            raise ReproError("columns can only be attached to an empty cache")
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size:
            lo, hi = int(indices.min()), int(indices.max())
            if lo < 0 or hi >= self.space.cardinality:
                raise FragmentIntegrityError(
                    f"columnar cache {self.benchmark}/{self.gpu} carries space "
                    f"index {lo if lo < 0 else hi} outside the space's "
                    f"{self.space.cardinality} configurations")
        lazy = _LazyColumns(indices, np.asarray(values, dtype=float),
                            np.asarray(codes, dtype=np.int32), errors)
        self._lazy = lazy
        self._num_failures = int(np.count_nonzero(lazy.failure))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"EvaluationCache(benchmark={self.benchmark!r}, gpu={self.gpu!r}, "
                f"entries={len(self)}, exhaustive={self.exhaustive})")
