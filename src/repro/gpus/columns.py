"""Configuration blocks as value columns: the input of the column perf model.

The analytical models in :mod:`repro.gpus.perfmodel` evaluate a whole block of
configurations at once.  A :class:`ConfigColumns` block hands each model hook one
NumPy array per parameter (``config["block_size_x"]`` is a column, not a number), and
renders the block's rows for the noise hash only when asked.  Blocks come either from
space indices (:meth:`ConfigColumns.from_indices`, the campaign path: value gathers
off the digit matrix, hash fragments rendered once per parameter value) or from
configuration mappings (:meth:`ConfigColumns.from_configs`, the scalar path is a
block of one).

:func:`unique_map` is the one door to ``libm``: NumPy's vectorized ``log2``/``power``
may differ from the C library in the last ulp, so every such call applies the
``math`` function to the unique arguments and scatters the results back.  Tuning
parameters take at most a few dozen values, so this costs a handful of Python calls
per block and keeps every result bit-identical to scalar Python.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.gpus.noise import render_mapping

__all__ = ["ConfigColumns", "as_column", "unique_map"]

_NUMBERS = (int, float, np.integer, np.floating)


def unique_map(fn: Callable[[Any], Any], column: Any) -> np.ndarray:
    """``fn`` applied element-wise through the unique values of ``column``.

    Use it for every ``math`` call (``log2``, ``gcd``, ``cos``) and every ``**``
    whose NumPy counterpart is not IEEE-exact; ``+ - * /``, ``min``/``max``,
    ``sqrt`` and ``floor``/``ceil`` are exact in NumPy and need no detour.  Rows
    whose branch discards the result still pass through ``fn``, so guard the
    argument (``np.maximum(x, 1)``) where ``fn`` would raise on them.
    """
    column = np.asarray(column)
    unique = np.unique(column)
    values = np.asarray([fn(u) for u in unique.tolist()])
    # searchsorted, not np.unique(return_inverse=True): over a campaign's thousands
    # of blocks the inverse path kept ~80 MB of allocator arenas resident.
    return values[np.searchsorted(unique, column)]


def as_column(value: Any, n: int) -> np.ndarray:
    """``value`` (a number or an array of length ``n``) as an array of length ``n``."""
    value = np.asarray(value)
    return value if value.shape == (n,) else np.full(n, value)


def _column(values: list[Any]) -> np.ndarray:
    """``values`` typed like :meth:`repro.core.parameter.Parameter.values_array`."""
    if all(isinstance(v, _NUMBERS) for v in values):
        return np.asarray(values)
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


class ConfigColumns:
    """A block of ``n`` configurations as named value columns.

    ``block[name]`` is the parameter's value column: ``int64``/``float64`` for
    numeric parameters (``bool`` values become ``int64``: a bool column would add as
    logical or, and the models compute on integers), ``object`` otherwise.  :meth:`rendered` gives each row as the bytes
    :func:`repro.gpus.noise.stable_hash` hashes for a configuration mapping, and
    :meth:`take` selects a subset of rows.
    """

    __slots__ = ("n", "_columns", "_configs", "_space", "_digits", "_rendered")

    def __init__(self, columns: Mapping[str, np.ndarray], n: int, *,
                 configs: Sequence[Mapping[str, Any]] | None = None,
                 space: Any = None, digits: np.ndarray | None = None,
                 rendered: list[bytes] | None = None):
        self.n = n
        self._columns = {name: column.astype(np.int64) if column.dtype == bool else column
                         for name, column in columns.items()}
        self._configs = configs
        self._space = space
        self._digits = digits
        self._rendered = rendered

    @classmethod
    def from_configs(cls, configs: Sequence[Mapping[str, Any]]) -> "ConfigColumns":
        """Block of configuration mappings (each row hashed as its own mapping)."""
        configs = list(configs)
        names = list(configs[0]) if configs else []
        return cls({name: _column([c[name] for c in configs]) for name in names},
                   len(configs), configs=configs)

    @classmethod
    def from_indices(cls, space: Any, indices: np.ndarray | Sequence[int]) -> "ConfigColumns":
        """Block of space indices (value gathers off the digit matrix)."""
        digits = space.indices_to_digits(indices)
        return cls(space.columns_at(None, digits=digits), len(digits),
                   space=space, digits=digits)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._columns[name]

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def take(self, rows: np.ndarray) -> "ConfigColumns":
        """The sub-block of the given row positions."""
        columns = {name: column[rows] for name, column in self._columns.items()}
        positions = rows.tolist()
        rendered = (None if self._rendered is None
                    else [self._rendered[i] for i in positions])
        if self._digits is not None:
            return ConfigColumns(columns, len(rows), space=self._space,
                                 digits=self._digits[rows], rendered=rendered)
        return ConfigColumns(columns, len(rows), rendered=rendered,
                             configs=[self._configs[i] for i in positions])

    def rendered(self) -> list[bytes]:
        """Each row as ``sorted k=v`` bytes, exactly as ``stable_hash`` renders it."""
        if self._rendered is None:
            self._rendered = self._render()
        return self._rendered

    def _render(self) -> list[bytes]:
        if self._digits is None:
            return [render_mapping(c).encode("utf-8") for c in self._configs]
        space = self._space
        order = sorted(range(space.dimensions), key=lambda j: space.parameters[j].name)
        fragments = []
        for j in order:
            p = space.parameters[j]
            rendered = np.empty(p.cardinality, dtype=object)
            rendered[:] = [f"{p.name}={v}".encode("utf-8") for v in p.values]
            fragments.append(rendered[self._digits[:, j]].tolist())
        return [b",".join(row) for row in zip(*fragments)]
