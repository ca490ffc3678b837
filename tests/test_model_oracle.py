"""Differential oracle for the column perf model and its batch noise hash.

Two references pin the model:

* ``tests/data/model_digests.json`` holds the SHA-256 of the columnar serialization
  of every campaign cache of the seven paper kernels on the four GPUs (exhaustive
  spaces in full, the three sampled ones at 2 000 samples), with and without noise,
  plus three synthetic scenarios.  It was generated by
  ``scripts/pin_model_digests.py`` with the per-configuration scalar model, before
  the model moved to value columns, so values, validity and error strings must all
  stay byte-identical.
* :func:`reference_stable_hash` and :func:`reference_config_noise` below are the
  scalar noise hash frozen verbatim.  The fuzzed tests assert that the batch hash
  (one blake2b prefix state per block, ``k=v`` fragments rendered per parameter
  value) reproduces them exactly for mixed value types and any key order.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import tempfile
from hashlib import sha256
from pathlib import Path
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ResourceLimitError
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.gpus.columns import ConfigColumns
from repro.gpus.noise import (config_noise, config_noises, render_mapping, stable_hash,
                              stable_hashes)
from repro.gpus.specs import all_gpus
from repro.kernels import all_benchmarks, synthetic

DIGESTS = json.loads((Path(__file__).parent / "data" / "model_digests.json").read_text())
UNITS = DIGESTS["units"]


# ------------------------------------------------------------- frozen scalar reference


def reference_stable_hash(*parts: Any) -> int:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, Mapping):
            rendered = ",".join(f"{k}={part[k]}" for k in sorted(part))
        else:
            rendered = repr(part)
        h.update(rendered.encode("utf-8"))
        h.update(b"\x1f")
    return struct.unpack("<Q", h.digest())[0]


def _reference_uniform(value: int) -> float:
    return (value % (2**53)) / float(2**53) or 0.5 / float(2**53)


def reference_config_noise(gpu_name: str, benchmark: str, config: Mapping[str, Any],
                           sigma: float = 0.015) -> float:
    seed_hash = reference_stable_hash("config", gpu_name, benchmark, config)
    if sigma <= 0:
        return 1.0
    u1 = _reference_uniform(seed_hash)
    u2 = _reference_uniform(reference_stable_hash(seed_hash, "second"))
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return math.exp(sigma * z)


# ------------------------------------------------------------------- pinned digests


@pytest.fixture(scope="module")
def suite():
    return all_benchmarks()


def _benchmark(recipe: dict[str, Any], suite):
    if recipe["synthetic"] is not None:
        return synthetic.create_benchmark(**recipe["synthetic"])
    return suite[recipe["benchmark"]]


@pytest.mark.parametrize("key", sorted(UNITS))
def test_campaign_cache_digest_pinned(key, suite):
    recipe = UNITS[key]
    benchmark = _benchmark(recipe, suite)
    gpu = all_gpus()[recipe["gpu"]]
    cache = benchmark.build_cache(gpu, sample_size=recipe["sample_size"],
                                  seed=recipe["seed"], with_noise=recipe["with_noise"])
    assert len(cache) == recipe["rows"]
    with tempfile.TemporaryDirectory() as tmp:
        path = cache.to_columnar(Path(tmp) / "unit.col")
        assert sha256(path.read_bytes()).hexdigest() == recipe["digest"], (
            f"{key}: the model's values, validity or error strings moved")
    if recipe["sample_size"] is None and recipe["with_noise"]:
        # One launchability rule: the Table VIII count is the cache's valid rows.
        assert benchmark.count_valid(gpu, limit=None) == cache.num_valid


def test_digest_file_covers_every_unit(suite):
    names = {recipe["benchmark"] or recipe["synthetic"]["name"] for recipe in UNITS.values()}
    assert set(suite) <= names
    assert len(UNITS) == 2 * len(all_gpus()) * (len(suite) + 3)


# ----------------------------------------------------------- launchability regression


#: 400 threads round up to 13 warps; the register cap of 65536 / 400 per thread
#: then asks for 68 157 registers per block, so no block can be resident.
DEDISPERSION_UNLAUNCHABLE = {
    "block_size_x": 4, "block_size_y": 100, "tile_size_x": 14, "tile_size_y": 11,
    "tile_stride_x": 1, "tile_stride_y": 0, "loop_unroll_factor_channel": 384,
    "blocks_per_sm": 0}


@pytest.mark.parametrize("gpu_name", sorted(all_gpus()))
def test_validity_and_measurement_share_one_launch_rule(gpu_name, suite):
    benchmark = suite["dedispersion"]
    gpu = all_gpus()[gpu_name]
    config = DEDISPERSION_UNLAUNCHABLE
    assert benchmark.space.is_valid(config)
    message = f"configuration cannot keep a single block resident on {gpu_name}"
    with pytest.raises(ResourceLimitError, match=message):
        benchmark.model.time_ms(config, gpu)
    with pytest.raises(ResourceLimitError, match=message):
        benchmark.model.occupancy(config, gpu)
    assert not benchmark.is_valid_on(config, gpu)
    [(value, valid, error)] = benchmark.evaluate_batch(
        gpu, [benchmark.space.index_of(config)])
    assert (value, valid, error) == (math.inf, False, message)


def test_scalar_estimate_is_a_row_of_the_block(suite, gpu_3090):
    benchmark = suite["convolution"]
    indices = benchmark.space.feasible_indices()[::97]
    rows = benchmark.evaluate_batch(gpu_3090, indices)
    for index, (value, valid, error) in zip(indices.tolist(), rows):
        config = benchmark.space.config_at(index)
        if valid:
            assert benchmark.model.time_ms(config, gpu_3090) == value
        else:
            with pytest.raises(ResourceLimitError) as raised:
                benchmark.model.estimate(config, gpu_3090)
            assert str(raised.value) == error


# -------------------------------------------------------------- fuzzed batch noise


_KEYS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8)
_VALUES = st.one_of(st.integers(-10**12, 10**12),
                    st.floats(allow_nan=False, allow_infinity=True),
                    st.booleans(), st.text(max_size=6))


@settings(max_examples=200, deadline=None)
@given(configs=st.lists(st.dictionaries(_KEYS, _VALUES, min_size=1, max_size=6),
                        min_size=1, max_size=8),
       gpu=st.sampled_from(sorted(all_gpus())), benchmark=_KEYS,
       sigma=st.sampled_from([0.0, 0.003, 0.012, 0.015, 0.03, 0.5]),
       order=st.randoms(use_true_random=False))
def test_batch_noise_matches_frozen_scalar_noise(configs, gpu, benchmark, sigma, order):
    shuffled = []
    for config in configs:
        keys = list(config)
        order.shuffle(keys)
        shuffled.append({k: config[k] for k in keys})
    rows = [render_mapping(c).encode("utf-8") for c in shuffled]
    expected = [reference_config_noise(gpu, benchmark, c, sigma=sigma) for c in configs]
    assert config_noises(gpu, benchmark, rows, sigma=sigma).tolist() == expected
    assert [config_noise(gpu, benchmark, c, sigma=sigma) for c in shuffled] == expected
    assert stable_hashes(("x", 3, gpu), rows) == [
        reference_stable_hash("x", 3, gpu, c) for c in configs]
    assert [stable_hash("x", c, 1.5) for c in shuffled] == [
        reference_stable_hash("x", c, 1.5) for c in configs]


_LADDERS = st.one_of(
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=5, unique=True),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=5, unique=True),
    st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True),
    st.just([False, True]))


@settings(max_examples=100, deadline=None)
@given(ladders=st.dictionaries(_KEYS, _LADDERS, min_size=1, max_size=5),
       data=st.data())
def test_block_rendering_matches_config_mappings(ladders, data):
    space = SearchSpace([Parameter(name, tuple(values)) for name, values in ladders.items()])
    indices = np.asarray(data.draw(st.lists(st.integers(0, space.cardinality - 1),
                                            min_size=1, max_size=12)), dtype=np.int64)
    block = ConfigColumns.from_indices(space, indices)
    configs = [space.config_at(int(i)) for i in indices]
    mapped = ConfigColumns.from_configs(configs)
    assert block.rendered() == mapped.rendered()
    for name in ladders:
        assert block[name].dtype == mapped[name].dtype != bool
        assert block[name].tolist() == mapped[name].tolist()
        assert [mapped[name][i] for i in range(len(configs))] == [c[name] for c in configs]
    rows = data.draw(st.lists(st.integers(0, len(indices) - 1), max_size=len(indices)))
    assert (block.take(np.asarray(rows, dtype=np.int64)).rendered()
            == [block.rendered()[i] for i in rows])
    assert config_noises("RTX_3090", "fuzz", block.rendered()).tolist() == [
        reference_config_noise("RTX_3090", "fuzz", c) for c in configs]
