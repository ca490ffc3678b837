"""Deterministic measurement noise.

Real kernel timings jitter run to run (clock boost behaviour, DRAM refresh, other
tenants of the machine).  The suite reproduces that with a *deterministic* noise model:
the multiplicative perturbation applied to a configuration's modelled runtime is a pure
function of (device, benchmark, configuration, repetition), derived from a stable hash.
Determinism matters because the analyses compare caches across architectures and
because tests must be reproducible bit-for-bit.

Two kinds of noise are provided:

* *configuration noise* (default ~1.5% lognormal): persistent, per-configuration model
  error -- the analytical model never captures every microarchitectural effect, and
  this keeps the performance landscape realistically rugged (important for the
  fitness-flow-graph / centrality analysis, which counts local minima);
* *measurement jitter* (default ~0.3% lognormal): per-repetition timing noise, applied
  when a caller asks for repeated observations of the same configuration.

The column perf model hashes whole blocks through :func:`stable_hashes` and
:func:`config_noises`, which take configurations pre-rendered by
:func:`render_mapping` and produce exactly the bytes, hashes and factors of the
scalar :func:`stable_hash` / :func:`config_noise`.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = ["stable_hash", "stable_hashes", "render_mapping", "lognormal_factor",
           "config_noise", "config_noises", "measurement_jitter"]


def render_mapping(config: Mapping[str, Any]) -> str:
    """A configuration as the sorted ``key=value`` string :func:`stable_hash` hashes."""
    return ",".join(f"{k}={config[k]}" for k in sorted(config))


def _render_part(part: Any) -> bytes:
    # The exact-type test skips typing's ABC machinery for the common plain dict.
    if type(part) is dict or isinstance(part, Mapping):
        return render_mapping(part).encode("utf-8")
    return repr(part).encode("utf-8")


def stable_hash(*parts: Any) -> int:
    """A 64-bit hash of the given parts that is stable across processes and runs.

    Python's built-in ``hash`` is salted per process, so it cannot be used for
    reproducible noise.  Configurations are rendered as sorted ``key=value`` strings.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(_render_part(part))
        h.update(b"\x1f")
    return struct.unpack("<Q", h.digest())[0]


def stable_hashes(prefix: Sequence[Any], rows: Sequence[bytes]) -> list[int]:
    """``stable_hash(*prefix, config)`` of many configurations at once.

    ``rows`` are the configurations' :func:`render_mapping` bytes.  One blake2b
    state absorbs the prefix and is copied per row, so the result is
    byte-identical to the scalar form without re-rendering the prefix.
    """
    state = hashlib.blake2b(digest_size=8)
    for part in prefix:
        state.update(_render_part(part) + b"\x1f")
    hashes = []
    for row in rows:
        h = state.copy()
        h.update(row + b"\x1f")
        hashes.append(int.from_bytes(h.digest(), "little"))
    return hashes


def _uniform_from_hash(value: int) -> float:
    """Map a 64-bit hash to a uniform float in (0, 1)."""
    return (value % (2**53)) / float(2**53) or 0.5 / float(2**53)


def _box_muller(u1: float, u2: float, sigma: float) -> float:
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return math.exp(sigma * z)


def lognormal_factor(seed_hash: int, sigma: float) -> float:
    """A deterministic lognormal(0, sigma) multiplicative factor from a hash.

    Uses the Box-Muller transform on two uniforms derived from the hash, so the
    factor's distribution matches ``exp(N(0, sigma))`` over the space of inputs.
    """
    if sigma <= 0:
        return 1.0
    return _box_muller(_uniform_from_hash(seed_hash),
                       _uniform_from_hash(stable_hash(seed_hash, "second")), sigma)


def config_noise(gpu_name: str, benchmark: str, config: Mapping[str, Any],
                 sigma: float = 0.015) -> float:
    """Persistent multiplicative model-error factor for one configuration."""
    return lognormal_factor(stable_hash("config", gpu_name, benchmark, config), sigma)


def config_noises(gpu_name: str, benchmark: str, rows: Sequence[bytes],
                  sigma: float = 0.015) -> np.ndarray:
    """:func:`config_noise` of many configurations, given as :func:`render_mapping` bytes.

    Byte-identical to the scalar form: the ``"second"`` hash is fed the exact bytes
    :func:`stable_hash` renders for ``(seed, "second")``, and Box--Muller stays a
    per-element ``math`` call.
    """
    if sigma <= 0:
        return np.ones(len(rows))
    factors = []
    for seed in stable_hashes(("config", gpu_name, benchmark), rows):
        second = hashlib.blake2b(f"{seed}\x1f'second'\x1f".encode("utf-8"), digest_size=8)
        factors.append(_box_muller(_uniform_from_hash(seed),
                                   _uniform_from_hash(int.from_bytes(second.digest(), "little")),
                                   sigma))
    return np.asarray(factors, dtype=float)


def measurement_jitter(gpu_name: str, benchmark: str, config: Mapping[str, Any],
                       repetition: int, sigma: float = 0.003) -> float:
    """Per-repetition multiplicative timing jitter."""
    return lognormal_factor(
        stable_hash("jitter", gpu_name, benchmark, config, repetition), sigma)
