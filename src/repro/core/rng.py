"""Uniform random-source handling for every stochastic component.

Loss models, the Glossy flood simulator, and the workload generator all
draw from a pseudo-random stream.  Historically each of them accepted
only an integer ``seed`` and built a private :class:`random.Random`;
:func:`make_rng` generalizes that contract so **one rule holds
everywhere**:

* ``None`` — a fresh, OS-seeded stream (non-reproducible; fine for
  exploration, never used by the Monte-Carlo campaign layer);
* ``int`` — a deterministic stream.  Equal seeds produce equal draws on
  every platform and Python version (``random.Random`` guarantees
  this), which is what makes traces replayable and campaigns
  resumable;
* :class:`random.Random` — used as-is, so several components can share
  one stream when an experiment wants coupled randomness;
* :class:`numpy.random.Generator` — wrapped in a thin adapter exposing
  the ``random()`` method the consumers call, so numpy-centric
  experiment code can hand its generator straight in.

Anything else (floats, strings, bools) is rejected eagerly with the
same validation style as the other API boundaries — name the
parameter, show the offending value, list what is accepted — instead
of failing later inside a simulation loop.

Tensor samplers draw by a second, **counter-based** rule that accepts
the same seeds (:func:`stream_keys`, :func:`uniforms`): a seed maps to
one 64-bit key, and draw ``i`` of that key is SplitMix64's ``i``-th
output, ``mix64(key + (i + 1) * 0x9E3779B97F4A7C15) >> 11`` scaled by
``2**-53``.  Each uniform is a pure function of (key, draw index), so
the draws of many keys are computed as one array program with no
per-seed generator object, and any split of the keys or prefix of the
draw count yields the same numbers.
"""

from __future__ import annotations

import math
import random
import secrets
from typing import Optional, Sequence, Tuple, Union

try:  # numpy is a hard dependency of the solver, but keep this module
    import numpy as _np  # importable in stripped-down environments.
except ImportError:  # pragma: no cover
    _np = None

#: Everything :func:`make_rng` accepts (numpy Generators included).
SeedLike = Union[None, int, random.Random, object]


class _NumpyAdapter:
    """Adapts :class:`numpy.random.Generator` to the ``random.Random``
    duck type — exactly the methods the repository's stochastic
    components call (loss models, Glossy floods, workload generation)."""

    __slots__ = ("generator",)

    def __init__(self, generator) -> None:
        self.generator = generator

    def random(self) -> float:
        return float(self.generator.random())

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * float(self.generator.random())

    def randrange(self, n: int) -> int:
        return int(self.generator.integers(n))

    def randint(self, a: int, b: int) -> int:
        return int(self.generator.integers(a, b + 1))

    def choice(self, seq):
        return seq[int(self.generator.integers(len(seq)))]

    def sample(self, population, k: int):
        indices = self.generator.choice(len(population), size=k, replace=False)
        return [population[int(i)] for i in indices]


def make_rng(seed: SeedLike, param: str = "seed") -> "random.Random | _NumpyAdapter":
    """Coerce ``seed`` into an object with a ``random() -> float`` method.

    Args:
        seed: ``None``, an integer, a :class:`random.Random`, or a
            :class:`numpy.random.Generator`.
        param: Parameter name used in the error message.

    Raises:
        ValueError: for any other type, in the repository's boundary
            style (parameter name, offending value, accepted options).
    """
    if isinstance(seed, random.Random):
        return seed
    if isinstance(seed, int) and not isinstance(seed, bool):
        return random.Random(seed)
    if seed is None:
        return random.Random()
    if _np is not None and isinstance(seed, _np.random.Generator):
        return _NumpyAdapter(seed)
    raise _unsupported(seed, param)


def _unsupported(seed: object, param: str) -> ValueError:
    return ValueError(
        f"{param} must be an integer, a random.Random, a "
        f"numpy.random.Generator, or None, got {seed!r}"
    )


def derive_seed(master: Optional[int], *labels: object) -> int:
    """Derive a stable child seed from ``master`` and a label path.

    The Monte-Carlo campaign layer gives every trial its own
    deterministic seed: ``derive_seed(campaign_seed, trial_index)``.
    The derivation is a SHA-256 hash, so it is stable across platforms,
    Python versions, and processes — unlike ``hash()`` — and children
    with different labels are statistically independent.

    Args:
        master: The campaign-level seed (``None`` counts as 0).
        labels: Any JSON-representable path components (trial index,
            grid-point index, ...).

    Returns:
        A non-negative 63-bit integer seed.
    """
    import hashlib

    text = ":".join([str(0 if master is None else master)]
                    + [str(label) for label in labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# -- counter-based draws ------------------------------------------------------

#: SplitMix64's stream increment: 2**64 over the golden ratio, odd.
_GAMMA = 0x9E3779B97F4A7C15

#: uint64 cells per generation block.  A block and its scratch (512 KiB)
#: stay in cache; one pass per operation over a whole ``(keys, draws)``
#: array is memory-bound (1,200 x 1,368 draws on a 2-vCPU x86-64 host:
#: 18 ns per uniform against 6 ns in blocks).
_BLOCK_CELLS = 1 << 15


def _mix64(z, scratch) -> None:
    """SplitMix64's output function, in place on a uint64 array.

    Array operations only: numpy warns on uint64 *scalar* overflow but
    wraps arrays silently, which is the modular arithmetic wanted here.
    """
    _np.right_shift(z, 30, out=scratch)
    z ^= scratch
    z *= 0xBF58476D1CE4E5B9
    _np.right_shift(z, 27, out=scratch)
    z ^= scratch
    z *= 0x94D049BB133111EB
    _np.right_shift(z, 31, out=scratch)
    z ^= scratch


def _key_word(seed: SeedLike) -> int:
    """The 64-bit word ``seed`` contributes to its stream key."""
    if isinstance(seed, random.Random):
        return seed.getrandbits(64)
    if isinstance(seed, int) and not isinstance(seed, bool):
        if 0 <= seed < 1 << 64:
            return seed
        return derive_seed(seed)  # fold the rest by hash
    if seed is None:
        return secrets.randbits(64)
    if _np is not None and isinstance(seed, _np.random.Generator):
        return int(seed.integers(1 << 64, dtype=_np.uint64))
    raise _unsupported(seed, "seed")


def stream_keys(seeds: Sequence[SeedLike]):
    """The ``(len(seeds),)`` uint64 stream key of each seed.

    Accepts exactly what :func:`make_rng` accepts, per seed: an integer
    of any sign and size (the map is injective on ``[0, 2**64)``; other
    integers are folded by hash), ``None`` (fresh OS entropy), a
    :class:`random.Random` (its ``getrandbits(64)``) or a
    :class:`numpy.random.Generator` (one 64-bit integer drawn from it).
    The word is finally scrambled by SplitMix64's output function, a
    bijection, so small consecutive seeds get unrelated keys.

    Raises:
        ValueError: for any other seed, with :func:`make_rng`'s message.
    """
    words = _np.array([_key_word(seed) for seed in seeds], dtype=_np.uint64)
    _mix64(words, _np.empty_like(words))
    return words


def uniforms(keys, shape: Union[int, Tuple[int, ...]]):
    """Counter-based float64 uniforms in ``[0, 1)``, one stream per key.

    Returns an array of shape ``(len(keys),) + shape``; the cell at
    flat (C-order) draw index ``i`` of row ``t`` is
    ``(mix64(keys[t] + (i + 1) * 0x9E3779B97F4A7C15) >> 11) * 2**-53``
    — SplitMix64's ``i``-th output from state ``keys[t]``.  Row ``t``
    depends on ``keys[t]`` alone, and a shorter ``shape`` yields a
    prefix of the same draws.  Evaluated in cache-sized blocks of
    rows (or of one row's draws when a row outgrows a block).
    """
    keys = _np.asarray(keys, dtype=_np.uint64)
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    count = math.prod(shape)
    out = _np.empty((keys.size, count), dtype=_np.float64)
    counters = _np.arange(1, count + 1, dtype=_np.uint64)
    counters *= _GAMMA
    rows = max(1, _BLOCK_CELLS // max(count, 1))
    cols = max(1, min(count, _BLOCK_CELLS))
    block = _np.empty((rows, cols), dtype=_np.uint64)
    scratch = _np.empty_like(block)
    for top in range(0, keys.size, rows):
        row_keys = keys[top : top + rows, None]
        for left in range(0, count, cols):
            row_counters = counters[left : left + cols]
            z = block[: row_keys.shape[0], : row_counters.size]
            _np.add(row_keys, row_counters, out=z)
            _mix64(z, scratch[: z.shape[0], : z.shape[1]])
            z >>= 11
            _np.multiply(z, 2.0 ** -53,
                         out=out[top : top + rows, left : left + cols])
    return out.reshape((keys.size,) + shape)
