"""Named, independently seeded random-number streams.

Every distinct source of randomness in an experiment (arrival times,
session classes, durations, popularity drift, ...) draws from its own
stream.  Streams are derived from one root seed with
``numpy.random.SeedSequence.spawn``-style child seeding keyed by the
stream *name*, so

* the whole experiment is reproducible from a single integer seed, and
* changing how often one stream is consumed does not perturb the others
  (common-random-numbers across algorithm variants).

Two kinds of stream share that derivation.  :meth:`RandomStreams.stream`
returns a ``numpy.random.Generator`` (numpy is imported on first use).
:meth:`RandomStreams.pcg64` returns a :class:`PCG64Stream`, a pure-Python
reimplementation of exactly what that generator does for
``uniform(low, high)``: ``SeedSequence(entropy=seed,
spawn_key=(crc32(name),))`` pool mixing, ``generate_state(4, uint64)``,
PCG64 seeding, the XSL-RR output function and
``low + (high - low) * ((next64 >> 11) * 2**-53)``.  Every step is
integer arithmetic masked to the C widths, plus the same two IEEE
double operations, so its draws are bit-identical to numpy's (numpy is
its test oracle).  The §5 grid draws its capacities from it, which keeps
numpy out of the daemon and router processes.
"""

from __future__ import annotations

import numbers
import zlib
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy.random.bit_generator's SeedSequence constants (pool of 4 words).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
# PCG_DEFAULT_MULTIPLIER_128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: int) -> List[int]:
    """``SeedSequence``'s little-endian 32-bit split of a non-negative int."""
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value!r}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_pool(entropy: List[int]) -> List[int]:
    """``SeedSequence.mix_entropy`` over the assembled entropy words."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


class PCG64Stream:
    """numpy's ``default_rng(SeedSequence(seed, spawn_key=(key,)))``, uniform draws only."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int, key: int) -> None:
        run = _uint32_words(seed)
        run += [0] * (_POOL_SIZE - len(run))
        pool = _seed_pool(run + _uint32_words(key))
        # generate_state(4, uint64): 8 hashed words, paired little-endian.
        words = []
        hash_const = _INIT_B
        for index in range(8):
            value = pool[index % _POOL_SIZE] ^ hash_const
            hash_const = (hash_const * _MULT_B) & _MASK32
            value = (value * hash_const) & _MASK32
            words.append(value ^ (value >> _XSHIFT))
        state = [words[i] | (words[i + 1] << 32) for i in range(0, 8, 2)]
        # pcg64_set_seed: state = s0:s1, increment = i0:i1 (high:low).
        self._inc = (((state[2] << 64) | state[3]) << 1 | 1) & _MASK128
        self._state = 0
        self._step()
        self._state = (self._state + ((state[0] << 64) | state[1])) & _MASK128
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128

    def next64(self) -> int:
        """The next raw 64-bit output (LCG step, then XSL-RR)."""
        self._step()
        state = self._state
        value = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & _MASK64

    def uniform(self, low: float, high: float) -> float:
        """One draw from U(low, high), as ``Generator.uniform`` computes it."""
        return low + (high - low) * ((self.next64() >> 11) * (1.0 / 9007199254740992.0))


class RandomStreams:
    """A factory of named ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, numbers.Integral):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, "np.random.Generator"] = {}
        self._pcg64: Dict[str, PCG64Stream] = {}

    @property
    def seed(self) -> int:
        """The root seed this stream family derives from."""
        return self._seed

    def stream(self, name: str) -> "np.random.Generator":
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            import numpy as np

            # Key the child seed on a stable hash of the name so stream
            # identity does not depend on creation order.
            name_key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(name_key,))
            generator = np.random.default_rng(seq)
            self._streams[name] = generator
        return generator

    def pcg64(self, name: str) -> PCG64Stream:
        """The numpy-free twin of ``stream(name)``, for uniform draws only.

        It yields exactly the values ``stream(name).uniform`` would, from
        its own state: use one or the other for a given name, not both.
        """
        generator = self._pcg64.get(name)
        if generator is None:
            generator = PCG64Stream(self._seed, zlib.crc32(name.encode("utf-8")))
            self._pcg64[name] = generator
        return generator

    def exponential(self, name: str, mean: float) -> float:
        """One draw from Exp(mean) on stream ``name`` (Poisson gaps)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        return float(self.stream(name).exponential(mean))

    def uniform(self, name: str, low: float, high: float) -> float:
        """One draw from U(low, high) on stream ``name``."""
        if high < low:
            raise ValueError(f"empty uniform range [{low!r}, {high!r}]")
        return float(self.stream(name).uniform(low, high))
