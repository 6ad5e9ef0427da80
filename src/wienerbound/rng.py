"""Portable seeded randomness: the splitmix64 generator with split streams.

The generator is fully specified so corpora are reproducible bit-for-bit:
state advances by the 64-bit golden gamma 0x9E3779B97F4A7C15 and each output
is the finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic modulo 2**64.  Bounded draws use rejection sampling, so
they are unbiased and depend only on the raw output sequence.

splitmix64 is counter based: the i-th output after state s is the finalizer
of s + i * gamma, so ``SplitMix64.chances`` evaluates up to ``_LANES`` draws
at once in one Python int, one 128-bit lane per draw.  Every lane value is
kept below 2**64 between steps, so a shift leaks the next lane's low bits
only into the upper half of a lane (where a per-lane mask clears them), a
64-bit by 64-bit product fits its lane, and no carry or borrow ever crosses
into the next lane.
"""

from __future__ import annotations

from typing import Iterator

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Draws per block of ``chances``: a block's temporaries are 64 KiB ints.
_LANES = 4096
# Lane i (bits 128i .. 128i + 127) of these holds 1 and (i + 1) * gamma.
# Built from bytes: a sum of shifted ints costs ~100 ms at import.
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_STEP_GAMMAS = int.from_bytes(
    b"".join((i * _GOLDEN).to_bytes(16, "little") for i in range(1, _LANES + 1)),
    "little",
)


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _chance_blocks(state: int, threshold: int, count: int) -> Iterator[bytes]:
    # Lane i of a block of k draws starting at draw lo holds the state
    # state + (lo + i + 1) * gamma and ends as the flag ``output < threshold``.
    # bound - z with bound = threshold + 2**64 - 1 lies in [0, 2**65) per
    # lane and has bit 64 set exactly when z < threshold, for every
    # threshold in [0, 2**64]; that bit is byte 8 of the lane.
    bound = threshold + _MASK64
    for lo in range(0, count, _LANES):
        k = min(_LANES, count - lo)
        cut = (1 << 128 * k) - 1
        ones = _ONES & cut
        mask = _MASK64 * ones  # per block: as a constant it adds 64 KiB to every process
        base = (state + lo * _GOLDEN) & _MASK64
        z = (base * ones + (_STEP_GAMMAS & cut)) & mask
        z = (((z ^ (z >> 30)) & mask) * _MIX_A) & mask
        z = (((z ^ (z >> 27)) & mask) * _MIX_B) & mask
        z = bound * ones - (z ^ ((z >> 31) & mask))
        yield z.to_bytes(16 * k, "little")[8::16]


class SplitMix64:
    """Deterministic 64-bit generator; cheap to seed, cheap to split."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def chance(self, p: float) -> bool:
        """Bernoulli draw; consumes exactly one output regardless of p."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        return self.next_u64() < int(p * (1 << 64))

    def chances(self, p: float, count: int) -> Iterator[bytes]:
        """``count`` Bernoulli draws, equal to ``count`` calls of ``chance(p)``.

        The draws come as ``bytes`` blocks of 0s and 1s, at most ``_LANES``
        per block.  A block is computed at once in one int whose bits
        128i .. 128i + 127 hold its i-th draw; each lane stays below 2**64
        between steps, so lanes never interfere (see the module docstring).
        The generator advances past all ``count`` draws at the call; the
        blocks are computed as they are iterated, so memory is bounded per
        block.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        state = self._state
        self._state = (state + count * _GOLDEN) & _MASK64
        return _chance_blocks(state, int(p * (1 << 64)), count)

    def split(self) -> "SplitMix64":
        """Fork an independently seeded child generator."""
        return SplitMix64(self.next_u64())


def stream(seed: int, index: int) -> SplitMix64:
    """The index-th independent stream of a root seed.

    Equivalent to seeding from the index-th output of ``SplitMix64(seed)``
    but computed in O(1), so streams can be assigned to tasks in any order.
    """
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index}")
    state = (seed + (index + 1) * _GOLDEN) & _MASK64
    return SplitMix64(_mix64(state))
