"""Deterministic 64-bit PRNG used by the randomized backend.

SplitMix64 (Steele, Lea & Flood), ported from the public-domain C reference.
It is tiny and passes BigCrush when used as a 64-bit stream; most importantly
for us it is trivially reproducible from a single integer seed, which is what
makes failure replay byte-exact.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """Mutable generator state; each ``next_u64`` advances by the golden gamma."""

    __slots__ = ("state",)

    def __init__(self, seed: int = 0) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform_in(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] by bitmask-and-reject.

        The mask is the smallest all-ones value covering the span, so the
        rejection rate is below one half and the expected draw count is at
        most two.  A degenerate span still consumes one draw, keeping the
        stream position a pure function of the draw count.
        """
        if lo > hi:
            raise ValueError(f"uniform_in: empty range [{lo}, {hi}]")
        n = hi - lo + 1
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < n:
                return lo + v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SplitMix64(state=0x{self.state:016x})"
