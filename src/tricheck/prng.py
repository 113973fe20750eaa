"""Deterministic 64-bit PRNG used by the randomized backend.

SplitMix64 (Steele, Lea & Flood), ported from the public-domain C reference.
It is tiny and passes BigCrush when used as a 64-bit stream; most importantly
for us it is trivially reproducible from a single integer seed, which is what
makes failure replay byte-exact.

The words are mixed a block at a time.  Word ``k`` of a block that starts at
state ``s`` depends only on ``s + (k+1)·γ``, so a block's words are mixed
together by a few operations on one Python int that holds each word in its
own 128-bit lane: 64 bits for the word and 64 bits of headroom for the
multiply.  Masking with the lane mask after every shift clears the bits a
right shift carries down from the next lane.  This yields the same stream as
the per-word reference at well under half the cost per word.
"""

from __future__ import annotations

import sys

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_BLOCK = 64  # words per block, by measurement: 32 cost more per word, 128 more per fresh generator
_BLOCK_STEP = _BLOCK * _GOLDEN


def _lanes(values: list[int]) -> int:
    """One int holding each value in its own 128-bit lane, the first lowest."""
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")


_LANE_ONES = _lanes([1] * _BLOCK)
_LANE_MASK = _lanes([_MASK64] * _BLOCK)
_LANE_STEPS = _lanes([(k + 1) * _GOLDEN for k in range(_BLOCK)])
# each word is the low half of its lane; big-endian bytes put lane 0 last
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)

_SPAN_MASKS = tuple((1 << n) - 1 for n in range(65))  # by the span's bit length


def _mix_block(base: int) -> list[int]:
    """The ``_BLOCK`` words that follow state ``base``."""
    m = _LANE_MASK
    z = (base * _LANE_ONES + _LANE_STEPS) & m  # lane k: base + (k+1)·γ, mod 2**64
    z ^= (z >> 30) & m
    z = (z * 0xBF58476D1CE4E5B9) & m
    z ^= (z >> 27) & m
    z = (z * 0x94D049BB133111EB) & m
    z ^= z >> 31  # what this carries into a lane's upper half is never read
    return memoryview(z.to_bytes(16 * _BLOCK, sys.byteorder)).cast("Q")[_LOW_WORDS].tolist()


def _state_at(base: int, used: int) -> int:
    """The state after word ``used`` of the block that follows state ``base``:
    what ``SplitMix64.state`` reads when ``_base`` and ``_used`` hold these."""
    return (base + used * _GOLDEN) & _MASK64


class SplitMix64:
    """Mutable generator state; each ``next_u64`` advances by the golden gamma."""

    __slots__ = ("_base", "_used", "_words")

    def __init__(self, seed: int = 0) -> None:
        self.state = seed

    @property
    def state(self) -> int:
        """The state after the last word drawn; assigning it restarts there."""
        return _state_at(self._base, self._used)

    @state.setter
    def state(self, value: int) -> None:
        # a used-up block that ends at ``value``: the next word mixes a fresh one
        self._base = (value - _BLOCK_STEP) & _MASK64
        self._used = _BLOCK

    def next_u64(self) -> int:
        i = self._used
        if i == _BLOCK:
            self._base = base = (self._base + _BLOCK_STEP) & _MASK64
            self._words = _mix_block(base)
            i = 0
        self._used = i + 1
        return self._words[i]

    def uniform_in(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] by bitmask-and-reject.

        The mask is the smallest all-ones value covering the span, so the
        rejection rate is below one half and the expected draw count is at
        most two.  A degenerate span still consumes one draw, keeping the
        stream position a pure function of the draw count.  A range of more
        than 2**64 values cannot be drawn from one word and is refused.
        """
        span = hi - lo
        if span < 0:
            raise ValueError(f"uniform_in: empty range [{lo}, {hi}]")
        try:
            mask = _SPAN_MASKS[span.bit_length()]
        except IndexError:
            raise ValueError(f"uniform_in: range [{lo}, {hi}] is wider than a 64-bit word") from None
        v = self.next_u64() & mask
        while v > span:
            v = self.next_u64() & mask
        return lo + v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SplitMix64(state=0x{self.state:016x})"
