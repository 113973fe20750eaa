import pytest
from hypothesis import given, settings, strategies as hst

from tricheck.prng import _BLOCK, _GOLDEN, SplitMix64

from _oracles import SplitMix64PerWord, splitmix64_take

# Reference outputs for seed 0, frozen from the independently transcribed
# implementation in _oracles (which was itself checked against the published
# algorithm before anything else was built).
SEED0_FIRST_8 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
    0x53CB9F0C747EA2EA,
    0x2C829ABE1F4532E1,
    0xC584133AC916AB3C,
]


def test_seed0_reference_sequence():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(8)] == SEED0_FIRST_8


@given(hst.integers(min_value=0, max_value=2**64 - 1))
def test_matches_reference_for_any_seed(seed):
    g = SplitMix64(seed)
    assert [g.next_u64() for _ in range(4)] == splitmix64_take(seed, 4)


def test_outputs_are_64_bit():
    g = SplitMix64(2**64 - 1)
    for _ in range(100):
        v = g.next_u64()
        assert 0 <= v < 2**64


def test_same_seed_same_stream():
    a, b = SplitMix64(99), SplitMix64(99)
    assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]


@given(hst.integers(-50, 50), hst.integers(0, 100), hst.integers(0, 2**64 - 1))
def test_uniform_in_bounds(lo, width, seed):
    hi = lo + width
    g = SplitMix64(seed)
    for _ in range(20):
        assert lo <= g.uniform_in(lo, hi) <= hi


def test_uniform_in_rejects_empty_range():
    with pytest.raises(ValueError):
        SplitMix64(0).uniform_in(5, 4)


def test_uniform_in_singleton_consumes_one_draw():
    # a draw must advance the stream even when only one value is possible,
    # otherwise replays of composite draws would desynchronize
    g = SplitMix64(7)
    assert g.uniform_in(3, 3) == 3
    ref = SplitMix64(7)
    ref.next_u64()
    assert g.next_u64() == ref.next_u64()


def test_uniform_in_covers_range():
    g = SplitMix64(1)
    seen = {g.uniform_in(0, 3) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_uniform_in_refuses_a_span_wider_than_a_word():
    # one masked word cannot reach the top of a range of more than 2**64 values
    g = SplitMix64(3)
    for hi in (2**64, 2**66):
        with pytest.raises(ValueError):
            g.uniform_in(0, hi)
    assert 0 <= g.uniform_in(0, 2**64 - 1) < 2**64


# --------------------------------------------------------------------------
# the block generator against the per-word reference

def _same_words(g, ref, n):
    for _ in range(n):
        assert g.next_u64() == ref.next_u64()
        assert g.state == ref.state


def test_words_and_state_match_across_block_boundaries():
    g, ref = SplitMix64(42), SplitMix64PerWord(42)
    assert g.state == ref.state == 42
    _same_words(g, ref, 5 * _BLOCK + 7)


@pytest.mark.parametrize("seed", [2**64 - 1, 2**64 - _GOLDEN, (-3 * _GOLDEN) % 2**64,
                                  (-70 * _GOLDEN) % 2**64, 2**64 + 5, -1])
def test_words_and_state_match_where_the_state_wraps(seed):
    g, ref = SplitMix64(seed), SplitMix64PerWord(seed)
    _same_words(g, ref, 3 * _BLOCK)


def test_state_read_and_assigned_mid_block():
    g, ref = SplitMix64(9), SplitMix64PerWord(9)
    _same_words(g, ref, 10)
    mid = g.state
    g.state = mid  # restarting where it stands changes nothing
    _same_words(g, ref, 10)
    g.state = ref.state = 2**64 - 2
    _same_words(g, ref, 2 * _BLOCK)
    g.state = ref.state = mid
    _same_words(g, ref, _BLOCK + 3)


def test_interleaved_generators_keep_their_own_streams():
    a, b = SplitMix64(1), SplitMix64(2)
    ref_a, ref_b = SplitMix64PerWord(1), SplitMix64PerWord(2)
    for i in range(3 * _BLOCK):
        _same_words(a, ref_a, 1 + i % 3)
        _same_words(b, ref_b, 1 + i % 2)


@pytest.mark.parametrize("bits", range(65))
def test_uniform_in_matches_reference_at_every_span_bit_length(bits):
    spans = {(1 << bits) - 1, 1 << max(bits - 1, 0), (3 << bits) // 4}
    for span in sorted(s for s in spans if s.bit_length() == bits):
        for lo in (0, -(span // 2), 10**6):
            g, ref = SplitMix64(bits), SplitMix64PerWord(bits)
            for _ in range(3 * _BLOCK // 2):
                assert g.uniform_in(lo, lo + span) == ref.uniform_in(lo, lo + span)
                assert g.state == ref.state


@pytest.mark.parametrize("lo, hi", [(0, 2**64 - 1), (-2**63, 2**63 - 1)])
def test_uniform_in_matches_reference_over_a_full_word(lo, hi):
    g, ref = SplitMix64(17), SplitMix64PerWord(17)
    for _ in range(2 * _BLOCK):
        assert g.uniform_in(lo, hi) == ref.uniform_in(lo, hi)
        assert g.state == ref.state


@settings(max_examples=60, deadline=None)
@given(hst.integers(0, 2**64 - 1),
       hst.lists(hst.one_of(hst.just("word"), hst.just("state"),
                            hst.integers(0, 2**64 - 1),
                            hst.tuples(hst.integers(-2**63, 2**63), hst.integers(0, 2**64 - 1))),
                 max_size=200))
def test_any_mix_of_draws_and_restarts_matches_reference(seed, steps):
    g, ref = SplitMix64(seed), SplitMix64PerWord(seed)
    for step in steps:
        if step == "word":
            assert g.next_u64() == ref.next_u64()
        elif step == "state":
            assert g.state == ref.state
        elif isinstance(step, int):
            g.state = ref.state = step
        else:
            lo, span = step
            assert g.uniform_in(lo, lo + span) == ref.uniform_in(lo, lo + span)
        assert g.state == ref.state
