import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfieboost.errors import EmptyDatasetError, NumericError
from selfieboost.sampling import (
    SplitMix64,
    build_alias,
    chunked_sum,
    derive_seed,
    sample_indices,
    uniform_picks,
    weights_from_margins,
)

MASK = (1 << 64) - 1


def reference_splitmix64(seed, count):
    """Independent re-implementation of the published splitmix64 stream."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    def test_published_sequence_seed_zero(self):
        """First outputs for seed 0 of the canonical algorithm (0xE220A8397B1DCDAF...)."""
        rng = SplitMix64(0)
        got = [rng.next_u64() for _ in range(5)]
        assert got == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
            17909611376780542444,
            1961750202426094747,
        ]
        assert got[0] == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("seed", [1, 42, 1234567, 2**63 + 17])
    def test_matches_reference(self, seed):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(50)] == reference_splitmix64(seed, 50)

    def test_block_matches_scalar_stream(self):
        a, b = SplitMix64(99), SplitMix64(99)
        block = a.next_u64_block(37)
        assert [int(v) for v in block] == [b.next_u64() for _ in range(37)]
        # stream continues identically after a block
        assert a.next_u64() == b.next_u64()

    @pytest.mark.parametrize("steps,batch,n", [(0, 32, 256), (1, 1, 1), (7, 5, 13), (40, 32, 256)])
    def test_uniform_picks_equal_per_step_draws(self, steps, batch, n):
        a, b = SplitMix64(11), SplitMix64(11)
        block = uniform_picks(a, steps * batch, n).reshape(steps, batch)
        assert block.dtype == np.int64
        for row in block:
            per_step = np.minimum(np.floor(b.uniform_block(batch) * n).astype(np.int64), n - 1)
            np.testing.assert_array_equal(row, per_step)
        assert a.next_u64() == b.next_u64()

    def test_uniform_picks_reject_a_negative_count(self):
        rng = SplitMix64(11)
        with pytest.raises(ValueError):
            uniform_picks(rng, -1, 5)
        assert rng.next_u64() == SplitMix64(11).next_u64()

    @pytest.mark.parametrize("n", [0, -1])
    def test_uniform_picks_reject_no_rows(self, n):
        # without the check every pick would be n - 1: row -1 wraps to the last row
        rng = SplitMix64(1)
        with pytest.raises(ValueError):
            uniform_picks(rng, 3, n)
        assert rng.next_u64() == SplitMix64(1).next_u64()

    @pytest.mark.parametrize("k", [0, 1, 37])
    def test_skip_equals_k_outputs(self, k):
        a, b = SplitMix64(2**63 + 17), SplitMix64(2**63 + 17)
        a.skip(k)
        for _ in range(k):
            b.next_u64()
        assert a.next_u64() == b.next_u64()

    @pytest.mark.parametrize("k", [0, 1, 37])
    def test_negative_skip_replays_the_last_outputs(self, k):
        rng = SplitMix64(0)  # a rewind past the seed wraps like the counter
        rng.skip(-5)
        last = [rng.next_u64() for _ in range(k)]
        rng.skip(-k)
        assert [rng.next_u64() for _ in range(k)] == last

    def test_uniform_range_and_derivation(self):
        rng = SplitMix64(7)
        ref = reference_splitmix64(7, 1000)
        vals = [rng.uniform() for _ in range(1000)]
        assert vals == [(u >> 11) * 2.0**-53 for u in ref]
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_normal_block_deterministic_and_finite(self):
        a = SplitMix64(5).normal_block(501)
        b = SplitMix64(5).normal_block(501)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.isfinite(a))
        assert abs(a.mean()) < 0.2  # loose sanity at this sample size

    def test_derive_seed_independent_streams(self):
        s0, s1 = derive_seed(42, 0), derive_seed(42, 1)
        assert s0 != s1
        assert derive_seed(42, 0) == s0


class TestWeightsFromMargins:
    def test_equal_margins_give_uniform(self):
        probs, log_normalizer = weights_from_margins(np.zeros(8))
        np.testing.assert_allclose(probs, np.full(8, 0.125), atol=1e-15)
        assert log_normalizer == pytest.approx(math.log(8), abs=1e-12)

    def test_concrete_three_point_distribution(self):
        # exp(0), exp(0), exp(log 2) -> 1 : 1 : 2
        probs, _ = weights_from_margins(np.array([0.0, 0.0, -math.log(2.0)]))
        np.testing.assert_allclose(probs, [0.25, 0.25, 0.5], atol=1e-15)

    def test_huge_margins_do_not_overflow(self):
        probs, log_normalizer = weights_from_margins(np.array([1000.0, 1000.0]))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)
        assert log_normalizer == pytest.approx(-1000.0 + math.log(2.0), abs=1e-9)

    def test_normalizer_is_logsumexp_of_negated_margins(self):
        margins = SplitMix64(3).normal_block(100) * 5.0
        _, log_normalizer = weights_from_margins(margins)
        expect = math.log(math.fsum(math.exp(-v) for v in margins))
        assert log_normalizer == pytest.approx(expect, abs=1e-12)

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=200),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, margins, shift):
        margins = np.asarray(margins)
        base, _ = weights_from_margins(margins)
        shifted, _ = weights_from_margins(margins + shift)
        np.testing.assert_allclose(shifted, base, atol=1e-15)

    def test_probs_sum_to_one(self):
        probs, _ = weights_from_margins(SplitMix64(11).normal_block(5000) * 30)
        assert abs(chunked_sum(probs) - 1.0) <= 1e-12
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    def test_errors(self):
        with pytest.raises(EmptyDatasetError):
            weights_from_margins(np.array([]))
        with pytest.raises(NumericError):
            weights_from_margins(np.array([1.0, np.nan]))
        with pytest.raises(NumericError):
            weights_from_margins(np.array([np.inf]))


class StubRng:
    """Hands ``sample_indices`` chosen uniforms instead of random ones."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def uniform_block(self, count):
        assert count == len(self.values)
        return self.values


def below(x):
    return float(np.nextafter(x, 0.0))


TOP = 1.0 - 2.0**-53  # the largest uniform the generator produces


class TestInverseCdfTable:
    def test_table_is_the_running_sum(self):
        np.testing.assert_array_equal(build_alias(np.array([0.25, 0.25, 0.5])), [0.25, 0.5, 1.0])

    def test_boundary_values_map_to_their_owner(self):
        # index i owns [c[i-1], c[i]) with c = (0.25, 0.5, 1.0); the last value,
        # c[-1] itself, is beyond the generator and goes to the last index
        table = build_alias(np.array([0.25, 0.25, 0.5]))
        values = [0.0, below(0.25), 0.25, below(0.5), 0.5, below(1.0), TOP, 1.0]
        draws = sample_indices(table, len(values), StubRng(values))
        np.testing.assert_array_equal(draws, [0, 0, 1, 1, 2, 2, 2, 2])

    @pytest.mark.parametrize(
        "probs,expect",
        [
            ((0.5, 0.0, 0.5, 0.0), [0, 0, 2, 2, 2, 2]),
            ((1.0, 0.0, 0.0), [0, 0, 0, 0, 0, 0]),
            ((0.0, 0.5, 0.0, 0.5, 0.0), [1, 1, 3, 3, 3, 3]),
        ],
    )
    def test_zero_weights_are_never_drawn(self, probs, expect):
        table = build_alias(np.array(probs))
        values = [0.0, below(0.5), 0.5, below(1.0), TOP, 1.0]
        np.testing.assert_array_equal(sample_indices(table, len(values), StubRng(values)), expect)

    @settings(max_examples=80)
    @given(st.lists(st.sampled_from([0.0, 1e-6, 0.3, 1.0, 7.0]), min_size=1, max_size=40))
    def test_every_draw_lands_in_its_interval(self, raw):
        if sum(raw) == 0:
            raw = raw + [1.0]
        probs = np.asarray(raw) / math.fsum(raw)
        table = build_alias(probs)
        values = np.concatenate([SplitMix64(len(raw)).uniform_block(200), [0.0, TOP]])
        draws = sample_indices(table, len(values), StubRng(values))
        x = values * table[-1]
        lower = np.concatenate([[0.0], table])[draws]
        assert np.all(probs[draws] > 0)
        assert np.all((lower <= x) & (x < table[draws]))

    def test_rejects_bad_input(self):
        with pytest.raises(NumericError):
            build_alias(np.array([0.5, -0.1, 0.6]))
        with pytest.raises(NumericError):
            build_alias(np.array([0.4, 0.4]))  # sums to 0.8
        with pytest.raises(EmptyDatasetError):
            build_alias(np.array([]))


class TestSampleIndices:
    def test_single_outcome(self):
        table = build_alias(np.array([1.0]))
        draws = sample_indices(table, 100, SplitMix64(0))
        assert np.all(draws == 0)

    def test_deterministic_for_fixed_seed(self):
        table = build_alias(np.array([0.25, 0.25, 0.5]))
        a = sample_indices(table, 1000, SplitMix64(42))
        b = sample_indices(table, 1000, SplitMix64(42))
        np.testing.assert_array_equal(a, b)

    def test_degenerate_distribution(self):
        table = build_alias(np.array([1.0, 0.0, 0.0]))
        draws = sample_indices(table, 500, SplitMix64(9))
        assert np.all(draws == 0)

    def test_empirical_frequencies(self):
        table = build_alias(np.array([0.25, 0.25, 0.5]))
        draws = sample_indices(table, 100_000, SplitMix64(42))
        freq = np.bincount(draws, minlength=3) / len(draws)
        np.testing.assert_allclose(freq, [0.25, 0.25, 0.5], atol=0.02)

    def test_needs_positive_count(self):
        table = build_alias(np.array([1.0]))
        with pytest.raises(ValueError):
            sample_indices(table, 0, SplitMix64(0))


class TestReductions:
    def test_chunked_sum_matches_fsum(self):
        values = SplitMix64(1).normal_block(5000) * 100
        assert chunked_sum(values) == pytest.approx(math.fsum(values), abs=1e-8)

    def test_chunked_sum_fixed_order(self):
        values = SplitMix64(2).normal_block(4099)
        assert chunked_sum(values) == chunked_sum(values)
