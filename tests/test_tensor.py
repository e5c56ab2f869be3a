"""The softmax kernel and the seeded generator."""

import numpy as np
import pytest

from ropnet.errors import RangeError
from ropnet.tensor import SeededRng, softmax_last_axis

from oracles import WholeArrayRng, softmax_loop, traced_peak


class TestSoftmax:
    def test_rows_sum_to_one_even_for_large_magnitudes(self):
        rng = np.random.default_rng(3)
        for scale in (1.0, 1e3):
            x = rng.normal(size=(6, 5)) * scale
            s = softmax_last_axis(x)
            assert np.all(s >= 0)
            np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 7))
        s = softmax_last_axis(x)
        for row in range(3):
            np.testing.assert_allclose(
                s[row], softmax_loop(x[row]), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("shape", [(1, 4), (3, 7), (64, 4, 4, 4)])
    def test_bits_of_max_and_sum(self, shape):
        x = np.random.default_rng(5).normal(size=shape) * 30.0
        e = np.exp(x - np.max(x, axis=-1, keepdims=True))
        want = e / np.sum(e, axis=-1, keepdims=True)
        assert softmax_last_axis(x).tobytes() == want.tobytes()


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        """Two instances with one seed agree over a long stream."""
        a, b = SeededRng(123), SeededRng(123)
        np.testing.assert_array_equal(a.uniform(1_000_000), b.uniform(1_000_000))

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(RangeError, match="seed must be an integer"):
            SeededRng(seed)

    def test_numpy_and_negative_seeds_kept(self):
        """A numpy int seeds the same stream as the int it holds, and a
        negative seed wraps modulo 2**64."""
        np.testing.assert_array_equal(
            SeededRng(np.int64(7)).uniform(10), SeededRng(7).uniform(10)
        )
        np.testing.assert_array_equal(
            SeededRng(-1).uniform(10), SeededRng(2**64 - 1).uniform(10)
        )

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededRng(1).uniform(100), SeededRng(2).uniform(100))

    def test_block_draws_match_scalar_draws(self):
        """Drawing n at once equals n draws of one."""
        a, b = SeededRng(9), SeededRng(9)
        block = a.uniform(64)
        singles = np.array([b.uniform(1)[0] for _ in range(64)])
        np.testing.assert_array_equal(block, singles)

    def test_uniform_range_contract(self):
        """lo=hi-eps sweep: all draws in [lo, hi)."""
        rng = SeededRng(5)
        for lo in (-1.0, 0.0, 2.5):
            hi = lo + 1e-6
            draws = rng.uniform(1000, lo, hi)
            assert np.all(draws >= lo)
            assert np.all(draws < hi)

    def test_uniform_rejects_empty_range(self):
        with pytest.raises(RangeError):
            SeededRng(0).uniform(3, 1.0, 1.0)

    def test_uniform_moments(self):
        draws = SeededRng(11).uniform(200_000)
        assert abs(draws.mean() - 0.5) < 5e-3
        assert abs(draws.var() - 1.0 / 12.0) < 5e-3

    def test_normal_moments(self):
        draws = SeededRng(13).normal(200_000)
        assert abs(draws.mean()) < 1e-2
        assert abs(draws.std() - 1.0) < 1e-2
        assert np.all(np.isfinite(draws))

    def test_permutation_is_a_permutation(self):
        for seed in (0, 1, 2):
            perm = SeededRng(seed).permutation(257)
            np.testing.assert_array_equal(np.sort(perm), np.arange(257))

    def test_shapes(self):
        rng = SeededRng(1)
        assert rng.uniform((2, 3, 4)).shape == (2, 3, 4)
        assert rng.normal((3, 5)).shape == (3, 5)
        assert rng.normal(7).shape == (7,)


DRAW_SHAPES = [(), (1,), (7,), (5, 3), (20002, 8)]


class TestInPlaceDraws:
    """The in-place draws keep the bits and stream position of the
    whole-array expressions in ``oracles.WholeArrayRng``."""

    @staticmethod
    def _same(new, old):
        assert new.shape == old.shape
        assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("shape", DRAW_SHAPES)
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (-0.3, 0.7)])
    def test_uniform_bits(self, shape, lo, hi):
        new, old = SeededRng(31), WholeArrayRng(31)
        self._same(new.uniform(shape, lo, hi), old.uniform(shape, lo, hi))
        self._same(new.uniform(5), old.uniform(5))

    @pytest.mark.parametrize("shape", DRAW_SHAPES)
    def test_normal_bits(self, shape):
        new, old = SeededRng(37), WholeArrayRng(37)
        self._same(new.normal(shape), old.normal(shape))
        self._same(new.normal(5), old.normal(5))

    def test_normal_peak_is_twice_its_result(self):
        """The uniforms hold r and theta in place and the result is
        written half by half: no temporary beyond those two arrays
        (the whole-array form peaks at 4x its result)."""
        draws, peak = traced_peak(lambda: SeededRng(41).normal((20002, 8)))
        assert peak <= 2.5 * draws.nbytes, peak / draws.nbytes
