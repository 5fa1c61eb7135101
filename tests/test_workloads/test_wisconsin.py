"""Tests for the Wisconsin-benchmark key permutation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.workloads.wisconsin import (
    _primitive_root,
    wisconsin_permutation,
)


class TestPermutation:
    @pytest.mark.parametrize("size", [1, 2, 10, 100, 999, 1000, 1001, 5000])
    def test_is_a_permutation(self, size):
        keys = list(wisconsin_permutation(size))
        assert sorted(keys) == list(range(size))

    def test_deterministic_for_a_seed(self):
        assert list(wisconsin_permutation(500, seed=3)) == list(
            wisconsin_permutation(500, seed=3)
        )

    def test_different_seeds_differ(self):
        assert list(wisconsin_permutation(500, seed=1)) != list(
            wisconsin_permutation(500, seed=7)
        )

    def test_not_sorted(self):
        keys = list(wisconsin_permutation(1000))
        assert keys != sorted(keys)

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            list(wisconsin_permutation(0))

    def test_invalid_seed(self):
        with pytest.raises(ConfigurationError):
            list(wisconsin_permutation(100, seed=0))

    def test_oversized_relation_rejected(self):
        with pytest.raises(ConfigurationError):
            list(wisconsin_permutation(200_000_000))

    @settings(max_examples=20, deadline=None)
    @given(size=st.integers(min_value=1, max_value=3000))
    def test_property_permutation_for_any_size(self, size):
        assert sorted(wisconsin_permutation(size)) == list(range(size))


class TestPrimitiveRoots:
    @pytest.mark.parametrize("prime", [1_009, 10_007, 100_003])
    def test_root_generates_the_full_group(self, prime):
        root = _primitive_root(prime)
        # The order of the root must be exactly prime - 1: check that no
        # proper divisor q of (prime - 1) gives root^q == 1.
        order = prime - 1
        assert pow(root, order, prime) == 1
        for divisor in range(2, 200):
            if order % divisor == 0:
                assert pow(root, order // divisor, prime) != 1

