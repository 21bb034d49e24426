import numpy as np
import pytest

import svpark as sv
from svpark.exceptions import InvalidResolution


def test_same_seed_reproduces_bitwise():
    a = sv.generate(123, 4, 3, 32).increments
    b = sv.generate(123, 4, 3, 32).increments
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = sv.generate(1, 2, 1, 16).increments
    b = sv.generate(2, 2, 1, 16).increments
    assert not np.array_equal(a, b)


def test_non_power_of_two_rejected():
    with pytest.raises(InvalidResolution):
        sv.generate(0, 1, 1, 1000)


@pytest.mark.parametrize(
    "seed, num_paths, num_channels",
    [(1.9, 2, 1), (-1, 2, 1), ("1", 2, 1), (True, 2, 1), (1, 2.7, 1), (1, 0, 1), (1, 2, 1.0)],
)
def test_malformed_seed_or_count_rejected_at_call(seed, num_paths, num_channels):
    with pytest.raises(ValueError):
        sv.generate(seed, num_paths, num_channels, 16)


def test_numpy_integer_seed_and_counts_accepted():
    a = sv.generate(np.int64(5), np.int32(2), np.int64(1), 16).increments
    assert np.array_equal(a, sv.generate(5, 2, 1, 16).increments)


def test_increment_variance_matches_step():
    # About 10^6 draws at h = 2^-10: the sample variance estimator has
    # relative standard error sqrt(2/(N-1)); stay within 3 of those, and
    # the mean within 5 of its own standard error.
    h = 2.0**-10
    paths = sv.generate(77, 1024, 1, 2**10, horizon=(0.0, 1.0))
    draws = paths.increments.ravel()
    n = draws.size
    assert n == 2**20
    rel_se = np.sqrt(2.0 / (n - 1))
    assert abs(draws.var() / h - 1.0) <= 3 * rel_se
    assert abs(draws.mean()) <= 5 * np.sqrt(h / n)


def test_coarsen_identity_view():
    paths = sv.generate(9, 3, 2, 16)
    assert np.array_equal(sv.coarsen_array(paths.increments, 1), paths.increments)


def test_coarsen_pairs_sum_exactly():
    paths = sv.generate(9, 3, 2, 16)
    manual = paths.increments[..., 0::2] + paths.increments[..., 1::2]
    assert np.array_equal(sv.coarsen_array(paths.increments, 2), manual)


def test_coarsen_telescopes_to_total_displacement():
    paths = sv.generate(13, 2, 1, 64)
    total = sv.coarsen_array(paths.increments, 64)[..., 0]
    assert np.allclose(total, paths.increments.sum(axis=-1), atol=1e-14)


def test_coarsen_associativity_bitwise():
    increments = sv.generate(21, 2, 2, 64).increments
    twice = sv.coarsen_array(sv.coarsen_array(increments, 2), 2)
    assert np.array_equal(twice, sv.coarsen_array(increments, 4))


def test_coarsen_invalid_factors():
    increments = sv.generate(1, 1, 1, 16).increments
    with pytest.raises(InvalidResolution):
        sv.coarsen_array(increments, 3)
    with pytest.raises(InvalidResolution):
        sv.coarsen_array(increments, 32)


@pytest.mark.parametrize(
    "horizon", [(1.0, 0.0), (0.5, 0.5), (0.0, np.inf)], ids=["reversed", "empty", "infinite"]
)
def test_horizon_without_finite_positive_length_rejected(horizon):
    with pytest.raises(ValueError, match="horizon"):
        sv.generate(1, 1, 1, 16, horizon=horizon)


def test_blocks_partition_bitwise():
    paths = sv.generate(31, 10, 3, 8)
    full = paths.block(0, 10)
    pieces = np.concatenate([paths.block(0, 4), paths.block(4, 7), paths.block(7, 10)])
    assert np.array_equal(full, pieces)


def test_block_matches_cached_slice():
    paths = sv.generate(31, 10, 3, 8)
    _ = paths.increments  # materialize the cache
    assert np.array_equal(paths.block(2, 5), paths.increments[2:5])


def test_paths_are_per_path_streams():
    # Path 3 of a 10-path ensemble equals path 3 of a 4-path ensemble:
    # streams are keyed by absolute path index, not ensemble layout.
    big = sv.generate(8, 10, 2, 16).increments
    small = sv.generate(8, 4, 2, 16).increments
    assert np.array_equal(big[:4], small)


@pytest.mark.parametrize("start, stop", [(-1, 2), (3, 2), (0, 11)])
def test_block_out_of_range_rejected(start, stop):
    with pytest.raises(ValueError, match="path block out of range"):
        sv.generate(31, 10, 3, 8).block(start, stop)
