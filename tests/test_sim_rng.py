"""Unit and property tests for the deterministic RNG helpers."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import rng as rng_module
from repro.sim.rng import (
    DeterministicRng,
    substream_seed,
    zipf_cumulative_weights,
    zipf_prefix_table,
)
from tests.trace_oracle import reference_weights, reference_zipf_index


def test_same_seed_same_stream_reproduces():
    a = DeterministicRng(7, stream=3)
    b = DeterministicRng(7, stream=3)
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]


def test_different_streams_differ():
    a = DeterministicRng(7, stream=0)
    b = DeterministicRng(7, stream=1)
    assert [a.uniform() for _ in range(10)] != [b.uniform() for _ in range(10)]


def test_different_seeds_differ():
    a = DeterministicRng(1, stream=0)
    b = DeterministicRng(2, stream=0)
    assert [a.uniform() for _ in range(10)] != [b.uniform() for _ in range(10)]


@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 10_000))
def test_substream_seed_is_64_bit(seed, stream):
    value = substream_seed(seed, stream)
    assert 0 <= value < 2**64


@given(st.integers(min_value=0, max_value=2**31))
def test_substream_adjacent_streams_differ(seed):
    assert substream_seed(seed, 0) != substream_seed(seed, 1)


def test_uniform_in_unit_interval():
    rng = DeterministicRng(42)
    for _ in range(1000):
        value = rng.uniform()
        assert 0.0 <= value < 1.0


def test_randint_bounds_inclusive():
    rng = DeterministicRng(42)
    values = {rng.randint(3, 5) for _ in range(200)}
    assert values == {3, 4, 5}


def test_bernoulli_extremes():
    rng = DeterministicRng(42)
    assert not any(rng.bernoulli(0.0) for _ in range(100))
    assert all(rng.bernoulli(1.0) for _ in range(100))


def test_bernoulli_rate_reasonable():
    rng = DeterministicRng(42)
    hits = sum(rng.bernoulli(0.3) for _ in range(10_000))
    assert 0.27 < hits / 10_000 < 0.33


def test_choice_returns_member():
    rng = DeterministicRng(42)
    options = ["x", "y", "z"]
    for _ in range(50):
        assert rng.choice(options) in options


def test_geometric_mean_one_is_constant():
    rng = DeterministicRng(42)
    assert all(rng.geometric(1.0) == 1 for _ in range(100))


def test_geometric_support_is_positive():
    rng = DeterministicRng(42)
    assert all(rng.geometric(5.0) >= 1 for _ in range(1000))


@pytest.mark.parametrize("mean", [2.0, 8.0, 50.0])
def test_geometric_sample_mean_close(mean):
    rng = DeterministicRng(7)
    n = 20_000
    sample = sum(rng.geometric(mean) for _ in range(n)) / n
    assert abs(sample - mean) / mean < 0.08


def test_zipf_weights_monotone():
    weights = zipf_cumulative_weights(100, 0.8)
    assert len(weights) == 100
    assert all(b > a for a, b in zip(weights, weights[1:]))


def test_zipf_index_in_range():
    rng = DeterministicRng(11)
    weights = zipf_cumulative_weights(64, 0.6)
    for _ in range(500):
        assert 0 <= rng.zipf_index(64, weights) < 64


def test_zipf_skews_to_low_ranks():
    rng = DeterministicRng(11)
    weights = zipf_cumulative_weights(1000, 1.0)
    draws = [rng.zipf_index(1000, weights) for _ in range(5000)]
    low = sum(1 for draw in draws if draw < 100)
    assert low > 1_500  # far more than the uniform 500


@given(st.integers(1, 500), st.floats(0.0, 2.0))
@settings(max_examples=30)
def test_zipf_weights_length_and_positive(size, exponent):
    weights = zipf_cumulative_weights(size, exponent)
    assert len(weights) == size
    assert weights[0] > 0.0


# ----------------------------------------------------------------------
# Shared prefix tables
# ----------------------------------------------------------------------
def _bits(values):
    return array("d", values).tobytes()


@given(
    sizes=st.lists(st.integers(0, 3_000), min_size=1, max_size=8),
    exponent=st.sampled_from([0.6, 0.0, 1.0, 0.37]),
)
@settings(max_examples=40, deadline=None)
def test_shared_table_grown_in_any_order_keeps_every_prefix(sizes, exponent):
    """However the sizes arrive, each one's prefix of the shared table
    is bit for bit the sum the exact-size list always was."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng_module, "_PREFIX_TABLES", {})
        tables = []
        for size in sizes:
            table = zipf_prefix_table(size, exponent)
            assert len(table) == max([0] + sizes[: len(tables) + 1])
            tables.append(table)
            expected = _bits(reference_weights(size, exponent))
            assert _bits(table[:size]) == expected
            assert _bits(zipf_cumulative_weights(size, exponent)) == expected
        # A published table is never written again.
        for size, table in zip(sizes, tables):
            assert _bits(table[:size]) == _bits(
                reference_weights(size, exponent)
            )


@given(
    size=st.integers(1, 400),
    extra=st.integers(0, 2_000),
    seed=st.integers(0, 2**32),
    exponent=st.sampled_from([0.6, 0.0]),
)
@settings(max_examples=40, deadline=None)
def test_zipf_index_on_the_longer_table_draws_like_the_exact_list(
    size, extra, seed, exponent
):
    shared = zipf_prefix_table(size + extra, exponent)
    exact = reference_weights(size, exponent)
    on_shared = DeterministicRng(seed, stream=3)
    on_exact = DeterministicRng(seed, stream=3)
    assert [on_shared.zipf_index(size, shared) for _ in range(60)] == [
        reference_zipf_index(on_exact.source, size, exact) for _ in range(60)
    ]


def test_size_one_draws_index_zero_and_consumes_one_draw():
    shared = zipf_prefix_table(50, 0.6)
    rng = DeterministicRng(5)
    twin = DeterministicRng(5)
    assert [rng.zipf_index(1, shared) for _ in range(10)] == [0] * 10
    for _ in range(10):
        twin.uniform()
    assert rng.uniform() == twin.uniform()


def test_zipf_cumulative_weights_of_nothing_is_empty():
    assert zipf_cumulative_weights(0, 0.6) == []
    assert zipf_cumulative_weights(-3, 0.6) == []
