"""The vectorized SplitMix64 against the scalar one it stands beside, and
the counter fold against the keyed draws it splits."""

import warnings

import numpy as np
import pytest

from repro.rng import counter_draw, counter_fold, splitmix64, splitmix64_array

EDGES = [0, 1, 2**63, 2**64 - 1]


def test_array_form_equals_scalar_on_the_edges():
    out = splitmix64_array(np.array(EDGES, dtype=np.uint64))
    assert out.dtype == np.uint64
    assert out.tolist() == [splitmix64(x) for x in EDGES]


def test_array_form_equals_scalar_on_a_sweep():
    xs = np.arange(-50, 50, dtype=np.int64) * 0x9E3779B97F4A7C1
    expected = [splitmix64(int(x) % 2**64) for x in xs]
    assert splitmix64_array(xs).tolist() == expected


def test_overflow_wraps_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = splitmix64_array(np.uint64(2**64 - 1))
        splitmix64_array(np.array(EDGES, dtype=np.uint64).reshape(2, 2))
    assert out.shape == (1,)
    assert int(out[0]) == splitmix64(2**64 - 1)


def test_input_is_left_unchanged():
    xs = np.array(EDGES, dtype=np.uint64)
    splitmix64_array(xs)
    assert xs.tolist() == EDGES


@pytest.mark.parametrize("shape", [(0,), (3, 4)])
def test_shape_is_kept(shape):
    xs = np.arange(int(np.prod(shape)), dtype=np.uint64).reshape(shape)
    out = splitmix64_array(xs)
    assert out.shape == shape
    assert out.ravel().tolist() == [splitmix64(int(x)) for x in xs.ravel()]


@pytest.mark.parametrize("keys", [(), (5,), (5, 2, 31), (2**64 - 1, -3, 2**70)])
@pytest.mark.parametrize("j", [0, 1, 2, 7])
def test_folded_prefix_draws_equal_keyed_draws(keys, j):
    """A prefix folded once, then one key per draw: what the die sampler
    does per command, bit for bit ``counter_draw`` of the whole key."""
    state = counter_draw(11, *keys)
    assert counter_fold(state, j) == counter_draw(11, *keys, j)
    assert splitmix64(state ^ j) == counter_draw(11, *keys, j)
    assert counter_fold(state, j, 0x5EC0) == counter_draw(11, *keys, j, 0x5EC0)
    assert counter_fold(state) == state
