"""Random-stream generator and inverse-normal tests."""

import math
import statistics

import pytest
from hypothesis import example, given, strategies as st

from qcdesign.errors import InvalidArgumentError
from qcdesign.rng import (
    DEFAULT_MODULUS,
    DEFAULT_MULTIPLIER,
    MAX_STREAM_ID,
    STREAM_JUMP,
    RandomStream,
    inverse_normal_cdf,
    new_stream,
)


def test_first_uniform_from_state_one():
    stream = new_stream(1)
    assert stream.next_uniform() == pytest.approx(
        DEFAULT_MULTIPLIER / DEFAULT_MODULUS, abs=1e-12
    )
    # the quotient itself is about 0.293534
    assert DEFAULT_MULTIPLIER / DEFAULT_MODULUS == pytest.approx(0.2935, abs=5e-4)


def test_stream_jump_rule():
    # stream id k starts A^(k*J) * seed mod m steps ahead
    expected = pow(DEFAULT_MULTIPLIER, STREAM_JUMP, DEFAULT_MODULUS) * 1 % DEFAULT_MODULUS
    assert new_stream(1, 1).state == expected
    assert new_stream(1, 0).next_uniform() != new_stream(1, 1).next_uniform()


def test_streams_are_disjoint_within_jump():
    head = [new_stream(7, 0).next_uniform() for _ in range(1)]
    jumped = new_stream(7, 0)
    for _ in range(STREAM_JUMP):
        last = jumped.next_uniform()
    assert new_stream(7, 1).next_uniform() == pytest.approx(
        RandomStream(7, 1).next_uniform()
    )
    # after exactly STREAM_JUMP draws, stream 0 has reached stream 1's start
    assert last == pytest.approx(new_stream(7, 1).state / DEFAULT_MODULUS)
    assert head[0] != last


def test_reproducibility_and_substream():
    a = new_stream(12345, 6)
    b = new_stream(12345, 2).substream(4)
    assert [a.next_uniform() for _ in range(5)] == [b.next_uniform() for _ in range(5)]


def test_uniform_sample_mean():
    stream = new_stream(1)
    mean = statistics.fmean(stream.next_uniform() for _ in range(10_000))
    assert abs(mean - 0.5) < 0.02


def test_inverse_normal_quantiles():
    assert inverse_normal_cdf(0.975) == pytest.approx(1.95996, abs=1e-4)
    assert inverse_normal_cdf(0.5) == 0.0
    assert inverse_normal_cdf(0.841344746) == pytest.approx(1.0, abs=1e-6)


def test_normal_consumes_one_uniform():
    a = new_stream(99)
    b = new_stream(99)
    a.next_normal()
    b.next_uniform()
    assert a.state == b.state


@example(1, 0, 0)
@example(1, 0, 1)
@example(12345, MAX_STREAM_ID, 400)
@given(
    st.integers(1, DEFAULT_MODULUS - 1),
    st.integers(0, MAX_STREAM_ID),
    st.one_of(st.sampled_from([0, 1]), st.integers(0, 400)),
)
def test_normals_match_next_normal_bit_for_bit(seed, stream_id, count):
    batch, scalar = new_stream(seed, stream_id), new_stream(seed, stream_id)
    values = batch.normals(count)
    expected = [scalar.next_normal() for _ in range(count)]
    assert [v.hex() for v in values] == [v.hex() for v in expected]
    assert batch.state == scalar.state


@pytest.mark.parametrize("seed, stream_id", [(1, 0), (12345, 3), (2**31 - 2, MAX_STREAM_ID)])
def test_normals_match_next_normal_in_both_tails(seed, stream_id):
    # The BSM tail series serves u < 0.08 and u > 0.92, |z| >= 1.405.
    values = new_stream(seed, stream_id).normals(400)
    assert min(values) < -1.41 and max(values) > 1.41
    scalar = new_stream(seed, stream_id)
    assert [v.hex() for v in values] == [scalar.next_normal().hex() for _ in range(400)]


def test_seed_validation():
    with pytest.raises(InvalidArgumentError):
        new_stream(0)
    with pytest.raises(InvalidArgumentError):
        new_stream(DEFAULT_MODULUS)
    with pytest.raises(InvalidArgumentError):
        new_stream(1, -1)


def test_stream_ids_stop_before_the_period_wraps():
    assert MAX_STREAM_ID == 21473
    # The last stream's STREAM_JUMP draws end inside the period, and two
    # ids later a stream would start on stream 0's draw 16,354.
    assert (MAX_STREAM_ID + 1) * STREAM_JUMP <= DEFAULT_MODULUS - 1
    start = pow(DEFAULT_MULTIPLIER, (MAX_STREAM_ID + 2) * STREAM_JUMP, DEFAULT_MODULUS)
    assert start == pow(DEFAULT_MULTIPLIER, 16354, DEFAULT_MODULUS)
    assert new_stream(1, MAX_STREAM_ID).stream_id == MAX_STREAM_ID
    with pytest.raises(InvalidArgumentError, match="stream_id must be in"):
        new_stream(1, MAX_STREAM_ID + 1)
    with pytest.raises(InvalidArgumentError, match="stream_id must be in"):
        new_stream(1).substream(MAX_STREAM_ID + 1)


@given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_inverse_normal_symmetry(u):
    assert inverse_normal_cdf(u) == pytest.approx(-inverse_normal_cdf(1.0 - u), abs=1e-7)


@given(st.integers(min_value=1, max_value=DEFAULT_MODULUS - 1))
def test_uniforms_stay_inside_unit_interval(seed):
    stream = new_stream(seed)
    for _ in range(10):
        u = stream.next_uniform()
        assert 0.0 < u < 1.0


@given(
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_inverse_normal_monotone(u1, u2):
    if u1 > u2:
        u1, u2 = u2, u1
    assert inverse_normal_cdf(u1) <= inverse_normal_cdf(u2) + 1e-9


def test_inverse_normal_accuracy_against_erf():
    # invert the CDF numerically on a grid and compare
    for x in [-3.0, -1.5, -0.3, 0.0, 0.7, 2.2, 3.5]:
        u = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        assert inverse_normal_cdf(u) == pytest.approx(x, abs=1e-6)
