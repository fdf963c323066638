"""Portable seedable random number streams.

A Lehmer-style multiplicative congruential generator modulo 2**31 - 1,
with disjoint substreams obtained by jumping the generator ahead a fixed
number of steps per stream id.  Normal deviates come from the
Beasley-Springer-Moro rational approximation of the inverse normal CDF,
so exactly one uniform is consumed per normal and every sequence is
bit-reproducible across platforms.  :meth:`RandomStream.normals` draws a
batch in one loop on locals; :meth:`RandomStream.next_normal` and
:func:`inverse_normal_cdf` are the scalar reference it reproduces bit
for bit.
"""

from __future__ import annotations

import math

from .errors import InvalidArgumentError

DEFAULT_MODULUS = 2147483647  # 2**31 - 1, prime
DEFAULT_MULTIPLIER = 630360016
STREAM_JUMP = 100000  # generator steps separating consecutive stream ids
# Highest stream id whose STREAM_JUMP draws end inside the period; the
# next id would replay stream 0.
MAX_STREAM_ID = (DEFAULT_MODULUS - 1) // STREAM_JUMP - 1

# Beasley-Springer-Moro coefficients (central rational part and tail series).
_BSM_A = (2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637)
_BSM_B = (-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833)
_BSM_C = (
    0.3374754822726147,
    0.9761690190917186,
    0.1607979714918209,
    0.0276438810333863,
    0.0038405729373609,
    0.0003951896511919,
    0.0000321767881768,
    0.0000002888167364,
    0.0000003960315187,
)


def inverse_normal_cdf(u: float) -> float:
    """Standard normal quantile, |error| < 1e-7 on (0, 1)."""
    y = u - 0.5
    if abs(y) < 0.42:
        r = y * y
        num = y * (((_BSM_A[3] * r + _BSM_A[2]) * r + _BSM_A[1]) * r + _BSM_A[0])
        den = (((_BSM_B[3] * r + _BSM_B[2]) * r + _BSM_B[1]) * r + _BSM_B[0]) * r + 1.0
        return num / den
    r = u if u < 0.5 else 1.0 - u
    s = math.log(-math.log(r))
    x = _BSM_C[0]
    t = 1.0
    for c in _BSM_C[1:]:
        t *= s
        x += c * t
    return -x if u < 0.5 else x


class RandomStream:
    """Single-owner mutable stream of uniform / normal deviates.

    Streams created from the same ``(seed, stream_id)`` are identical.
    Consecutive stream ids start ``STREAM_JUMP`` generator steps apart, so
    they are disjoint as long as no stream draws more than that.
    """

    __slots__ = ("seed", "stream_id", "state")

    def __init__(self, seed: int, stream_id: int = 0):
        if not 1 <= seed <= DEFAULT_MODULUS - 1:
            raise InvalidArgumentError(
                f"seed must be in [1, {DEFAULT_MODULUS - 1}], got {seed}"
            )
        if not 0 <= stream_id <= MAX_STREAM_ID:
            raise InvalidArgumentError(
                f"stream_id must be in [0, {MAX_STREAM_ID}], got {stream_id}"
            )
        self.seed = seed
        self.stream_id = stream_id
        # Jump-ahead: state after k*STREAM_JUMP steps is A^(k*J) * seed mod m.
        jump = pow(DEFAULT_MULTIPLIER, stream_id * STREAM_JUMP, DEFAULT_MODULUS)
        self.state = jump * seed % DEFAULT_MODULUS

    def next_uniform(self) -> float:
        """Next uniform deviate, strictly inside (0, 1)."""
        self.state = DEFAULT_MULTIPLIER * self.state % DEFAULT_MODULUS
        return self.state / DEFAULT_MODULUS

    def next_normal(self) -> float:
        """Next standard normal deviate; consumes exactly one uniform."""
        return inverse_normal_cdf(self.next_uniform())

    def normals(self, count: int) -> list:
        """The next ``count`` normal deviates: the same floats, and the same
        final state, as ``count`` calls of :meth:`next_normal`, whose
        operations it repeats in order with the coefficients in locals."""
        a0, a1, a2, a3 = _BSM_A
        b0, b1, b2, b3 = _BSM_B
        c0, *tail = _BSM_C
        multiplier, modulus, log = DEFAULT_MULTIPLIER, DEFAULT_MODULUS, math.log
        state = self.state
        out = []
        append = out.append
        for _ in range(count):
            state = multiplier * state % modulus
            u = state / modulus
            y = u - 0.5
            if -0.42 < y < 0.42:
                r = y * y
                append(
                    y * (((a3 * r + a2) * r + a1) * r + a0)
                    / ((((b3 * r + b2) * r + b1) * r + b0) * r + 1.0)
                )
                continue
            s = log(-log(u if u < 0.5 else 1.0 - u))
            x, t = c0, 1.0
            for c in tail:
                t *= s
                x += c * t
            append(-x if u < 0.5 else x)
        self.state = state
        return out

    def substream(self, offset: int) -> "RandomStream":
        """Fresh stream ``offset`` ids past this one (same seed)."""
        return RandomStream(self.seed, self.stream_id + offset)

    def __repr__(self):
        return (
            f"RandomStream(seed={self.seed}, stream_id={self.stream_id}, "
            f"state={self.state})"
        )


def new_stream(seed: int, stream_id: int = 0) -> RandomStream:
    """Create a stream whose state is a pure function of (seed, stream_id)."""
    return RandomStream(seed, stream_id)
