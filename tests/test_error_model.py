"""Critical-error computation and the single-value power oracle."""

import pytest
from hypothesis import given, strategies as st

from qcdesign.error_model import (
    AssayParams,
    critical_errors,
    critical_random_error,
    critical_systematic_error,
    normal_cdf,
    single_value_power_oracle,
)
from qcdesign.errors import InfeasibleAssayError, InvalidArgumentError


def test_sodium_critical_errors(sodium_assay):
    crit = critical_errors(sodium_assay)
    assert crit.delta_se == pytest.approx(3.495, abs=0.001)
    assert crit.k_re == pytest.approx(2.313, abs=0.001)


def test_symmetric_case_closed_forms():
    params = AssayParams(sd=1.0, bias=0.0, tea=4.0, alpha=0.01)
    # one-tail approximations: 4 - z(0.99) and 4 / z(0.995)
    assert critical_systematic_error(params) == pytest.approx(1.6737, abs=0.001)
    assert critical_random_error(params) == pytest.approx(1.5529, abs=0.001)


def test_infeasible_assay():
    # in-control exceedance 2*(1 - Phi(1)) = 0.317 already above alpha
    params = AssayParams(sd=1.0, bias=0.0, tea=1.0, alpha=0.01)
    with pytest.raises(InfeasibleAssayError):
        critical_systematic_error(params)
    with pytest.raises(InfeasibleAssayError):
        critical_random_error(params)


def test_bisection_ends_where_floats_are_sparse():
    # the root sits near 4e12 SD, where adjacent floats lie 5e-4 apart
    params = AssayParams(sd=1e-12, bias=0.0, tea=4.0, alpha=0.01)
    assert critical_systematic_error(params) == pytest.approx(4e12, rel=1e-6)
    with pytest.raises(InfeasibleAssayError):
        critical_systematic_error(AssayParams(sd=1e-320, bias=0.0, tea=4.0, alpha=0.01))


def test_assay_validation():
    with pytest.raises(InvalidArgumentError):
        AssayParams(sd=0.0, bias=0.0, tea=4.0, alpha=0.01)
    with pytest.raises(InvalidArgumentError):
        AssayParams(sd=1.0, bias=5.0, tea=4.0, alpha=0.01)
    with pytest.raises(InvalidArgumentError):
        AssayParams(sd=1.0, bias=0.0, tea=4.0, alpha=0.0)


def test_normal_cdf_reference_points():
    assert normal_cdf(0.0) == pytest.approx(0.5)
    assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


def test_oracle_reference_values():
    assert single_value_power_oracle(2.4, 2) == pytest.approx(0.0325, abs=0.0005)
    assert single_value_power_oracle(2.4, 2, shift=3.495) == pytest.approx(
        0.9813, abs=0.0005
    )


def test_oracle_validation():
    with pytest.raises(InvalidArgumentError):
        single_value_power_oracle(-0.1, 2)
    with pytest.raises(InvalidArgumentError):
        single_value_power_oracle(2.0, 0)
    with pytest.raises(InvalidArgumentError):
        single_value_power_oracle(2.0, 2, sd_multiplier=0.5)


@given(
    st.floats(min_value=0.1, max_value=6.3),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=1.0, max_value=5.0),
)
def test_oracle_monotone(limit, meas, shift, k):
    p = single_value_power_oracle(limit, meas, shift, k)
    assert 0.0 <= p <= 1.0
    # tighter limit detects no less; larger error detects no less
    assert single_value_power_oracle(limit + 0.5, meas, shift, k) <= p + 1e-12
    assert single_value_power_oracle(limit, meas, shift + 0.5, k) >= p - 1e-12
    assert single_value_power_oracle(limit, meas + 1, shift, k) >= p - 1e-12


def test_oracle_matches_direct_tail_formula():
    limit, shift, k = 1.7, 0.8, 1.4
    p = normal_cdf((-limit - shift) / k) + 1.0 - normal_cdf((limit - shift) / k)
    expected = 1.0 - (1.0 - p) ** 3
    assert single_value_power_oracle(limit, 3, shift, k) == pytest.approx(expected)


def test_critical_error_defines_exceedance(sodium_assay):
    # at the critical shift the exceedance equals alpha
    crit = critical_errors(sodium_assay)
    sd, bias, tea = sodium_assay.sd, sodium_assay.bias, sodium_assay.tea
    shift = crit.delta_se * sd
    exceed = (
        normal_cdf((-tea - bias - shift) / sd)
        + 1.0
        - normal_cdf((tea - bias - shift) / sd)
    )
    assert exceed == pytest.approx(sodium_assay.alpha, abs=1e-5)
    exceed_k = (
        normal_cdf((-tea - bias) / (crit.k_re * sd))
        + 1.0
        - normal_cdf((tea - bias) / (crit.k_re * sd))
    )
    assert exceed_k == pytest.approx(sodium_assay.alpha, abs=1e-5)
