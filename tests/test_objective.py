"""Design objective and comparison objective tests."""

import math

import pytest
from hypothesis import given, strategies as st

from qcdesign.errors import InvalidArgumentError
from qcdesign.objective import ObjectiveConfig, comparison_f1, fitness_f
from qcdesign.simulator import PerformanceEstimate


def _est(p_re, p_se, p_fr):
    return PerformanceEstimate(p_re=p_re, p_se=p_se, p_fr=p_fr, runs_simulated=1000)


def test_perfect_procedure_scores_zero():
    assert fitness_f(_est(0.5, 1.0, 0.0)) == 0.0
    assert comparison_f1(_est(0.5, 1.0, 0.0)) == 0.0


PUBLISHED = [
    ((0.489, 0.991, 0.019), 0.02373),
    ((0.489, 0.991, 0.017), 0.02216),
    ((0.495, 0.988, 0.019), 0.02302),
    ((0.492, 0.992, 0.022), 0.02474),
    ((0.504, 0.990, 0.020), 0.02272),
]


@pytest.mark.parametrize("triple,expected", PUBLISHED)
def test_published_f_values(triple, expected):
    assert fitness_f(_est(*triple)) == pytest.approx(expected, abs=1e-5)


def test_comparison_value():
    assert comparison_f1(_est(0.489, 0.991, 0.017)) == pytest.approx(0.022158, abs=1e-6)


def test_comparison_ignores_detection_overshoot():
    assert comparison_f1(_est(0.62, 0.99, 0.02)) == comparison_f1(_est(0.5, 0.99, 0.02))
    # the design objective does penalize overshoot
    assert fitness_f(_est(0.62, 0.99, 0.02)) > fitness_f(_est(0.5, 0.99, 0.02))


def test_weights_and_targets():
    cfg = ObjectiveConfig(p_re_target=0.4, w_fr=0.0)
    assert fitness_f(_est(0.4, 1.0, 0.9), cfg) == 0.0
    cfg = ObjectiveConfig(w_re=4.0)
    assert fitness_f(_est(0.4, 1.0, 0.0), cfg) == pytest.approx(0.2)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        ObjectiveConfig(w_re=-1.0)
    with pytest.raises(InvalidArgumentError):
        ObjectiveConfig(p_re_target=1.5)


@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
)
def test_comparison_never_exceeds_design_objective(p_re, p_se, p_fr):
    est = _est(p_re, p_se, p_fr)
    assert comparison_f1(est) <= fitness_f(est) + 1e-12
    assert comparison_f1(est) >= 0.0


_weights = st.floats(min_value=0, max_value=1.7976931348623157e308)


@given(_weights, _weights, _weights, st.floats(0, 1), st.floats(0, 1), st.data())
def test_an_accepted_objective_keeps_every_f_finite(w_re, w_se, w_fr, t_re, t_se, data):
    corners = [(p_re, p_se) for p_re in (0.0, 1.0) for p_se in (0.0, 1.0)]
    try:
        cfg = ObjectiveConfig(p_re_target=t_re, p_se_target=t_se, w_re=w_re, w_se=w_se, w_fr=w_fr)
    except InvalidArgumentError:  # then some estimate has an infinite f
        assert any(
            math.isinf(w_re * (p_re - t_re) ** 2 + w_se * (p_se - t_se) ** 2 + w_fr)
            for p_re, p_se in corners
        )
        return
    p = st.floats(0, 1)
    for estimate in [_est(*corner, 1.0) for corner in corners] + [
        _est(data.draw(p), data.draw(p), data.draw(p))
    ]:
        assert math.isfinite(fitness_f(estimate, cfg))


@pytest.mark.parametrize(
    "objective",
    [
        # Each overflows only at the corner farther from its target.
        dict(w_re=1.7e308, w_se=5e307, p_re_target=0.9),
        dict(w_re=1.7e308, w_se=1.7e308, p_se_target=0.1),
    ],
)
def test_the_worst_f_is_at_the_corner_farther_from_each_target(objective):
    with pytest.raises(InvalidArgumentError, match="worst-case f"):
        ObjectiveConfig(**objective)
