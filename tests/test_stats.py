"""Sign test, summaries, and the replicated comparison harness."""

import math
import statistics
import sys
from fractions import Fraction

import pytest
import reference_pipeline
from hypothesis import given, settings, strategies as st

from qcdesign.errors import InvalidArgumentError
from qcdesign.library import parse_procedure
from qcdesign.rules import N_MAX, Operator, OperatorKind, Procedure, Rule, RuleKind, min_n
from qcdesign.simulator import SimulationPlan
from qcdesign.stats import compare_procedures, sign_test, summarize


def _exact_two_sided(below, above):
    """Independent oracle: exact binomial(n, 1/2) two-sided tail."""
    n = below + above
    if n == 0:
        return 1.0
    tail = min(below, above)
    cdf = sum(Fraction(math.comb(n, i)) for i in range(tail + 1)) / Fraction(2) ** n
    return float(min(Fraction(1), 2 * cdf))


def test_all_pairs_one_direction():
    a = list(range(21))
    b = [x + 1 for x in a]
    result = sign_test(a, b)
    assert result.p_value == pytest.approx(2 * 0.5**21)
    assert result.below == 21
    assert result.n_effective == 21


def test_fifteen_versus_six():
    a = [0.0] * 15 + [1.0] * 6
    b = [1.0] * 15 + [0.0] * 6
    assert sign_test(a, b).p_value == pytest.approx(0.0784, abs=0.0001)


def test_ties_dropped_and_flagged():
    result = sign_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.ties_only
    assert result.p_value == 1.0
    assert result.n_effective == 0
    partial = sign_test([1.0, 2.0, 5.0], [1.0, 3.0, 4.0])
    assert partial.n_effective == 2
    assert not partial.ties_only


def test_sign_test_validation():
    with pytest.raises(InvalidArgumentError):
        sign_test([1.0], [1.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        sign_test([], [])


@given(
    st.integers(min_value=0, max_value=25),
    st.integers(min_value=0, max_value=25),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=200)
def test_sign_test_matches_exact_enumeration(below, above, ties):
    if below + above + ties == 0:
        ties = 1
    a = [0.0] * below + [1.0] * above + [2.0] * ties
    b = [1.0] * below + [0.0] * above + [2.0] * ties
    assert sign_test(a, b).p_value == pytest.approx(
        _exact_two_sided(below, above), abs=1e-12
    )


def test_sign_test_past_the_float_range_of_its_binomial_sums():
    """From n near 1,100 the exact sums exceed a float; the p-value must not."""
    a = [0] * 600 + [1] * 600
    assert sign_test(a, a[::-1]).p_value == 1.0
    split = sign_test([0] * 700 + [1] * 400, [1] * 700 + [0] * 400)
    assert split.n_effective == 1100
    assert split.p_value == _exact_two_sided(700, 400)
    assert 0.0 < split.p_value < 1e-15


def test_summarize():
    assert summarize([1.0, 1.0, 1.0]) == (1.0, 0.0)
    mean, sd = summarize([0.0, 2.0])
    assert (mean, sd) == (1.0, pytest.approx(1.41421, abs=1e-5))
    mean, sd = summarize([0.489, 0.495, 0.504])
    assert mean == pytest.approx(0.49600, abs=1e-5)
    assert sd == pytest.approx(0.00755, abs=1e-5)
    with pytest.raises(InvalidArgumentError):
        summarize([1.0])


_sd_samples = st.lists(
    st.one_of(
        st.floats(0.0, 1.0),
        st.integers(0, 1000).map(lambda k: k / 1000),
        st.floats(-1e30, 1e30, allow_subnormal=False),
    ),
    min_size=2,
    max_size=25,
)


@given(_sd_samples)
def test_summarize_sd_is_the_nearest_double_to_the_exact_sd(values):
    """Independent of Python's statistics module: the SD's neighbours'
    midpoints bracket the square root of the exact variance."""
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    variance = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)
    sd = summarize(values)[1]
    below = (Fraction(sd) + Fraction(math.nextafter(sd, 0.0))) / 2
    above = (Fraction(sd) + Fraction(math.nextafter(sd, math.inf))) / 2
    assert below**2 <= variance <= above**2


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 stdev rounds the variance before its square root",
)
@given(_sd_samples)
def test_summarize_sd_equals_stdev(values):
    assert summarize(values)[1] == statistics.stdev(values)


@given(_sd_samples)
def test_summarize_mean_equals_fmean(values):
    """The mean is ``statistics.fmean``'s, on every supported Python."""
    assert summarize(values)[0] == statistics.fmean(values)


def _small_plan():
    return SimulationPlan(measurements_per_level=200, levels=2, per_level_per_run=1)


def test_identical_procedures_tie(sodium_critical):
    named = [
        ("a", parse_procedure("1_2.5s")),
        ("b", parse_procedure("S(1,2.5)")),
    ]
    result = compare_procedures(
        named, _small_plan(), sodium_critical, replicates=5, base_seed=99
    )
    top, other = result.rows
    assert top.mean_f1 == other.mean_f1
    assert other.ties_only_vs_top
    assert other.sign_p_vs_top == 1.0


def test_rows_sorted_and_tested_against_top(sodium_critical):
    named = [(t, parse_procedure(t)) for t in ("1_2.0s", "1_2.5s", "1_3.0s")]
    result = compare_procedures(
        named, _small_plan(), sodium_critical, replicates=5, base_seed=1
    )
    means = [row.mean_f1 for row in result.rows]
    assert means == sorted(means)
    assert result.rows[0].sign_p_vs_top is None
    assert all(row.sign_p_vs_top is not None for row in result.rows[1:])
    assert result.replicates == 5
    assert result.base_seed == 1


def test_threads_do_not_change_results(sodium_critical):
    named = [(t, parse_procedure(t)) for t in ("1_2.4s", "1_3.0s")]
    sequential = compare_procedures(
        named, _small_plan(), sodium_critical, replicates=4, base_seed=7, threads=1
    )
    parallel = compare_procedures(
        named, _small_plan(), sodium_critical, replicates=4, base_seed=7, threads=2
    )
    assert sequential == parallel


def test_compare_validation(sodium_critical):
    with pytest.raises(InvalidArgumentError):
        compare_procedures(
            [("a", parse_procedure("1_2.5s"))] * 2,
            _small_plan(),
            sodium_critical,
            replicates=1,
            base_seed=1,
        )
    with pytest.raises(InvalidArgumentError):
        compare_procedures(
            [("a", "not a procedure")], _small_plan(), sodium_critical, replicates=3, base_seed=1
        )


@pytest.mark.parametrize(
    "threads, replicates, cpus, expected",
    [(2, 21, 2, 2), (8, 21, 2, 2), (8, 3, 16, 3), (4, 21, 1, None)],
)
def test_pool_capped_by_replicates_and_cores(
    monkeypatch, sodium_critical, threads, replicates, cpus, expected
):
    import multiprocessing

    sizes = []
    chunks = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=None):
            chunks.append(chunksize)
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    named = [(t, parse_procedure(t)) for t in ("1_2.5s", "1_3.0s")]
    plan = SimulationPlan(measurements_per_level=50)
    compare_procedures(
        named, plan, sodium_critical, replicates=replicates, base_seed=1, threads=threads
    )
    assert sizes == ([] if expected is None else [expected])
    # one replicate per task, so neither worker is left holding a chunk
    assert chunks == ([] if expected is None else [1])


_limits = st.integers(0, 63).map(lambda tenth: round(0.1 * tenth, 1))


@st.composite
def _compare_procedure(draw, plan, history):
    """A procedure, perhaps with a QC shape of its own; with ``history``
    some rule reads an older run (n > per_level), else none does."""
    levels = draw(st.sampled_from([None, 1, 2]))
    per_level = draw(st.sampled_from([None, 1, 2, 3] + ([] if history else [4])))
    if history and per_level is None and plan.per_level_per_run == N_MAX:
        per_level = draw(st.integers(1, N_MAX - 1))
    reads = plan.per_level_per_run if per_level is None else per_level
    kinds = [kind for kind in RuleKind if history or min_n(kind) <= reads]
    rules = draw(st.lists(
        st.sampled_from(kinds).flatmap(lambda kind: st.builds(
            Rule, st.just(kind), st.integers(min_n(kind), N_MAX if history else reads), _limits
        )),
        max_size=3,
    ))
    if history:
        kind = draw(st.sampled_from(list(RuleKind)))
        old = Rule(kind, draw(st.integers(max(min_n(kind), reads + 1), N_MAX)), draw(_limits))
        rules.insert(draw(st.integers(0, len(rules))), old)
    operators = st.builds(Operator, st.sampled_from(list(OperatorKind)), st.integers(0, 3))
    return Procedure(
        tuple(rules), tuple(draw(operators) for _ in rules[1:]), levels, per_level
    )


@st.composite
def _compare_cases(draw):
    """A plan and 2-6 named procedures, at least one of them history-free
    and one with history."""
    plan = SimulationPlan(
        measurements_per_level=draw(st.integers(20, 150)),
        levels=draw(st.sampled_from([1, 2])),
        per_level_per_run=draw(st.integers(1, N_MAX)),
    )
    kinds = [False, True] + draw(st.lists(st.booleans(), max_size=4))
    procedures = [draw(_compare_procedure(plan, history)) for history in kinds]
    return plan, [(f"p{i}", p) for i, p in enumerate(draw(st.permutations(procedures)))]


@settings(max_examples=60, deadline=None)
@given(_compare_cases(), st.integers(2, 4), st.integers(1, 2**31 - 2))
def test_compare_equals_the_reference_pipeline(sodium_critical, case, replicates, seed):
    """Shared pools, history-free scoring and the generated run loops give,
    field by field, the comparison of a plain loop that simulates every
    procedure, replicate and condition with the closure oracle on pools
    of its own."""
    plan, named = case
    result = compare_procedures(
        named, plan, sodium_critical, replicates=replicates, base_seed=seed, threads=1
    )
    expected = reference_pipeline.compare(named, plan, sodium_critical, replicates, seed)
    assert result == expected


@pytest.mark.parametrize(
    "plan",
    [
        SimulationPlan(measurements_per_level=100),
        SimulationPlan(measurements_per_level=60, levels=1, per_level_per_run=3),
    ],
)
def test_compare_on_two_processes_equals_the_reference_pipeline(
    monkeypatch, sodium_critical, plan
):
    """Replicates simulated on a real two-process pool give the reference
    comparison, for history-free procedures and ones that read older runs."""
    monkeypatch.setattr("os.cpu_count", lambda: 2)  # a real pool even on 1 core
    texts = ("1_2.5s", "1_2.5s/2_2.0s", "1_2.5s/2_2.0s/R_4s/4_1s", "M(4,0.6) OR D(3,1.2)")
    named = [(text, parse_procedure(text)) for text in texts]
    result = compare_procedures(
        named, plan, sodium_critical, replicates=4, base_seed=2**31 - 2, threads=2
    )
    assert result == reference_pipeline.compare(named, plan, sodium_critical, 4, 2**31 - 2)
