"""Deterministic-crowding GA tests at desk scale."""

from unittest import mock

import pytest
import reference_pipeline
from hypothesis import given, settings, strategies as st

from qcdesign.errors import InvalidArgumentError
from qcdesign.ga import (
    GaParams,
    Individual,
    PopulationEvaluator,
    _crossover,
    _mutate,
    _random_genome,
    crowding_generation,
    operator_draws,
    run_design,
)
from qcdesign.genome import GenomeLayout, decode, encode, from_bits, genome_length
from qcdesign.objective import ObjectiveConfig, fitness_f
from qcdesign.rng import RandomStream, new_stream
from qcdesign.rules import Procedure, Rule, RuleKind
from qcdesign.simulator import SimulationPlan, draw_condition_pools, estimate_performance

LAYOUT = GenomeLayout(q=3, optimize_levels=True)


def _bits(genome):
    """A genome's bits in layout order, as a tuple of 0s and 1s."""
    return tuple(map(int, format(genome.bits, f"0{genome_length(genome.layout)}b")))


def _params(**overrides):
    defaults = dict(population=20, generations=3, seed=12345)
    defaults.update(overrides)
    return GaParams(**defaults)


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        GaParams(population=21)
    with pytest.raises(InvalidArgumentError):
        GaParams(population=0)
    with pytest.raises(InvalidArgumentError):
        GaParams(p_crossover=1.5)
    with pytest.raises(InvalidArgumentError):
        GaParams(generations=-1)
    with pytest.raises(InvalidArgumentError):
        GaParams(crossover_kind="uniform")
    with pytest.raises(InvalidArgumentError):
        GaParams(mutation_schedule=((10, 0.1), (5, 0.2)))
    for seed in (-5, 0, 2**31 - 1):
        with pytest.raises(InvalidArgumentError, match="seed must be in"):
            GaParams(seed=seed)


@pytest.mark.parametrize(
    "schedule",
    [((0, "x"),), ((0, 5.0),), ((-1, 0.1),), ((0.5, 0.1),), ((True, 0.1),), ((0,),)],
)
def test_mutation_schedule_entries_validated(schedule):
    with pytest.raises(InvalidArgumentError, match="mutation_schedule"):
        GaParams(mutation_schedule=schedule)


def test_mutation_schedule_steps():
    params = GaParams(mutation_schedule=((0, 0.0), (50, 0.0005)))
    assert params.mutation_rate(0) == 0.0
    assert params.mutation_rate(49) == 0.0
    assert params.mutation_rate(50) == 0.0005
    assert params.mutation_rate(500) == 0.0005


def test_single_value_genome_fitness(sodium_critical, sodium_plan):
    genome = encode(
        Procedure((Rule(RuleKind.SINGLE_VALUE, 1, 2.4),), (), levels=2), LAYOUT
    )
    (individual,) = PopulationEvaluator(
        sodium_plan, sodium_critical, ObjectiveConfig(), 12345, 0
    ).evaluate([genome])
    assert individual.fitness == pytest.approx(0.0375, abs=0.02)
    assert individual.operator_count == 0


def test_identical_children_keep_parents(sodium_critical, sodium_plan):
    genomes = [
        encode(Procedure((Rule(RuleKind.SINGLE_VALUE, 1, 2.0 + 0.1 * i),), (), levels=2), LAYOUT)
        for i in range(4)
    ]
    population = PopulationEvaluator(
        sodium_plan, sodium_critical, ObjectiveConfig(), 12345, 0
    ).evaluate(genomes)
    # without crossover or mutation every child equals a parent, so the
    # better-or-fewer-operators rule never replaces anyone
    next_population = crowding_generation(
        population,
        _params(population=4, p_crossover=0.0),
        lambda brood: [next(i for i in population if i.genome == g) for g in brood],
        new_stream(12345, 50),
    )
    assert sorted(i.genome.bits for i in next_population) == sorted(
        i.genome.bits for i in population
    )


def test_tiebreak_prefers_fewer_operators():
    # synthetic fitness landscape: everything ties, so the operator count
    # decides; build individuals by hand
    import itertools

    from qcdesign.genome import decode, genome_length
    from qcdesign.simulator import PerformanceEstimate

    est = PerformanceEstimate(0.5, 1.0, 0.0, 1000)

    def fake_evaluate(genome):
        return Individual(
            genome=genome,
            procedure=decode(genome),
            fitness=1.0,
            estimate=est,
        )

    ones = tuple(itertools.repeat(1, genome_length(LAYOUT)))
    rich = fake_evaluate(from_bits(ones, LAYOUT))  # three rules, two operators
    population = [rich, rich]
    replacements = []
    next_population = crowding_generation(
        population,
        _params(population=2, p_crossover=0.0, mutation_schedule=((0, 1.0),)),
        lambda brood: [fake_evaluate(genome) for genome in brood],
        new_stream(1, 50),
        generation=0,
        on_replacement=lambda parent, child: replacements.append((parent, child)),
    )
    for parent, child in replacements:
        better = child.fitness < parent.fitness
        leaner = (
            child.fitness == parent.fitness
            and child.operator_count < parent.operator_count
        )
        assert better or leaner
    assert len(next_population) == 2


def test_odd_population_rejected(sodium_critical, sodium_plan):
    population = PopulationEvaluator(
        sodium_plan, sodium_critical, ObjectiveConfig(), 1, 0
    ).evaluate([encode(Procedure(), LAYOUT)] * 3)
    with pytest.raises(InvalidArgumentError):
        crowding_generation(population, _params(), lambda g: None, new_stream(1, 50))


def test_zero_generations_report(sodium_assay, sodium_plan):
    report = run_design(
        LAYOUT, sodium_plan, sodium_assay, ObjectiveConfig(), _params(generations=0)
    )
    assert len(report.generation_log) == 1
    assert report.generation_log[0].generation == 0
    assert report.best


def test_design_run_is_deterministic(sodium_assay, sodium_plan):
    kwargs = dict(
        layout=LAYOUT,
        plan=sodium_plan,
        assay=sodium_assay,
        cfg=ObjectiveConfig(),
        params=_params(),
    )
    assert run_design(**kwargs).to_dict() == run_design(**kwargs).to_dict()


def test_best_fitness_monotone_under_common_random_numbers(sodium_assay, sodium_plan):
    report = run_design(
        LAYOUT, sodium_plan, sodium_assay, ObjectiveConfig(), _params(generations=5)
    )
    fits = [rec.fitness for rec in report.generation_log]
    assert all(later <= earlier for earlier, later in zip(fits, fits[1:]))


def test_fresh_seed_mode_runs(sodium_assay, sodium_plan):
    report = run_design(
        LAYOUT,
        sodium_plan,
        sodium_assay,
        ObjectiveConfig(),
        _params(generations=2, fresh_seeds_per_generation=True),
    )
    assert len(report.generation_log) == 3


def test_report_dict_shape(sodium_assay, sodium_plan):
    report = run_design(
        LAYOUT, sodium_plan, sodium_assay, ObjectiveConfig(), _params(generations=1)
    )
    doc = report.to_dict()
    assert doc["seed"] == 12345
    assert doc["critical"]["delta_se"] == pytest.approx(3.495, abs=0.001)
    assert {"procedure", "f", "f1", "genome"} <= set(doc["best"][0])
    assert len(doc["generation_log"]) == 2


@pytest.mark.parametrize("fresh", [False, True])
def test_report_independent_of_threads(monkeypatch, sodium_assay, fresh):
    monkeypatch.setattr("os.cpu_count", lambda: 2)  # a real pool even on 1 core
    kwargs = dict(
        layout=LAYOUT,
        plan=SimulationPlan(measurements_per_level=300),
        assay=sodium_assay,
        cfg=ObjectiveConfig(),
        params=_params(
            generations=3,
            mutation_schedule=((0, 0.0), (2, 0.05)),
            fresh_seeds_per_generation=fresh,
        ),
    )
    serial = run_design(**kwargs, threads=1).to_dict()
    assert run_design(**kwargs, threads=2).to_dict() == serial


class _UncachedEvaluator(PopulationEvaluator):
    """Decodes and estimates every genome on its own, on condition pools
    drawn afresh for it, with no cache: each estimate runs the pools' first,
    lazy loop, where the shipped evaluator runs most on shared pools."""

    def estimate(self, procedure):
        pools = draw_condition_pools(
            new_stream(self.seed, self.stream_id), self.plan.measurements_per_level
        )
        return estimate_performance(procedure, self.plan, self.critical, pools)

    def evaluate(self, genomes):
        individuals = []
        for genome in genomes:
            procedure = decode(genome)
            estimate = self.estimate(procedure)
            fitness = fitness_f(estimate, self.cfg)
            individuals.append(Individual(genome, procedure, fitness, estimate))
        return individuals


class _ReferenceEvaluator(_UncachedEvaluator):
    """Estimates every genome with ``reference_pipeline.estimate``: pools of
    its own per condition, and the closure oracle's run loop in place of
    the generated loops and the history-free scoring."""

    def estimate(self, procedure):
        return reference_pipeline.estimate(
            procedure, self.plan, self.critical, self.seed, self.stream_id
        )


@settings(max_examples=60, deadline=None)
@given(
    population=st.integers(1, 4).map(lambda pairs: 2 * pairs),
    generations=st.integers(0, 3),
    q=st.integers(1, 3),
    optimize_levels=st.booleans(),
    optimize_per_level=st.booleans(),
    fresh=st.booleans(),
    kind=st.sampled_from(["single_point", "two_point"]),
    rate=st.sampled_from([0.0, 0.05]),
    mpl=st.integers(20, 150),
    seed=st.integers(1, 2**31 - 2),
)
def test_design_equals_uncached_fresh_pool_design(
    sodium_assay, population, generations, q, optimize_levels, optimize_per_level,
    fresh, kind, rate, mpl, seed,
):
    """Differential test of the whole design run: the genome cache, the
    shared pools and the dense run loops change which simulations run,
    never what they return."""
    kwargs = dict(
        layout=GenomeLayout(q, optimize_levels, optimize_per_level),
        plan=SimulationPlan(measurements_per_level=mpl),
        assay=sodium_assay,
        cfg=ObjectiveConfig(),
        params=GaParams(
            population=population,
            generations=generations,
            crossover_kind=kind,
            mutation_schedule=((0, rate),),
            seed=seed,
            fresh_seeds_per_generation=fresh,
        ),
    )
    shipped = run_design(**kwargs).to_dict()
    with mock.patch("qcdesign.ga.PopulationEvaluator", _UncachedEvaluator):
        assert run_design(**kwargs).to_dict() == shipped


@settings(max_examples=100, deadline=None)
@given(
    population=st.integers(1, 6).map(lambda pairs: 2 * pairs),
    generations=st.integers(0, 4),
    q=st.integers(1, 4),
    optimize_levels=st.booleans(),
    optimize_per_level=st.booleans(),
    fresh=st.booleans(),
    kind=st.sampled_from(["single_point", "two_point"]),
    rate=st.sampled_from([0.0, 0.05]),
    mpl=st.integers(20, 150),
    seed=st.integers(1, 2**31 - 2),
)
def test_design_equals_the_reference_pipeline_design(
    sodium_assay, population, generations, q, optimize_levels, optimize_per_level,
    fresh, kind, rate, mpl, seed,
):
    """Differential test of the whole design run against the closure
    oracle: the shipped run's report, field by field, is the one whose
    every estimate comes from the plain reference simulation."""
    kwargs = dict(
        layout=GenomeLayout(q, optimize_levels, optimize_per_level),
        plan=SimulationPlan(measurements_per_level=mpl),
        assay=sodium_assay,
        cfg=ObjectiveConfig(),
        params=GaParams(
            population=population,
            generations=generations,
            crossover_kind=kind,
            mutation_schedule=((0, rate),),
            seed=seed,
            fresh_seeds_per_generation=fresh,
        ),
    )
    shipped = run_design(**kwargs).to_dict()
    with mock.patch("qcdesign.ga.PopulationEvaluator", _ReferenceEvaluator):
        assert run_design(**kwargs).to_dict() == shipped


@pytest.mark.parametrize("optimize_per_level", [False, True])
@pytest.mark.parametrize("fresh", [False, True])
def test_design_on_two_processes_equals_the_reference_pipeline_design(
    monkeypatch, sodium_assay, fresh, optimize_per_level
):
    """The same differential on a real two-process pool: the batches that
    workers simulate give the report of the plain reference simulation."""
    monkeypatch.setattr("os.cpu_count", lambda: 2)  # a real pool even on 1 core
    kwargs = dict(
        layout=GenomeLayout(q=3, optimize_per_level=optimize_per_level),
        plan=SimulationPlan(measurements_per_level=120),
        assay=sodium_assay,
        cfg=ObjectiveConfig(),
        params=_params(
            population=8,
            generations=3,
            mutation_schedule=((0, 0.0), (2, 0.05)),
            fresh_seeds_per_generation=fresh,
        ),
    )
    shipped = run_design(**kwargs, threads=2).to_dict()
    with mock.patch("qcdesign.ga.PopulationEvaluator", _ReferenceEvaluator):
        assert run_design(**kwargs).to_dict() == shipped


def test_synonym_genomes_share_one_simulation(monkeypatch, sodium_critical, sodium_plan):
    import qcdesign.simulator as simulator

    calls = []
    real = simulator.estimate_performance

    def counted(procedure, *args, **kwargs):
        calls.append(procedure)
        return real(procedure, *args, **kwargs)

    monkeypatch.setattr(simulator, "estimate_performance", counted)
    genome = encode(Procedure((Rule(RuleKind.MEAN, 2, 1.9),), (), levels=2), LAYOUT)
    # Rule slot 2 is disabled (flag bit 11 is 0); its other bits are ignored.
    bits = _bits(genome)
    synonym = from_bits(bits[:12] + (1,) * 10 + bits[22:], LAYOUT)
    assert synonym != genome
    first, second = PopulationEvaluator(
        sodium_plan, sodium_critical, ObjectiveConfig(), 12345, 0
    ).evaluate([genome, synonym])
    assert len(calls) == 1
    assert (first.genome, second.genome) == (genome, synonym)
    assert first.fitness == second.fitness and first.estimate == second.estimate


class _CountingStream(RandomStream):
    __slots__ = ("draws",)

    def __init__(self, seed, stream_id):
        super().__init__(seed, stream_id)
        self.draws = 0

    def next_uniform(self):
        self.draws += 1
        return super().next_uniform()


@pytest.mark.parametrize("kind", ["single_point", "two_point"])
def test_operator_draws_exact_when_every_pair_crosses(monkeypatch, sodium_assay, kind):
    import qcdesign.ga as ga

    streams = {}

    def new_stream_counted(seed, stream_id=0):
        streams[stream_id] = _CountingStream(seed, stream_id)
        return streams[stream_id]

    monkeypatch.setattr(ga, "new_stream", new_stream_counted)
    params = _params(
        population=6,
        generations=4,
        crossover_kind=kind,
        mutation_schedule=((0, 0.0), (2, 0.1), (4, 0.0)),
    )
    plan = SimulationPlan(measurements_per_level=100)
    run_design(LAYOUT, plan, sodium_assay, ObjectiveConfig(), params)
    # initial population, 4 shuffles and pair draws, mutation in generations 2-3
    assert streams[50].draws == operator_draws(LAYOUT, params)


def _operator_draws_per_generation(layout, params):
    """``operator_draws`` with the mutating generations counted one by one."""
    cuts = 2 if params.crossover_kind == "two_point" else 1
    per_generation = params.population - 1 + params.population // 2 * (1 + cuts)
    mutating = sum(params.mutation_rate(g) > 0 for g in range(1, params.generations + 1))
    bits = params.population * genome_length(layout)
    return bits * (1 + mutating) + params.generations * per_generation


@settings(max_examples=200, deadline=None)
@given(
    starts=st.sets(st.integers(0, 220), max_size=6),
    rates=st.lists(st.sampled_from([0.0, 0.0005, 0.5, 1]), min_size=6, max_size=6),
    generations=st.integers(0, 200),
    population=st.integers(1, 50).map(lambda pairs: 2 * pairs),
    kind=st.sampled_from(["single_point", "two_point"]),
    q=st.integers(1, 4),
)
def test_operator_draws_closed_form_counts_every_mutating_generation(
    starts, rates, generations, population, kind, q
):
    params = GaParams(
        population=population,
        generations=generations,
        crossover_kind=kind,
        mutation_schedule=tuple(zip(sorted(starts), rates)),
    )
    layout = GenomeLayout(q=q)
    assert operator_draws(layout, params) == _operator_draws_per_generation(layout, params)


class _StubStream:
    """Hands out the given uniforms in order and counts them."""

    def __init__(self, *uniforms):
        self.uniforms = list(uniforms)
        self.draws = 0

    def next_uniform(self):
        self.draws += 1
        return self.uniforms.pop(0)


@pytest.mark.parametrize(
    "kind, uniforms, segments",
    [
        # one cut at 1 + int(u * 39), the second at the genome's end
        ("single_point", (0.3,), (12, 28, 0)),
        ("single_point", (0.0,), (1, 39, 0)),
        ("single_point", (0.999999,), (39, 1, 0)),
        # two cuts, in either order; equal cuts swap nothing
        ("two_point", (0.7, 0.2), (8, 20, 12)),
        ("two_point", (0.2, 0.7), (8, 20, 12)),
        ("two_point", (0.5, 0.5), (20, 0, 20)),
        ("two_point", (0.0, 0.999999), (1, 38, 1)),
    ],
)
def test_crossover_children_and_draws(kind, uniforms, segments):
    """Child one is parent a's bits outside the cuts and b's between them;
    child two the reverse. A single-point cut draws one uniform, a
    two-point cut two."""
    length = 40  # LAYOUT's genome length
    a_bits = tuple(i % 2 for i in range(length))
    b_bits = tuple(1 - i % 2 for i in range(length))
    a, b = from_bits(a_bits, LAYOUT), from_bits(b_bits, LAYOUT)
    rng = _StubStream(*uniforms, 0.5)
    child1, child2 = _crossover(a, b, _params(crossover_kind=kind), rng)
    head, middle, tail = segments
    assert head + middle + tail == length
    assert _bits(child1) == a_bits[:head] + b_bits[head : head + middle] + a_bits[head + middle :]
    assert _bits(child2) == b_bits[:head] + a_bits[head : head + middle] + b_bits[head + middle :]
    assert child1.layout == child2.layout == LAYOUT
    assert rng.draws == len(uniforms) and rng.uniforms == [0.5]


_UNIFORM = st.one_of(st.floats(0, 1, exclude_max=True), st.sampled_from([0.0, 0.25, 0.5]))


@given(
    bits=st.lists(st.integers(0, 1), min_size=40, max_size=40),
    uniforms=st.lists(_UNIFORM, min_size=40, max_size=40),
    rate=st.sampled_from([0.0005, 0.25, 0.5, 1.0]),
)
def test_mutation_flips_each_bit_whose_uniform_is_below_the_rate(bits, uniforms, rate):
    """Bit i flips exactly when uniform i < rate, and a mutation draws one
    uniform per bit, in layout order; at rate 0 it draws none."""
    genome = from_bits(bits, LAYOUT)
    rng = _StubStream(*uniforms, 0.5)
    mutant = _mutate(genome, rate, rng)
    assert _bits(mutant) == tuple(bit ^ (u < rate) for bit, u in zip(bits, uniforms))
    assert mutant.layout == LAYOUT
    assert rng.draws == 40 and rng.uniforms == [0.5]
    assert _mutate(genome, 0.0, rng) is genome and rng.draws == 40


@given(uniforms=st.lists(_UNIFORM, min_size=40, max_size=40))
def test_random_genome_sets_each_bit_from_one_uniform(uniforms):
    rng = _StubStream(*uniforms, 0.5)
    genome = _random_genome(LAYOUT, rng)
    assert _bits(genome) == tuple(int(u < 0.5) for u in uniforms)
    assert rng.draws == 40 and rng.uniforms == [0.5]
