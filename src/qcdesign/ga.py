"""Deterministic-crowding genetic algorithm over procedure genomes.

Parents are paired at random; their children compete only against the
most genotypically similar parent and replace it only when strictly
fitter, or equally fit with fewer operators. By default every
evaluation in a run uses the same simulation substreams (common random
numbers), which makes the crowding comparisons meaningful and the
best-fitness trajectory monotone.

A generation breeds every child first, then simulates the distinct
procedures among them as one batch (on worker processes when asked),
then replaces parents pair by pair. Replacement depends only on fitness,
so the order of evaluation never changes the result.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

from .error_model import AssayParams, CriticalErrors, critical_errors
from .errors import InvalidArgumentError
from .genome import (
    Genome, GenomeLayout, crossover, decode, from_bits, genome_length, hamming_distance, mutate,
)
from .objective import ObjectiveConfig, comparison_f1, fitness_f
from .rng import DEFAULT_MODULUS, RandomStream, new_stream
from .rules import Procedure, canonical_notation
from .simulator import (
    OPERATOR_STREAM_ID,
    PerformanceEstimate,
    SimulationPlan,
    estimate_task,
    resolve_shape,
    simulation_stream_id,
    worker_map,
)

# Procedures a design report lists, fittest first.
MAX_BEST = 10

# Report keys that differ from the field they come from.
_REPORT_KEYS = {
    "notation": "procedure",
    "fitness": "f",
    "genome_hex": "genome",
    "name": "procedure",
}


def report_dict(obj) -> dict:
    """A dataclass (nested ones included) as a report mapping."""
    return asdict(
        obj,
        dict_factory=lambda items: {_REPORT_KEYS.get(key, key): value for key, value in items},
    )


# Uniforms a crossover draws for its cuts, by kind.
_CUTS = {"single_point": 1, "two_point": 2}


def _is_schedule_entry(entry) -> bool:
    """A (generation, rate) pair: an integer >= 0 and a number in [0, 1]."""
    if not isinstance(entry, (tuple, list)) or len(entry) != 2:
        return False
    start, rate = entry
    # type(), not isinstance(): to isinstance() a bool is an int
    return type(start) is int and start >= 0 and type(rate) in (int, float) and 0 <= rate <= 1


@dataclass(frozen=True)
class GaParams:
    population: int = 600
    p_crossover: float = 1.0
    mutation_schedule: tuple[tuple[int, float], ...] = ((0, 0.0), (50, 0.0005))
    generations: int = 100
    crossover_kind: str = "single_point"
    seed: int = 12345
    fresh_seeds_per_generation: bool = False

    def __post_init__(self):
        if self.population < 2 or self.population % 2:
            raise InvalidArgumentError(
                f"population must be a positive even integer, got {self.population}"
            )
        if not 0.0 <= self.p_crossover <= 1.0:
            raise InvalidArgumentError("p_crossover must be a probability")
        if self.generations < 0:
            raise InvalidArgumentError("generations must be >= 0")
        if self.crossover_kind not in _CUTS:
            raise InvalidArgumentError(
                f"unknown crossover kind {self.crossover_kind!r}"
            )
        if not all(map(_is_schedule_entry, self.mutation_schedule)):
            raise InvalidArgumentError(
                "mutation_schedule entries must be [generation >= 0, rate in [0, 1]]"
                f" pairs, got {self.mutation_schedule!r}"
            )
        gens = [g for g, _ in self.mutation_schedule]
        if gens != sorted(set(gens)):
            raise InvalidArgumentError(
                "mutation_schedule generations must be strictly increasing"
            )
        if not 1 <= self.seed <= DEFAULT_MODULUS - 1:
            raise InvalidArgumentError(
                f"seed must be in [1, {DEFAULT_MODULUS - 1}], got {self.seed}"
            )

    def mutation_rate(self, generation: int) -> float:
        rate = 0.0
        for start, p in self.mutation_schedule:
            if generation >= start:
                rate = p
        return rate


@dataclass(frozen=True)
class Individual:
    genome: Genome
    procedure: Procedure
    fitness: float
    estimate: PerformanceEstimate

    @property
    def operator_count(self) -> int:
        return len(self.procedure.operators)


class PopulationEvaluator:
    """Simulates each distinct decoded procedure once; all share the deviate
    pools of stream ``stream_id`` of ``seed``."""

    def __init__(
        self,
        plan: SimulationPlan,
        critical: CriticalErrors,
        cfg: ObjectiveConfig,
        seed: int,
        stream_id: int,
        map_tasks: Callable = map,
    ):
        self.plan = plan
        self.critical = critical
        self.cfg = cfg
        self.seed = seed
        self.stream_id = stream_id
        self._map = map_tasks
        self._cache: dict = {}  # Procedure -> PerformanceEstimate

    def evaluate(self, genomes: Sequence[Genome]) -> list:
        """One Individual per genome, simulating the uncached procedures
        as one batch of one-procedure tasks."""
        procedures = [decode(genome) for genome in genomes]
        missing = list(dict.fromkeys(p for p in procedures if p not in self._cache))
        tasks = [([p], self.plan, self.critical, self.seed, self.stream_id) for p in missing]
        batches = self._map(estimate_task, tasks)
        self._cache.update(zip(missing, (estimates[0] for estimates in batches)))
        individuals = []
        for genome, procedure in zip(genomes, procedures):
            estimate = self._cache[procedure]
            fitness = fitness_f(estimate, self.cfg)
            individuals.append(Individual(genome, procedure, fitness, estimate))
        return individuals


def _shuffle(items: list, rng: RandomStream) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.next_uniform() * (i + 1))
        items[i], items[j] = items[j], items[i]


def _crossover(a: Genome, b: Genome, params: GaParams, rng: RandomStream):
    """Draws one uniform per cut; a single-point cut is a two-point cut
    whose second cut is the genome's end."""
    return crossover(a, b, [rng.next_uniform() for _ in range(_CUTS[params.crossover_kind])])


def _mutate(genome: Genome, rate: float, rng: RandomStream) -> Genome:
    """Draws one uniform per bit, in layout order, while ``rate`` > 0."""
    if rate <= 0.0:
        return genome
    return mutate(genome, [rng.next_uniform() for _ in range(genome_length(genome.layout))], rate)


def crowding_generation(
    population: list,
    params: GaParams,
    evaluate: Callable[[Sequence[Genome]], list],
    rng: RandomStream,
    generation: int = 0,
    on_replacement: Optional[Callable[[Individual, Individual], None]] = None,
) -> list:
    """One deterministic-crowding step; returns the next population.

    ``evaluate`` maps the whole brood to its Individuals in one call, as
    :meth:`PopulationEvaluator.evaluate` does.
    """
    if len(population) % 2:
        raise InvalidArgumentError("population size must be even")
    parents = list(population)
    _shuffle(parents, rng)
    rate = params.mutation_rate(generation)
    brood = []
    for p1, p2 in zip(parents[::2], parents[1::2]):
        if rng.next_uniform() < params.p_crossover:
            g1, g2 = _crossover(p1.genome, p2.genome, params, rng)
        else:
            g1, g2 = p1.genome, p2.genome
        brood += (_mutate(g1, rate, rng), _mutate(g2, rate, rng))
    children = evaluate(brood)

    next_population = []
    for p1, p2, c1, c2 in zip(parents[::2], parents[1::2], children[::2], children[1::2]):
        straight = hamming_distance(p1.genome, c1.genome) + hamming_distance(
            p2.genome, c2.genome
        )
        crossed = hamming_distance(p1.genome, c2.genome) + hamming_distance(
            p2.genome, c1.genome
        )
        if straight <= crossed:
            matches = ((p1, c1), (p2, c2))
        else:
            matches = ((p1, c2), (p2, c1))
        for parent, child in matches:
            if child.fitness < parent.fitness or (
                child.fitness == parent.fitness
                and child.operator_count < parent.operator_count
            ):
                if on_replacement is not None:
                    on_replacement(parent, child)
                next_population.append(child)
            else:
                next_population.append(parent)
    return next_population


def operator_draws(layout: GenomeLayout, params: GaParams) -> int:
    """Most uniforms a run draws from the operator stream: the initial
    population, then per generation the shuffle, a crossover draw and the
    cut(s) for every pair, and, while the rate is > 0, one draw per bit of
    every child."""
    cuts = _CUTS[params.crossover_kind]
    per_generation = params.population - 1 + params.population // 2 * (1 + cuts)
    # A schedule entry sets the rate of generations 1 .. G from its start
    # up to the next entry's start.
    last = params.generations + 1
    ends = [start for start, _ in params.mutation_schedule[1:]] + [last]
    mutating = sum(
        max(0, min(end, last) - max(start, 1))
        for (start, rate), end in zip(params.mutation_schedule, ends)
        if rate > 0
    )
    bits = params.population * genome_length(layout)
    return bits * (1 + mutating) + params.generations * per_generation


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    notation: str
    fitness: float
    p_re: float
    p_se: float
    p_fr: float


@dataclass(frozen=True)
class BestEntry:
    notation: str
    genome_hex: str
    fitness: float
    f1: float
    p_re: float
    p_se: float
    p_fr: float
    levels: int
    per_level: int


@dataclass(frozen=True)
class DesignReport:
    seed: int
    layout: GenomeLayout
    ga: GaParams
    objective: ObjectiveConfig
    plan: SimulationPlan
    assay: AssayParams
    critical: CriticalErrors
    generation_log: tuple
    best: tuple

    def to_dict(self) -> dict:
        return report_dict(self)


def _random_genome(layout: GenomeLayout, rng: RandomStream) -> Genome:
    """Bit i is 1 where uniform i, in layout order, is below 0.5."""
    return from_bits([rng.next_uniform() < 0.5 for _ in range(genome_length(layout))], layout)


def _record(generation: int, best: Individual) -> GenerationRecord:
    est = best.estimate
    return GenerationRecord(
        generation=generation,
        notation=canonical_notation(best.procedure),
        fitness=best.fitness,
        p_re=est.p_re,
        p_se=est.p_se,
        p_fr=est.p_fr,
    )


def run_design(
    layout: GenomeLayout,
    plan: SimulationPlan,
    assay: AssayParams,
    cfg: ObjectiveConfig,
    params: GaParams,
    on_replacement: Optional[Callable[[Individual, Individual], None]] = None,
    threads: int = 1,
) -> DesignReport:
    """Full design run: random initial population, crowding generations,
    and a report of the best procedures found (deduplicated by notation).

    Simulations run on up to ``threads`` processes; the report does not
    depend on their number."""
    critical = critical_errors(assay)
    ops_rng = new_stream(params.seed, OPERATOR_STREAM_ID)
    best_seen: dict = {}

    def note_best(individuals):
        for ind in individuals:
            notation = canonical_notation(ind.procedure)
            prev = best_seen.get(notation)
            if prev is None or ind.fitness < prev.fitness:
                best_seen[notation] = ind

    # After the initial population only a replacing child joins; note it then.
    def replaced(parent, child):
        note_best([child])
        if on_replacement is not None:
            on_replacement(parent, child)

    # One pool for the whole run: the batches are a generation apart.
    with worker_map(threads, params.population) as map_tasks:

        def make_evaluator(generation: int) -> PopulationEvaluator:
            fresh = params.fresh_seeds_per_generation
            stream_id = simulation_stream_id(generation=generation if fresh else None)
            return PopulationEvaluator(plan, critical, cfg, params.seed, stream_id, map_tasks)

        evaluator = make_evaluator(0)
        genomes = [_random_genome(layout, ops_rng) for _ in range(params.population)]
        population = evaluator.evaluate(genomes)
        log = [_record(0, min(population, key=lambda ind: ind.fitness))]
        note_best(population)

        for generation in range(1, params.generations + 1):
            if params.fresh_seeds_per_generation:
                evaluator = make_evaluator(generation)
            population = crowding_generation(
                population,
                params,
                evaluator.evaluate,
                ops_rng,
                generation=generation,
                on_replacement=replaced,
            )
            log.append(_record(generation, min(population, key=lambda ind: ind.fitness)))

    ranked = sorted(
        best_seen.items(), key=lambda item: (item[1].fitness, item[0])
    )[:MAX_BEST]
    best_entries = []
    for notation, ind in ranked:
        levels, per_level, _ = resolve_shape(ind.procedure, plan)
        est = ind.estimate
        best_entries.append(
            BestEntry(
                notation=notation,
                genome_hex=ind.genome.to_hex(),
                fitness=ind.fitness,
                f1=comparison_f1(est),
                p_re=est.p_re,
                p_se=est.p_se,
                p_fr=est.p_fr,
                levels=levels,
                per_level=per_level,
            )
        )

    return DesignReport(
        seed=params.seed,
        layout=layout,
        ga=params,
        objective=cfg,
        plan=plan,
        assay=assay,
        critical=critical,
        generation_log=tuple(log),
        best=tuple(best_entries),
    )
