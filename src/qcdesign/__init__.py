"""Design of statistical quality-control procedures with a
deterministic-crowding genetic algorithm."""

from .error_model import (
    AssayParams,
    CriticalErrors,
    critical_errors,
    critical_random_error,
    critical_systematic_error,
    single_value_power_oracle,
)
from .ga import DesignReport, GaParams, Individual, run_design
from .genome import Genome, GenomeLayout, decode, encode, genome_length, hamming_distance
from .library import LibraryEntry, builtin_library, load_library_file, parse_procedure
from .objective import ObjectiveConfig, comparison_f1, fitness_f
from .rng import RandomStream, new_stream
from .rules import (
    Operator,
    OperatorKind,
    Procedure,
    Rule,
    RuleKind,
    build_expr,
    canonical_notation,
    count_distinct_propositions,
)
from .simulator import (
    DeviatePool,
    ErrorCondition,
    PerformanceEstimate,
    SimulationPlan,
    draw_condition_pools,
    estimate_performance,
    simulate_condition,
)
from .stats import SignTestResult, compare_procedures, sign_test, summarize

__version__ = "0.1.0"
