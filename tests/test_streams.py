"""The stream layout of ``simulator``: the stream ids one command reads
never overlap and never pass ``rng.MAX_STREAM_ID``, and ``evaluate``
reads the pools that a design on common random numbers selected on."""

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from qcdesign.cli import EXIT_CONFIG, EXIT_OK, main
from qcdesign.config import JobConfig, default_config
from qcdesign.errors import ConfigError
from qcdesign.ga import GaParams, operator_draws
from qcdesign.genome import GenomeLayout
from qcdesign.rng import MAX_STREAM_ID, STREAM_JUMP
from qcdesign.rules import MAX_RULES
from qcdesign.simulator import (
    IDS_PER_SIMULATION, MAX_FRESH_SEED_GENERATIONS, MAX_REPLICATES, OPERATOR_STREAM_ID,
    simulation_stream_id,
)


def _block(base: int) -> tuple:
    return base, base + IDS_PER_SIMULATION


def _intervals(cfg: JobConfig) -> dict:
    """The half-open stream-id ranges each command reads, by command."""
    ga = cfg.ga
    operator = -(-operator_draws(cfg.layout, ga) // STREAM_JUMP)  # ceil
    if ga.fresh_seeds_per_generation:
        generations = range(ga.generations + 1)
        simulations = [_block(simulation_stream_id(generation=g)) for g in generations]
    else:
        simulations = [_block(simulation_stream_id())]
    return {
        "design": simulations + [(OPERATOR_STREAM_ID, OPERATOR_STREAM_ID + operator)],
        "compare": [_block(simulation_stream_id(r)) for r in range(cfg.replicates)],
        "evaluate": [_block(simulation_stream_id())],
    }


_schedules = st.lists(
    st.tuples(st.integers(0, 3000), st.sampled_from([0.0, 0.0005, 1.0])),
    max_size=4,
    unique_by=lambda entry: entry[0],
).map(lambda entries: tuple(sorted(entries)))


@settings(deadline=None)
@given(
    population=st.one_of(st.integers(1, 3), st.integers(1, 400), st.integers(1, 10**8)).map(
        lambda n: 2 * n
    ),
    generations=st.one_of(
        st.integers(0, 60),
        st.integers(MAX_FRESH_SEED_GENERATIONS - 2, MAX_FRESH_SEED_GENERATIONS + 2),
        st.integers(0, 10**9),
    ),
    schedule=_schedules,
    kind=st.sampled_from(["single_point", "two_point"]),
    fresh=st.booleans(),
    layout=st.builds(
        GenomeLayout,
        q=st.one_of(st.integers(1, 3), st.integers(1, MAX_RULES)),
        optimize_levels=st.booleans(),
        optimize_per_level=st.booleans(),
        fixed_levels=st.integers(1, 2),
        fixed_per_level=st.integers(1, 4),
    ),
    replicates=st.one_of(
        st.integers(2, 60), st.integers(MAX_REPLICATES - 2, MAX_REPLICATES + 2)
    ),
)
def test_streams_of_one_command_never_overlap(
    population, generations, schedule, kind, fresh, layout, replicates
):
    ga = GaParams(
        population=population,
        generations=generations,
        mutation_schedule=schedule,
        crossover_kind=kind,
        fresh_seeds_per_generation=fresh,
    )
    base = default_config()
    try:
        cfg = JobConfig(base.assay, base.objective, ga, base.plan, layout, replicates=replicates)
    except ConfigError:
        assume(False)
    for command, intervals in _intervals(cfg).items():
        ordered = sorted(intervals)
        for (_, end), (start, _) in zip(ordered, ordered[1:]):
            assert end <= start, command
        assert ordered[0][0] >= 0 and ordered[-1][1] - 1 <= MAX_STREAM_ID, command


# One case per bound of the stream layout: the last config that fits its
# streams loads, and the next one exits 2 before any work.
#   replicates: replicate 2,683 reads ids up to 8 x 2,683 + 7 = 21,471;
#   fresh-seed generations: generation 2,670 reads up to 100 + 8 x 2,670 + 7
#     = 21,467, and 2,671 would pass 21,473;
#   fresh-seed operator draws: an initial population of 11-bit genomes (q=1)
#     draws 11 per genome, and 454,544 x 11 = 4,999,984 <= 5,000,000;
#   common-random-numbers operator draws: 2 genomes of 11 bits, then per
#     generation a shuffle, a crossover draw and a cut:
#     22 + 3 x 714,133,326 = 2,142,400,000.
_Q1 = {"q": 1, "optimize_levels": False}
_BOUNDS = {
    "replicates": ({"replicates": 2684}, {"replicates": 2685}),
    "fresh_generations": tuple(
        {"ga": {"population": 2, "generations": g, "fresh_seeds_per_generation": True}}
        for g in (2670, 2671)
    ),
    "fresh_operator_draws": tuple(
        {"ga": {"population": p, "generations": 0, "fresh_seeds_per_generation": True},
         "layout": _Q1}
        for p in (454544, 454546)
    ),
    "crn_operator_draws": tuple(
        {"ga": {"population": 2, "generations": g, "mutation_schedule": []}, "layout": _Q1}
        for g in (714133326, 714133327)
    ),
}


@pytest.mark.parametrize("bound", sorted(_BOUNDS))
def test_one_step_past_a_stream_bound_exits_2(tmp_path, capsys, bound):
    path = tmp_path / "job.json"
    for config, code in zip(_BOUNDS[bound], (EXIT_OK, EXIT_CONFIG)):
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "critical-errors"]) == code
    assert capsys.readouterr().err.startswith("config error: ")


def test_evaluate_reproduces_a_crn_design(tmp_path, capsys):
    """A design on common random numbers scores every candidate on the
    pools of ``simulation_stream_id()``, which evaluate reads. The notation
    carries no QC shape, so every entry evaluates to its reported figures
    under a plan set to the entry's ``levels`` and ``per_level``."""
    plan = {"measurements_per_level": 300, "levels": 2, "per_level_per_run": 1}
    ga = {"population": 20, "generations": 4}
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"plan": plan, "ga": ga}))
    assert main(["--config", str(path), "design"]) == EXIT_OK
    best = json.loads(capsys.readouterr().out)["best"]
    shapes = set()
    for entry in best:
        shape = {"levels": entry["levels"], "per_level_per_run": entry["per_level"]}
        shapes.add(tuple(shape.values()))
        path.write_text(json.dumps({"plan": {**plan, **shape}, "ga": ga}))
        assert main(["--config", str(path), "evaluate", entry["procedure"]]) == EXIT_OK
        evaluated = json.loads(capsys.readouterr().out)
        assert [evaluated[key] for key in ("p_re", "p_se", "p_fr")] == [
            entry[key] for key in ("p_re", "p_se", "p_fr")
        ], entry["procedure"]
    assert len(shapes) >= 2
