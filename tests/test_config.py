"""Job-configuration loading tests."""

import io
import json
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcdesign.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from qcdesign.config import JobConfig, default_config, load_config
from qcdesign.errors import ConfigError
from qcdesign.rng import DEFAULT_MODULUS


def _write(tmp_path, payload):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_defaults_are_the_sodium_application():
    cfg = default_config()
    assert (cfg.assay.sd, cfg.assay.bias, cfg.assay.tea, cfg.assay.alpha) == (
        0.67,
        0.1,
        4.0,
        0.01,
    )
    assert cfg.ga.seed == 12345
    assert cfg.plan.levels == 2
    assert cfg.layout.q == 3
    assert cfg.layout.optimize_levels
    assert cfg.replicates == 21
    assert cfg.threads == 1


def test_none_path_loads_defaults():
    assert load_config(None).ga.seed == default_config().ga.seed


def test_partial_override(tmp_path):
    path = _write(
        tmp_path,
        {
            "assay": {"sd": 1.0},
            "ga": {"population": 50, "seed": 7},
            "plan": {"measurements_per_level": 200},
            "replicates": 5,
        },
    )
    cfg = load_config(path)
    assert cfg.assay.sd == 1.0
    assert cfg.assay.tea == 4.0  # untouched default
    assert cfg.ga.population == 50
    assert cfg.ga.seed == 7
    assert cfg.plan.measurements_per_level == 200
    assert cfg.replicates == 5


def test_byte_order_mark_prefixed_config_loads(tmp_path):
    path = tmp_path / "job.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"replicates": 5}).encode())
    assert load_config(str(path)).replicates == 5


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(_write(tmp_path, {"assai": {}}))
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(_write(tmp_path, {"ga": {"popsize": 10}}))


def test_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root must be"):
        load_config(str(path))


def test_nul_in_the_config_path_cannot_be_read():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("a\0b")


def test_invalid_values_surface_as_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"assay": {"sd": -1.0}}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"ga": {"population": 7}}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"replicates": 1}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"threads": 0}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"output_format": "xml"}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"library_files": "not-a-list"}))


def test_objective_must_keep_the_worst_f_finite(tmp_path):
    # Worst case (0, 0, 1): 0.25 * 1e308 + 0.25 * 7e307 + 1 is finite.
    finite = {"w_re": 1e308, "w_se": 7e307, "p_se_target": 0.5}
    assert load_config(_write(tmp_path, {"objective": finite})).objective.w_se == 7e307
    # 0.25 * 1.7e308 + 1.7e308 overflows, and so would f for NONE.
    with pytest.raises(ConfigError, match="worst-case f is not a finite number"):
        load_config(_write(tmp_path, {"objective": {"w_re": 1.7e308, "w_se": 1.7e308}}))


def test_mutation_schedule_roundtrip(tmp_path):
    path = _write(tmp_path, {"ga": {"mutation_schedule": [[0, 0.0], [10, 0.001]]}})
    assert load_config(path).ga.mutation_schedule == ((0, 0.0), (10, 0.001))


def test_values_keep_their_json_type(tmp_path):
    path = _write(
        tmp_path,
        {"assay": {"sd": 1}, "ga": {"p_crossover": 1}, "objective": {"w_re": 2}},
    )
    cfg = load_config(path)
    assert type(cfg.assay.sd) is int and cfg.assay.sd == 1
    assert type(cfg.ga.p_crossover) is int
    assert type(cfg.objective.w_re) is int
    assert type(cfg.library_files) is tuple


@pytest.mark.parametrize(
    "payload",
    [
        {"ga": {"population": 10.0}},
        {"ga": {"population": "10"}},
        {"ga": {"fresh_seeds_per_generation": 1}},
        {"ga": {"mutation_schedule": [[0, "x"]]}},
        {"ga": {"mutation_schedule": [[0, 5.0]]}},
        {"ga": {"mutation_schedule": [[0.5, 0.1]]}},
        {"ga": {"mutation_schedule": [[-1, 0.1]]}},
        {"ga": {"mutation_schedule": [[0, 0.1, 2]]}},
        {"plan": {"levels": True}},
        {"plan": {"stream": None}},
        {"layout": {"optimize_levels": "yes"}},
        {"assay": {"sd": "0.67"}},
        {"assay": {"sd": float("nan")}},
        {"threads": True},
        {"replicates": 3.0},
        {"output": 5},
        {"output_format": None},
        {"library_files": [1]},
        {"objective": {"w_re": 10**400}},  # no float holds it
    ],
)
def test_wrong_types_exit_with_config_error(tmp_path, capsys, payload):
    code = main(["--config", _write(tmp_path, payload), "critical-errors"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-5, 0, DEFAULT_MODULUS])
def test_config_seed_out_of_range_exits_with_config_error(tmp_path, capsys, seed):
    code = main(["--config", _write(tmp_path, {"ga": {"seed": seed}}), "critical-errors"])
    assert code == EXIT_CONFIG
    assert "seed must be in" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["0", str(DEFAULT_MODULUS)])
def test_seed_flag_out_of_range_exits_with_config_error(capsys, seed):
    assert main(["--seed", seed, "evaluate", "1_2.4s"]) == EXIT_CONFIG
    assert "seed must be in" in capsys.readouterr().err


def test_seed_env_out_of_range_exits_with_config_error(monkeypatch, capsys):
    monkeypatch.setenv("QCDESIGN_SEED", "0")
    assert main(["evaluate", "1_2.4s"]) == EXIT_CONFIG
    assert "seed must be in" in capsys.readouterr().err


def test_plan_size_bounded_by_stream_spacing(tmp_path, capsys):
    # Streams start STREAM_JUMP = 100,000 draws apart, and in the worst case
    # every run rejects and reloads 4 * (1 + 2) restoration deviates.
    assert load_config(_write(tmp_path, {"plan": {"measurements_per_level": 8333}}))
    for size in (10000, 60000):
        path = _write(tmp_path, {"plan": {"measurements_per_level": size}})
        assert main(["--config", path, "critical-errors"]) == EXIT_CONFIG
        assert "measurements_per_level" in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(1, 9))
def test_layout_budget_that_holds_no_run_is_refused_at_load(tmp_path, capsys, seed):
    # Some genomes decode 4 measurements per level, which 3 cannot hold;
    # whether the search meets one used to depend on the seed.
    config = {
        "plan": {"measurements_per_level": 3},
        "layout": {"q": 2, "optimize_per_level": True},
        "ga": {"population": 4, "generations": 2},
    }
    code = main(["--config", _write(tmp_path, config), "--seed", str(seed), "design"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: plan.measurements_per_level 3 yields zero runs of the 4 "
        "measurements per level the layout can decode\n"
    )


@pytest.mark.parametrize("command", ["compare", "critical-errors"])
def test_plan_budget_that_holds_no_run_is_refused_at_load(tmp_path, capsys, command):
    config = {"plan": {"measurements_per_level": 1, "per_level_per_run": 2}}
    assert main(["--config", _write(tmp_path, config), command]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: measurements_per_level 1 yields zero runs "
        "of per_level_per_run 2 measurements\n"
    )


def test_largest_plan_restores_after_every_run(tmp_path, capsys):
    # M(4,0.0) rejects nearly every run: the restoration budget is spent.
    path = _write(tmp_path, {"plan": {"measurements_per_level": 8333}})
    assert main(["--config", path, "--format", "csv", "evaluate", "M(4,0.0)"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("procedure,")


@pytest.mark.parametrize("generations, code", [(150, EXIT_OK), (250, EXIT_CONFIG)])
def test_fresh_seed_operator_draws_bounded(tmp_path, capsys, generations, code):
    # At pop 600 a mutating generation draws about 25,000 operator uniforms;
    # the first fresh-seed simulation stream starts 50 streams past them.
    ga = {"generations": generations, "fresh_seeds_per_generation": True}
    assert main(["--config", _write(tmp_path, {"ga": ga}), "critical-errors"]) == code
    if code == EXIT_CONFIG:
        assert capsys.readouterr().err == (
            "config error: ga: 250 generations at population 600 may draw 5147750 operator "
            "uniforms; with fresh_seeds_per_generation the stream holds 5000000\n"
        )
    # Common-random-number mode simulates on no stream past id 7.
    ga["fresh_seeds_per_generation"] = False
    assert load_config(_write(tmp_path, {"ga": ga})).ga.generations == generations


# In common-random-numbers mode the operator stream starts at id 50 and
# may run to the end of stream rng.MAX_STREAM_ID = 21,473; past it the ids
# wrap onto the simulation streams 0 .. 7.
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "ga", [{"population": 10**30}, {"population": 2, "generations": 10**30}]
)
def test_common_random_number_operator_draws_bounded(tmp_path, capsys, threads, ga):
    path = _write(tmp_path, {"ga": ga})
    start = time.perf_counter()
    assert main(["--config", path, "--threads", threads, "design"]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.endswith(
        " operator uniforms; in common-random-numbers mode the stream holds 2142400000\n"
    )


def test_common_random_number_operator_budget_edge(tmp_path):
    # The initial population draws 2 genomes of 11 bits, then each
    # generation 3 uniforms (the shuffle, a crossover draw and its cut):
    # 22 + 3 x 714,133,326 = 2,142,400,000 draws fill the budget exactly.
    ga = {"population": 2, "generations": 714133326, "mutation_schedule": []}
    config = {"ga": ga, "layout": {"q": 1, "optimize_levels": False}}
    assert load_config(_write(tmp_path, config)).ga.generations == 714133326
    ga["generations"] += 1
    with pytest.raises(ConfigError, match="may draw 2142400003 operator uniforms"):
        load_config(_write(tmp_path, config))


# Compare's replicate r simulates on stream ids 8r+1 .. 8r+7, and a
# fresh-seed design's generation g on ids 100+8g+1 .. 100+8g+7; neither
# may pass rng.MAX_STREAM_ID = 21,473.
def test_replicates_bounded_by_stream_ids(tmp_path):
    assert load_config(_write(tmp_path, {"replicates": 2684})).replicates == 2684
    with pytest.raises(ConfigError, match=r"replicates must be an integer in \[2, 2684\], got 2685"):
        load_config(_write(tmp_path, {"replicates": 2685}))


def test_fresh_seed_generations_bounded_by_stream_ids(tmp_path):
    ga = {"population": 2, "generations": 2670, "fresh_seeds_per_generation": True}
    assert load_config(_write(tmp_path, {"ga": ga})).ga.generations == 2670
    ga["generations"] = 2671
    with pytest.raises(ConfigError, match="at most 2670 generations .*, got 2671"):
        load_config(_write(tmp_path, {"ga": ga}))
    # Common-random-number mode simulates on stream ids 1 .. 7 only.
    ga["fresh_seeds_per_generation"] = False
    assert load_config(_write(tmp_path, {"ga": ga})).ga.generations == 2671


@pytest.mark.parametrize(
    "name, value", [("QCDESIGN_SEED", "abc"), ("QCDESIGN_THREADS", "1.5")]
)
def test_bad_env_overrides_exit_with_config_error(monkeypatch, capsys, name, value):
    monkeypatch.setenv(name, value)
    assert main(["critical-errors"]) == EXIT_CONFIG
    assert name in capsys.readouterr().err


def _section_keys():
    """Section name -> its config keys, read from the params dataclasses."""
    cfg = default_config()
    return {
        f.name: [g.name for g in fields(getattr(cfg, f.name))]
        for f in fields(cfg)
        if is_dataclass(getattr(cfg, f.name))
    }


_SECTIONS = _section_keys()
# ``output`` would write files wherever the fuzzer points; its named case
# above covers its type check.
_TOP_LEVEL = [f.name for f in fields(JobConfig) if f.name not in {*_SECTIONS, "output"}]
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _configs(draw):
    config = {}
    for name in draw(st.lists(st.sampled_from([*_SECTIONS, *_TOP_LEVEL, "bogus"]))):
        if name in _SECTIONS and draw(st.booleans()):
            keys = st.sampled_from([*_SECTIONS[name], "bogus"])
            config[name] = draw(st.dictionaries(keys, _JSON, max_size=4))
        else:
            config[name] = draw(_JSON)
    return config


@settings(max_examples=200, deadline=None)
@given(_configs())
def test_any_json_config_exits_cleanly(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(config))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["--config", str(path), "critical-errors"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
