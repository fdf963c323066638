"""Command-line interface tests (in-process, via main())."""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_library import _NOTATION_PIECES

import qcdesign
from qcdesign import ga, simulator
from qcdesign.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, main
from qcdesign.rules import MAX_RULES


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _small_config(tmp_path, **extra):
    payload = {
        "plan": {"measurements_per_level": 200},
        "replicates": 4,
        "ga": {"population": 10, "generations": 1},
    }
    payload.update(extra)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_critical_errors_doc(capsys):
    code, out, _ = _run(capsys, "critical-errors")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["critical_random_error"] == pytest.approx(2.313, abs=0.001)
    assert doc["critical_systematic_error"] == pytest.approx(3.495, abs=0.001)


def test_critical_errors_csv(capsys):
    code, out, _ = _run(capsys, "--format", "csv", "critical-errors")
    assert code == EXIT_OK
    header, row = out.strip().splitlines()
    assert header == "k_re,delta_se"
    assert row == "2.313,3.495"


def test_evaluate_known_procedure(capsys):
    code, out, _ = _run(capsys, "evaluate", "1_2.4s")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["p_re"] == pytest.approx(0.5063, abs=0.05)
    assert doc["p_se"] == pytest.approx(0.9798, abs=0.03)
    assert doc["p_fr"] == pytest.approx(0.0312, abs=0.02)
    assert doc["seed"] == 12345


def test_evaluate_none_procedure(capsys):
    code, out, _ = _run(capsys, "evaluate", "NONE")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["p_re"], doc["p_se"], doc["p_fr"]) == (0.0, 0.0, 0.0)


def test_evaluate_parse_error_exit_code(capsys):
    code, _, err = _run(capsys, "evaluate", "Q(1,2.0)")
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_config_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nope": 1}')
    code, _, err = _run(capsys, "--config", str(path), "critical-errors")
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_objective_with_an_infinite_f_exits_2(capsys, tmp_path):
    config = _small_config(tmp_path, objective={"w_re": 1.7e308, "w_se": 1.7e308})
    code, out, err = _run(capsys, "--config", config, "evaluate", "NONE")
    assert (code, out) == (EXIT_CONFIG, "")
    assert "config error: objective weights too large" in err
    assert "Traceback" not in err


def test_infeasible_assay_exit_code(capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_text('{"assay": {"sd": 1.0, "bias": 0.0, "tea": 1.0}}')
    code, _, err = _run(capsys, "--config", str(path), "critical-errors")
    assert code == EXIT_RUNTIME
    assert "error" in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_design_runtime_error_exit_code(capsys, tmp_path, threads):
    # A genome may ask for 4 measurements per level, which a budget of 2
    # cannot hold: the config is refused at load, before any search.
    plan = {"measurements_per_level": 2}
    cfg = _small_config(tmp_path, plan=plan, layout={"optimize_per_level": True})
    code, _, err = _run(capsys, "--config", cfg, "--threads", threads, "design")
    assert code == EXIT_CONFIG
    assert err.startswith(
        "config error: plan.measurements_per_level 2 yields zero runs of the 4 "
        "measurements per level the layout can decode"
    )


def test_bad_threads_rejected(capsys):
    code, _, err = _run(capsys, "--threads", "0", "critical-errors")
    assert code == EXIT_CONFIG


def test_list_library_csv(capsys):
    code, out, _ = _run(capsys, "--format", "csv", "list-library")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "name,source,note"
    assert any(line.startswith("1_2.4s,builtin") for line in lines)


def test_list_library_includes_user_file(capsys, tmp_path):
    extra = tmp_path / "extra.txt"
    extra.write_text("my pair = M(2,1.9)\n")
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"library_files": [str(extra)]}))
    code, out, _ = _run(capsys, "--config", str(cfg), "list-library")
    assert code == EXIT_OK
    names = [e["name"] for e in json.loads(out)["entries"]]
    assert "my pair" in names


@pytest.mark.parametrize("fmt", ["doc", "csv"])
def test_byte_order_mark_is_not_part_of_a_library_name(capsys, tmp_path, fmt):
    extra = tmp_path / "extra.txt"
    extra.write_bytes(b"\xef\xbb\xbfmy pair = M(2,1.9)\n")
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"library_files": [str(extra)]}))
    code, out, _ = _run(capsys, "--config", str(cfg), "--format", fmt, "list-library")
    assert code == EXIT_OK
    if fmt == "doc":
        names = [e["name"] for e in json.loads(out)["entries"]]
    else:
        names = [row["name"] for row in csv.DictReader(io.StringIO(out))]
    assert "my pair" in names
    assert not [name for name in names if "\ufeff" in name]


def test_seed_override_changes_report(capsys):
    _, out_a, _ = _run(capsys, "--seed", "1", "evaluate", "1_2.4s")
    _, out_b, _ = _run(capsys, "--seed", "2", "evaluate", "1_2.4s")
    assert json.loads(out_a)["seed"] == 1
    assert json.loads(out_b)["seed"] == 2


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QCDESIGN_SEED", "777")
    _, out, _ = _run(capsys, "evaluate", "1_2.4s")
    assert json.loads(out)["seed"] == 777
    # an explicit flag wins over the environment
    _, out, _ = _run(capsys, "--seed", "5", "evaluate", "1_2.4s")
    assert json.loads(out)["seed"] == 5


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "--out", str(target), "critical-errors")
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["critical_random_error"] == pytest.approx(
        2.313, abs=0.001
    )


@pytest.mark.parametrize("where", ["missing-dir-flag", "directory-flag", "missing-dir-key"])
def test_unwritable_output_path_exits_4_before_any_work(monkeypatch, capsys, tmp_path, where):
    def no_work(task):
        raise AssertionError("simulated before the output path was checked")

    monkeypatch.setattr(simulator, "estimate_task", no_work)
    monkeypatch.setattr(ga, "estimate_task", no_work)
    missing = tmp_path / "no" / "such" / "dir" / "r.json"
    flags = {
        "missing-dir-flag": ["--out", str(missing)],
        "directory-flag": ["--out", str(tmp_path)],
        "missing-dir-key": [],
    }[where]
    output = {"output": str(missing)} if where == "missing-dir-key" else {}
    (tmp_path / "cfg").mkdir()
    config = _small_config(tmp_path / "cfg", **output)
    code, out, err = _run(capsys, "--config", config, "--threads", "1", *flags, "design")
    assert (code, out) == (EXIT_RUNTIME, "")
    assert err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg"]  # no file made


def test_compare_outputs_ranked_rows(capsys, tmp_path):
    cfg = _small_config(tmp_path)
    code, out, _ = _run(
        capsys, "--config", cfg, "compare", "S(1,2.7) OR M(2,1.9)"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["replicates"] == 4
    names = [row["procedure"] for row in doc["rows"]]
    assert "S(1,2.7) OR M(2,1.9)" in names
    f1s = [row["mean_f1"] for row in doc["rows"]]
    assert f1s == sorted(f1s)
    assert doc["rows"][0]["sign_p_vs_top"] is None


def test_compare_needs_two_procedures(monkeypatch):
    import qcdesign.cli as cli_mod
    from qcdesign.config import load_config
    from qcdesign.errors import ConfigError

    monkeypatch.setattr(cli_mod, "builtin_library", lambda: [])
    with pytest.raises(ConfigError):
        cli_mod.cmd_compare(load_config(None), ["1_2.4s"])


def test_design_small_run(capsys, tmp_path):
    cfg = _small_config(tmp_path)
    code, out, _ = _run(capsys, "--config", cfg, "design")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ga"]["population"] == 10
    assert len(doc["generation_log"]) == 2
    assert doc["best"]


def test_design_csv_format(capsys, tmp_path):
    cfg = _small_config(tmp_path)
    code, out, _ = _run(capsys, "--config", cfg, "--format", "csv", "design")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "generation,procedure,f,p_re,p_se,p_fr"
    assert len(lines) == 3


def test_repeat_runs_byte_identical(capsys, tmp_path):
    cfg = _small_config(tmp_path)
    _, first, _ = _run(capsys, "--config", cfg, "compare")
    _, second, _ = _run(capsys, "--config", cfg, "compare")
    assert first == second


def test_evaluate_csv_quotes_canonical_notation(capsys):
    text = "S(1,2.7) OR M(2,1.9)"
    code, out, _ = _run(capsys, "--format", "csv", "evaluate", text)
    assert code == EXIT_OK
    header, row = csv.reader(io.StringIO(out))
    assert len(row) == len(header) == 6
    assert row[0] == text


def test_limit_with_two_decimals_is_a_parse_error(capsys):
    code, _, err = _run(capsys, "evaluate", "S(1,2.45)")
    assert code == EXIT_PARSE
    assert "one decimal" in err


@pytest.mark.parametrize("text", ["1_" + "9" * 400 + "s", "S(1," + "9" * 400 + ")"])
def test_limit_overflowing_a_float_is_a_parse_error(capsys, text):
    code, _, err = _run(capsys, "evaluate", text)
    assert code == EXIT_PARSE
    assert "outside the generic-rule bounds" in err


def test_deep_parentheses_are_a_parse_error(capsys):
    code, _, err = _run(capsys, "evaluate", "(" * 3000 + "S(1,2.0)" + ")" * 3000)
    assert code == EXIT_PARSE
    assert "nested too deeply" in err


def test_parentheses_past_the_nesting_bound_exit_3(capsys):
    code, _, err = _run(capsys, "evaluate", "(" * 257 + "S(1,2.0)" + ")" * 257)
    assert code == EXIT_PARSE
    assert "at most 256 nested parentheses" in err


def _rule_chain(count, canonical):
    """``count`` single-value rules: a Westgard OR chain, or a canonical
    chain whose operators alternate AND, OR."""
    if not canonical:
        return "/".join(["1_2.0s"] * count)
    return "S(1,2.0)" + "".join(f" {('AND', 'OR')[i % 2]} S(1,2.0)" for i in range(count - 1))


@pytest.mark.parametrize("canonical", [False, True])
def test_rule_count_bounded(capsys, tmp_path, canonical):
    cfg = _small_config(tmp_path, plan={"measurements_per_level": 50})
    code, _, _ = _run(capsys, "--config", cfg, "evaluate", _rule_chain(MAX_RULES, canonical))
    assert code == EXIT_OK
    for count in (MAX_RULES + 1, 3000):
        code, _, err = _run(capsys, "evaluate", _rule_chain(count, canonical))
        assert code == EXIT_PARSE
        assert f"at most {MAX_RULES} rules, got {count}" in err


def test_layout_q_bounded_by_rule_count(capsys, tmp_path):
    for q in (MAX_RULES + 1, 12000):
        cfg = _small_config(tmp_path, layout={"q": q})
        code, _, err = _run(capsys, "--config", cfg, "design")
        assert code == EXIT_CONFIG
        assert f"q must be in [1, {MAX_RULES}], got {q}" in err
    cfg = _small_config(
        tmp_path,
        layout={"q": MAX_RULES},
        ga={"population": 2, "generations": 0},
        plan={"measurements_per_level": 20},
    )
    code, _, _ = _run(capsys, "--config", cfg, "design")
    assert code == EXIT_OK


@pytest.mark.parametrize("command", ["list-library", "compare"])
def test_non_utf8_library_file_is_a_parse_error(capsys, tmp_path, command):
    library = tmp_path / "latin1.txt"
    library.write_bytes("caf\xe9 = 1_3.0s\n".encode("latin-1"))
    cfg = _small_config(tmp_path, library_files=[str(library)])
    code, _, err = _run(capsys, "--config", cfg, command)
    assert code == EXIT_PARSE
    assert str(library) in err


@pytest.mark.parametrize(
    "extra, argv",
    [
        ({}, ["--out", "a\0b", "critical-errors"]),
        ({"output": "a\0b"}, ["critical-errors"]),
        ({"library_files": ["a\0b"]}, ["list-library"]),
    ],
    ids=["out-flag", "output-key", "library-files-key"],
)
def test_nul_in_a_path_is_a_config_error(capsys, tmp_path, extra, argv):
    code, _, err = _run(capsys, "--config", _small_config(tmp_path, **extra), *argv)
    assert code == EXIT_CONFIG
    assert "NUL byte" in err


_COMMANDS = ["design", "evaluate", "compare", "list-library", "critical-errors"]
_TEXT = st.text(max_size=6) | st.text("ab/.-\0", max_size=6)
_FLAG_VALUES = {
    "--seed": st.integers().map(str),
    "--threads": st.integers(-1, 3).map(str),
    "--out": _TEXT,
    "--format": st.sampled_from(["csv", "doc"]),
}


@st.composite
def _argvs(draw):
    """Global flags, then a command word and its procedure texts; one draw
    in ten of each takes any value, an unknown command or the wrong number
    of texts."""

    def rare():
        return draw(st.sampled_from(range(10))) == 0

    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=4)):
        argv += [flag, draw(st.integers().map(str) | _TEXT if rare() else _FLAG_VALUES[flag])]
    command = draw(st.text(max_size=12) if rare() else st.sampled_from(_COMMANDS))
    count = {"evaluate": 1, "compare": draw(st.integers(0, 2))}.get(command, 0)
    if rare():
        count = draw(st.integers(0, 2))
    texts = st.lists(_NOTATION_PIECES, max_size=8).map("".join) | st.sampled_from(
        ["1_2.5s/2_2.0s", "S(1,2.0) OR (M(2,1.9) AND R(4,4.2))", "NONE"]
    )
    return argv, [command, *draw(st.lists(texts, min_size=count, max_size=count))]


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_argvs())
def test_any_argv_exits_cleanly(tmp_path, monkeypatch, argvs):
    # Reports named by --out land in tmp_path, the config in a directory
    # of its own.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg").mkdir(exist_ok=True)
    config = _small_config(
        tmp_path / "cfg",
        plan={"measurements_per_level": 12},
        replicates=2,
        ga={"population": 2, "generations": 1},
    )
    flags, command = argvs
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([*flags, "--config", config, *command])
    except SystemExit as exc:  # argparse: usage errors exit 2, --help 0
        code = exc.code
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PARSE, EXIT_RUNTIME)
    if code != EXIT_OK:
        assert stderr.getvalue().strip()


def test_start_up_imports_neither_statistics_nor_multiprocessing():
    """A fresh ``import qcdesign.cli`` loads no ``statistics`` (which pulls
    in ``fractions`` and ``decimal``) and no ``multiprocessing``, which
    ``simulator.worker_map`` imports only when it starts a pool."""
    src = str(Path(qcdesign.__file__).parents[1])
    code = "import sys, qcdesign.cli; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert not {"statistics", "multiprocessing"} & set(out.split())
