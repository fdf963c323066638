"""Golden-output check: every command's report bytes on small configs.

The fixtures under ``tests/golden/`` were written by the program before
any refactor of config loading and report serialization. A change that
alters a report on purpose re-freezes them with

    PYTHONPATH=src python tests/test_golden.py --freeze

and says why in CHANGES.md. Without pytest,

    PYTHONPATH=src python tests/test_golden.py --check

renders every case, the design cases also on two processes, and exits 1
if any report differs from its fixture.
"""

import functools
import json
import sys
from pathlib import Path
from unittest import mock

try:
    import pytest
except ModuleNotFoundError:  # --check and --freeze run without it
    pytest = None

from qcdesign.cli import EXIT_OK, main

parametrize = pytest.mark.parametrize if pytest else lambda *args, **kwargs: lambda fn: fn

GOLDEN = Path(__file__).parent / "golden"

_DESIGN = {
    "ga": {"population": 10, "generations": 4, "mutation_schedule": [[0, 0.0], [2, 0.05]]}
}
_COMPARE = {"replicates": 3, "plan": {"measurements_per_level": 300}}
_EVALUATE = {"plan": {"measurements_per_level": 500}}
_LIBRARY = {"library_files": [str(GOLDEN / "extra_library.txt")]}
# Integer values for float fields are reported as given, never coerced.
_NO_COERCION = {
    "assay": {"sd": 1},
    "ga": {
        "p_crossover": 1,
        "fresh_seeds_per_generation": True,
        "population": 10,
        "generations": 3,
    },
    "objective": {"w_re": 2},
    "layout": {"q": 4, "optimize_per_level": True},
    "plan": {"measurements_per_level": 300},
}
_COMPARE_EXTRA = ["S(1,2.7) OR M(2,1.9)", "M(2,1.9) OR (D(3,0.1) AND R(2,3.8))"]

# (fixture stem, config, argv tail); each case runs in both formats,
# except where the stem names its format.
CASES = (
    ("design", _DESIGN, ["design"]),
    ("compare", _COMPARE, ["--threads", "2", "compare", *_COMPARE_EXTRA]),
    ("evaluate_westgard", _EVALUATE, ["evaluate", "1_2.5s/2_2.0s/R_4s/4_1s"]),
    ("evaluate_canonical.doc", _EVALUATE, ["evaluate", _COMPARE_EXTRA[1]]),
    ("critical_errors", {}, ["critical-errors"]),
    ("list_library", _LIBRARY, ["list-library"]),
    ("no_coercion_design", _NO_COERCION, ["design"]),
    ("no_coercion_critical_errors", _NO_COERCION, ["critical-errors"]),
)


def _expand():
    for stem, config, argv in CASES:
        if stem.endswith((".doc", ".csv")):
            stem, fmt = stem.rsplit(".", 1)
            yield stem, fmt, config, argv
        else:
            for fmt in ("doc", "csv"):
                yield stem, fmt, config, argv


def _fixture(stem: str, fmt: str) -> str:
    return f"{stem}.{'json' if fmt == 'doc' else 'csv'}"


PARAMS = [(config, fmt, argv, _fixture(stem, fmt)) for stem, fmt, config, argv in _expand()]
IDS = [f"{stem}.{fmt}" for stem, fmt, _, _ in _expand()]
# Design cases that must give the same bytes on two processes.
TWO_PROCESSES = [("design", _DESIGN), ("no_coercion_design", _NO_COERCION)]


def _report(workdir: Path, config: dict, fmt: str, argv: list) -> bytes:
    config_path = workdir / "job.json"
    out_path = workdir / "report.out"
    config_path.write_text(json.dumps(config))
    code = main(["--config", str(config_path), "--format", fmt, "--out", str(out_path), *argv])
    assert code == EXIT_OK
    return out_path.read_bytes()


@parametrize("config, fmt, argv, fixture", PARAMS, ids=IDS)
def test_report_matches_fixture(tmp_path, config, fmt, argv, fixture):
    assert _report(tmp_path, config, fmt, argv) == (GOLDEN / fixture).read_bytes()


@parametrize("fmt", ["doc", "csv"])
@parametrize("stem, config", TWO_PROCESSES)
def test_design_on_two_processes_matches_fixture(tmp_path, monkeypatch, stem, config, fmt):
    # The report must not depend on the worker count, even on a 1-core machine.
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    report = _report(tmp_path, config, fmt, ["--threads", "2", "design"])
    assert report == (GOLDEN / _fixture(stem, fmt)).read_bytes()


# The golden design and compare, serial, for the eviction check below.
EVICTED = [
    ("design", _DESIGN, ["design"]),
    ("compare", _COMPARE, ["compare", *_COMPARE_EXTRA]),
]


@parametrize("stem, config, argv", EVICTED, ids=[stem for stem, _, _ in EVICTED])
def test_reports_match_fixtures_when_compiled_loops_are_evicted(
    tmp_path, monkeypatch, stem, config, argv
):
    """With room for 4 compiled loops of each kind, the loops are evicted
    and compiled again throughout, as at the default design's scale, and
    no report may change. One process, since a worker process that does
    not fork from this one would not see the smaller caches."""
    from qcdesign import simulator

    for name in ("run_loop", "statistic_loop"):
        small = functools.lru_cache(maxsize=4)(getattr(simulator, name).__wrapped__)
        monkeypatch.setattr(simulator, name, small)
    report = _report(tmp_path, config, "doc", ["--threads", "1", *argv])
    assert report == (GOLDEN / _fixture(stem, "doc")).read_bytes()
    # More compiles than the cache holds: some loop was evicted.
    assert simulator.run_loop.cache_info().misses > 4


def _freeze() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for config, fmt, argv, fixture in PARAMS:
            (GOLDEN / fixture).write_bytes(_report(Path(tmp), config, fmt, argv))
            print(f"froze {fixture}")


def _check() -> int:
    import tempfile

    cases = [(name, *param) for name, param in zip(IDS, PARAMS)]
    cases += [
        (f"{stem}.{fmt} on two processes", config, fmt, ["--threads", "2", "design"],
         _fixture(stem, fmt))
        for stem, config in TWO_PROCESSES
        for fmt in ("doc", "csv")
    ]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp, mock.patch("os.cpu_count", lambda: 2):
        for name, config, fmt, argv, fixture in cases:
            same = _report(Path(tmp), config, fmt, argv) == (GOLDEN / fixture).read_bytes()
            failed += not same
            print(f"{'ok' if same else 'DIFFERS'}  {name}")
    print(f"{len(cases) - failed} of {len(cases)} reports match on Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__" and sys.argv[1:] == ["--freeze"]:
    _freeze()
elif __name__ == "__main__" and sys.argv[1:] == ["--check"]:
    sys.exit(_check())
