"""Workload definitions: the argv and config each workload hands to the CLI.

The benchmark seed only selects the program's master seed (``--seed``);
everything else about a workload is fixed here, so the same benchmark
seed always produces the same command calls.
"""

from __future__ import annotations

from dataclasses import dataclass

# The program's own default master seed. Report digests are frozen at it.
DEFAULT_SEED = 12345
_SEED_MODULUS = 2147483647  # the Lehmer modulus: master seeds lie in [1, m - 1]

# Twelve procedures for ``evaluate``: Westgard library combinations,
# single rules, and canonical multi-rule designs with nested grouping.
EVALUATE_PROCEDURES = (
    "1_3.0s/2_2.0s/R_4.0s",
    "1_2.5s/2_2.0s/R_4s/4_1s",
    "1_3.0s/2_2.0s/R_4.0s/4_1.0s",
    "1_2.5s",
    "1_3.0s",
    "M(2,1.9)",
    "R(2,3.8)",
    "D(4,2.0)",
    "S(1,2.7) OR M(2,1.9)",
    "M(2,1.9) OR (D(3,0.1) AND R(2,3.8))",
    "S(1,3.1) OR (M(4,1.1) AND R(3,2.5))",
    "(S(2,2.3) AND R(4,3.0)) OR M(3,1.6)",
)

COMPARE_EXTRA = ("S(1,2.7) OR M(2,1.9)", "M(2,1.9) OR (D(3,0.1) AND R(2,3.8))")
COMPARE_LIBRARY_SIZE = 27  # builtin_library(): 21 single-value sweeps + 6 combinations


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # written to the job config file the CLI loads
    check_config: dict  # shrunken config of the untimed golden-digest check
    commands: tuple  # one argv tail per command call in a pass
    threads: int  # value of --threads; 0 leaves the flag out
    scorings: int  # procedure scorings one pass delivers
    workers: int  # worker processes the CLI runs beside the caller

    def argv(self, config_path: str, seed: int, threads: int, out_path: str, index: int):
        """Full argv of command call ``index`` of a pass."""
        head = ["--config", config_path, "--seed", str(seed), "--out", out_path]
        if threads:
            head += ["--threads", str(threads)]
        return head + list(self.commands[index])


# GA scaled from the default pop 600 x 100 generations to pop 60 x 3,
# with mutation switching on from generation 1. A pass takes 3-5 s on a
# 2-core machine, so a 40 s run holds about ten passes, and its 240
# evaluate calls average the cost of enough procedures that the pass time
# varies little with the seed (pop 30 x 6 varied by a third).
_DESIGN_POP, _DESIGN_GENS = 60, 3

WORKLOADS = {
    "design": Workload(
        name="design",
        config={
            "ga": {
                "population": _DESIGN_POP,
                "generations": _DESIGN_GENS,
                "mutation_schedule": [[0, 0.0], [_DESIGN_GENS // 2, 0.0005]],
            }
        },
        check_config={
            "ga": {"population": 10, "generations": 4, "mutation_schedule": [[0, 0.0], [2, 0.05]]}
        },
        commands=(("design",),),
        threads=2,
        scorings=_DESIGN_POP * (_DESIGN_GENS + 1),
        workers=0,
    ),
    "compare": Workload(
        name="compare",
        config={},
        check_config={"replicates": 3, "plan": {"measurements_per_level": 300}},
        commands=(("compare",) + COMPARE_EXTRA,),
        threads=2,
        scorings=(COMPARE_LIBRARY_SIZE + len(COMPARE_EXTRA)) * 21,
        workers=2,
    ),
    "evaluate": Workload(
        name="evaluate",
        # 2500 runs per level keeps the largest stream (systematic-error
        # restoration) well under the 100,000-draw STREAM_JUMP, and a pass
        # near 1.5 s, so a run holds over twenty passes.
        config={"plan": {"measurements_per_level": 2500}},
        check_config={"plan": {"measurements_per_level": 500}},
        commands=tuple(("evaluate", text) for text in EVALUATE_PROCEDURES),
        threads=0,
        scorings=len(EVALUATE_PROCEDURES),
        workers=0,
    ),
}


def program_seed(bench_seed: int) -> int:
    """Map any benchmark seed to a valid master seed; valid seeds map to themselves."""
    if 1 <= bench_seed <= _SEED_MODULUS - 1:
        return bench_seed
    return 1 + bench_seed % (_SEED_MODULUS - 1)
