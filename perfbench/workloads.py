"""The benchmark's workloads: the CLI commands each one runs and how to check them.

Every command runs single-process (``--jobs 1``): process pools on a small
shared machine do not give steady timings, so they are left out on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

FINITE_SCENARIO = "perfbench/scenarios/finite-horizon.yaml"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the rules its output is checked by."""

    ref: str                    # key of its reference rows in reference.json
    argv: tuple                 # arguments after ``python -m sncalc.cli``
    delay_abs_tol_s: float = 0.0  # finite-horizon delay rows: absolute tolerance
    check_empirical: bool = False  # validate rows: empirical_frequency <= epsilon


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenarios: tuple            # what ``setup_s`` parses
    commands: Callable[[int], tuple]  # seed -> the Commands of one pass
    warm_repeats: int           # passes of the commands per warm sample


def _cli_sweep(seed: int) -> tuple:
    return (
        Command("sweep-hops", ("sweep-hops", "--scenario", "voice-fig3", "--jobs", "1")),
        Command("sweep-flows", ("sweep-flows", "--scenario", "voice-fig4-H10", "--jobs", "1")),
    )


def _finite_horizon(seed: int) -> tuple:
    # Delay rows come from the integer-valued general engine; one slot of
    # tolerance leaves room for unifying them with the real-valued closed form.
    return (Command("bound-finite", ("bound", "--scenario", FINITE_SCENARIO, "--jobs", "1"),
                    delay_abs_tol_s=0.001),)


def _desk_validate(seed: int) -> tuple:
    return (Command("validate-desk",
                    ("validate", "--scenario", "desk-validation", "--jobs", "1", "--seed", str(seed)),
                    check_empirical=True),)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="cli-sweep",
            why="the paper's hop and flow sweeps at horizon inf: cold time is import, "
                "warm time is closed-form bounds/envelopes; the general engine and simulator are not run",
            scenarios=("voice-fig3", "voice-fig4-H10"),
            commands=_cli_sweep,
            warm_repeats=10,
        ),
        Workload(
            name="finite-horizon",
            why="bound at horizon 1e4 with backlog and delay rows: the only path into the "
                "general engine (O(horizon) series, delay bisection); the simulator is not run",
            scenarios=(FINITE_SCENARIO,),
            commands=_finite_horizon,
            warm_repeats=1,
        ),
        Workload(
            name="desk-validate",
            why="simulator cross-check, 10 x 1.006M slots at H=1,2: simulation dominates time and "
                "memory; its bound rows take the closed-form path",
            scenarios=("desk-validation",),
            commands=_desk_validate,
            warm_repeats=1,
        ),
    )
}
