"""The ``chaos-matrix`` workload: :func:`repro.chaos.matrix.judge_config`
over three matrix rows at their own budgets, shrink off.

Rows: ``nuc-honest`` (batched and serial fuzzing near parity),
``omega-nostab`` (speculative batched waves do most of the work) and
``smr-honest`` (serial-only fuzzing).

The inputs are fixed rather than drawn from the bench seed: fuzz cost
varies up to 8x between fuzz seeds at the same step budget (``nuc-honest``:
8.7 s at seed 3, 70.6 s at seed 1), which would swamp any bound.
``nuc-honest`` and ``smr-honest`` use the matrix's default seed 0;
``omega-nostab`` uses seed 1, because at seed 0 its first termination
violation takes 120k steps (37 s), longer than a run.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from hostspeed import HostSpeed, converter
from measure import check, median_metrics, metric, percentile

_clock = time.perf_counter

ROWS = ("nuc-honest", "omega-nostab", "smr-honest")
FUZZ_SEEDS = {"nuc-honest": 0, "omega-nostab": 1, "smr-honest": 0}
#: The row whose kernel runs give the per-case cost growth.
GROWTH_ROW = "nuc-honest"
#: One input set; ``--seconds`` over the nominal pass is the pass count (2
#: at 24 s, the fewest; a pass takes 14-19 s of wall on a 2-CPU host).
SCHEDULES = {"chaos-matrix": 1}
NOMINAL_PASS_S = {"chaos-matrix": 12.0}
MIN_PASSES = 2


@dataclass
class PassResult:
    #: Durations are in the pass's time scale: reference-speed seconds on
    #: a timed pass, raw wall on the traced one (see hostspeed).
    wall_s: float = 0.0  # the three rows
    #: Per row: its wall, and the wall of each interpreted kernel run in it,
    #: in order.
    walls: Dict[str, float] = field(default_factory=dict)
    units: Dict[str, List[float]] = field(default_factory=dict)
    outcomes: Dict[str, Tuple] = field(default_factory=dict)  # (cases, steps, found)
    failed: int = 0
    speed: float = 1.0  # mean host speed over the pass, of reference speed

    @property
    def cases(self) -> int:
        return sum(self.outcomes[row][0] for row in ROWS)

    @property
    def steps(self) -> int:
        return sum(self.outcomes[row][1] for row in ROWS)


def pass_runner(workload: str, seed: int, normalize: bool):
    return lambda index: run_pass(normalize)


def run_pass(normalize: bool) -> PassResult:
    from repro import obs
    from repro.chaos.matrix import judge_config
    from repro.kernel.system import System

    check(not obs.enabled(), "repro.obs must stay disabled")
    result = PassResult()
    # Clock reads around each interpreted kernel run (serial cases, batch
    # lanes that fall back, termination rechecks): the units of identical
    # work the replay below needs.  repro.obs and the fuzz path are untouched.
    # Raw wall readings (start, end), converted to the pass's time scale
    # at the end.
    sink: List[Tuple[float, float]] = []
    spans: Dict[str, Tuple[float, float]] = {}
    units: Dict[str, List[Tuple[float, float]]] = {}
    kernel_run = System.__dict__["run"]

    def clocked_run(*args, **kwargs):
        t0 = _clock()
        try:
            return kernel_run(*args, **kwargs)
        finally:
            sink.append((t0, _clock()))

    host = HostSpeed() if normalize else None
    System.run = clocked_run
    try:
        with host or contextlib.nullcontext():
            for row in ROWS:
                sink.clear()
                t0 = _clock()
                verdict = judge_config(row, seed=FUZZ_SEEDS[row], shrink=False)
                spans[row] = (t0, _clock())
                units[row] = list(sink)
                result.outcomes[row] = (
                    verdict.cases,
                    verdict.steps,
                    tuple(sorted(verdict.found)),
                )
                if not verdict.ok:
                    result.failed += 1
    finally:
        System.run = kernel_run
    to = converter(host)
    for row in ROWS:
        result.walls[row] = to(spans[row][1]) - to(spans[row][0])
        result.units[row] = [to(end) - to(start) for start, end in units[row]]
    if host is not None:
        result.speed = host.mean_speed()
    result.wall_s = sum(result.walls.values())
    check(result.failed == 0, f"every verdict passes ({result.outcomes})")
    return result


def fingerprint(result: PassResult) -> tuple:
    return tuple(sorted(result.outcomes.items()))


def attempted_failed(passes: List[PassResult]) -> Tuple[int, int]:
    return len(passes) * len(ROWS), sum(p.failed for p in passes)


#: The duration metrics, each taken per pass, with their units.
UNITS = {
    "wall_s": "s",
    "tput": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "cost_growth": "x",
    "stall_s": "s",
}


def case_cost_growth(p: PassResult) -> float:
    """Time per kernel run in the second half of the growth row's runs over
    the first half: does per-case cost grow with the corpus?"""
    runs = p.units[GROWTH_ROW]
    half = len(runs) // 2
    return (sum(runs[half:]) / (len(runs) - half)) / (sum(runs[:half]) / half)


def pass_metrics(p: PassResult) -> Dict[str, float]:
    """The duration metrics of one pass, in its time scale; the latency
    items are the rows' times."""
    rows = [p.walls[row] for row in ROWS]
    return {
        "wall_s": p.wall_s,
        "tput": p.cases / p.wall_s,
        "p50_ms": percentile(rows, 0.5) * 1e3,
        "p99_ms": percentile(rows, 0.99) * 1e3,
        "cost_growth": case_cost_growth(p),
        "stall_s": max(rows),
    }


def end_to_end(passes: List[PassResult]) -> Dict[str, Dict[str, object]]:
    """Each duration metric is its median over the run's passes, every pass
    in reference-speed seconds."""
    check(
        all(
            len(p.units[row]) == len(passes[0].units[row]) for p in passes for row in ROWS
        ),
        "every pass runs the same units",
    )
    out = median_metrics([pass_metrics(p) for p in passes], UNITS)
    out["ok_frac"] = metric(
        1 - sum(q.failed for q in passes) / attempted_failed(passes)[0], "frac"
    )
    return out


def report_lines(passes: List[PassResult]) -> List[str]:
    p = passes[0]
    lines = [f"  samples: {len(passes)} passes x {len(ROWS)} rows"]
    for row in ROWS:
        cases, steps, found = p.outcomes[row]
        lines.append(
            f"  {row} (fuzz seed {FUZZ_SEEDS[row]}): passes "
            + ", ".join(f"{q.walls[row]:.3f}" for q in passes)
            + f" s; cases={cases} steps={steps} kernel runs={len(p.units[row])} "
            f"found={list(found)}"
        )
    lines.append(
        "  per-case cost growth per pass: "
        + ", ".join(f"{case_cost_growth(q):.3f}" for q in passes)
        + f"; failed_frac={p.failed / len(ROWS):.4f}"
    )
    return lines


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------


class Trace:
    """Case execution, case draws and the hypothesis leg."""

    def __init__(self, tracer) -> None:
        import repro.chaos.fuzzer as fuzzer
        import repro.chaos.matrix as matrix

        self.tracer = tracer
        tracer.wrap(fuzzer, "execute_case", "chaos.execute_case")
        tracer.wrap(fuzzer, "draw_case", "chaos.draw")
        tracer.wrap(fuzzer, "mutate_case", "chaos.draw")
        tracer.wrap(matrix, "hypothesis_flip", "chaos.hypothesis")

    def layer_metrics(self, result: PassResult, untraced: PassResult) -> Dict[str, float]:
        t = self.tracer
        draws = t.calls("chaos.draw")  # the fuzz loop's, speculated or not
        out = {
            "chaos.cases": result.cases,
            "chaos.steps": result.steps,
            "chaos.us_per_step": result.wall_s * 1e6 / result.steps,
            "chaos.execute_case_ms": t.total_ms("chaos.execute_case"),
            "chaos.hypothesis_ms": t.total_ms("chaos.hypothesis"),
            "chaos.draws": draws,
            "chaos.spec_waste": draws / result.cases - 1,
        }
        for row in ROWS:
            out[f"chaos.{row}_ms"] = result.walls[row] * 1e3
        return out
