"""Batch lane planning for harness sweeps.

:func:`repro.harness.parallel.run_sweep` gains a ``batch=`` mode through
this module: sweep tasks whose work is a single ``System.run()`` are
translated into :class:`~repro.kernel.batch.LaneSpec` lanes, executed
together in one :class:`~repro.kernel.batch.BatchSystem`, and their
results rebuilt by a pure post-processing function — byte-identical to
running each task on its own, because the batch engine is bit-identical
to the interpreted one and everything downstream of the ``RunResult``
(outcome judging, property checks, metric collection) is a pure function
of it.

Planners are registered per task *function*: a planner inspects a task's
kwargs and either returns a :class:`BatchPlan` (lane + post-processor) or
``None`` (the task runs through the normal sweep path).  Out of the box,
:func:`repro.harness.runner.run_consensus_algorithm` tasks with default
scheduler/delivery are batchable; experiment modules register planners
for their own task functions (see ``repro.harness.experiments``).

Batching is disabled while observability is enabled: fast lanes skip the
``runner.*``/``kernel.*`` spans and counters the interpreted path
records, so ``run_sweep`` only routes here with obs off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import collect_metrics
from repro.consensus.interface import consensus_outcome
from repro.consensus.properties import (
    check_nonuniform_consensus,
    check_uniform_consensus,
)
from repro.detectors.base import sample_history_cached
from repro.harness.runner import ConsensusRunOutcome, run_consensus_algorithm
from repro.kernel.batch import BatchSystem, LaneSpec
from repro.kernel.system import RunResult

__all__ = [
    "BatchPlan",
    "execute_batched",
    "plan_task",
    "register_batch_planner",
]


@dataclass
class BatchPlan:
    """One sweep task translated for the batch engine."""

    spec: LaneSpec
    post: Callable[[RunResult], Any]


#: task function -> planner(kwargs) -> Optional[BatchPlan]
_PLANNERS: Dict[Any, Callable[[Dict[str, Any]], Optional[BatchPlan]]] = {}


def register_batch_planner(task_fn: Callable[..., Any]):
    """Register a batch planner for ``task_fn`` sweep tasks (decorator)."""

    def deco(planner: Callable[[Dict[str, Any]], Optional[BatchPlan]]):
        _PLANNERS[task_fn] = planner
        return planner

    return deco


def plan_task(task: Any) -> Optional[BatchPlan]:
    """A :class:`BatchPlan` for ``task`` if a planner claims it, else None."""
    planner = _PLANNERS.get(task.fn)
    if planner is None:
        return None
    return planner(dict(task.kwargs))


def judge_consensus(result: RunResult, proposals) -> ConsensusRunOutcome:
    """Rebuild a runner outcome from a finished run.

    This is the pure tail of ``runner._finish_consensus``: everything after
    ``system.run()`` depends only on the ``RunResult`` and the proposals,
    so a bit-identical result yields a byte-identical outcome.
    """
    outcome = consensus_outcome(result, proposals)
    return ConsensusRunOutcome(
        result=result,
        outcome=outcome,
        nonuniform=check_nonuniform_consensus(outcome),
        uniform=check_uniform_consensus(outcome),
        metrics=collect_metrics(result),
    )


@register_batch_planner(run_consensus_algorithm)
def _plan_run_consensus_algorithm(kwargs: Dict[str, Any]) -> Optional[BatchPlan]:
    if kwargs.get("scheduler") is not None or kwargs.get("delivery") is not None:
        # Policy instances cannot be turned into lane specs (they carry
        # mutable cursors); such tasks keep the interpreted path.
        return None
    pattern = kwargs["pattern"]
    proposals = kwargs["proposals"]
    seed = kwargs.get("seed", 0)
    history = sample_history_cached(kwargs["detector"], pattern, seed)
    spec = LaneSpec(
        pattern=pattern,
        history=history,
        seed=seed,
        max_steps=kwargs.get("max_steps", 20000),
        automaton=kwargs["automaton"],
        proposals=proposals,
        trace=kwargs.get("trace", "full"),
        stop="all-correct-decided",
    )
    return BatchPlan(spec=spec, post=lambda result: judge_consensus(result, proposals))


def execute_batched(tasks: Sequence[Any]) -> Tuple[List[Any], List[int]]:
    """Run every plannable task in ``tasks`` through one batch engine.

    Returns ``(results, unplanned)``: ``results`` holds finished values at
    the plannable tasks' positions (``None`` elsewhere) and ``unplanned``
    lists the indices the caller must still execute normally.
    """
    plans = [plan_task(task) for task in tasks]
    results: List[Any] = [None] * len(plans)
    unplanned = [i for i, plan in enumerate(plans) if plan is None]
    planned = [i for i, plan in enumerate(plans) if plan is not None]
    if planned:
        engine = BatchSystem([plans[i].spec for i in planned])
        for i, run_result in zip(planned, engine.run()):
            results[i] = plans[i].post(run_result)
    return results, unplanned
