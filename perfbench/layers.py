"""The kernel and detector wraps every traced run shares.

These layers sit under every workload, so their wraps are installed for
each traced pass; the workload modules add their own layer's wraps on top.
Per-layer metric names and units live in ``BENCHMARK.json``; a layer a
workload bypasses reports 0 work.
"""

from __future__ import annotations

from typing import Dict, List

from measure import quarter_bounds

def _history_classes() -> List[type]:
    """Every loaded History subclass that defines its own ``value``."""
    from repro.detectors.base import History

    found, todo = [], [History]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if "value" in sub.__dict__ and sub not in found:
                found.append(sub)
    return found


class KernelTrace:
    """Kernel runs, batch-engine runs and detector-history lookups."""

    def __init__(self, tracer) -> None:
        from repro.kernel.batch import BatchSystem
        from repro.kernel.system import System

        self.tracer = tracer
        self.run_steps: List[int] = []
        self.lanes = 0
        tracer.wrap(System, "run", "kernel.run", after=self._note_run)
        tracer.wrap(BatchSystem, "run", "kernel.batch", after=self._note_batch)
        for cls in _history_classes():
            tracer.wrap(cls, "value", "detectors.history", keep=False)

    def _note_run(self, result, system, *args, **kwargs) -> None:
        self.run_steps.append(result.step_count)

    def _note_batch(self, results, batch) -> None:
        self.lanes += len(batch.specs)

    def layer_metrics(self, traced, untraced) -> Dict[str, float]:
        t = self.tracer
        out = {
            "kernel.batch_ms": t.total_ms("kernel.batch"),
            "kernel.batch_lanes": self.lanes,
            "detectors.history_calls": t.calls("detectors.history"),
            "detectors.history_ms": t.self_ms("detectors.history"),
        }
        steps = sum(self.run_steps)
        if steps:
            runs = [d for _s, d in t.durations("kernel.run")]
            bounds = quarter_bounds(len(runs))

            def us_per_step(k: int) -> float:
                lo, hi = bounds[k], bounds[k + 1]
                return sum(runs[lo:hi]) * 1e6 / max(1, sum(self.run_steps[lo:hi]))

            out.update(
                {
                    "kernel.steps": steps,
                    "kernel.us_per_step": t.total_ms("kernel.run") * 1e3 / steps,
                    "kernel.step_cost_growth": us_per_step(3) / us_per_step(0),
                }
            )
        return out
