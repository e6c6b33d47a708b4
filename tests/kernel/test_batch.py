"""Batch/serial trace-equivalence oracle for ``repro.kernel.batch``.

The batch engine's whole contract is *bit-identity*: a fast lane must
reproduce exactly what the interpreted ``System.run()`` produces for the
same configuration and seed — the full step stream (schedule, delivered
messages, detector values, sends), the decisions with their times, the
query log and every counter.  These tests enforce that contract over
hand-picked corner configurations, the chaos fuzzer's own case space
(via hypothesis), and the fallback tier.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.consensus.chandra_toueg import ChandraTouegS
from repro.consensus.mostefaoui_raynal import MostefaouiRaynal
from repro.consensus.quorum_mr import QuorumMR
from repro.detectors import EventuallyPerfect, Omega, PairedDetector, Sigma
from repro.detectors.base import FunctionalHistory, sample_history_cached
from repro.kernel.automaton import AutomatonProcess
from repro.kernel.batch import (
    BatchSystem,
    LaneSpec,
    build_delivery,
    build_scheduler,
    probe_spec,
)
from repro.kernel.failures import DeferredCrashPattern, FailurePattern
from repro.kernel.scheduler import RoundRobinScheduler
from repro.kernel.system import System, all_correct_decided
from tests.strategies import fuzz_cases

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def serial_reference(spec):
    """Run ``spec`` on the interpreted engine — the oracle's ground truth."""
    processes = {
        p: AutomatonProcess(spec.automaton, spec.proposals[p])
        for p in range(spec.pattern.n)
    }
    system = System(
        processes,
        spec.pattern,
        spec.history,
        scheduler=build_scheduler(spec.scheduler) if spec.scheduler else None,
        delivery=build_delivery(spec.delivery) if spec.delivery else None,
        seed=spec.seed,
        trace=spec.trace,
    )
    stop = all_correct_decided if spec.stop == "all-correct-decided" else None
    return system.run(
        max_steps=spec.max_steps, stop_when=stop, extra_steps=spec.extra_steps
    )


def canon_message(m):
    if m is None:
        return None
    return (m.sender, m.dest, m.payload, m.uid, m.sent_at)


def canon_steps(steps):
    return [
        (
            s.index,
            s.time,
            s.pid,
            canon_message(s.message),
            s.detector_value,
            tuple(canon_message(m) for m in s.sends),
        )
        for s in steps
    ]


def assert_identical(ref, got):
    """Full RunResult equality, strictly stronger than schedule equality."""
    assert [s.pid for s in ref.steps] == [s.pid for s in got.steps]
    assert canon_steps(ref.steps) == canon_steps(got.steps)
    # items() comparisons also pin dict *insertion order*: downstream
    # consumers iterate these dicts, so byte-identity needs it.
    assert list(ref.decisions.items()) == list(got.decisions.items())
    assert list(ref.decision_times.items()) == list(got.decision_times.items())
    assert ref.queried == got.queried
    assert ref.stop_reason == got.stop_reason
    assert ref.final_time == got.final_time
    assert ref.total_steps == got.total_steps
    assert ref.messages_sent == got.messages_sent
    assert ref.messages_delivered == got.messages_delivered
    assert ref.outputs == got.outputs
    assert ref.initial_outputs == got.initial_outputs


PATTERN = FailurePattern(5, {})
PATTERN_CRASH = FailurePattern(5, {1: 40, 4: 0})
PROPS = {p: p % 2 for p in range(5)}
PAIRED = PairedDetector(Omega(), Sigma("pivot"))


def paired_history(pattern, seed):
    return sample_history_cached(PAIRED, pattern, seed)


def corner_specs():
    """One spec per row of the capability matrix, plus stop/trace corners."""
    specs = []
    for seed in (0, 3):
        h = paired_history(PATTERN, seed)
        hc = paired_history(PATTERN_CRASH, seed)
        om = sample_history_cached(Omega(), PATTERN_CRASH, seed)
        specs += [
            # Specialized quorum-MR engine, both trace modes.
            LaneSpec(PATTERN, h, seed, 400, automaton=QuorumMR(),
                     proposals=PROPS, trace="full"),
            LaneSpec(PATTERN, h, seed, 4000, automaton=QuorumMR(),
                     proposals=PROPS, trace="metrics",
                     stop="all-correct-decided"),
            # Crashes + stop condition + extra steps.
            LaneSpec(PATTERN_CRASH, hc, seed, 4000, automaton=QuorumMR(),
                     proposals=PROPS, trace="full",
                     stop="all-correct-decided", extra_steps=13),
            # Every fast scheduler/delivery pairing.
            LaneSpec(PATTERN_CRASH, hc, seed, 400, automaton=QuorumMR(),
                     proposals=PROPS, scheduler=("round-robin",),
                     delivery=("oldest-first",), trace="full"),
            LaneSpec(PATTERN, h, seed, 400, automaton=QuorumMR(),
                     proposals=PROPS,
                     scheduler=("weighted",
                                ((0, 3.0), (1, 1.0), (2, 1.0), (3, 1.0),
                                 (4, 0.5)), 128),
                     delivery=("per-sender-fifo", 0.2, 60), trace="full"),
            LaneSpec(PATTERN, h, seed, 400, automaton=QuorumMR(),
                     proposals=PROPS, scheduler=("random-fair", 16),
                     delivery=("fair-random", 0.4, 20), trace="full"),
            # Generic automaton engine (majority MR over bare Omega).
            LaneSpec(PATTERN_CRASH, om, seed, 600,
                     automaton=MostefaouiRaynal(), proposals=PROPS,
                     trace="full", stop="all-correct-decided"),
        ]
    return specs


class TestCornerMatrix:
    def test_every_supported_config_is_bit_identical(self):
        specs = corner_specs()
        batch = BatchSystem(specs)
        assert all(mode == "fast" for mode in batch.lane_modes())
        results = batch.run()
        for spec, got in zip(specs, results):
            assert_identical(serial_reference(spec), got)

    def test_zero_budget_and_empty_correct_set_corners(self):
        h = paired_history(PATTERN, 0)
        zero = LaneSpec(PATTERN, h, 0, 0, automaton=QuorumMR(),
                        proposals=PROPS, trace="full")
        all_faulty = FailurePattern(3, {0: 10, 1: 10, 2: 10})
        hf = paired_history(all_faulty, 1)
        crashed = LaneSpec(all_faulty, hf, 1, 500, automaton=QuorumMR(),
                           proposals={0: 0, 1: 1, 2: 0}, trace="full",
                           stop="all-correct-decided")
        for spec in (zero, crashed):
            got = BatchSystem([spec]).run()[0]
            assert_identical(serial_reference(spec), got)

    def test_lanes_retire_independently(self, monkeypatch):
        # Different budgets per lane: early lanes must not perturb the
        # long one and results come back in spec order.
        monkeypatch.setattr("repro.kernel.batch.SLICE_TICKS", 32)
        specs = [
            LaneSpec(PATTERN, paired_history(PATTERN, s), s, steps,
                     automaton=QuorumMR(), proposals=PROPS, trace="full")
            for s, steps in ((0, 50), (1, 700), (2, 120))
        ]
        results = BatchSystem(specs).run()
        for spec, got in zip(specs, results):
            assert_identical(serial_reference(spec), got)


class TestHypothesisOracle:
    @SETTINGS
    @given(data=st.data())
    def test_fuzz_case_space_is_bit_identical(self, data):
        """Lanes drawn from the chaos fuzzer's own case space reproduce the
        interpreted engine exactly — whichever path the probe picks."""
        case = data.draw(fuzz_cases(max_steps=400))
        pattern = FailurePattern(case.n, dict(case.crash_times))
        proposals = dict(case.proposals)
        if data.draw(st.booleans(), label="quorum_algo"):
            automaton = QuorumMR()
            detector = PairedDetector(Omega(), Sigma("pivot"))
        else:
            automaton = MostefaouiRaynal()
            detector = Omega()
        history = sample_history_cached(detector, pattern, case.run_seed())
        spec = LaneSpec(
            pattern,
            history,
            case.run_seed(),
            min(case.max_steps, 400),
            automaton=automaton,
            proposals=proposals,
            scheduler=case.scheduler,
            delivery=case.delivery,
            trace=data.draw(st.sampled_from(["full", "metrics"])),
            stop=data.draw(st.sampled_from([None, "all-correct-decided"])),
        )
        got = BatchSystem([spec]).run()[0]
        assert_identical(serial_reference(spec), got)

    @SETTINGS
    @given(data=st.data())
    def test_lane_results_do_not_depend_on_batch_packing(self, data):
        """A lane's result is identical whether it runs alone or packed
        with other lanes — lanes are genuinely independent."""
        seeds = data.draw(
            st.lists(st.integers(0, 10**6), min_size=2, max_size=5, unique=True)
        )
        specs = [
            LaneSpec(PATTERN, paired_history(PATTERN, s), s, 250,
                     automaton=QuorumMR(), proposals=PROPS, trace="full")
            for s in seeds
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.kernel.batch.SLICE_TICKS", 17)
            packed = BatchSystem(specs).run()
        for spec, got in zip(specs, packed):
            alone = BatchSystem([spec]).run()[0]
            assert canon_steps(alone.steps) == canon_steps(got.steps)
            assert alone.decisions == got.decisions


class TestCapabilityProbeAndFallback:
    def _spec(self, **overrides):
        base = dict(
            pattern=PATTERN,
            history=paired_history(PATTERN, 2),
            seed=2,
            max_steps=300,
            automaton=QuorumMR(),
            proposals=PROPS,
            trace="full",
        )
        base.update(overrides)
        return LaneSpec(**base)

    def test_supported_probe_is_none(self):
        assert probe_spec(self._spec()) is None

    def test_scripted_scheduler_falls_back_and_matches(self):
        spec = self._spec(
            scheduler=("scripted", (0, 1, 2, 3, 4) * 8, ("random-fair", 64))
        )
        assert probe_spec(spec) == "scheduler"
        batch = BatchSystem([spec])
        assert batch.lane_modes() == ["fallback:scheduler"]
        assert batch.stats["fallback_reasons"] == {"scheduler": 1}
        assert_identical(serial_reference(spec), batch.run()[0])

    def test_coalescing_delivery_falls_back_and_matches(self):
        spec = self._spec(delivery=("coalescing", ("fair-random", 0.3, 40)))
        assert probe_spec(spec) == "delivery"
        batch = BatchSystem([spec])
        assert batch.lane_modes() == ["fallback:delivery"]
        assert_identical(serial_reference(spec), batch.run()[0])

    def test_deferred_crash_pattern_falls_back(self):
        deferred = DeferredCrashPattern(5, {4: 30})
        history = PAIRED.sample_history(deferred, random.Random(2))
        spec = LaneSpec(deferred, history, 2, 200, automaton=QuorumMR(),
                        proposals=PROPS, trace="full")
        assert probe_spec(spec) == "pattern"
        batch = BatchSystem([spec])
        assert batch.lane_modes() == ["fallback:pattern"]
        # Deferred patterns are mutable; a fresh one keeps the reference run
        # independent of the fallback lane's own crash bookkeeping.
        ref_spec = LaneSpec(
            DeferredCrashPattern(5, {4: 30}),
            history, 2, 200, automaton=QuorumMR(), proposals=PROPS,
            trace="full",
        )
        got = batch.run()[0]
        ref = serial_reference(ref_spec)
        assert canon_steps(ref.steps) == canon_steps(got.steps)
        assert ref.decisions == got.decisions

    def test_functional_history_falls_back(self):
        history = FunctionalHistory(lambda p, t: 0)
        spec = LaneSpec(PATTERN, history, 1, 150, automaton=MostefaouiRaynal(),
                        proposals=PROPS, trace="full")
        assert probe_spec(spec) == "history"
        assert_identical(serial_reference(spec), BatchSystem([spec]).run()[0])

    def test_coroutine_automaton_falls_back(self):
        # ChandraTouegS is automaton-shaped, but a processes_factory lane
        # (arbitrary coroutine processes) must take the interpreted path.
        pattern = FailurePattern(3, {})
        detector = EventuallyPerfect()
        history = sample_history_cached(detector, pattern, 9)
        auto = ChandraTouegS()

        def factory():
            return {p: AutomatonProcess(auto, p % 2) for p in range(3)}

        spec = LaneSpec(pattern, history, 9, 200, processes_factory=factory,
                        trace="full")
        assert probe_spec(spec) == "processes"
        got = BatchSystem([spec]).run()[0]
        processes = factory()
        ref = System(processes, pattern, history, seed=9, trace="full").run(
            max_steps=200
        )
        assert canon_steps(ref.steps) == canon_steps(got.steps)

    def test_obs_enabled_forces_fallback_with_counter(self):
        spec = self._spec()
        obs.enable(fresh_metrics=True)
        try:
            assert probe_spec(spec) == "obs-enabled"
            batch = BatchSystem([spec])
            assert batch.lane_modes() == ["fallback:obs-enabled"]
            assert obs.metrics().snapshot()["counters"]["batch.fallback"] == 1
            batch.run()
        finally:
            obs.disable()

    def test_instances_are_rejected(self):
        with pytest.raises(ValueError, match="spec tuple"):
            self._spec(scheduler=RoundRobinScheduler())
        with pytest.raises(ValueError, match="spec tuple"):
            self._spec(delivery=build_delivery(("oldest-first",)))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            LaneSpec(PATTERN, paired_history(PATTERN, 0), 0, 10)
        with pytest.raises(ValueError, match="proposals"):
            LaneSpec(PATTERN, paired_history(PATTERN, 0), 0, 10,
                     automaton=QuorumMR())
        with pytest.raises(ValueError, match="stop"):
            self._spec(stop="whenever")
        with pytest.raises(ValueError, match="trace"):
            self._spec(trace="everything")

    def test_stats_count_lanes_and_steps(self):
        fast = self._spec()
        slow = self._spec(
            scheduler=("scripted", (0, 1), ("random-fair", 64))
        )
        batch = BatchSystem([fast, slow])
        assert batch.stats["lanes"] == 2
        assert batch.stats["fast"] == 1
        assert batch.stats["fallback"] == 1
        results = batch.run()
        assert batch.stats["steps"] == sum(r.total_steps for r in results)


class TestWaveStats:
    """The per-wave occupancy/retirement curves ``run()`` records."""

    def test_retirement_curve_accounts_for_every_fast_lane(self):
        batch = BatchSystem(corner_specs())
        batch.run()
        stats = batch.stats
        occupancy, retired = stats["wave_occupancy"], stats["wave_retired"]
        assert stats["waves"] == len(occupancy) == len(retired) >= 1
        assert occupancy[0] == stats["fast"]
        assert sum(retired) == stats["fast"]
        # Lanes only ever leave the batch: each wave's exits are exactly
        # the next wave's shrinkage.
        for i in range(len(occupancy) - 1):
            assert occupancy[i] - retired[i] == occupancy[i + 1]

    def test_curves_are_deterministic(self):
        specs = corner_specs()[:6]
        a, b = BatchSystem(specs), BatchSystem(specs)
        a.run()
        b.run()
        assert a.stats["wave_occupancy"] == b.stats["wave_occupancy"]
        assert a.stats["wave_retired"] == b.stats["wave_retired"]

    def test_traced_batch_bit_identical_with_span_and_fallback_events(self):
        specs = corner_specs()[:4]
        ref = BatchSystem(specs).run()
        obs.enable(fresh_metrics=True)
        try:
            batch = BatchSystem(specs)
            got = batch.run()
            records = list(obs.tracer().records)
        finally:
            obs.disable()
        for r, g in zip(ref, got):
            assert canon_steps(r.steps) == canon_steps(g.steps)
            assert r.decisions == g.decisions
        # Tracing demotes every lane, so the batch has no fused waves ...
        assert batch.stats["fallback"] == len(specs)
        assert batch.stats["waves"] == 0
        assert batch.stats["wave_occupancy"] == []
        # ... but the trace names the run and each demoted lane.
        spans = [
            r for r in records
            if r.get("type") == "span" and r["name"] == "batch.run"
        ]
        assert len(spans) == 1
        assert spans[0]["attrs"]["fallback"] == len(specs)
        events = [
            r for r in records
            if r.get("type") == "event" and r["name"] == "batch.fallback"
        ]
        assert [e["attrs"]["lane"] for e in events] == list(range(len(specs)))
        assert {e["attrs"]["reason"] for e in events} == {"obs-enabled"}


_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import repro.harness.load, repro.chaos.matrix, repro.harness.experiments
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
# multiprocessing registers __mp_main__ as an alias of __main__.
print(sorted(loaded - set(sys.stdlib_module_names) - {"repro", "__mp_main__"}))
"""


def test_entry_points_import_only_the_standard_library():
    """The load, chaos-matrix and experiment entry points reach the batched
    kernel through ``repro.harness``; none of them may pull in a
    third-party package (each one costs every run its import time)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
