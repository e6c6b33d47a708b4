"""Kernel performance report: ``python benchmarks/bench_report.py``.

Measures the run engine and the sweep driver and writes ``BENCH_kernel.json``
(repo root by default):

* kernel step throughput on the quorum-MR micro workload, in both trace
  modes (``"full"`` and ``"metrics"``), plus the metrics/full speedup;
* with ``--batch``, the batched kernel (``repro.kernel.batch``) over 256
  quorum-MR lanes against the same lanes run one ``System`` at a time
  (the ``batch`` section; see docs/performance.md for how to read it);
* wall time of each EXP-1..EXP-9 sweep at its quick parameterization;
* one serial-vs-parallel sweep comparison (``jobs=1`` against ``--jobs N``)
  with the observed speedup.  On single-CPU machines the honest number is
  ~1.0x or below — the driver exists for multi-core hosts, and correctness
  (bit-identical tables for every job count) is covered by the test suite;
* a per-phase breakdown of one traced EXP-3 quick run (span aggregates and
  deterministic work counters from :mod:`repro.obs`);
* tracing-off vs tracing-on throughput on the same micro workload (the
  ``obs`` section): the off number is gated by ``check_regression.py`` so
  instrumentation never taxes the untraced hot path, the on number keeps
  the tracing overhead visible;
* with ``--store``, a cold-vs-warm comparison of one EXP-1 sweep through a
  throwaway content-addressed result store (``repro.store``): warm wall
  time, speedup, hit counts and whether the rendered tables were
  byte-identical (the ``store`` section).

``--quick`` trims repeats and times only a sweep subset so CI stays fast.
``--record-baseline`` files the finished report on the result store's
bench shelf (``store.put_bench("kernel", ...)``), where
``check_regression.py --store-baseline`` finds the most recent report for
this environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MICRO_STEPS = 300
MICRO_N = 5
BATCH_LANES = 256

QUICK_OVERRIDES = {
    "exp1": dict(ns=(2, 3), seeds=(0,)),
    "exp2": dict(ns=(2, 3), seeds=(0,)),
    "exp3": dict(ns=(3,), seeds=(0,)),
    "exp4": dict(cases=((2, 1), (4, 2), (3, 1)), seeds=(0,)),
    "exp5": dict(seeds=(0,)),
    "exp6": dict(seeds=range(3)),
    "exp7": dict(ns=(2, 3), seeds=(0,)),
    "exp8": dict(n=3, crash_times=(0,), seeds=(0,)),
    "exp9": dict(seeds=(0,)),
}

QUICK_SUBSET = ("exp1", "exp2", "exp6")


def _micro_run(trace: str) -> int:
    import random

    from repro.consensus.quorum_mr import QuorumMR
    from repro.detectors import Omega, PairedDetector, Sigma
    from repro.kernel.automaton import AutomatonProcess
    from repro.kernel.failures import FailurePattern
    from repro.kernel.system import System

    pattern = FailurePattern(MICRO_N, {})
    detector = PairedDetector(Omega(), Sigma("pivot"))
    history = detector.sample_history(pattern, random.Random(0))
    processes = {
        p: AutomatonProcess(QuorumMR(), p % 2) for p in range(MICRO_N)
    }
    system = System(processes, pattern, history, seed=0, trace=trace)
    system.run(max_steps=MICRO_STEPS)
    return system.time


def bench_kernel(repeats: int) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "workload": (
            f"quorum-MR over (Omega, Sigma), n={MICRO_N}, "
            f"{MICRO_STEPS} steps, RandomFairScheduler/FairRandomDelivery"
        )
    }
    for trace in ("full", "metrics"):
        _micro_run(trace)  # warm up imports and caches
        best = min(
            _timed(_micro_run, trace) for _ in range(repeats)
        )
        out[trace] = {
            "best_ms": round(best * 1e3, 3),
            "steps_per_sec": round(MICRO_STEPS / best),
        }
    out["metrics_speedup_vs_full"] = round(
        out["full"]["best_ms"] / out["metrics"]["best_ms"], 3
    )
    return out


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _batch_specs():
    from repro.consensus.quorum_mr import QuorumMR
    from repro.detectors import Omega, PairedDetector, Sigma
    from repro.detectors.base import sample_history_cached
    from repro.kernel.batch import LaneSpec
    from repro.kernel.failures import FailurePattern

    pattern = FailurePattern(MICRO_N, {})
    detector = PairedDetector(Omega(), Sigma("pivot"))
    proposals = {p: p % 2 for p in range(MICRO_N)}
    return [
        LaneSpec(
            pattern=pattern,
            history=sample_history_cached(detector, pattern, seed),
            seed=seed,
            max_steps=MICRO_STEPS,
            automaton=QuorumMR(),
            proposals=proposals,
            trace="metrics",
        )
        for seed in range(BATCH_LANES)
    ]


def _serial_lanes(specs) -> int:
    from repro.kernel.automaton import AutomatonProcess
    from repro.kernel.system import System

    total = 0
    for spec in specs:
        processes = {
            p: AutomatonProcess(spec.automaton, spec.proposals[p])
            for p in range(spec.pattern.n)
        }
        system = System(
            processes, spec.pattern, spec.history, seed=spec.seed,
            trace="metrics",
        )
        total += system.run(max_steps=spec.max_steps).total_steps
    return total


def _batched_lanes(specs) -> int:
    from repro.kernel.batch import BatchSystem

    results = BatchSystem(specs).run()
    return sum(r.total_steps for r in results)


def bench_batch(repeats: int) -> Dict[str, Any]:
    """The batched kernel vs one-`System.run()`-at-a-time, same 256 lanes.

    Both modes execute bit-identical runs (the oracle suite in
    ``tests/kernel/test_batch.py`` proves it), so steps/sec is the whole
    story.  ``speedup_vs_serial`` of the ``pure_python`` (batched) mode is
    what the CI gate watches.
    """
    specs = _batch_specs()
    total_steps = _serial_lanes(specs)  # warm-up; also the step count
    out: Dict[str, Any] = {
        "workload": (
            f"quorum-MR over (Omega, Sigma), n={MICRO_N}, "
            f"{BATCH_LANES} lanes x {MICRO_STEPS} steps, metrics trace"
        ),
        "lanes": BATCH_LANES,
        "steps_per_lane": MICRO_STEPS,
        "total_steps": total_steps,
    }
    serial_best = min(
        _timed(_serial_lanes, specs) for _ in range(repeats)
    )
    out["serial"] = {
        "best_ms": round(serial_best * 1e3, 3),
        "steps_per_sec": round(total_steps / serial_best),
    }
    _batched_lanes(specs)  # warm up
    best = min(_timed(_batched_lanes, specs) for _ in range(repeats))
    out["pure_python"] = {
        "best_ms": round(best * 1e3, 3),
        "steps_per_sec": round(total_steps / best),
        "speedup_vs_serial": round(serial_best / best, 3),
    }
    out["primary_mode"] = "pure_python"
    out["speedup"] = out["pure_python"]["speedup_vs_serial"]
    return out


def bench_experiments(names) -> List[Dict[str, Any]]:
    from repro.harness import experiments

    rows = []
    for name in names:
        runner = getattr(experiments, _runner_name(name))
        kwargs = dict(QUICK_OVERRIDES[name])
        wall = _timed(lambda: runner(**kwargs, jobs=1))
        rows.append({"name": name, "wall_s": round(wall, 3), "jobs": 1})
        print(f"  {name}: {wall:.2f}s", flush=True)
    return rows


def _runner_name(name: str) -> str:
    suffixes = {
        "exp1": "nuc_sufficiency",
        "exp2": "boosting",
        "exp3": "extraction",
        "exp4": "separation",
        "exp5": "contamination",
        "exp6": "merging",
        "exp7": "scaling",
        "exp8": "exhaustive",
        "exp9": "registers",
    }
    return f"{name}_{suffixes[name]}"


def bench_obs(repeats: int) -> Dict[str, Any]:
    """Tracing-off vs tracing-on kernel throughput on the micro workload.

    ``off`` is the plain metrics-trace micro-bench — the number CI gates
    against the baseline so instrumentation growth can never tax the
    untraced hot path.  ``on`` wraps the same workload in
    ``obs.tracing()`` so every guarded span/event/counter site fires;
    its ``overhead_pct`` is informational (tracing is a debugging mode,
    not a production one) but keeps the cost visible in the report's
    trajectory section.
    """
    from repro import obs

    _micro_run("metrics")  # warm up
    off_best = min(_timed(_micro_run, "metrics") for _ in range(repeats))

    def _traced_run() -> None:
        with obs.tracing(label="bench:obs-overhead"):
            _micro_run("metrics")

    _traced_run()  # warm up
    on_best = min(_timed(_traced_run) for _ in range(repeats))
    return {
        "workload": (
            f"quorum-MR over (Omega, Sigma), n={MICRO_N}, "
            f"{MICRO_STEPS} steps, metrics trace"
        ),
        "off": {
            "best_ms": round(off_best * 1e3, 3),
            "steps_per_sec": round(MICRO_STEPS / off_best),
        },
        "on": {
            "best_ms": round(on_best * 1e3, 3),
            "steps_per_sec": round(MICRO_STEPS / on_best),
        },
        "overhead_pct": round(100.0 * (on_best - off_best) / off_best, 1),
    }


def bench_phases() -> Dict[str, Any]:
    """Per-phase breakdown of a traced EXP-3 quick run.

    Runs EXP-3 once under the tracer and reports each span name's count,
    logical-tick totals and wall time, plus the deterministic counter
    totals the run recorded.  The tick/counter numbers are reproducible;
    only ``wall_ms`` varies between hosts.
    """
    from repro import obs
    from repro.harness import experiments
    from repro.obs.inspect import aggregate_spans

    kwargs = dict(QUICK_OVERRIDES["exp3"])
    with obs.tracing(label="bench:exp3") as tracer:
        wall = _timed(lambda: experiments.exp3_extraction(**kwargs, jobs=1))
    return {
        "experiment": "exp3",
        "wall_s": round(wall, 3),
        "spans": aggregate_spans(tracer.records),
        "counters": obs.metrics().counters(),
    }


def bench_store() -> Dict[str, Any]:
    """Cold vs warm EXP-1 quick sweep through a throwaway result store.

    The wall numbers are host-dependent; the deterministic facts —
    warm run all hits, zero misses, byte-identical table — are what
    ``tests/harness/test_store_sweep.py`` asserts and CI gates on.
    """
    import tempfile

    from repro.harness import experiments
    from repro.store import ResultStore

    kwargs = dict(QUICK_OVERRIDES["exp1"])
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        store = ResultStore(root)
        start = time.perf_counter()
        cold_table = experiments.exp1_nuc_sufficiency(
            **kwargs, store=store
        ).render()
        cold = time.perf_counter() - start
        store.stats.reset()
        start = time.perf_counter()
        warm_table = experiments.exp1_nuc_sufficiency(
            **kwargs, store=store
        ).render()
        warm = time.perf_counter() - start
        return {
            "experiment": "exp1",
            "tasks": store.stats.lookups,
            "cold_s": round(cold, 3),
            "warm_s": round(warm, 4),
            "speedup": round(cold / warm, 1) if warm else None,
            "warm_hits": store.stats.hits,
            "warm_misses": store.stats.misses,
            "byte_identical": warm_table == cold_table,
        }


def bench_parallel(jobs: int) -> Dict[str, Any]:
    from repro.harness import experiments

    if os.cpu_count() == 1:
        # Worker processes cannot beat serial on one core; the number would
        # be pure noise, so record the skip instead of a misleading ratio.
        return {"experiment": "exp1", "skipped": "single-cpu host"}
    kwargs = dict(QUICK_OVERRIDES["exp1"])
    serial = _timed(lambda: experiments.exp1_nuc_sufficiency(**kwargs, jobs=1))
    parallel = _timed(
        lambda: experiments.exp1_nuc_sufficiency(**kwargs, jobs=jobs)
    )
    return {
        "experiment": "exp1",
        "serial_s": round(serial, 3),
        "parallel_s": round(parallel, 3),
        "jobs": jobs,
        "speedup": round(serial / parallel, 3) if parallel else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer repeats; sweep subset " + "/".join(QUICK_SUBSET),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="worker count for the parallel comparison (default 2)",
    )
    parser.add_argument(
        "--batch",
        action="store_true",
        help="also measure the batched kernel (BatchSystem, "
        f"{BATCH_LANES} quorum-MR lanes) and emit the `batch` section",
    )
    parser.add_argument(
        "--store",
        action="store_true",
        help="also measure a cold-vs-warm sweep through a throwaway "
        "result store and emit the `store` section",
    )
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help="file the report on the result store's bench shelf for "
        "check_regression.py --store-baseline",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="result store root for --record-baseline "
        "(default: benchmarks/results/store)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_kernel.json"),
        metavar="FILE",
    )
    args = parser.parse_args(argv)

    repeats = 10 if args.quick else 40
    names = QUICK_SUBSET if args.quick else tuple(QUICK_OVERRIDES)

    print("kernel micro-benchmark ...", flush=True)
    kernel = bench_kernel(repeats)
    print(
        f"  full: {kernel['full']['steps_per_sec']:,} steps/s   "
        f"metrics: {kernel['metrics']['steps_per_sec']:,} steps/s   "
        f"({kernel['metrics_speedup_vs_full']}x)",
        flush=True,
    )
    batch = None
    if args.batch:
        print(f"batched kernel ({BATCH_LANES} lanes) ...", flush=True)
        batch = bench_batch(2 if args.quick else 3)
        serial_sps = batch["serial"]["steps_per_sec"]
        primary = batch[batch["primary_mode"]]
        print(
            f"  serial: {serial_sps:,} steps/s   "
            f"{batch['primary_mode']}: {primary['steps_per_sec']:,} steps/s   "
            f"({batch['speedup']}x)",
            flush=True,
        )
    print("observability overhead (tracing off vs on) ...", flush=True)
    obs_section = bench_obs(repeats)
    print(
        f"  off: {obs_section['off']['steps_per_sec']:,} steps/s   "
        f"on: {obs_section['on']['steps_per_sec']:,} steps/s   "
        f"({obs_section['overhead_pct']:+.1f}% overhead)",
        flush=True,
    )
    print("experiment sweeps (quick parameterization) ...", flush=True)
    experiments = bench_experiments(names)
    print("traced exp3 phase breakdown ...", flush=True)
    phases = bench_phases()
    top = sorted(
        phases["spans"].items(), key=lambda kv: -kv[1]["wall_ms"]
    )[:3]
    for name, agg in top:
        print(f"  {name}: x{agg['count']}, {agg['wall_ms']}ms", flush=True)
    print(f"serial vs --jobs {args.jobs} (exp1) ...", flush=True)
    sweep = bench_parallel(args.jobs)
    if "skipped" in sweep:
        print(f"  skipped: {sweep['skipped']}", flush=True)
    else:
        print(
            f"  serial {sweep['serial_s']}s, parallel {sweep['parallel_s']}s, "
            f"speedup {sweep['speedup']}x",
            flush=True,
        )

    store_section = None
    if args.store:
        print("result store cold vs warm (exp1) ...", flush=True)
        store_section = bench_store()
        print(
            f"  cold {store_section['cold_s']}s, warm {store_section['warm_s']}s "
            f"({store_section['speedup']}x), "
            f"byte-identical: {store_section['byte_identical']}",
            flush=True,
        )

    from repro.harness.envinfo import environment_stamp

    report = {
        "schema": "bench-kernel/2",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": args.quick,
        "environment": environment_stamp(REPO_ROOT),
        "kernel": kernel,
        "obs": obs_section,
        "experiments": experiments,
        "phases": phases,
        "sweep_parallelism": sweep,
    }
    if batch is not None:
        report["batch"] = batch
    if store_section is not None:
        report["store"] = store_section
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    if args.record_baseline:
        from repro.store import ResultStore

        baseline_store = ResultStore(args.store_dir)
        path = baseline_store.put_bench("kernel", report)
        print(f"recorded baseline {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
