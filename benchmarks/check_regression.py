"""Compare a fresh ``BENCH_kernel.json`` against the committed baseline.

``python benchmarks/check_regression.py NEW [--baseline FILE] [--threshold PCT]``

Fails (exit 1) when the new report's kernel step throughput drops more than
``--threshold`` percent (default 25) below the baseline in either trace
mode.  Wall times of the experiment sweeps are reported but not gated —
they run at quick parameterizations where noise swamps small shifts; the
steps/sec micro-benchmark is the stable signal.

When the new report carries a ``batch`` section (``bench_report.py
--batch``), the batched kernel is gated too: its ``primary_mode``
(default ``pure_python``) aggregate throughput must not fall below the
serial engine measured in the same run (speedup >= 1), and must not
drop more than ``--threshold`` percent below the committed baseline's
batch throughput.

When it carries an ``obs`` section, the tracing-*off* throughput is gated
at the same threshold (against the baseline's own ``obs.off`` when
present, else the baseline's metrics-mode kernel number — older reports
predate the section).  The tracing-on overhead is informational: tracing
is a debugging mode.

``--attribute TRACE_A TRACE_B`` names two trace files (``repro run
--trace``, ``repro-trace/1`` or ``/2``); when the throughput gate trips,
the check prints the top span-path deltas between them so the failure
comes with the stage it lives in, not just a number.  See
``docs/observability.md``.

``--store-baseline`` compares against the most recent report on the result
store's bench shelf (``benchmarks/results/store/bench/kernel/...``) for
*this* environment digest — same python, platform and CPU count — instead
of the committed file, so a fast dev box is never judged against CI
hardware.  Record shelf baselines with ``bench_report.py
--record-baseline``; when the shelf has no entry for this environment the
check falls back to ``--baseline`` with a notice.

``--service BENCH_service.json`` gates the consensus-service bench
instead: cross-batch applied digests must agree, every row must commit
everything it submitted, and batch-16 commands-per-kernel-step must be at
least ``--service-speedup`` (default 3) times batch-1 on the same seeded
burst workload.  Against the committed baseline, every batch row and
``closed_loop`` must reproduce its ``applied_digest``, ``kernel_steps``,
``ticks`` and ``committed`` exactly — all logical numbers, bit-stable
across hosts.

``--chaos`` switches to the *semantic* regression gate instead: it runs the
quick chaos injection-matrix rows (see ``repro.chaos.matrix``) and fails if
any row stops being exact — an injector no longer finds its declared
violation, finds one outside its declared set, or an honest row stops
exhausting clean.  No baseline file is involved; the matrix's expectations
are the baseline.

CI runs this after regenerating the report so a kernel slowdown (or a chaos
matrix drift) fails the build instead of silently landing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The quick --chaos rows: one consensus-liveness, one consensus-safety and
#: one register-safety injection, plus an honest control.
CHAOS_QUICK_NAMES = (
    "nuc-honest",
    "omega-crashed",
    "split-quorums",
    "register-split",
)
CHAOS_QUICK_BUDGET = 60_000


def check_chaos(seed: int, jobs: int) -> int:
    """Run the quick matrix rows; exit 1 if any verdict is not exact."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.chaos.matrix import run_matrix

    report = run_matrix(
        seed=seed, budget=CHAOS_QUICK_BUDGET, jobs=jobs, names=CHAOS_QUICK_NAMES
    )
    failures = []
    for verdict in report.verdicts:
        found = ",".join(sorted(verdict.found)) or "-"
        expected = ",".join(sorted(verdict.expected)) or "-"
        status = "ok" if verdict.ok else "FAIL"
        print(
            f"chaos[{verdict.config}]: found {found}, expected {expected}, "
            f"{verdict.cases} cases [{status}]"
        )
        if not verdict.ok:
            failures.append(verdict.config)
            if verdict.sample:
                print(f"  sample: {verdict.sample}")
    if failures:
        print(
            "chaos matrix regressed in: " + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    print("chaos matrix exact: every row matches its declared expectations")
    return 0


def check_service(report_path: str, min_speedup: float,
                  baseline_path: str, threshold: float) -> int:
    """Gate ``BENCH_service.json``: batching must pay and nothing may drop.

    All gated numbers are logical (commands per kernel step, commit
    counts, applied digests), so they are bit-stable across hosts: the
    3x batching gate is absolute, and the per-row throughput comparison
    against the committed baseline catches code-driven regressions, not
    hardware noise.
    """
    with open(report_path) as fh:
        report = json.load(fh)
    failures = []
    for row in report["batches"]:
        complete = (
            row["committed"] == row["submitted"]
            and row["timed_out"] == 0
            and row["shed"] == 0
        )
        status = "ok" if complete else "FAIL"
        print(
            f"service[batch {row['batch_size']}]: "
            f"{row['committed']}/{row['submitted']} committed, "
            f"{row['shed']} shed, {row['timed_out']} timed out, "
            f"{row['commands_per_kstep']} cmds/kstep [{status}]"
        )
        if not complete:
            failures.append(f"batch{row['batch_size']}-incomplete")
    identical = bool(report.get("digests_identical"))
    status = "ok" if identical else "FAIL"
    print(
        f"service[digests]: applied sequences "
        f"{'identical' if identical else 'DIVERGED'} across batch sizes "
        f"[{status}]"
    )
    if not identical:
        failures.append("cross-batch-digest")
    speedup = report.get("speedup_16_vs_1") or 0.0
    status = "FAIL" if speedup < min_speedup else "ok"
    print(
        f"service[batching]: {speedup}x commands/kstep at batch 16 vs 1, "
        f"required {min_speedup}x [{status}]"
    )
    if speedup < min_speedup:
        failures.append("batching-speedup")
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except OSError:
        baseline = None
        print(f"service[baseline]: no committed report at {baseline_path}")
    if baseline is not None and os.path.abspath(
        baseline_path
    ) != os.path.abspath(report_path):
        base_rows = {r["batch_size"]: r for r in baseline.get("batches", [])}
        for row in report["batches"]:
            base = base_rows.get(row["batch_size"])
            if not base:
                continue
            base_tp = base["commands_per_kstep"]
            drop = (
                100.0 * (base_tp - row["commands_per_kstep"]) / base_tp
                if base_tp
                else 0.0
            )
            status = "FAIL" if drop > threshold else "ok"
            print(
                f"service[batch {row['batch_size']}]: baseline "
                f"{base_tp} cmds/kstep, new {row['commands_per_kstep']} "
                f"({drop:+.1f}% drop) [{status}]"
            )
            if drop > threshold:
                failures.append(f"batch{row['batch_size']}-throughput")
        failures.extend(check_service_exact(report, baseline))
    if failures:
        print("service bench regressed in: " + ", ".join(failures),
              file=sys.stderr)
        return 1
    print("service bench healthy: batching pays, digests agree, no drops, "
          "rows match the baseline")
    return 0


#: Logical row fields that must equal the committed baseline exactly.
SERVICE_EXACT = ("applied_digest", "kernel_steps", "ticks", "committed")


def check_service_exact(report: dict, baseline: dict) -> list:
    """Each baseline row (the batch rows and ``closed_loop``) must be
    reproduced exactly in :data:`SERVICE_EXACT`; returns failure tags."""
    if report.get("workload") != baseline.get("workload"):
        print("service[workload]: differs from the baseline's [FAIL]")
        return ["workload"]
    rows = {f"batch {r['batch_size']}": r for r in report.get("batches", [])}
    rows["closed_loop"] = report.get("closed_loop") or {}
    base_rows = {f"batch {r['batch_size']}": r for r in baseline.get("batches", [])}
    if baseline.get("closed_loop"):
        base_rows["closed_loop"] = baseline["closed_loop"]
    failures = []
    for name, base in base_rows.items():
        row = rows.get(name, {})
        drift = [k for k in SERVICE_EXACT if row.get(k) != base.get(k)]
        verdict = "differ in " + ", ".join(drift) if drift else "match"
        print(f"service[{name}]: logical fields {verdict} [{'FAIL' if drift else 'ok'}]")
        if drift:
            failures.append(f"{name.replace(' ', '')}-drift")
    return failures


def check_lint(report_path: str, min_speedup: float) -> int:
    """Gate the lint cold/warm report: warm must be >= min_speedup x cold
    with byte-identical findings.  See ``bench_lint.py``."""
    with open(report_path) as fh:
        report = json.load(fh)
    speedup = report.get("speedup") or 0.0
    identical = bool(report.get("identical"))
    failures = []
    status = "ok" if identical else "FAIL"
    print(
        f"lint[{report.get('files', '?')} files]: cold {report['cold_s']}s, "
        f"warm {report['warm_s']}s, reports "
        f"{'byte-identical' if identical else 'DIVERGED'} [{status}]"
    )
    if not identical:
        failures.append("warm-report-diverged")
    status = "FAIL" if speedup < min_speedup else "ok"
    print(
        f"lint[warm speedup]: {speedup}x vs required {min_speedup}x "
        f"[{status}]"
    )
    if speedup < min_speedup:
        failures.append("warm-speedup")
    if failures:
        print("lint cache regressed in: " + ", ".join(failures), file=sys.stderr)
        return 1
    print("lint cache healthy: warm runs are fast and byte-identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=(
            "Exit codes: 0 = within threshold, 1 = throughput regression, "
            "2 = usage error.  Sweep wall times are informational only."
        ),
    )
    parser.add_argument(
        "new",
        nargs="?",
        default=None,
        help="freshly generated BENCH_kernel.json (omit with --chaos)",
    )
    parser.add_argument(
        "--baseline",
        default=os.path.join(REPO_ROOT, "BENCH_kernel.json"),
        metavar="FILE",
        help="committed baseline report (default: repo root)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="max allowed throughput drop in percent (default 25)",
    )
    parser.add_argument(
        "--store-baseline",
        action="store_true",
        help="take the baseline from the result store's bench shelf "
        "(latest kernel report for this environment digest); falls back "
        "to --baseline if the shelf has none",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="result store root for --store-baseline "
        "(default: benchmarks/results/store)",
    )
    parser.add_argument(
        "--attribute",
        nargs=2,
        metavar=("TRACE_A", "TRACE_B"),
        default=None,
        help="two trace files to diff (baseline run vs new run) when the "
        "throughput gate fails — prints the top span-path deltas so the "
        "regression comes with an attribution",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the quick chaos-matrix rows and fail on inexact verdicts "
        "(semantic gate; ignores the benchmark report arguments)",
    )
    parser.add_argument(
        "--service",
        default=None,
        metavar="BENCH_SERVICE_JSON",
        help="gate a bench_service.py report instead: batch-16 throughput "
        "must be at least --service-speedup times batch-1 on the same "
        "workload, applied digests must match across batch sizes, "
        "per-row commands/kstep must not drop more than --threshold "
        "percent below the committed BENCH_service.json, and each row's "
        "applied digest, kernel steps, ticks and commits must equal it",
    )
    parser.add_argument(
        "--service-speedup",
        type=float,
        default=3.0,
        metavar="X",
        help="minimum batch-16-over-batch-1 commands/kstep speedup "
        "(only with --service, default 3.0)",
    )
    parser.add_argument(
        "--service-baseline",
        default=os.path.join(REPO_ROOT, "BENCH_service.json"),
        metavar="FILE",
        help="committed service baseline (only with --service)",
    )
    parser.add_argument(
        "--lint",
        default=None,
        metavar="BENCH_LINT_JSON",
        help="gate a bench_lint.py report instead: warm must be at least "
        "--lint-speedup times faster than cold and byte-identical to it",
    )
    parser.add_argument(
        "--lint-speedup",
        type=float,
        default=3.0,
        metavar="X",
        help="minimum warm-over-cold lint speedup (only with --lint, "
        "default 3.0)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="chaos matrix seed (only with --chaos, default 0)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallel chaos matrix workers (only with --chaos, default 1)",
    )
    args = parser.parse_args(argv)

    if args.chaos:
        return check_chaos(args.seed, args.jobs)
    if args.lint:
        return check_lint(args.lint, args.lint_speedup)
    if args.service:
        return check_service(
            args.service,
            args.service_speedup,
            args.service_baseline,
            args.threshold,
        )
    if args.new is None:
        parser.error(
            "a fresh BENCH_kernel.json is required without "
            "--chaos/--lint/--service"
        )

    baseline = None
    if args.store_baseline:
        sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
        from repro.harness.envinfo import environment_digest
        from repro.store import ResultStore

        store = ResultStore(args.store_dir)
        env = environment_digest()
        found = store.latest_bench("kernel", env)
        if found is not None:
            path, baseline = found
            print(f"baseline: bench shelf kernel/{env}/{os.path.basename(path)}")
        else:
            print(
                f"baseline: shelf has no kernel report for environment "
                f"{env}; falling back to {args.baseline}"
            )
    if baseline is None:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)

    failures = []
    for trace in ("full", "metrics"):
        base = baseline["kernel"][trace]["steps_per_sec"]
        now = new["kernel"][trace]["steps_per_sec"]
        drop = 100.0 * (base - now) / base if base else 0.0
        status = "FAIL" if drop > args.threshold else "ok"
        print(
            f"kernel[{trace}]: baseline {base:,} steps/s, new {now:,} steps/s "
            f"({drop:+.1f}% drop) [{status}]"
        )
        if drop > args.threshold:
            failures.append(trace)

    if "batch" in new:
        batch = new["batch"]
        primary_mode = batch.get("primary_mode", "pure_python")
        primary = batch[primary_mode]
        speedup = primary["speedup_vs_serial"]
        status = "FAIL" if speedup < 1.0 else "ok"
        print(
            f"batch[{primary_mode}]: {primary['steps_per_sec']:,} steps/s, "
            f"{speedup}x vs serial in the same run [{status}]"
        )
        if speedup < 1.0:
            failures.append("batch-below-serial")
        base_batch = baseline.get("batch")
        if base_batch and primary_mode in base_batch:
            base_sps = base_batch[primary_mode]["steps_per_sec"]
            now_sps = primary["steps_per_sec"]
            drop = 100.0 * (base_sps - now_sps) / base_sps if base_sps else 0.0
            status = "FAIL" if drop > args.threshold else "ok"
            print(
                f"batch[{primary_mode}]: baseline {base_sps:,} steps/s, "
                f"new {now_sps:,} steps/s ({drop:+.1f}% drop) [{status}]"
            )
            if drop > args.threshold:
                failures.append("batch-throughput")

    if "obs" in new:
        off = new["obs"]["off"]["steps_per_sec"]
        base_off = baseline.get("obs", {}).get("off", {}).get("steps_per_sec")
        source = "obs.off"
        if not base_off:
            # Older baselines predate the obs section; the tracing-off
            # path is the plain metrics-mode kernel, so that number is
            # the honest stand-in.
            base_off = baseline["kernel"]["metrics"]["steps_per_sec"]
            source = "kernel.metrics, pre-obs baseline"
        drop = 100.0 * (base_off - off) / base_off if base_off else 0.0
        status = "FAIL" if drop > args.threshold else "ok"
        print(
            f"obs[off]: baseline {base_off:,} steps/s ({source}), "
            f"new {off:,} steps/s ({drop:+.1f}% drop) [{status}]"
        )
        if drop > args.threshold:
            failures.append("obs-tracing-off")
        print(
            f"obs[on]: {new['obs']['on']['steps_per_sec']:,} steps/s "
            f"({new['obs']['overhead_pct']:+.1f}% tracing overhead, "
            f"informational)"
        )

    base_sweeps = {e["name"]: e["wall_s"] for e in baseline.get("experiments", [])}
    for entry in new.get("experiments", []):
        base_wall = base_sweeps.get(entry["name"])
        if base_wall:
            print(
                f"sweep[{entry['name']}]: baseline {base_wall}s, "
                f"new {entry['wall_s']}s (informational)"
            )

    if failures:
        print(
            f"throughput regressed >{args.threshold:.0f}% in: "
            + ", ".join(failures),
            file=sys.stderr,
        )
        if args.attribute:
            _attribute_failure(args.attribute[0], args.attribute[1])
        return 1
    print("no throughput regression beyond threshold")
    return 0


def _attribute_failure(trace_a: str, trace_b: str) -> None:
    """Diff two traces so the gate failure names its suspect stage."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        from repro.obs.analyze import diff_traces, render_diff
        from repro.obs.export import read_trace

        diff = diff_traces(read_trace(trace_a), read_trace(trace_b))
    except (OSError, ValueError, KeyError) as exc:
        print(f"attribution unavailable: {exc}", file=sys.stderr)
        return
    print(f"\nattribution ({trace_a} vs {trace_b}):")
    print(render_diff(diff, top=8))


if __name__ == "__main__":
    sys.exit(main())
