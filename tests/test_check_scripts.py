"""The CI gate scripts in ``benchmarks/`` behave as documented.

Each script must expose a usable ``--help`` (exit 0, names its options) and
exit nonzero on the failure it is designed to catch, so a CI misconfiguration
surfaces as a loud failure instead of a silently green step.
"""

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(REPO_ROOT, "benchmarks")


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, os.path.join(BENCHMARKS, name), *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


class TestCheckRegression:
    def test_help(self):
        proc = run_script("check_regression.py", "--help")
        assert proc.returncode == 0
        for token in ("--baseline", "--threshold", "usage"):
            assert token in proc.stdout

    def test_missing_argument_is_usage_error(self):
        proc = run_script("check_regression.py")
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_throughput_drop_fails(self, tmp_path):
        with open(os.path.join(REPO_ROOT, "BENCH_kernel.json")) as fh:
            report = json.load(fh)
        for trace in ("full", "metrics"):
            report["kernel"][trace]["steps_per_sec"] = 1
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(report))
        proc = run_script("check_regression.py", str(slow))
        assert proc.returncode == 1
        assert "regressed" in proc.stderr

    def test_identical_report_passes(self):
        baseline = os.path.join(REPO_ROOT, "BENCH_kernel.json")
        proc = run_script("check_regression.py", baseline)
        assert proc.returncode == 0
        assert "no throughput regression" in proc.stdout

    def test_help_names_attribute_option(self):
        proc = run_script("check_regression.py", "--help")
        assert proc.returncode == 0
        assert "--attribute" in proc.stdout
        assert "TRACE_A" in proc.stdout

    def test_failure_prints_attribution_diff(self, tmp_path):
        sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
        try:
            from repro.obs.export import write_trace
            from repro.obs.tracer import Tracer

            traces = []
            for name, ticks in (("a.jsonl", [0, 100]), ("b.jsonl", [0, 400])):
                tracer = Tracer("attr-test")
                with tracer.span("kernel.run", clock=iter(ticks).__next__):
                    pass
                path = str(tmp_path / name)
                write_trace(path, tracer)
                traces.append(path)
        finally:
            sys.path.pop(0)

        with open(os.path.join(REPO_ROOT, "BENCH_kernel.json")) as fh:
            report = json.load(fh)
        for trace in ("full", "metrics"):
            report["kernel"][trace]["steps_per_sec"] = 1
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(report))
        proc = run_script(
            "check_regression.py", str(slow), "--attribute", *traces
        )
        assert proc.returncode == 1
        assert "attribution" in proc.stdout
        assert "kernel.run" in proc.stdout


class TestCheckRegressionService:
    def test_help_names_service_options(self):
        proc = run_script("check_regression.py", "--help")
        assert proc.returncode == 0
        for token in ("--service", "--service-speedup", "--service-baseline"):
            assert token in proc.stdout

    def test_committed_report_passes(self):
        report = os.path.join(REPO_ROOT, "BENCH_service.json")
        proc = run_script("check_regression.py", "--service", report)
        assert proc.returncode == 0
        assert "service bench healthy" in proc.stdout

    def test_weak_batching_fails(self, tmp_path):
        with open(os.path.join(REPO_ROOT, "BENCH_service.json")) as fh:
            report = json.load(fh)
        report["speedup_16_vs_1"] = 1.2
        weak = tmp_path / "weak.json"
        weak.write_text(json.dumps(report))
        proc = run_script("check_regression.py", "--service", str(weak))
        assert proc.returncode == 1
        assert "batching-speedup" in proc.stderr

    def test_cross_batch_digest_divergence_fails(self, tmp_path):
        with open(os.path.join(REPO_ROOT, "BENCH_service.json")) as fh:
            report = json.load(fh)
        report["digests_identical"] = False
        bad = tmp_path / "diverged.json"
        bad.write_text(json.dumps(report))
        proc = run_script("check_regression.py", "--service", str(bad))
        assert proc.returncode == 1
        assert "cross-batch-digest" in proc.stderr

    def test_lost_commands_fail(self, tmp_path):
        with open(os.path.join(REPO_ROOT, "BENCH_service.json")) as fh:
            report = json.load(fh)
        report["batches"][0]["committed"] -= 1
        report["batches"][0]["timed_out"] += 1
        lossy = tmp_path / "lossy.json"
        lossy.write_text(json.dumps(report))
        proc = run_script("check_regression.py", "--service", str(lossy))
        assert proc.returncode == 1
        assert "incomplete" in proc.stderr

    def test_logical_drift_from_baseline_fails(self, tmp_path):
        with open(os.path.join(REPO_ROOT, "BENCH_service.json")) as fh:
            report = json.load(fh)
        # Same digest everywhere (the cross-batch check still passes) and
        # throughput within threshold, but not the committed row.
        for row in report["batches"] + [report["closed_loop"]]:
            row["applied_digest"] = "0" * 64
        report["closed_loop"]["kernel_steps"] += 1
        report["batches"][2]["ticks"] += 1
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(report))
        proc = run_script("check_regression.py", "--service", str(drifted))
        assert proc.returncode == 1
        assert "batch1-drift" in proc.stderr
        assert "closed_loop-drift" in proc.stderr
        assert "kernel_steps" in proc.stdout
        assert "ticks" in proc.stdout

    def test_other_workload_than_baseline_fails(self, tmp_path):
        with open(os.path.join(REPO_ROOT, "BENCH_service.json")) as fh:
            report = json.load(fh)
        report["workload"]["commands"] += 1
        other = tmp_path / "other.json"
        other.write_text(json.dumps(report))
        proc = run_script("check_regression.py", "--service", str(other))
        assert proc.returncode == 1
        assert "workload" in proc.stderr


class TestCheckTraceSchema:
    def test_help(self):
        proc = run_script("check_trace_schema.py", "--help")
        assert proc.returncode == 0
        assert "usage" in proc.stdout
        assert "repro-trace/1" in proc.stdout

    def test_missing_argument_is_usage_error(self):
        proc = run_script("check_trace_schema.py")
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_invalid_trace_fails(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\n')  # missing required fields
        proc = run_script("check_trace_schema.py", str(bad))
        assert proc.returncode == 1

    def test_unreadable_file_fails(self, tmp_path):
        proc = run_script("check_trace_schema.py", str(tmp_path / "absent.jsonl"))
        assert proc.returncode == 1


class TestCheckDeterminism:
    def test_help(self):
        proc = run_script("check_determinism.py", "--help")
        assert proc.returncode == 0
        for token in ("--exp", "--jobs", "--full", "usage"):
            assert token in proc.stdout

    def test_unknown_experiment_is_usage_error(self):
        proc = run_script("check_determinism.py", "--exp", "exp99")
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_help_names_service_mode(self):
        proc = run_script("check_determinism.py", "--help")
        assert proc.returncode == 0
        assert "--service" in proc.stdout

    def test_service_excludes_chaos_and_store(self):
        proc = run_script("check_determinism.py", "--service", "--chaos")
        assert proc.returncode == 2
        proc = run_script("check_determinism.py", "--service", "--store")
        assert proc.returncode == 2
