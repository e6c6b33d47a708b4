"""Shared measurement helpers: percentiles, quarters, RSS, set-up probes,
the environment stamp and the one-line result the runner prints."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters started per run to measure ``setup_s``.
SETUP_PROBES = 5


class CheckFailed(Exception):
    """An output check failed; the run reports no timings."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quarter_bounds(count: int) -> List[int]:
    """Index boundaries ``[0, q1, q2, q3, count]`` of four equal quarters."""
    return [count * k // 4 for k in range(5)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(workload: str, seed: int) -> float:
    """Median time, over fresh interpreters, from spawn to the moment the
    workload's first request or task could be issued: the wall, rescaled by
    the host's mean speed over the set-up as the probe measured it, in
    reference-speed seconds like every other duration."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, probe, workload, str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            speed = proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        check(code == 0 and line.strip() == "ready", f"setup probe for {workload}")
        samples.append(elapsed * float(speed))
    return statistics.median(samples)


def _src_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` (path + bytes), sorted."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment_stamp(seed: int) -> Dict[str, object]:
    """Who measured what: commit (or source digest), interpreter, host."""
    sha: Optional[str] = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "seed": seed,
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def median_metrics(
    per_pass: List[Dict[str, float]], units: Dict[str, str]
) -> Dict[str, Dict[str, object]]:
    """Each named metric's median over the run's passes."""
    return {
        name: metric(statistics.median(m[name] for m in per_pass), unit)
        for name, unit in units.items()
    }
