"""Wall-clock benchmark of the repository, end to end and layer by layer.

    python3 perfbench/run.py --workload svc-open --seed 1 --seconds 24 --trace 0

Workloads (see perfbench/README.md): ``svc-open``, ``svc-closed-reads``,
``paper-sweeps``, ``chaos-matrix``.  A run makes as many passes of its
workload as fit ``--seconds`` at a nominal pass length (one untraced and
one traced pass with ``--trace 1``), checks every pass's outputs, and
prints a human-readable report followed by one JSON line:

* ``--trace 0``: the end-to-end metrics, each the median over the passes,
  every pass timed in reference-speed seconds (wall rescaled by the host's
  momentary speed, see ``hostspeed``), plus ``setup_s`` (median of
  fresh-interpreter set-ups, rescaled the same way) and ``peak_rss_mb``.
* ``--trace 1``: the per-layer metrics of the traced pass, timed by
  wrapping public functions from the benchmark's own files, plus the
  tracing overhead.  Outputs of the traced pass must equal the untraced
  pass's.

A failed output check prints ``"correct": false`` with no metrics and
exits 1.  ``repro.obs`` stays disabled throughout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bootstrap() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, src)


#: Workload -> the module that drives it.  Each module provides
#: ``pass_runner``, ``fingerprint``, ``attempted_failed``, ``end_to_end``,
#: ``report_lines``, a per-layer ``Trace`` and its pass-count constants
#: (``SCHEDULES``: distinct inputs a run plays, pass ``i`` playing input
#: ``i % SCHEDULES``).
MODULES = {
    "svc-open": "wl_service",
    "svc-closed-reads": "wl_service",
    "paper-sweeps": "wl_paper",
    "chaos-matrix": "wl_chaos",
}


def _passes(mod, run_pass, workload: str, seconds: float) -> list:
    """``seconds // nominal`` passes (at least the module's minimum, and one
    more than the distinct inputs, so that some input plays twice): the
    count depends only on ``--seconds``, so every run does the same work."""
    from measure import check

    distinct = mod.SCHEDULES[workload]
    count = max(
        mod.MIN_PASSES, distinct + 1, int(seconds // mod.NOMINAL_PASS_S[workload])
    )
    passes = []
    for index in range(count):
        gc.collect()  # each pass starts from the same collector state
        passes.append(run_pass(index))
    for first in range(distinct):
        same = passes[first::distinct]
        check(
            all(mod.fingerprint(p) == mod.fingerprint(same[0]) for p in same),
            "every pass over the same inputs gives the same outputs",
        )
    return passes


def timed_run(mod, run_pass, args) -> dict:
    from measure import metric, peak_rss_mb, setup_seconds

    setup = setup_seconds(args.workload, args.seed)
    passes = _passes(mod, run_pass, args.workload, args.seconds)
    metrics = mod.end_to_end(passes)
    metrics["setup_s"] = metric(setup, "s")
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    for line in mod.report_lines(passes):
        print(line)
    print(
        "  host speed per pass (of reference speed; durations above are in "
        "reference-speed seconds): " + ", ".join(f"{p.speed:.3f}" for p in passes)
    )
    attempted, failed = mod.attempted_failed(passes)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def traced_run(mod, run_pass, args) -> dict:
    from layers import KernelTrace
    from measure import check, metric
    from spans import Tracer

    gc.collect()
    untraced = run_pass(0)
    tracer = Tracer()
    layers = [KernelTrace(tracer), mod.Trace(tracer)]
    gc.collect()
    try:
        traced = run_pass(0)
    finally:
        tracer.restore()
    check(
        mod.fingerprint(traced) == mod.fingerprint(untraced),
        "traced outputs equal untraced outputs",
    )
    units = declared("per_layer")
    values = {name: 0 for name in units}  # a bypassed layer did no work
    for layer in layers:
        values.update(layer.layer_metrics(traced, untraced))
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.dump(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"))
    print(
        f"  traced pass {traced.wall_s:.3f} s, untraced {untraced.wall_s:.3f} s, "
        f"overhead {values['trace.overhead_s']:.3f} s; {len(tracer.spans)} spans kept"
    )
    for name, self_ms in tracer.layer_self_ms().items():
        print(f"  self {name}: {self_ms:.1f} ms over {tracer.calls(name)} calls")
    attempted, failed = mod.attempted_failed([untraced, traced])
    return {
        "metrics": {
            name: metric(value, units.get(name, "?")) for name, value in values.items()
        },
        "attempted": attempted,
        "failed": failed,
    }


def declared(section: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MODULES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    # Keep git (ours and the store's environment stamp) inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    from measure import CheckFailed, environment_stamp

    stamp = environment_stamp(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("  env: " + json.dumps(stamp, sort_keys=True))
    mod = importlib.import_module(MODULES[args.workload])
    run_pass = mod.pass_runner(args.workload, args.seed, normalize=not args.trace)
    try:
        body = (traced_run if args.trace else timed_run)(mod, run_pass, args)
    except CheckFailed as exc:
        print(f"  CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for name, value in sorted(body["metrics"].items()):
        print(f"  {name} = {value['value']:.6g} {value['unit']}")
    emitted = {name: m["unit"] for name, m in body["metrics"].items()}
    if emitted != declared("per_layer" if args.trace else "end_to_end"):
        sys.exit("perfbench: emitted metrics differ from BENCHMARK.json")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    row = {"workload": args.workload, "trace": args.trace, "env": stamp, **body}
    with open(os.path.join(HERE, "out", "results.jsonl"), "a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(json.dumps({"correct": True, **body}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
