"""The service workloads: ``svc-open`` and ``svc-closed-reads``.

Both drive :class:`repro.service.service.ConsensusService` from outside,
through ``try_submit``/``submit``/``read``, on the logical-time event loop,
with the arrival schedule of :func:`repro.harness.load.build_schedule`.
The logical clock never waits, so every wall second is compute: the pump's
kernel steps, certification, batching and asyncio itself.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import HostSpeed, converter
from measure import check, median_metrics, metric, percentile, quarter_bounds

_clock = time.perf_counter

#: Commands per pass, and the crash time of replica 0 on ``svc-open`` as a
#: kernel-time band drawn from the seed.  Omega stabilizes on a correct
#: process before the last crash, so under the fixed deployment below the
#: leader hint is replica 1 throughout and the crash takes a follower out of
#: the quorum: from then on every slot needs both survivors' logs.
SIZES = {"svc-open": 480, "svc-closed-reads": 1920}
CRASH_BAND = (58_000, 62_000)
#: The deployment is fixed (``ServiceConfig``'s default seed: detector
#: history and kernel scheduling); the traffic varies with the bench seed.
#: Across service seeds one pass's wall varies 4.2-11.7 s and its p99
#: 0.2-8.3 s, which no bound on a per-run median could absorb.
SERVICE_SEED = 0
#: Distinct schedules a run plays, pass ``i`` playing schedule ``i % n``.
#: A closed loop's cost depends on its schedule: which client draws each
#: command sets how batches fill as chains finish, and one schedule's
#: ``cost_growth`` alone varies 1.8-2.8 across bench seeds.  So a
#: ``svc-closed-reads`` run plays six and reports their median; the open
#: loop varies little across schedules and replays one.
SCHEDULES = {"svc-open": 1, "svc-closed-reads": 6}
#: A run's ``--seconds`` over these is its pass count (3 and 7 at 24 s;
#: one pass takes 6-8 s and 3.5-4.5 s of wall on a 2-CPU host), and the
#: fewest passes a run makes.
NOMINAL_PASS_S = {"svc-open": 8.0, "svc-closed-reads": 3.4}
MIN_PASSES = 2


@dataclass
class Inputs:
    """Everything the program receives, generated from the bench seed."""

    workload: str
    service_seed: int
    load_seed: int
    commands: int
    crash_at: Optional[int]

    def config(self):
        from repro.service.service import ServiceConfig

        crash = {0: self.crash_at} if self.crash_at is not None else {}
        return ServiceConfig(
            n=3, batch_size=16, seed=self.service_seed, crash_times=crash
        )

    def spec(self):
        from repro.harness.load import LoadSpec

        if self.workload == "svc-open":
            return LoadSpec(
                mode="open",
                clients=8,
                arrival_every=2,
                commands=self.commands,
                seed=self.load_seed,
            )
        return LoadSpec(
            mode="closed",
            clients=8,
            think_ticks=1,
            commands=self.commands,
            seed=self.load_seed,
        )


def make_inputs(workload: str, seed: int, schedule: int = 0) -> Inputs:
    """The schedule (and crash time) of the run's passes that play
    ``schedule``."""
    key = f"perfbench/{workload}/{seed}"
    rng = random.Random(f"{key}/{schedule}" if schedule else key)
    return Inputs(
        workload=workload,
        service_seed=SERVICE_SEED,
        load_seed=rng.randrange(1 << 30),
        commands=SIZES[workload],
        crash_at=rng.randrange(*CRASH_BAND) if workload == "svc-open" else None,
    )


def pass_runner(workload: str, seed: int, normalize: bool):
    count = SCHEDULES[workload]
    inputs = [make_inputs(workload, seed, k) for k in range(count)]
    return lambda index: run_pass(inputs[index % count], normalize)


@dataclass
class PassResult:
    """One load pass as seen from the client side."""

    attempted: int = 0
    committed: int = 0
    shed: int = 0
    timed_out: int = 0
    cancelled: int = 0
    late_ticks_max: int = 0
    late_ticks_total: int = 0
    #: Durations are in the pass's time scale: reference-speed seconds on
    #: a timed pass, raw wall on the traced one (see hostspeed).
    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    commit_walls: List[float] = field(default_factory=list)  # since start
    commit_slots: List[int] = field(default_factory=list)  # certified then
    #: Per commit (same order): the ticks of its send and of its commit.
    send_ticks: List[int] = field(default_factory=list)
    commit_ticks: List[int] = field(default_factory=list)
    #: Time since start at which the loop reached each tick.
    tick_marks: List[float] = field(default_factory=list)
    crash_tick: Optional[int] = None
    crash_wall: Optional[float] = None
    failover_gap_s: Optional[float] = None
    digest: str = ""
    certified_log: Tuple = ()
    stats: Dict[str, int] = field(default_factory=dict)
    start: float = 0.0  # raw wall reading
    speed: float = 1.0  # mean host speed over the pass, of reference speed

    @property
    def failed(self) -> int:
        return self.shed + self.timed_out + self.cancelled


def _digest(commands) -> str:
    h = hashlib.sha256()
    for command in commands:
        h.update(repr(command).encode())
    return h.hexdigest()


def run_pass(inputs: Inputs, normalize: bool) -> PassResult:
    """Play one schedule against a fresh service; check its outputs.  With
    ``normalize``, durations are in reference-speed seconds."""
    from repro import obs
    from repro.harness.load import build_schedule
    from repro.service.clock import TickClock, logical_event_loop
    from repro.service.service import Backpressure, ConsensusService
    from repro.smr.properties import check_certified_reads, check_service_log

    check(not obs.enabled(), "repro.obs must stay disabled")
    spec = inputs.spec()
    schedule = build_schedule(spec)
    result = PassResult(attempted=len(schedule))
    reads = inputs.workload == "svc-closed-reads"
    loop = logical_event_loop()
    # Raw wall readings, converted to the pass's time scale at the end.
    tick_at: List[float] = []
    due_at: List[float] = []
    commit_at: List[float] = []
    end_at: List[float] = []

    async def main() -> ConsensusService:
        clock = TickClock(loop)
        service = ConsensusService(inputs.config(), clock)
        deadline = clock.now_ticks() + spec.deadline_ticks
        result.start = _clock()
        first_tick = clock.now_ticks()
        service.start()

        def note_commit(due: float, sent: int) -> None:
            due_at.append(due)
            commit_at.append(_clock())
            result.commit_slots.append(service.certified_slots)
            result.send_ticks.append(sent - first_tick)
            result.commit_ticks.append(clock.now_ticks() - first_tick)

        def on_commit(f: asyncio.Future, due: float, sent: int) -> None:
            if not f.cancelled():  # else counted as timed out or cancelled
                note_commit(due, sent)

        async def monitor() -> None:
            # Once per tick: mark the tick, note when the crash takes effect,
            # and (on svc-closed-reads) issue a certified read after a commit
            # tick.
            last_committed = 0
            while True:
                tick_at.append(_clock())
                if (
                    result.crash_tick is None
                    and inputs.crash_at is not None
                    and service.core.time >= inputs.crash_at
                ):
                    result.crash_tick = len(tick_at) - 1
                committed = service.stats["committed"]
                if reads and committed > last_committed:
                    await service.read()
                last_committed = committed
                await clock.sleep_ticks(1)

        watcher = loop.create_task(monitor())
        pending: List[asyncio.Future] = []
        try:
            if spec.mode == "open":
                due = _clock()
                reached = clock.now_ticks()
                for tick, session, seq, op in schedule:
                    while clock.now_ticks() < tick:
                        await clock.sleep_ticks(1)
                    now_tick = clock.now_ticks()
                    if now_tick != reached:
                        reached, due = now_tick, _clock()
                    late = now_tick - tick
                    result.late_ticks_max = max(result.late_ticks_max, late)
                    result.late_ticks_total += late
                    try:
                        future = service.try_submit(session, seq, op)
                    except Backpressure:
                        result.shed += 1
                        continue
                    future.add_done_callback(
                        lambda f, due=due, sent=now_tick: on_commit(f, due, sent)
                    )
                    pending.append(future)
                while any(not f.done() for f in pending):
                    if clock.now_ticks() >= deadline:
                        for future in pending:
                            if not future.done():
                                future.cancel()
                                result.timed_out += 1
                        break
                    await clock.sleep_ticks(1)
                cancelled = sum(1 for f in pending if f.cancelled())
                result.cancelled = cancelled - result.timed_out
            else:
                chains: Dict[str, List[Tuple[str, int, Any]]] = {}
                for _tick, session, seq, op in schedule:
                    chains.setdefault(session, []).append((session, seq, op))

                async def drive(commands) -> None:
                    for i, (session, seq, op) in enumerate(commands):
                        sent = clock.now_ticks()
                        if sent >= deadline:
                            result.timed_out += len(commands) - i
                            return
                        due = _clock()
                        try:
                            await asyncio.wait_for(
                                service.submit(session, seq, op),
                                timeout=(deadline - sent) * clock.tick_seconds,
                            )
                        except asyncio.TimeoutError:
                            result.timed_out += len(commands) - i
                            return
                        except asyncio.CancelledError:
                            result.cancelled += len(commands) - i
                            return
                        note_commit(due, sent)
                        await clock.sleep_ticks(spec.think_ticks)

                await asyncio.gather(
                    *[drive(c) for _s, c in sorted(chains.items())]
                )
            await asyncio.sleep(0)  # let the last done callbacks run
            end_at.append(_clock())
        finally:
            watcher.cancel()
            try:
                await watcher
            except asyncio.CancelledError:
                pass
            await service.stop()
        return service

    host = HostSpeed() if normalize else None
    try:
        asyncio.set_event_loop(loop)
        with host or contextlib.nullcontext():
            service = loop.run_until_complete(main())
    finally:
        asyncio.set_event_loop(None)
        loop.close()
    to = converter(host)
    origin = to(result.start)
    result.tick_marks = [to(t) - origin for t in tick_at]
    result.commit_walls = [to(t) - origin for t in commit_at]
    result.latencies_s = [to(c) - to(d) for d, c in zip(due_at, commit_at)]
    result.wall_s = to(end_at[0]) - origin
    if result.crash_tick is not None:
        result.crash_wall = result.tick_marks[result.crash_tick]
    if host is not None:
        result.speed = host.mean_speed()

    core = service.core
    result.committed = len(result.latencies_s)
    result.stats = dict(service.stats)
    result.certified_log = tuple(core.certified_log())
    result.digest = _digest(service.applied_commands)
    if result.crash_wall is not None:
        result.failover_gap_s = failover_gap(result.crash_wall, result.commit_walls)
    check(service.invariants.ok, f"service invariants: {service.invariants.violations[:3]}")
    check(
        check_certified_reads(service.read_log, core.logs(), core.quorum).ok,
        "certified reads",
    )
    check(check_service_log(list(result.certified_log)).ok, "certified service log")
    check(
        result.committed == len(service.applied_commands) == service.stats["committed"],
        "every applied command resolved its client",
    )
    check(
        result.committed + result.failed == result.attempted,
        "every attempted command is committed or counted failed",
    )
    if reads:
        check(service.stats["reads"] > 0, "certified reads were served")
    return result


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------


def fingerprint(result: PassResult) -> tuple:
    """The outputs every pass over the same schedule must reproduce, down to
    the tick of every send, commit and the crash."""
    return (
        result.digest,
        result.certified_log,
        result.committed,
        result.failed,
        len(result.tick_marks),
        result.send_ticks,
        result.commit_ticks,
        result.crash_tick,
    )


def attempted_failed(passes: List[PassResult]) -> Tuple[int, int]:
    return sum(p.attempted for p in passes), sum(p.failed for p in passes)


def failover_gap(crash: float, commit_walls: List[float]) -> float:
    """Time from the tick where the crash takes effect to the first commit
    after it."""
    after = [w for w in commit_walls if w >= crash]
    check(bool(after), "a commit after the crash")
    return min(after) - crash


def quarter_walls(result: PassResult) -> List[Tuple[float, int]]:
    """(seconds, commits) of each quarter of a pass's commits."""
    walls = [0.0] + sorted(result.commit_walls)
    bounds = quarter_bounds(len(walls) - 1)
    return [
        (walls[bounds[k + 1]] - walls[bounds[k]], bounds[k + 1] - bounds[k])
        for k in range(4)
    ]


def per_command_quarters(result: PassResult) -> List[float]:
    """Seconds per committed command in each quarter of commits."""
    return [wall / max(1, n) for wall, n in quarter_walls(result)]


def cost_growth(result: PassResult) -> float:
    """Time per command of the last quarter of commits over the first."""
    quarters = per_command_quarters(result)
    return quarters[3] / quarters[0]


#: The duration metrics, each taken per pass, with their units.
UNITS = {
    "wall_s": "s",
    "tput": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "cost_growth": "x",
    "stall_s": "s",
}


def pass_metrics(p: PassResult) -> Dict[str, float]:
    """The duration metrics of one pass, in its time scale."""
    walls = [0.0] + sorted(p.commit_walls)
    # With a crash (svc-open): the longest time between consecutive commits,
    # the start-up stall before Omega settles.  The crash's own gap
    # (``failover_gap_s`` in the report) is at most a tick here and flips
    # between microseconds and a tick with the crash time, so it cannot be
    # bounded.  Without one (svc-closed-reads) no gap stands out, the
    # longest are a few ticks each, so the mean of the ten longest counts.
    gaps = sorted((b - a for a, b in zip(walls, walls[1:])), reverse=True)
    return {
        "wall_s": p.wall_s,
        "tput": len(p.commit_walls) / p.wall_s,
        "p50_ms": percentile(p.latencies_s, 0.50) * 1e3,
        "p99_ms": percentile(p.latencies_s, 0.99) * 1e3,
        "cost_growth": cost_growth(p),
        "stall_s": gaps[0] if p.crash_wall is not None else statistics.mean(gaps[:10]),
    }


def end_to_end(passes: List[PassResult]) -> Dict[str, Dict[str, object]]:
    """Each duration metric is its median over the run's passes, every pass
    in reference-speed seconds."""
    out = median_metrics([pass_metrics(p) for p in passes], UNITS)
    out["ok_frac"] = metric(
        sum(p.committed for p in passes) / sum(p.attempted for p in passes), "frac"
    )
    return out


def report_lines(passes: List[PassResult]) -> List[str]:
    """The service metrics under their service names, per pass."""
    distinct = len({q.digest for q in passes})
    lines = [
        f"  samples: {len(passes)} passes of {distinct} schedule(s); latency "
        f"percentiles over each pass's commits (n below)"
    ]
    for q in passes:
        lines += [
            f"  attempted={q.attempted} committed={q.committed} shed={q.shed} "
            f"timed_out={q.timed_out} cancelled={q.cancelled} "
            f"failed_frac={q.failed / q.attempted:.4f}; generator lateness: "
            f"max {q.late_ticks_max} ticks, total {q.late_ticks_total} ticks",
            f"  certified slots={len(q.certified_log)} batches={q.stats['batches']} "
            f"kernel_steps={q.stats['kernel_steps']} ticks={q.stats['ticks']} "
            f"reads={q.stats['reads']} digest={q.digest[:16]}",
        ]
        line = (
            f"  pass: wall_s={q.wall_s:.3f} commit_tput={q.committed / q.wall_s:.1f} "
            f"commit_p50_ms={percentile(q.latencies_s, 0.5) * 1e3:.2f} "
            f"commit_p99_ms={percentile(q.latencies_s, 0.99) * 1e3:.2f} "
            f"cmd_cost_growth={cost_growth(q):.3f}"
        )
        if q.failover_gap_s is not None:
            line += f" failover_gap_s={q.failover_gap_s:.4f}"
        lines.append(line)
    return lines


# ----------------------------------------------------------------------
# Traced pass: per-layer metrics
# ----------------------------------------------------------------------


class Trace:
    """Wraps the service and core boundaries of one traced pass."""

    def __init__(self, tracer) -> None:
        from repro.service.core import ServiceCore
        from repro.service.service import ConsensusService

        self.tracer = tracer
        self.submitted_at: Dict[Tuple, float] = {}
        self.queue_waits: List[float] = []
        self.batch_sizes: List[int] = []
        self.step_steps: List[int] = []
        self.refeeds = 0
        t = tracer
        t.hook(ConsensusService, "submit", self._note_submit)
        t.hook(ConsensusService, "try_submit", self._note_submit)
        t.wrap(ConsensusService, "read", "service.read")
        t.wrap(ServiceCore, "certified_log", "core.certify")
        t.wrap(ServiceCore, "certified_length", "core.certify")
        t.wrap(ServiceCore, "has_work", "core.has_work")
        t.wrap(ServiceCore, "step", "core.step", after=self._note_steps)
        t.wrap(
            ServiceCore,
            "feed_batch",
            "core.feed",
            rid=lambda core, entry: ("batch", entry[2]),
            after=self._note_feed,
        )
        t.wrap(ServiceCore, "refeed_pending", "core.feed", after=self._note_refeed)

    def _note_submit(self, service, session, seq, op) -> None:
        self.submitted_at.setdefault((session, seq), _clock())

    def _note_steps(self, taken: int, core, budget) -> None:
        self.step_steps.append(taken)

    def _note_feed(self, target, core, entry) -> None:
        now = _clock()
        commands = entry[3]
        self.batch_sizes.append(len(commands))
        for session, seq, _op in commands:
            submitted = self.submitted_at[(session, seq)]
            self.queue_waits.append(now - submitted)
            self.tracer.record("service.queue_wait", submitted, now, (session, seq))

    def _note_refeed(self, moved: int, core, inflight) -> None:
        self.refeeds += moved

    # ------------------------------------------------------------------

    def layer_metrics(self, result: PassResult, untraced: PassResult) -> Dict[str, float]:
        t = self.tracer
        log = result.certified_log
        noops = [entry is None or entry[0] != "batch" for entry in log]
        steps = sum(self.step_steps)
        step_spans = t.durations("core.step")
        certify_spans = t.durations("core.certify")
        # Quarter windows of commits (wall since pass start) and the
        # certified-slot count at each boundary.
        walls = [0.0] + sorted(result.commit_walls)
        slots = [0] + sorted(result.commit_slots)
        bounds = quarter_bounds(len(walls) - 1)
        edges = [result.start + walls[b] for b in bounds]
        edges[-1] = float("inf")
        untraced_q = per_command_quarters(untraced)
        shape = []
        for k in range(4):
            lo, hi = edges[k], edges[k + 1]
            cert = [d for s, d in certify_spans if lo <= s < hi]
            kern = [
                (d, n) for (s, d), n in zip(step_spans, self.step_steps) if lo <= s < hi
            ]
            kern_steps = sum(n for _d, n in kern)
            first, last = slots[bounds[k]], slots[bounds[k + 1]]
            window = noops[first:last]
            shape.append(
                {
                    "wall_us_per_cmd": untraced_q[k] * 1e6,
                    "certify_us_per_call": statistics.mean(cert) * 1e6 if cert else 0.0,
                    "kernel_us_per_step": (
                        sum(d for d, _n in kern) / kern_steps * 1e6 if kern_steps else 0.0
                    ),
                    "noop_share": sum(window) / len(window) if window else 0.0,
                }
            )
        reads = t.durations("service.read")
        read_us = [d * 1e6 for _s, d in reads]
        queue_ms = [w * 1e3 for w in self.queue_waits]
        out = {
            "service.queue_wait_ms.p50": percentile(queue_ms, 0.5),
            "service.queue_wait_ms.p99": percentile(queue_ms, 0.99),
            "service.batch_fill": statistics.mean(self.batch_sizes) / 16,
            "service.reads": result.stats["reads"],
            "service.read_us.p50": percentile(read_us, 0.5) if read_us else 0.0,
            "service.read_us.p99": percentile(read_us, 0.99) if read_us else 0.0,
            "service.tick_self_ms": result.wall_s * 1e3 - t.top_s * 1e3,
            "core.certify_ms": t.total_ms("core.certify"),
            "core.certify_calls": t.calls("core.certify"),
            "core.certify_us.q1": shape[0]["certify_us_per_call"],
            "core.certify_us.q4": shape[3]["certify_us_per_call"],
            "core.has_work_ms": t.self_ms("core.has_work"),
            "core.step_ms": t.total_ms("core.step"),
            "core.step_calls": t.calls("core.step"),
            "core.refeeds": self.refeeds,
            "core.feed_ms": t.total_ms("core.feed"),
            "load.late_ticks_max": result.late_ticks_max,
            "smr.slots": len(log),
            "smr.noop_share": sum(noops) / len(log),
            "smr.cmds_per_kstep": result.committed / steps * 1e3,
            "kernel.steps": steps,
            "kernel.us_per_step": t.total_ms("core.step") * 1e3 / steps,
            "kernel.step_cost_growth": (
                shape[3]["kernel_us_per_step"] / shape[0]["kernel_us_per_step"]
                if shape[0]["kernel_us_per_step"]
                else 0.0
            ),
        }
        for k, row in enumerate(shape, start=1):
            for key, value in row.items():
                out[f"shape.q{k}.{key}"] = value
        return out
