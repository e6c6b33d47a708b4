"""The replica's eligibility index against a from-scratch reference.

:class:`repro.smr.replicated_log.ReplicatedLogProcess` keeps the set of
logged entries and the per-origin batch counts in an index fed from a
cursor over its append-only log.  Under random feed, forward-accept,
append and decide-and-purge sequences, every read of the index —
``_next_proposal``, ``pending_commands``, ``feed``, ``_accept_foreign``
and ``_maybe_forward`` — must agree with the same rule recomputed from the
whole log, as the layer did before the index existed.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.smr.replicated_log import NOOP, ReplicatedLogProcess, is_batch

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PID, LEADER = 1, 0


def _reference_known(proc, command) -> bool:
    return (
        command in proc.commands
        or command in proc._foreign_batches
        or command in proc._foreign_plain
        or command in proc.log
    )


def _reference_next_proposal(proc):
    chosen = set(proc.log)
    counts = {}
    for entry in proc.log:
        if is_batch(entry):
            counts[entry[1]] = counts.get(entry[1], 0) + 1

    def eligible(command) -> bool:
        if command in chosen:
            return False
        if is_batch(command):
            return command[2] == counts.get(command[1], 0)
        return True

    foreign_batches = sorted(proc._foreign_batches, key=lambda c: (c[1], c[2]))
    for pool in (proc.commands, foreign_batches, proc._foreign_plain):
        for command in pool:
            if eligible(command):
                return command
    return NOOP


def _reference_pending(proc):
    logged = set(proc.log)
    pools = (proc.commands, proc._foreign_batches, proc._foreign_plain)
    return [c for pool in pools for c in pool if c not in logged]


class _Ctx:
    pid = PID

    def __init__(self):
        self.sent = []

    def send(self, dest, payload):
        self.sent.append((dest, payload))


commands = st.one_of(
    st.builds(lambda o, k: ("append", o, k), st.integers(0, 2), st.integers(0, 2)),
    st.builds(
        lambda o, s: ("batch", o, s, ((o, s, "op"),)),
        st.sampled_from(["svc", "x"]),
        st.integers(0, 3),
    ),
    st.just(NOOP),
)
actions = st.lists(
    st.tuples(
        st.sampled_from(["feed", "foreign", "append", "decide", "forward"]),
        commands,
    ),
    max_size=40,
)


class TestEligibilityIndex:
    @SETTINGS
    @given(script=actions)
    def test_index_matches_from_scratch(self, script):
        proc = ReplicatedLogProcess([], slots=None)
        for action, command in script:
            if action == "feed":
                expected = not _reference_known(proc, command)
                assert proc.feed(command) == expected
            elif action == "foreign":
                before = _reference_pending(proc)
                known = _reference_known(proc, command)
                proc._accept_foreign(command)
                if known:
                    assert _reference_pending(proc) == before
            elif action == "append":  # a bare append, as a writer may do
                proc.log.append(command)
            elif action == "decide":  # what program() does on a decision
                proc.log.append(command)
                proc._purge_chosen(command)
            else:
                ctx = _Ctx()
                expected = [
                    c
                    for c in proc.commands
                    if c not in proc.log and (c, LEADER) not in proc._forwarded
                ]
                proc._maybe_forward(ctx, (LEADER, frozenset({LEADER, PID})))
                assert [payload[1] for _dest, payload in ctx.sent] == expected
            assert proc._next_proposal() == _reference_next_proposal(proc)
            assert proc.pending_commands() == _reference_pending(proc)
