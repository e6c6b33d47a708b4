"""The incremental certified frontier against its from-scratch oracle.

:class:`repro.service.core.ServiceCore` keeps the certified prefix and
extends it from where the last read stopped; that is sound only because
replica logs are append-only.  These tests append random interleavings
to the replica logs — small value alphabets so that logs diverge, a
divergent *longest* log among them — and check after every append that
the frontier equals :func:`repro.smr.properties.certified_log` on the same
logs.  A long open-loop load run then pins the cost: certification visits
each slot about once, not once per read.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.harness.load import LoadSpec, run_service_load
from repro.service.core import ServiceCore
from repro.service.service import ServiceConfig
from repro.smr.properties import certified_log, certified_prefix_length

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

A, B, C = ("cmd", "a"), ("cmd", "b"), ("cmd", "c")


@st.composite
def append_scripts(draw):
    """(n, appends): a replica count and a list of (replica, value)."""
    n = draw(st.sampled_from([3, 4, 5]))
    alphabet = draw(st.sampled_from([(A, B), (A, B, C), (A, B, None)]))
    appends = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(alphabet)),
            max_size=60,
        )
    )
    return n, appends


def _assert_matches_oracle(core: ServiceCore) -> None:
    logs = {p: r.log for p, r in core.replicas.items()}
    expected = certified_log(logs, core.quorum)
    assert core.certified_log() == expected
    assert core.certified_length() == certified_prefix_length(logs, core.quorum)
    assert core.certified_entries(0) == expected


class TestFrontierMatchesOracle:
    @SETTINGS
    @given(script=append_scripts(), read_every=st.integers(1, 4))
    # Replica 0 holds the longest log but diverges at slot 0.
    @example(script=(3, [(0, B), (0, B), (0, B), (1, A), (2, A)]), read_every=1)
    # A 2-2 split on four replicas: nothing certifies, ever.
    @example(script=(4, [(0, A), (1, A), (2, B), (3, B), (0, A)]), read_every=1)
    def test_frontier_equals_from_scratch(self, script, read_every):
        n, appends = script
        core = ServiceCore(n)
        for i, (replica, value) in enumerate(appends):
            core.replicas[replica].log.append(value)
            if i % read_every == 0:
                _assert_matches_oracle(core)
        _assert_matches_oracle(core)

    def test_has_work_sees_uncertified_decided_slots(self):
        core = ServiceCore(3)
        core.replicas[0].log.append(A)
        assert core.has_work()  # one decided slot, not yet certified
        core.replicas[1].log.append(A)
        assert not core.has_work()
        assert core.certified_log() == [A]


@pytest.fixture(scope="module")
def open_loop_run():
    """One 480-command open-loop run, batch 16, replica 0 crashing; returns
    (config, report, service, reads of the certified frontier)."""
    reads = []
    advance = ServiceCore._advance_certified

    def counting(core):
        reads.append(1)
        return advance(core)

    config = ServiceConfig(n=3, batch_size=16, seed=0, crash_times={0: 60_000})
    spec = LoadSpec(mode="open", clients=8, arrival_every=2, commands=480, seed=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServiceCore, "_advance_certified", counting)
        report, service = run_service_load(config, spec)
    return config, report, service, len(reads)


class TestLinearShape:
    def test_certification_visits_each_slot_about_once(self, open_loop_run):
        _config, report, service, reads = open_loop_run
        assert report.committed == 480
        assert report.kernel_steps > 60_000  # the run went through the crash
        core = service.core
        certified = core.certified_length()
        reads += 1  # the read just above
        # From slot 0 on every read this would be the sum of the prefix
        # lengths of all reads: quadratic in the log length.
        assert core.certify_visits <= certified + reads
        assert certified > 480 // 16  # the log outgrew the batch count
        logs = {p: r.log for p, r in core.replicas.items()}
        assert core.certified_log() == certified_log(logs, core.quorum)

    def test_routing_table_holds_only_inflight_batches(self, open_loop_run):
        config, _report, service, _reads = open_loop_run
        assert service.stats["batches"] > config.max_inflight
        assert len(service.core._fed_at) <= config.max_inflight
