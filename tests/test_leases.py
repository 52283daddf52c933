"""The hold -> commit | release | expire engine (repro.runtime.leases).

Every reserving path -- the plain coordinator's phase 3, the fault
boundary's reserve/ack exchange, the daemon's ``/v1/reserve`` -- ends in
:class:`LeaseTable`, so its contract is pinned here once, under a fake
clock: ``hold`` is all-or-nothing across proxies whatever goes wrong,
a lease ends exactly once, and only orphans expire, exactly at
``expires_at``.  A Hypothesis state machine interleaves every operation
(malformed demands included) and checks the books after each step.
"""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.brokers import (
    BrokerRegistry,
    LinkBandwidthBroker,
    LocalResourceBroker,
    PathBroker,
)
from repro.core.errors import AdmissionError, BrokerError
from repro.obs import EventLog, event_logging
from repro.runtime import QoSProxy
from repro.runtime.leases import LeaseTable
from repro.runtime.messages import PlanSegment

TTL = 10.0
#: resource id -> owning proxy host of the rig below.
OWNER = {"cpu:H1": "H1", "net:L1": "H2", "cpu:H3": "H3"}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build_rig():
    """Three proxies: H1 and H3 front a cpu pool each, H2 a network path."""
    clock = FakeClock()
    registry = BrokerRegistry()
    link = LinkBandwidthBroker("L1", "H1", "H2", 100.0)
    for broker in (
        LocalResourceBroker("H1", "cpu", 100.0),
        LocalResourceBroker("H3", "cpu", 100.0),
        link,
        PathBroker("net:L1", [link]),
    ):
        registry.register(broker)
    proxies = {host: QoSProxy(host, registry) for host in ("H1", "H2", "H3")}
    for resource_id, host in OWNER.items():
        proxies[host].own(resource_id)
    return registry, proxies, LeaseTable(proxies, clock, TTL), clock


def by_host(demands):
    segments = {}
    for resource_id, amount in demands.items():
        segments.setdefault(OWNER[resource_id], {})[resource_id] = amount
    return segments


def reserved(registry):
    return {rid: registry.broker(rid).reserved for rid in OWNER}


class TestHold:
    def test_holds_across_proxies_and_names_its_reservations(self):
        registry, proxies, table, clock = build_rig()
        clock.now = 3.0
        lease = table.hold("s1", by_host({"cpu:H1": 30.0, "net:L1": 40.0}))
        assert reserved(registry) == {"cpu:H1": 30.0, "net:L1": 40.0, "cpu:H3": 0.0}
        assert sorted(r.resource_id for r in lease.reservations) == ["cpu:H1", "net:L1"]
        assert lease.hosts == ("H1", "H2")
        assert (lease.reserved_at, lease.expires_at) == (3.0, 3.0 + TTL)
        assert table.pending() == (lease,)
        assert table.get(lease.lease_id) is lease

    def test_a_refusal_on_a_later_proxy_undoes_the_earlier_ones(self):
        registry, proxies, table, _clock = build_rig()
        with pytest.raises(AdmissionError) as refusal:
            table.hold("s1", by_host({"cpu:H1": 30.0, "net:L1": 40.0, "cpu:H3": 101.0}))
        assert refusal.value.resource_id == "cpu:H3"
        registry.assert_quiescent()
        assert table.pending() == ()
        assert all(proxy.held_for("s1") == () for proxy in proxies.values())

    @pytest.mark.parametrize(
        "segments",
        [
            {"H1": {"cpu:H1": 10.0}, "H2": {"net:L1": -5.0}},
            {"H1": {"cpu:H1": 10.0}, "H3": {"cpu:H3": 0.0}},
            {"H1": {"cpu:H1": 10.0}, "H3": {"cpu:H3": math.nan}},
            {"H1": {"cpu:H1": 10.0}, "H3": {"cpu:H3": math.inf}},
            {"H1": {"cpu:H1": 10.0}, "H2": {"cpu:H3": 5.0}},  # unowned
            {"H1": {"cpu:H1": 10.0}, "H9": {"cpu:H3": 5.0}},  # no such proxy
        ],
    )
    def test_malformed_demands_are_refused_before_any_broker_is_touched(
        self, segments
    ):
        registry, _proxies, table, _clock = build_rig()
        log = EventLog()
        with event_logging(log), pytest.raises(BrokerError):
            table.hold("s1", segments)
        assert len(log) == 0  # not even a grant that was rolled back
        registry.assert_quiescent()
        assert table.pending() == ()

    def test_an_unexpected_exception_mid_hold_leaves_the_brokers_untouched(
        self, monkeypatch
    ):
        registry, _proxies, table, _clock = build_rig()

        def explode(amount, session_id):
            raise RuntimeError("broker backend went away")

        monkeypatch.setattr(registry.broker("cpu:H3"), "reserve", explode)
        with pytest.raises(RuntimeError, match="went away"):
            table.hold("s1", by_host({"cpu:H1": 30.0, "net:L1": 40.0, "cpu:H3": 5.0}))
        registry.assert_quiescent()
        assert table.pending() == ()

    def test_apply_segment_rolls_back_on_any_exception(self, monkeypatch):
        registry, proxies, _table, _clock = build_rig()
        proxies["H1"].own("net:L1")

        def explode(amount, session_id):
            raise RuntimeError("boom")

        monkeypatch.setattr(registry.broker("net:L1"), "reserve", explode)
        with pytest.raises(RuntimeError):
            proxies["H1"].apply_segment(
                PlanSegment("s1", "H1", {"cpu:H1": 10.0, "net:L1": 5.0})
            )
        registry.assert_quiescent()
        assert proxies["H1"].held_for("s1") == ()


class TestLifecycle:
    def test_commit_then_release_is_a_noop(self):
        registry, proxies, table, _clock = build_rig()
        lease = table.hold("s1", by_host({"cpu:H1": 30.0, "cpu:H3": 20.0}))
        assert table.commit(lease) is True
        assert table.commit(lease) is False
        assert table.release(lease) == 0
        # The reservations belong to the session now: teardown frees them.
        assert reserved(registry)["cpu:H1"] == 30.0
        assert sum(proxy.release_session("s1") for proxy in proxies.values()) == 2
        registry.assert_quiescent()

    def test_release_twice_releases_once(self):
        registry, _proxies, table, _clock = build_rig()
        lease = table.hold("s1", by_host({"cpu:H1": 30.0, "net:L1": 20.0}))
        assert table.release(lease) == 2
        assert table.release(lease) == 0
        registry.assert_quiescent()

    def test_release_spares_the_sessions_other_reservations(self):
        registry, _proxies, table, _clock = build_rig()
        kept = table.hold("s1", by_host({"cpu:H1": 30.0}))
        table.commit(kept)
        extra = table.hold("s1", by_host({"cpu:H1": 5.0}))
        assert table.release(extra) == 1
        assert reserved(registry)["cpu:H1"] == 30.0

    def test_reap_fires_at_exactly_expires_at_and_only_on_orphans(self):
        registry, _proxies, table, clock = build_rig()
        held = table.hold("s1", by_host({"cpu:H1": 10.0}))
        orphan = table.hold("s2", by_host({"cpu:H3": 10.0}))
        table.orphan(orphan)
        clock.now = math.nextafter(orphan.expires_at, -math.inf)
        assert table.reap() == []
        assert table.reap(now=orphan.expires_at - 1e-9) == []
        clock.now = orphan.expires_at
        assert table.reap() == [(orphan, 1)]
        assert table.reap() == []
        # A held lease is its holder's business however late it gets.
        clock.now = 1e9
        assert table.reap() == [] and table.pending() == (held,)
        assert reserved(registry) == {"cpu:H1": 10.0, "net:L1": 0.0, "cpu:H3": 0.0}

    def test_force_reaps_unexpired_orphans(self):
        registry, _proxies, table, _clock = build_rig()
        lease = table.hold("s1", by_host({"cpu:H1": 10.0, "net:L1": 5.0}))
        table.orphan(lease)
        assert table.reap() == []
        assert table.reap(force=True) == [(lease, 2)]
        registry.assert_quiescent()

    def test_commit_and_release_still_win_against_the_reaper(self):
        _registry, _proxies, table, clock = build_rig()
        first = table.hold("s1", by_host({"cpu:H1": 10.0}))
        second = table.hold("s1", by_host({"cpu:H3": 10.0}))
        table.orphan(first)
        table.orphan(second)
        table.commit(first)
        table.release(second)
        clock.now = 1e9
        assert table.reap() == []

    def test_drop_session_disarms_pending_orphans(self):
        registry, proxies, table, clock = build_rig()
        orphan = table.hold("s1", by_host({"cpu:H1": 10.0}))
        table.orphan(orphan)
        other = table.hold("s2", by_host({"cpu:H3": 10.0}))
        table.orphan(other)
        assert table.drop_session("s1") == 1
        assert sum(proxy.release_session("s1") for proxy in proxies.values()) == 1
        clock.now = 1e9
        assert table.reap() == [(other, 1)]  # s1's orphan is gone, not double-freed
        registry.assert_quiescent()


# -- the state machine -------------------------------------------------------

amounts = st.one_of(
    st.floats(min_value=1.0, max_value=70.0),
    st.sampled_from([-5.0, 0.0, math.nan, math.inf]),
)
demand_maps = st.dictionaries(st.sampled_from(sorted(OWNER)), amounts, min_size=1)


class LeaseMachine(RuleBasedStateMachine):
    """hold / commit / release / orphan / reap / teardown, interleaved.

    The model is the ledger the table promises: what the brokers hold is
    exactly the live leases plus what committed sessions own.
    """

    def __init__(self):
        super().__init__()
        self.registry, self.proxies, self.table, self.clock = build_rig()
        self.seen = []  # every lease ever held, live or not
        self.live = {}  # lease_id -> demands
        self.orphaned = set()
        self.committed = {}  # session_id -> [demands, ...]

    @rule(session=st.sampled_from(["a", "b", "c"]), demands=demand_maps)
    def hold(self, session, demands):
        malformed = any(not 0 < amount < math.inf for amount in demands.values())
        fits = not malformed and all(
            amount <= self.registry.broker(rid).available + 1e-9
            for rid, amount in demands.items()
        )
        before = reserved(self.registry)
        try:
            lease = self.table.hold(session, by_host(demands))
        except BrokerError as exc:  # AdmissionError is one too
            assert isinstance(exc, AdmissionError) != malformed
            assert not fits
            # reserve-then-undo is exact only up to float rounding
            assert reserved(self.registry) == pytest.approx(before, abs=1e-9)
            return
        assert fits
        self.seen.append(lease)
        self.live[lease.lease_id] = demands

    @precondition(lambda self: self.seen)
    @rule(index=st.integers(min_value=0))
    def commit(self, index):
        lease = self.seen[index % len(self.seen)]
        was_live = lease.lease_id in self.live
        assert self.table.commit(lease) is was_live
        if was_live:
            self.committed.setdefault(lease.session_id, []).append(
                self.live.pop(lease.lease_id)
            )
            self.orphaned.discard(lease.lease_id)

    @precondition(lambda self: self.seen)
    @rule(index=st.integers(min_value=0))
    def release(self, index):
        lease = self.seen[index % len(self.seen)]
        demands = self.live.pop(lease.lease_id, {})
        self.orphaned.discard(lease.lease_id)
        assert self.table.release(lease) == len(demands)

    @precondition(lambda self: self.seen)
    @rule(index=st.integers(min_value=0))
    def orphan(self, index):
        lease = self.seen[index % len(self.seen)]
        self.table.orphan(lease)
        if lease.lease_id in self.live:
            self.orphaned.add(lease.lease_id)

    @rule(delta=st.floats(min_value=0.0, max_value=TTL), force=st.booleans())
    def reap(self, delta, force):
        self.clock.now += delta
        due = {
            lease.lease_id
            for lease in self.seen
            if lease.lease_id in self.orphaned
            and (force or self.clock.now >= lease.expires_at)
        }
        reaped = self.table.reap(force=force)
        assert {lease.lease_id for lease, _ in reaped} == due
        for lease, released in reaped:
            assert released == len(self.live.pop(lease.lease_id))
            self.orphaned.discard(lease.lease_id)

    @rule(session=st.sampled_from(["a", "b", "c"]))
    def tear_session_down(self, session):
        dropped = [
            lease
            for lease in self.seen
            if lease.session_id == session and lease.lease_id in self.live
        ]
        assert self.table.drop_session(session) == len(dropped)
        for lease in dropped:
            del self.live[lease.lease_id]
            self.orphaned.discard(lease.lease_id)
        self.committed.pop(session, None)
        for proxy in self.proxies.values():
            proxy.release_session(session)

    @invariant()
    def brokers_hold_live_leases_plus_committed_sessions(self):
        expected = dict.fromkeys(OWNER, 0.0)
        ledgers = list(self.live.values())
        for per_session in self.committed.values():
            ledgers.extend(per_session)
        for demands in ledgers:
            for resource_id, amount in demands.items():
                expected[resource_id] += amount
        assert reserved(self.registry) == pytest.approx(expected, abs=1e-6)
        assert {lease.lease_id for lease in self.table.pending()} == set(self.live)

    def teardown(self):
        for lease in self.table.pending():
            self.table.release(lease)
        for session in ("a", "b", "c"):
            for proxy in self.proxies.values():
                proxy.release_session(session)
        self.registry.assert_quiescent()


TestLeaseMachine = LeaseMachine.TestCase
TestLeaseMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
