"""Property: no race of cross-shard admissions against shard failure leaks.

Hypothesis generates schedules of concurrent establishments, teardowns,
drains, un-drains, lost-ack crashes, lost replies from shards that
stay up (to a reserve, which carries its commit, or a teardown),
replies of the wrong shape (to an availability, reserve or teardown
call the shard applied), refused reserves, requests still in flight
when the router gives up on them and delivered late, and anti-entropy
passes,
against a 2- or 3-shard cluster of in-process shard services,
interleaved on the event loop exactly as HTTP requests interleave on
the wire.  After every step each shard's broker and proxy books must
agree (capacity conservation), and every slice a shard holds committed
must be one the router holds or owes a teardown (cross-tier
reconciliation); after the schedule -- once crashed shards restart,
live sessions tear down, the anti-entropy pass runs, requests still in
flight land, and the TTL reaper collects stranded leases --
every shard must be fully quiescent and the merged per-shard event logs
must reconcile with zero violations: nothing leaked, nothing
double-granted, every refused round rolled back to zero.  (The router
sends no ``/v1/commit`` and no ``/v1/abort``: a fault armed on them
would never fire.)
"""

import asyncio

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.invariants import (
    capacity_conservation,
    reconcile_shard_events,
)
from repro.cluster import ClusterCoordinator

from tests.test_cluster import assert_tiers_agree, make_local_shards
from tests.test_service_daemon import VALID_PAIRS

pair_indexes = st.integers(min_value=0, max_value=len(VALID_PAIRS) - 1)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("establish"), pair_indexes),
        st.tuples(st.just("teardown"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("drain"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("undrain"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("crash"), st.integers(min_value=0, max_value=2)),
        st.tuples(
            st.just("lose_reply"),
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.sampled_from(["/v1/reserve", "/v1/teardown"]),
            ),
        ),
        st.tuples(
            st.just("hold"),
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.sampled_from(["/v1/reserve", "/v1/teardown"]),
            ),
        ),
        st.tuples(st.just("deliver"), st.integers(min_value=0, max_value=2)),
        st.tuples(
            st.just("refuse"),
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.just("/v1/reserve"),
            ),
        ),
        st.tuples(st.just("flush"), st.just(None)),
        st.tuples(
            st.just("garble"),
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.sampled_from(["/v1/availability", "/v1/reserve", "/v1/teardown"]),
            ),
        ),
        st.tuples(st.just("race"), st.lists(pair_indexes, min_size=2, max_size=4)),
    ),
    min_size=1,
    max_size=12,
)


def _assert_books_agree(shards):
    for shard in shards:
        report = capacity_conservation(
            shard.service.grid.registry, shard.service.grid.proxies
        )
        assert report.ok, f"{shard.label}: {report.describe()}"


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(shard_count=st.integers(min_value=2, max_value=3), schedule=operations)
def test_racing_admissions_and_failures_never_leak(shard_count, schedule):
    async def scenario():
        shards = make_local_shards(shard_count)
        coordinator = ClusterCoordinator(shards, seed=7)
        sid = 0
        established = []

        async def establish(pair_index):
            nonlocal sid
            sid += 1
            service_name, domain = VALID_PAIRS[pair_index]
            session_id = f"p-{sid}"
            status, body = await coordinator.establish(
                {
                    "service": service_name,
                    "domain": domain,
                    "session_id": session_id,
                }
            )
            assert status == 200
            import json as _json

            if _json.loads(body)["success"]:
                established.append(session_id)

        for op, arg in schedule:
            if op == "establish":
                await establish(arg)
            elif op == "teardown":
                if established:
                    await coordinator.teardown(
                        {"session_id": established.pop(arg % len(established))}
                    )
            elif op == "drain":
                shards[arg % shard_count].draining = True
            elif op == "undrain":
                shards[arg % shard_count].draining = False
            elif op == "crash":
                shards[arg % shard_count].crash_on_next_reserve = True
            elif op == "lose_reply":
                shard_index, path = arg
                shards[shard_index % shard_count].lose_next_reply = path
            elif op == "garble":
                shard_index, path = arg
                shards[shard_index % shard_count].garble_next_reply = (path, b"[]")
            elif op == "hold":
                shard_index, path = arg
                shards[shard_index % shard_count].hold_next_request = path
            elif op == "deliver":
                shard = shards[arg % shard_count]
                if shard.held is not None:
                    shard.deliver_held()
            elif op == "refuse":
                shard_index, path = arg
                shards[shard_index % shard_count].refuse_next_request = path
            elif op == "flush":
                await coordinator.flush_pending_teardowns()
            elif op == "race":
                await asyncio.gather(*(establish(p) for p in arg))
            _assert_books_agree(shards)
            assert_tiers_agree(coordinator, shards)

        # Recovery: crashed shards come back, every session tears down,
        # the anti-entropy pass settles teardowns owed to shards that
        # were unreachable when the router tore the session down, the
        # requests still in flight land after it, and the reaper
        # collects whatever leases the failures stranded.
        for shard in shards:
            shard.crashed = False
            shard.crash_on_next_reserve = False
            shard.lose_next_reply = None
            shard.garble_next_reply = None
            shard.hold_next_request = None
            shard.refuse_next_request = None
            shard.draining = False
        for session_id in list(established):
            await coordinator.teardown({"session_id": session_id})
        await coordinator.flush_pending_teardowns()
        assert not coordinator.pending_teardowns
        for shard in shards:
            if shard.held is not None:
                shard.deliver_held()
        for shard in shards:
            await shard.reap(now=float("inf"))
        assert_tiers_agree(coordinator, shards)
        for shard in shards:
            assert not shard.service.leases.pending(), shard.label
            report = capacity_conservation(
                shard.service.grid.registry, shard.service.grid.proxies
            )
            assert report.ok, f"{shard.label}: {report.describe()}"
            # Quiescence: with every session gone, nothing stays held.
            for host, proxy in shard.service.grid.proxies.items():
                held = getattr(proxy, "_held", {})
                for session_id, reservations in held.items():
                    assert not reservations, (shard.label, host, session_id)

        merged = reconcile_shard_events(
            {shard.label: list(shard.log) for shard in shards}
        )
        assert merged.ok, merged.describe()
        # Quiescent books: no shard keeps a positive net balance.
        for label, per_resource in merged.outstanding.items():
            assert not per_resource, (label, per_resource)

    asyncio.run(scenario())
