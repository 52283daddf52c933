"""Property-based tests (hypothesis) on core data structures & invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.brokers import LocalResourceBroker
from repro.core import (
    AvailabilitySnapshot,
    BasicPlanner,
    QoSVector,
    ResourceVector,
    build_qrg,
    enumerate_paths,
    minimax_dijkstra,
    path_bottleneck,
)
from repro.core.errors import AdmissionError
from repro.core.synthetic import random_availability, synthetic_chain
from repro.sim.services import _compress_values

# -- strategies ---------------------------------------------------------

param_names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4), min_size=1, max_size=4, unique=True
)
values = st.integers(min_value=0, max_value=100)


@st.composite
def qos_vector_pairs(draw):
    names = draw(param_names)
    a = QoSVector({n: draw(values) for n in names})
    b = QoSVector({n: draw(values) for n in names})
    return a, b


@st.composite
def resource_vectors(draw):
    names = draw(param_names)
    return ResourceVector({n: float(draw(st.integers(0, 1000))) for n in names})


class TestPartialOrderLaws:
    @given(qos_vector_pairs())
    def test_reflexive(self, pair):
        a, _b = pair
        assert a <= a and a >= a

    @given(qos_vector_pairs())
    def test_antisymmetric(self, pair):
        a, b = pair
        if a <= b and b <= a:
            assert a == b

    @given(qos_vector_pairs(), values)
    def test_transitive(self, pair, bump):
        a, b = pair
        if a <= b:
            c = QoSVector({k: v + bump for k, v in b.items()})
            assert a <= c

    @given(qos_vector_pairs())
    def test_strict_order_consistency(self, pair):
        a, b = pair
        assert (a < b) == (a <= b and a != b)
        assert (a > b) == (b < a)


class TestResourceVectorLaws:
    @given(resource_vectors(), st.floats(min_value=0.1, max_value=100.0))
    def test_scaling_preserves_order(self, vector, factor):
        scaled = vector.scaled(factor)
        for name in vector:
            assert scaled[name] == pytest.approx(vector[name] * factor)

    @given(resource_vectors())
    def test_merged_sum_commutes(self, vector):
        other = ResourceVector({next(iter(vector)): 5.0})
        assert vector.merged_sum(other) == other.merged_sum(vector)

    @given(resource_vectors())
    def test_contention_bottleneck_is_argmax(self, vector):
        availability = {name: 1000.0 for name in vector}
        report = vector.contention(availability)
        assert report.psi == max(report.per_resource.values())
        assert report.per_resource[report.bottleneck_resource] == report.psi


class TestMinimaxOptimality:
    """The paper's central claim: the selected path minimises the
    bottleneck contention index among all feasible paths to the sink."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10_000))
    def test_planner_on_random_chain_services(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        q = int(rng.integers(2, 4))
        service, binding, snapshot = synthetic_chain(k, q, rng=rng, density=0.7)
        snapshot = random_availability(snapshot, rng, low=2.0, high=50.0)
        qrg = build_qrg(service, binding, snapshot)
        plan = BasicPlanner().plan(qrg)
        reachable = {}
        for sink in qrg.sink_nodes():
            paths = enumerate_paths(qrg.source_node, sink, qrg.successors)
            if paths:
                reachable[sink.label] = min(path_bottleneck(p) for p in paths)
        if plan is None:
            assert reachable == {}
            return
        # best reachable sink by ranking
        best = service.ranking.best(reachable)
        assert plan.end_to_end_label == best
        assert plan.psi == pytest.approx(reachable[best])
        # and every edge in the plan was feasible at snapshot time
        availability = snapshot.availability()
        for assignment in plan.assignments:
            assert assignment.bound.satisfiable_under(availability)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_minimax_distance_is_monotone_prefix(self, seed):
        """Along the chosen path, Dijkstra distances never decrease."""
        rng = np.random.default_rng(seed)
        service, binding, snapshot = synthetic_chain(3, 3, rng=rng)
        snapshot = random_availability(snapshot, rng, low=2.0, high=50.0)
        qrg = build_qrg(service, binding, snapshot)
        result = minimax_dijkstra(qrg.source_node, qrg.successors)
        for sink in qrg.sink_nodes():
            if not result.reachable(sink):
                continue
            path = result.path_to(sink)
            distances = [result.distance[node] for node in path]
            assert distances == sorted(distances)


class TestBrokerAccountingLaws:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["reserve", "release"]), st.floats(1.0, 40.0)),
            min_size=1,
            max_size=30,
        )
    )
    def test_reserve_release_never_corrupts_accounting(self, operations):
        broker = LocalResourceBroker("H1", "cpu", 100.0)
        held = []
        for op, amount in operations:
            if op == "reserve":
                try:
                    held.append(broker.reserve(amount, "s"))
                except AdmissionError:
                    pass
            elif held:
                broker.release(held.pop())
            assert 0.0 <= broker.reserved <= broker.capacity + 1e-9
            assert broker.available + broker.reserved == pytest.approx(broker.capacity)
            assert broker.outstanding() == len(held)
        for reservation in held:
            broker.release(reservation)
        assert broker.available == pytest.approx(100.0)


class TestCompressionLaws:
    @settings(max_examples=60)
    @given(
        st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=1, max_size=12),
        st.floats(min_value=1.0, max_value=10.0),
    )
    def test_compress_preserves_mean_and_caps_ratio(self, values_list, ratio):
        compressed = _compress_values(values_list, ratio)
        assert sum(compressed) / len(compressed) == pytest.approx(
            sum(values_list) / len(values_list)
        )
        if len(compressed) > 1 and min(compressed) > 0:
            assert max(compressed) / min(compressed) <= ratio + 1e-9

    @settings(max_examples=60)
    @given(
        st.lists(
            st.floats(min_value=0.5, max_value=100.0), min_size=2, max_size=12, unique=True
        )
    )
    def test_compress_preserves_rank_order(self, values_list):
        compressed = _compress_values(values_list, 3.0)
        original_order = sorted(range(len(values_list)), key=lambda i: values_list[i])
        new_order = sorted(range(len(compressed)), key=lambda i: compressed[i])
        assert original_order == new_order


class TestTradeoffPolicyLaws:
    """Hypothesis checks of the §4.3.1 policy over random services."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(min_value=0.05, max_value=1.5))
    def test_tradeoff_rank_and_budget_laws(self, seed, alpha):
        from repro.core import BasicPlanner, TradeoffPlanner, sink_report
        from repro.core.resources import ResourceObservation

        rng = np.random.default_rng(seed)
        service, binding, snapshot = synthetic_chain(3, 3, rng=rng)
        amounts = {rid: float(rng.uniform(5.0, 60.0)) for rid in snapshot}
        observations = {
            rid: ResourceObservation(available=amount, alpha=alpha)
            for rid, amount in amounts.items()
        }
        qrg = build_qrg(service, binding, AvailabilitySnapshot(observations))
        basic_plan = BasicPlanner().plan(qrg)
        tradeoff_plan = TradeoffPlanner().plan(qrg)
        if basic_plan is None:
            assert tradeoff_plan is None
            return
        assert tradeoff_plan is not None
        # law 1: tradeoff never claims a better level than basic
        assert tradeoff_plan.end_to_end_rank >= basic_plan.end_to_end_rank
        if alpha >= 1.0:
            # law 2: with no downtrend, the choices coincide
            assert tradeoff_plan.end_to_end_label == basic_plan.end_to_end_label
            assert tradeoff_plan.psi == pytest.approx(basic_plan.psi)
        else:
            # law 3: the choice satisfies the budget, or is the most
            # conservative reachable sink (documented fallback)
            budget = alpha * basic_plan.psi
            rows = sink_report(qrg)
            min_psi = min(psi for _label, psi, _alpha in rows)
            assert (
                tradeoff_plan.psi <= budget + 1e-9
                or tradeoff_plan.psi == pytest.approx(min_psi)
            )


class TestMonotoneIndexInvariance:
    """Basic plans are invariant under monotone transforms of req/avail.

    The paper's footnote 2 allows alternative psi definitions; for the
    basic algorithm, any definition that is a strictly increasing
    function of the utilisation ratio produces identical plans, because
    per-edge argmaxes and path-max comparisons are order-preserved.
    """

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_plans_identical_across_monotone_indices(self, seed):
        from repro.core import headroom_contention_index, log_contention_index

        rng = np.random.default_rng(seed)
        service, binding, snapshot = synthetic_chain(3, 3, rng=rng)
        snapshot = random_availability(snapshot, rng, low=5.0, high=60.0)
        plans = []
        for index in (None, headroom_contention_index, log_contention_index):
            kwargs = {} if index is None else {"contention_index": index}
            qrg = build_qrg(service, binding, snapshot, **kwargs)
            plans.append(BasicPlanner().plan(qrg))
        if plans[0] is None:
            assert all(plan is None for plan in plans)
            return
        signatures = {plan.signature_string() for plan in plans}
        assert len(signatures) == 1, signatures
        labels = {plan.end_to_end_label for plan in plans}
        assert len(labels) == 1


#: A §5.1 arrival script through the in-process coordinator, every
#: session live for a 256-arrival window; prints the decision digest.
_DECISION_DIGEST_SCRIPT = """
import hashlib, itertools, sys
from repro.core.planner import BasicPlanner
from repro.core.tradeoff import TradeoffPlanner
from repro.des.engine import Environment
from repro.des.rng import RandomStreams
from repro.sim.environment import GridEnvironment
from repro.sim.workload import WorkloadGenerator, WorkloadSpec

WINDOW = 256
planner = {"basic": BasicPlanner, "tradeoff": TradeoffPlanner}[sys.argv[1]]()
env = Environment()
grid = GridEnvironment(env, RandomStreams(11))
spec = WorkloadSpec(rate_per_60tu=80.0, horizon=1e12)
arrivals = list(itertools.islice(WorkloadGenerator(spec, RandomStreams(7)).generate(), 300))
digest, admitted = hashlib.sha256(), []
for index, arrival in enumerate(arrivals):
    env.run(until=arrival.arrival_time)
    result = grid.coordinator.establish(
        arrival.session_id,
        arrival.service,
        grid.binding_for(arrival.service, arrival.domain),
        planner,
        component_hosts=grid.component_hosts_for(arrival.service, arrival.domain),
        demand_scale=arrival.demand_scale,
    )
    plan = result.plan if result.success else None
    row = (
        arrival.session_id,
        result.success,
        result.qos_level,
        plan and plan.psi,
        plan and plan.path_signature,
        plan and plan.bottleneck_resource,
    )
    digest.update(repr(row).encode())
    admitted.append(result.success)
    if index >= WINDOW and admitted[index - WINDOW]:
        grid.coordinator.teardown(arrivals[index - WINDOW].session_id)
print(digest.hexdigest(), sum(admitted))
"""


class TestDecisionsIgnoreTheHashSeed:
    """QRG nodes are hashed everywhere (adjacency, planner maps, the
    search's settled set); string hashes change with ``PYTHONHASHSEED``,
    so a decision that leaned on set or dict *order* would change too."""

    @pytest.mark.parametrize("algorithm", ["basic", "tradeoff"])
    def test_digest_is_equal_under_two_hash_seeds(self, algorithm):
        import subprocess
        import sys

        from tests.test_examples import subprocess_env

        outputs = []
        for hash_seed in ("0", "12345"):
            completed = subprocess.run(
                [sys.executable, "-c", _DECISION_DIGEST_SCRIPT, algorithm],
                capture_output=True,
                text=True,
                timeout=300,
                env={**subprocess_env(), "PYTHONHASHSEED": hash_seed},
            )
            assert completed.returncode == 0, completed.stderr
            outputs.append(completed.stdout.split())
        assert outputs[0] == outputs[1]
        assert 0 < int(outputs[0][1]) <= 300
