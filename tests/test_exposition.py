"""The live ``/metrics`` render: the same text as the document render, label
values kept whole, and series in the registry's one order.

:func:`registry_exposition` walks a live registry's series and renders
each series' head once; :func:`snapshot_exposition` renders a trace
document's snapshot dict.  For every registry whose label values avoid
``,``, ``=`` and ``}`` -- the characters a snapshot key cannot carry --
the two must agree byte for byte, scrape after scrape, while series are
still being created.  Hypothesis runs derandomized, so a failure replays.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterCoordinator, LocalShardClient
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, format_labels
from repro.obs.prom import (
    parse_exposition,
    registry_exposition,
    snapshot_exposition,
    split_series_key,
)
from repro.service import DaemonConfig, ReservationService

#: Instrument names, two pairs of which sanitise to one metric
#: (``a.b``/``a_b``; counter ``x`` and counter ``x_total``).
NAMES = ["a.b", "a_b", "x", "x_total", "link-load", "9lives", "h.lat"]

#: Every escape the format defines, plus characters the key carries as is.
LABEL_TEXT = st.lists(
    st.sampled_from(["a", "L1", "L10", " ", '"', "\\", "\n", ":", "{", ".", "é"]),
    max_size=4,
).map("".join)
LABELS = st.dictionaries(
    st.sampled_from(["resource", "outcome", "phase", "le"]), LABEL_TEXT, max_size=2
)
VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
BUCKETS = st.sampled_from([(0.001, 0.01, 0.1, 1.0), (1.0,), (0.5, 2.0, 1e6)])
#: Observations: finite buckets, and 5.0 / 1e7 land in the overflow bucket.
OBSERVED = st.sampled_from([0.0005, 0.05, 0.5, 5.0, 1e7])

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("counter"), st.sampled_from(NAMES), LABELS,
                  st.floats(min_value=0, max_value=1e9)),
        st.tuples(st.just("gauge"), st.sampled_from(NAMES), LABELS, VALUES),
        st.tuples(st.just("histogram"), st.sampled_from(NAMES), LABELS,
                  st.tuples(BUCKETS, OBSERVED, st.one_of(st.none(), st.just("t-1"),
                                                         st.just("t-2")))),
        st.just(("scrape",)),
    ),
    max_size=30,
)

#: One of each awkward case the equivalence must cover.
AWKWARD = [
    ("gauge", "edge.pos", {"kind": "p"}, math.inf),
    ("gauge", "edge.neg", {}, -math.inf),
    ("gauge", "edge.nan", {}, math.nan),
    ("counter", "x", {"outcome": 'quoted "q" \\back\\ and\nnewline'}, 3.0),
    ("scrape",),
    ("counter", "x_total", {}, 2.0),
    ("counter", "a.b", {}, 1.0),
    ("counter", "a_b", {"resource": "L1"}, 1.0),
    ("histogram", "h.lat", {"phase": "plan"}, ((0.001, 0.01, 0.1, 1.0), 5.0, "t-over")),
    ("histogram", "h.lat", {"phase": "plan"}, ((0.001, 0.01, 0.1, 1.0), 0.5, "t-last")),
    ("scrape",),
]


def _apply(registry, operation):
    kind, name, labels, argument = operation
    if kind == "counter":
        registry.counter(name, **labels).inc(argument)
    elif kind == "gauge":
        registry.gauge(name, **labels).set(argument)
    else:
        buckets, value, exemplar = argument
        registry.histogram(name, buckets=buckets, **labels).observe(value, exemplar=exemplar)


def _document_render(registry):
    exemplars = {
        name + format_labels(labels): dict(histogram.exemplars)
        for kind, name, labels, histogram in registry.series()
        if kind == "histogram" and histogram.exemplars
    }
    return snapshot_exposition(registry.snapshot(), exemplars=exemplars)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(operations=OPERATIONS)
@example(operations=AWKWARD)
def test_live_render_equals_document_render(operations):
    registry = MetricsRegistry()
    for operation in operations + [("scrape",)]:
        if operation[0] == "scrape":
            assert registry_exposition(registry) == _document_render(registry)
        else:
            _apply(registry, operation)


def test_awkward_example_covers_each_case():
    registry = MetricsRegistry()
    for operation in AWKWARD:
        if operation[0] != "scrape":
            _apply(registry, operation)
    text = registry_exposition(registry)
    lines = text.splitlines()
    for spelling in ("+Inf", "-Inf", "NaN"):
        assert any(line.endswith(" " + spelling) for line in lines if "edge" in line)
    assert '\\"q\\" \\\\back\\\\ and\\nnewline' in text
    assert "# EXEMPLAR repro_h_lat_bucket{le=\"1\",phase=\"plan\"} trace_id=t-last" in text
    assert "# EXEMPLAR repro_h_lat_bucket{le=\"+Inf\",phase=\"plan\"} trace_id=t-over" in text
    # counters x and x_total are one metric; so are a.b and a_b
    assert lines.count("# TYPE repro_x_total counter") == 1
    assert lines.count("# TYPE repro_a_b_total counter") == 1
    assert text == _document_render(registry)


def _ordered(registry):
    return [(kind, name, labels) for kind, name, labels, _ in registry.series()]


def test_series_created_after_a_scrape_lands_at_its_sorted_position():
    registry = MetricsRegistry()
    registry.counter("broker.grants", resource="link:L10").inc()
    registry.gauge("broker.utilization", resource="link:L10").set(0.5)
    first = registry_exposition(registry)
    registry.counter("broker.grants", resource="link:L1").inc(2)
    registry.counter("broker.denials", resource="link:L1").inc()
    second = registry_exposition(registry)
    assert second != first
    assert second.splitlines()[:6] == [
        "# TYPE repro_broker_denials_total counter",
        'repro_broker_denials_total{resource="link:L1"} 1.0',
        "# TYPE repro_broker_grants_total counter",
        # The string key sorts "{resource=link:L10}" before "...L1}".
        'repro_broker_grants_total{resource="link:L10"} 1.0',
        'repro_broker_grants_total{resource="link:L1"} 2.0',
        "# TYPE repro_broker_utilization gauge",
    ]
    assert second == _document_render(registry)

    # Every reader lists the series in the order the scrape renders them.
    order = _ordered(registry)
    assert [(kind, name, dict(labels)) for kind, name, labels in order] == (
        [("counter", n, l) for n, l, _ in registry.iter_counters()]
        + [("gauge", n, l) for n, l, _ in registry.iter_gauges()]
        + [("histogram", n, l) for n, l, _ in registry.iter_histograms()]
    )
    assert [name + format_labels(labels) for _, name, labels in order] == [
        key for section in registry.snapshot().values() for key in section
    ]
    assert [(kind, name, format_labels(labels)) for kind, name, labels in order] == [
        row[:3] for row in registry.rows()
    ]
    parsed = parse_exposition(second)
    assert [split_series_key(key)[1] for key in [*parsed.counters, *parsed.gauges]] == [
        dict(labels) for _, _, labels in order
    ]


def test_the_order_is_kept_until_a_series_is_created():
    registry = MetricsRegistry()
    registry.counter("a", resource="r").inc()
    kept = registry.series()
    registry.counter("a", resource="r").inc()  # an existing series
    assert registry.series() is kept
    registry.histogram("h")
    assert registry.series() is not kept
    assert _ordered(registry) == [("counter", "a", (("resource", "r"),)),
                                  ("histogram", "h", ())]


AWKWARD_VALUE = "a,b=c}"


def _label_survives_the_scrape(registry, render):
    registry.counter("cluster.rejects", reason=AWKWARD_VALUE).inc()
    parsed = parse_exposition(render())
    reasons = [
        split_series_key(key)[1]
        for key in parsed.counters
        if key.startswith("repro_cluster_rejects_total")
    ]
    assert reasons == [{"reason": AWKWARD_VALUE}]


def test_a_label_value_with_key_separators_survives_a_daemon_scrape():
    service = ReservationService(DaemonConfig(seed=11))
    _label_survives_the_scrape(service.registry, service.metrics_exposition)


def test_a_label_value_with_key_separators_survives_a_router_scrape():
    shard = LocalShardClient(0, ReservationService(DaemonConfig(seed=11)), log=EventLog())
    coordinator = ClusterCoordinator([shard], seed=11)
    _label_survives_the_scrape(coordinator.registry, coordinator.metrics_exposition)
