"""Request-scoped trace contexts: parsing, propagation, and stamping.

The W3C-style ``traceparent`` parser must be lenient (malformed input is
a *fresh root*, never an error), the contextvar plumbing must isolate
concurrent asyncio tasks, and the automatic stamping must put the bound
trace id on every span and event recorded while the context is live --
and on nothing recorded outside it.
"""

import asyncio

import pytest

from repro.obs import context as obs_context
from repro.obs.context import (
    TraceContext,
    bind_trace_context,
    child_context,
    current_trace_context,
    new_trace_context,
    parse_traceparent,
    reset_trace_context,
    trace_context,
)
from repro.obs.events import EventLog
from repro.obs.trace import Tracer

# ---------------------------------------------------------------------------
# traceparent parsing


def test_new_context_roundtrips_through_traceparent():
    root = new_trace_context(request_id="req-1")
    assert len(root.trace_id) == 32 and len(root.span_id) == 16
    parsed = parse_traceparent(root.traceparent())
    assert parsed is not None
    assert parsed.trace_id == root.trace_id
    assert parsed.parent_id == root.span_id
    # The continuation gets its own span id.
    assert parsed.span_id != root.span_id


def test_child_context_stays_in_trace():
    root = new_trace_context(request_id="req-2")
    child = child_context(root, request_id=root.request_id)
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.span_id != root.span_id
    assert child.request_id == "req-2"


@pytest.mark.parametrize(
    "header",
    [
        None,
        "",
        "garbage",
        "00-abc-def",  # too few parts
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero parent id
        "00-" + "a" * 31 + "-" + "1" * 16 + "-01",  # short trace id
        "00-" + "g" * 32 + "-" + "1" * 16 + "-01",  # non-hex trace id
        "ff-" + "a" * 32 + "-" + "1" * 16 + "-01",  # forbidden version
        "zz-" + "a" * 32 + "-" + "1" * 16 + "-01",  # non-hex version
        "00-" + "a" * 32 + "-" + "1" * 16 + "-0g",  # non-hex flags
        "00-" + "a" * 32 + "-" + "1" * 16,  # truncated (no flags)
        42,  # not a string at all
    ],
)
def test_malformed_traceparent_parses_to_none(header):
    assert parse_traceparent(header) is None


def test_future_version_still_parses():
    # Per W3C, unknown (non-ff) versions parse with best effort.
    header = "01-" + "a" * 32 + "-" + "b" * 16 + "-00"
    parsed = parse_traceparent(header)
    assert parsed is not None and parsed.trace_id == "a" * 32


# ---------------------------------------------------------------------------
# binding


def test_bind_and_reset():
    assert current_trace_context() is None
    context = new_trace_context(request_id="r")
    token = bind_trace_context(context)
    try:
        assert current_trace_context() is context
    finally:
        reset_trace_context(token)
    assert current_trace_context() is None


def test_context_manager_binds_for_the_block():
    context = new_trace_context()
    with trace_context(context):
        assert current_trace_context() is context
    assert current_trace_context() is None


def test_concurrent_tasks_see_their_own_context():
    async def scenario():
        seen = {}

        async def worker(name):
            with trace_context(new_trace_context(request_id=name)):
                await asyncio.sleep(0.001)
                seen[name] = current_trace_context().request_id
                await asyncio.sleep(0.001)

        await asyncio.gather(*(worker(f"task-{i}") for i in range(8)))
        assert seen == {f"task-{i}": f"task-{i}" for i in range(8)}

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# stamping


def test_spans_and_events_stamp_the_bound_context():
    tracer = Tracer()
    log = EventLog()
    context = new_trace_context(request_id="req-9")
    with trace_context(context):
        with tracer.span("inside"):
            pass
        log.emit("session.admitted", session="s-1")
    with tracer.span("outside"):
        pass
    log.emit("session.planned", session="s-1")

    inside, outside = tracer.records
    assert inside.trace_id == context.trace_id
    assert inside.request_id == "req-9"
    assert outside.trace_id is None and outside.request_id is None

    stamped, unstamped = list(log)
    assert stamped.trace_id == context.trace_id
    assert stamped.request_id == "req-9"
    assert unstamped.trace_id is None

    # Serialized form only grows keys when stamped: v1-v3 documents from
    # un-contexted runs stay byte-identical.
    assert "trace_id" in stamped.to_dict()
    assert "trace_id" not in unstamped.to_dict()
    assert "trace_id" in inside.to_dict()
    assert "trace_id" not in outside.to_dict()


def test_tracer_ring_keeps_only_recent_spans():
    tracer = Tracer(capacity=4)
    for i in range(10):
        with tracer.span(f"s{i}"):
            pass
    assert [r.name for r in tracer.records] == ["s6", "s7", "s8", "s9"]


def test_records_for_trace_filters_by_id():
    tracer = Tracer()
    a, b = new_trace_context(), new_trace_context()
    for context in (a, b, a):
        with trace_context(context):
            with tracer.span("op"):
                pass
    assert len(tracer.records_for_trace(a.trace_id)) == 2
    assert len(tracer.records_for_trace(b.trace_id)) == 1


def test_headers_are_lowercase_wire_names():
    assert obs_context.TRACEPARENT_HEADER == "traceparent"
    assert obs_context.REQUEST_ID_HEADER == "x-request-id"
