"""The daemon's live event plane: EventLog -> bounded subscriber queues.

:class:`repro.obs.events.EventLog` delivers every emitted event to its
subscribers *synchronously inside emit*; a WebSocket consumer on the
other end of a TCP connection can be arbitrarily slow.  The
:class:`EventPlane` decouples the two: one synchronous fan-out callback
pushes JSON-ready event dicts into a bounded :class:`asyncio.Queue` per
subscriber, and a slow consumer loses events *from its own queue only* --
admission processing and every other subscriber are unaffected.  An
event is rendered once per delivery round.  The callback is subscribed
to the log only while the plane has a subscriber, so an unwatched
daemon runs none of it; :attr:`EventPlane.events_seen` is read off the
log's ``seq`` watermark and counts every event either way.

Loss is never silent: once a subscriber's queue has room again, the next
delivery is preceded by a single ``stream.truncated`` marker carrying the
number of events that subscriber missed.  Every drop also increments
the ``service.events_dropped`` counter (labelled by why the queue had
no room) on the installed metrics registry, so slow consumers are
visible at ``/metrics`` without tailing any stream.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, Optional

from repro.obs import metrics as _metrics
from repro.obs.events import EventLog, ReservationEvent

__all__ = ["EventPlane", "EventSubscriber", "TRUNCATION_KIND"]

#: The marker kind injected into a slow subscriber's stream: it is
#: per-subscriber and says "events were emitted that *you* did not get".
TRUNCATION_KIND = "stream.truncated"

#: Bound of a subscriber's queue (the slow-consumer cutoff) unless the
#: subscription asks for another (``GET /v1/events?queue=N``).
SUBSCRIBER_QUEUE = 256

#: Sentinel closing a subscriber's stream (queued on detach/close).
_CLOSE = None


class EventSubscriber:
    """One consumer's bounded view of the event stream."""

    def __init__(self, subscriber_id: int, maxsize: int) -> None:
        self.subscriber_id = subscriber_id
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        #: Events dropped since the last delivered truncation marker.
        self.dropped = 0
        #: Total events dropped over the subscriber's lifetime.
        self.total_dropped = 0
        self.closed = False

    async def next_event(self) -> Optional[dict]:
        """The next event dict, or None once the stream is closed."""
        if self.closed and self.queue.empty():
            return None
        item = await self.queue.get()
        if item is _CLOSE:
            self.closed = True
            return None
        return item


class EventPlane:
    """Fans one :class:`EventLog` out to bounded per-subscriber queues."""

    def __init__(self) -> None:
        self._subscribers: Dict[int, EventSubscriber] = {}
        self._ids = itertools.count(1)
        self._log: Optional[EventLog] = None
        #: The attached log's seq watermark at attach, and the events
        #: seen over earlier attachments.
        self._attached_at = 0
        self._seen_before = 0

    # -- wiring ------------------------------------------------------------

    @property
    def events_seen(self) -> int:
        """Events fanned out (delivered, dropped or unwatched), for /v1/query."""
        if self._log is None:
            return self._seen_before
        return self._seen_before + self._log.next_seq - self._attached_at

    def attach(self, log: EventLog) -> None:
        """Start fanning out every event ``log`` emits."""
        if self._log is not None:
            raise RuntimeError("EventPlane is already attached to a log")
        self._log = log
        self._attached_at = log.next_seq
        if self._subscribers:
            log.subscribe(self._deliver)

    def detach(self) -> None:
        """Stop fanning out and close every subscriber's stream."""
        for subscriber in list(self._subscribers.values()):
            self.unsubscribe(subscriber)
        if self._log is not None:
            self._seen_before = self.events_seen
            self._log = None

    # -- subscriptions -----------------------------------------------------

    def subscribe(self, *, queue_size: Optional[int] = None) -> EventSubscriber:
        """A new subscriber receiving every event from now on."""
        subscriber = EventSubscriber(next(self._ids), queue_size or SUBSCRIBER_QUEUE)
        self._subscribers[subscriber.subscriber_id] = subscriber
        if self._log is not None:
            self._log.subscribe(self._deliver)  # idempotent
        return subscriber

    def unsubscribe(self, subscriber: EventSubscriber) -> None:
        """Close the subscriber's stream (idempotent)."""
        self._subscribers.pop(subscriber.subscriber_id, None)
        if not self._subscribers and self._log is not None:
            self._log.unsubscribe(self._deliver)
        if not subscriber.closed:
            subscriber.closed = True
            # Make sure the reader wakes up even on a full queue: drop
            # one pending event to make room for the close sentinel.
            try:
                subscriber.queue.put_nowait(_CLOSE)
            except asyncio.QueueFull:
                try:
                    subscriber.queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - racy branch
                    pass
                subscriber.queue.put_nowait(_CLOSE)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    # -- fan-out -----------------------------------------------------------

    def _deliver(self, event: ReservationEvent) -> None:
        """EventLog subscriber callback: runs inside ``emit``."""
        payload = event.to_dict()
        for subscriber in list(self._subscribers.values()):
            self._offer(subscriber, payload)

    def _offer(self, subscriber: EventSubscriber, payload: dict) -> None:
        queue = subscriber.queue
        if subscriber.dropped:
            # Recovery needs room for the marker *and* this event, or the
            # marker itself would immediately re-truncate the stream.
            if queue.maxsize - queue.qsize() < 2:
                self._count_drop(subscriber, "recovery_room")
                return
            queue.put_nowait(
                {
                    "kind": TRUNCATION_KIND,
                    "dropped": subscriber.dropped,
                    "resume_seq": payload.get("seq"),
                }
            )
            subscriber.dropped = 0
        try:
            queue.put_nowait(payload)
        except asyncio.QueueFull:
            self._count_drop(subscriber, "queue_full")

    @staticmethod
    def _count_drop(subscriber: EventSubscriber, reason: str) -> None:
        subscriber.dropped += 1
        subscriber.total_dropped += 1
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("service.events_dropped", reason=reason).inc()
