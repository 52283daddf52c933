"""Long-lived reservation service: daemon, client, event plane, load gen.

Wraps :class:`~repro.runtime.coordinator.ReservationCoordinator` (or its
fault-tolerant variant) behind a network admission API so the paper's
three-phase protocol can be exercised by real concurrent clients instead
of a single in-process driver:

* :mod:`repro.service.daemon` -- the asyncio daemon (``repro-serve``)
  and its transport-free route table.
* :mod:`repro.service.server` -- the HTTP/1.1 serving shell the daemon
  and the cluster router both run in.
* :mod:`repro.service.client` -- the asyncio reference client.
* :mod:`repro.service.events` -- EventLog fan-out with bounded
  per-subscriber queues and ``stream.truncated`` loss markers.
* :mod:`repro.service.loadgen` -- open-loop WorkloadSpec replay feeding
  the ``BENCH_service_load`` ledger.
* :mod:`repro.service.http` -- the stdlib HTTP/1.1 + RFC 6455 plumbing
  both sides share.
"""

from repro.service.client import (
    ServiceClient,
    ServiceClientError,
    ServiceDrainingError,
    ServiceResponse,
)
from repro.service.daemon import (
    DaemonConfig,
    ReservationDaemon,
    ReservationService,
    ServiceError,
)
from repro.service.events import TRUNCATION_KIND, EventPlane, EventSubscriber
from repro.service.loadgen import LoadGenConfig, LoadReport, run_load

__all__ = [
    "DaemonConfig",
    "EventPlane",
    "EventSubscriber",
    "LoadGenConfig",
    "LoadReport",
    "ReservationDaemon",
    "ReservationService",
    "ServiceClient",
    "ServiceClientError",
    "ServiceDrainingError",
    "ServiceError",
    "ServiceResponse",
    "TRUNCATION_KIND",
    "run_load",
]
