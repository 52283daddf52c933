"""Long-lived reservation service: daemon, client, load generator.

Wraps :class:`~repro.runtime.coordinator.ReservationCoordinator` behind
a network admission API so the paper's
three-phase protocol can be exercised by real concurrent clients instead
of a single in-process driver:

* :mod:`repro.service.daemon` -- the asyncio daemon (``repro-serve``)
  and its transport-free route table.
* :mod:`repro.service.server` -- the HTTP/1.1 serving shell the daemon
  and the cluster router both run in.
* :mod:`repro.service.client` -- the asyncio reference client.
* :mod:`repro.service.loadgen` -- open-loop WorkloadSpec replay against
  a live daemon.
* :mod:`repro.service.http` -- the stdlib HTTP/1.1 codec both sides
  share.

The package imports nothing at import time: ``python -m
repro.service.cli`` runs this file before the CLI's ``main()`` keeps
``ssl`` out of the process, and the daemon's modules import asyncio.
"""

#: Public names, resolved lazily (PEP 562) from the submodule that
#: defines them.
_EXPORTS = {
    "DaemonConfig": "repro.service.daemon",
    "ReservationDaemon": "repro.service.daemon",
    "ReservationService": "repro.service.daemon",
    "ServiceClient": "repro.service.client",
    "ServiceClientError": "repro.service.client",
    "ServiceDrainingError": "repro.service.client",
    "ServiceResponse": "repro.service.client",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
