"""The monitoring plane's output, pinned.

The §5 adaptation loop's estimators, drift detectors and renegotiation
policy run on constants (EWMA smoothing, the online alpha's window, the
rejection-rate window, the digest cadence, the renegotiation budget,
cooldown and queue bound).  These tests pin what the plane produces on
CI's monitor-smoke run -- its ``monitor_stats`` and the
``broker.observed`` / ``session.drift`` / ``session.renegotiated``
events it emits -- as sha256 digests, live with adaptation on and off,
and replayed offline over the detect-only run's log at two drift
thresholds.  A change to any estimator, detection or renegotiation
fails here.
"""

import hashlib
import json

import pytest

from repro.obs import ObservabilityConfig
from repro.obs.monitor import MONITOR_EVENT_KINDS, MonitorConfig, replay_events
from repro.sim import SimulationConfig, WorkloadSpec, run_simulation

#: sha256 digests of each run's ``monitor_stats`` and monitor events
#: (see ``_digests``), computed before the estimator constants stopped
#: being configuration.  The live runs' ``events`` and every ``stats``
#: (``events_seen``) were re-derived from those runs' logs with the event
#: kinds phase 3 no longer records removed and seq renumbered.
PINNED = {
    "adapt": {
        "events": "ce012d3b7fdb4aba7471e42b5ce0bb17028b2226824d1a3cf6edfadb67126772",
        "stats": "6a80b71a02a00368e8fd04b44ad56ee67ef4809eb357b0300c2a047c26019f22",
    },
    "detect": {
        "events": "d751da1b1fb1b4d17fd10813890f3ceaaf7ddc55c3ec81b239d4768bcf3ab131",
        "stats": "a03e05fb264be15fd0a28878174e79db69e7beaa5c79ffc683dec632d1ae5b60",
    },
    "replay_default": {
        "events": "d1e2c759abb708a07ffe00d7ec38806608654510ea5dfe0c9309b6cffe778cd0",
        "stats": "85bf6ffc6e78e54482b7e944a65e5a61a383c7c10a635c347d05d9fe2192e2fa",
    },
    "replay_0.1": {
        "events": "030b47d1a346e353c27854fe49cde17fdd40c255c77e7d8e86a964c3c0c5c767",
        "stats": "cc99141ff5043dabe3f0d5a35138a321675313f0c2bb2bcffee890b5780a185d",
    },
}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(stats, log) -> dict:
    events = [
        {key: value for key, value in payload.items() if key != "wall"}
        for payload in log.to_dicts()
        if payload["kind"] in MONITOR_EVENT_KINDS
    ]
    return {"events": _digest(events), "stats": _digest(stats)}


def monitored_run(*, adapt: bool):
    """CI's monitor-smoke configuration."""
    return run_simulation(
        SimulationConfig(
            algorithm="tradeoff",
            seed=7,
            staleness=2.0,
            workload=WorkloadSpec(rate_per_60tu=140.0, horizon=120.0),
            monitoring=MonitorConfig(adapt=adapt),
            observability=ObservabilityConfig(),
        )
    )


@pytest.fixture(scope="module")
def detect_only_run():
    return monitored_run(adapt=False)


def test_adapting_run_monitors_what_it_monitored_before():
    result = monitored_run(adapt=True)
    assert result.monitor_stats["adaptation"]["sessions_renegotiated"] >= 1
    digests = _digests(result.monitor_stats, result.observation.event_log)
    assert digests == PINNED["adapt"]


def test_detecting_run_monitors_what_it_monitored_before(detect_only_run):
    result = detect_only_run
    assert result.monitor_stats["drift_detected"] >= 1
    digests = _digests(result.monitor_stats, result.observation.event_log)
    assert digests == PINNED["detect"]


@pytest.mark.parametrize(
    "name, config",
    [("replay_default", None), ("replay_0.1", MonitorConfig(drift_threshold=0.1))],
)
def test_replay_detects_what_it_detected_before(detect_only_run, name, config):
    events = list(detect_only_run.observation.event_log)
    monitor, log = replay_events(events, config)
    assert _digests(monitor.report(), log) == PINNED[name]
