"""The repro-obs CLI: each subcommand against a real exported trace."""

import argparse
import json
import os
import re
import sys
from pathlib import Path

import pytest

from repro.obs.cli import main

DATA_DIR = Path(__file__).parent / "data"
#: Small hand-written schema-v4 documents: spans and metrics only, two
#: sessions with an event log, one renegotiated session.
SPANS_ONLY = str(DATA_DIR / "trace_spans_only.json")
TWO_SESSIONS = str(DATA_DIR / "trace_two_sessions.json")
RENEGOTIATED = str(DATA_DIR / "trace_renegotiated.json")


@pytest.fixture(scope="module")
def sim_trace(tmp_path_factory):
    """A real exported trace from a small tradeoff run."""
    from repro.obs import ObservabilityConfig
    from repro.sim import SimulationConfig, run_simulation
    from repro.sim.workload import WorkloadSpec

    path = tmp_path_factory.mktemp("cli") / "trace.json"
    config = SimulationConfig(
        algorithm="tradeoff",
        seed=7,
        workload=WorkloadSpec(rate_per_60tu=150.0, horizon=150.0),
        observability=ObservabilityConfig(trace_path=str(path)),
    )
    run_simulation(config)
    return str(path)


class TestSummarize:
    def test_sections_present(self, sim_trace, capsys):
        assert main(["summarize", sim_trace]) == 0
        out = capsys.readouterr().out
        assert "schema v4" in out
        assert "per-phase timings:" in out
        assert "reservation events:" in out
        assert "per-broker admission:" in out
        assert "bottleneck resources:" in out
        assert "session.admitted" in out

    def test_eventless_documents_summarize_without_event_sections(self, capsys):
        assert main(["summarize", SPANS_ONLY]) == 0
        out = capsys.readouterr().out
        assert "schema v4" in out
        assert "per-phase timings:" in out
        assert "reservation events:" not in out

    def test_missing_file_exits_nonzero(self):
        with pytest.raises(SystemExit, match="no such file"):
            main(["summarize", "/nonexistent/trace.json"])

    def test_non_trace_json_rejected(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"hello": 1}')
        with pytest.raises(SystemExit, match="schema_version"):
            main(["summarize", str(bogus)])

    @pytest.mark.parametrize(
        "document",
        [
            {"schema_version": "four"},
            {"schema_version": None},
            {"schema_version": 4, "events": [{"kind": "broker.grant"}]},
            {"schema_version": 4, "meta": [1, 2]},
        ],
        ids=["version-text", "version-null", "event-without-seq", "meta-list"],
    )
    def test_malformed_document_exits_naming_the_file(self, tmp_path, document):
        bogus = tmp_path / "bad.json"
        bogus.write_text(json.dumps(document))
        with pytest.raises(SystemExit, match=f"^repro-obs: {re.escape(str(bogus))}: "):
            main(["summarize", str(bogus)])


class TestCriticalPath:
    def test_per_session_breakdown(self, capsys):
        assert main(["critical-path", TWO_SESSIONS]) == 0
        out = capsys.readouterr().out
        assert "session ssn-1" in out
        assert "critical phase: establish" in out
        assert "aggregate self time over 2 sessions:" in out

    def test_session_filter(self, capsys):
        assert main(["critical-path", TWO_SESSIONS, "--session", "ssn-2"]) == 0
        out = capsys.readouterr().out
        assert "ssn-2" in out and "ssn-1" not in out
        with pytest.raises(SystemExit, match="no establish span"):
            main(["critical-path", TWO_SESSIONS, "--session", "nope"])

    def test_real_trace_breakdown(self, sim_trace, capsys):
        assert main(["critical-path", sim_trace, "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "phase2_plan" in out and "phase3_dispatch" in out


class TestTop:
    def test_ranks_bottlenecks(self, capsys):
        assert main(["top", TWO_SESSIONS, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "cpu:H1" in out
        assert "per-broker admission:" in out

    def test_eventless_document_has_no_signals(self, capsys):
        assert main(["top", SPANS_ONLY]) == 0
        assert "no bottleneck signals" in capsys.readouterr().out


class TestDiff:
    def test_identical_documents_gate_ok(self, capsys):
        assert main(["diff", TWO_SESSIONS, TWO_SESSIONS, "--gate"]) == 0
        assert "gate: OK" in capsys.readouterr().out

    def test_gate_flags_structural_change(self, tmp_path, capsys):
        payload = json.loads(Path(TWO_SESSIONS).read_text())
        payload["event_counts"]["session.rejected"] = 10
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(payload))
        assert main(
            ["diff", TWO_SESSIONS, str(changed), "--gate", "--tolerance", "0.5"]
        ) == 1
        out = capsys.readouterr().out
        assert "event_counts.session.rejected" in out
        assert "+900.0%" in out

    def test_ledger_diff_ignores_timing(self, tmp_path, capsys):
        base = {"schema": "bench-ledger/1", "headline": {"speedup": 4.0, "warm_seconds": 1.0}}
        new = {"schema": "bench-ledger/1", "headline": {"speedup": 4.2, "warm_seconds": 3.0}}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(new))
        assert main(
            ["diff", str(a), str(b), "--gate", "--tolerance", "0.25", "--ignore-timing"]
        ) == 0
        # without --ignore-timing the warm_seconds blow-up gates
        assert main(["diff", str(a), str(b), "--gate", "--tolerance", "0.25"]) == 1

    def test_changed_only_hides_identical_leaves(self, capsys):
        assert main(["diff", TWO_SESSIONS, TWO_SESSIONS, "--changed-only"]) == 0
        out = capsys.readouterr().out
        assert "event_counts" not in out  # all identical, all hidden

    def test_gate_keys_timing_on_runner_fingerprint(self, tmp_path, capsys):
        def ledger(fingerprint, seconds):
            doc = {
                "schema": "bench-ledger/1",
                "headline": {"speedup": 4.0, "warm_seconds": seconds},
            }
            if fingerprint is not None:
                doc["runner"] = {"fingerprint": fingerprint, "cpus": "8"}
            return doc

        def write(name, doc):
            target = tmp_path / f"{name}.json"
            target.write_text(json.dumps(doc))
            return str(target)

        base = write("base", ledger("aaa-8c-py3.11", 1.0))
        # same machine: the timing blow-up gates
        same = write("same", ledger("aaa-8c-py3.11", 3.0))
        assert main(["diff", base, same, "--gate"]) == 1
        capsys.readouterr()
        # different machine: timing leaves drop out of the gate
        other = write("other", ledger("bbb-4c-py3.12", 3.0))
        assert main(["diff", base, other, "--gate"]) == 0
        out = capsys.readouterr().out
        assert "runner fingerprints differ" in out
        assert "aaa-8c-py3.11" in out and "bbb-4c-py3.12" in out
        # fingerprint on one side only: also excluded (unknown machine)
        legacy = write("legacy", ledger(None, 3.0))
        assert main(["diff", base, legacy, "--gate"]) == 0
        assert "unrecorded" in capsys.readouterr().out
        # structural leaves still gate regardless of the fingerprint
        # (speedup is a wall-clock ratio, so it is *not* structural)
        slower = write(
            "slower",
            {
                "schema": "bench-ledger/1",
                "runner": {"fingerprint": "bbb-4c-py3.12"},
                "headline": {"speedup": 4.0, "warm_seconds": 3.0, "sessions": 7},
            },
        )
        base_structural = write(
            "base_structural",
            {
                "schema": "bench-ledger/1",
                "runner": {"fingerprint": "aaa-8c-py3.11"},
                "headline": {"speedup": 4.0, "warm_seconds": 1.0, "sessions": 100},
            },
        )
        assert main(["diff", base_structural, slower, "--gate"]) == 1
        assert "headline.sessions" in capsys.readouterr().out

    def test_gate_uses_recorded_timing_baseline_for_new_runner(
        self, tmp_path, capsys
    ):
        def write(name, doc):
            target = tmp_path / f"{name}.json"
            target.write_text(json.dumps(doc))
            return str(target)

        base = write(
            "base",
            {
                "schema": "bench-ledger/1",
                "runner": {"fingerprint": "aaa-8c-py3.11"},
                "headline": {"speedup": 4.0, "warm_seconds": 1.0},
                # A timing baseline previously measured on runner bbb:
                # its wall clocks hard-compare even though the headline
                # was measured on runner aaa.
                "timing_baselines": {
                    "aaa-8c-py3.11": {
                        "headline.speedup": 4.0,
                        "headline.warm_seconds": 1.0,
                    },
                    "bbb-4c-py3.12": {
                        "headline.speedup": 2.0,
                        "headline.warm_seconds": 2.0,
                    },
                },
            },
        )
        # In-band against bbb's recorded baseline -> gate OK (hard gate,
        # not an exclusion: the message says what it compared against).
        ok = write(
            "ok",
            {
                "schema": "bench-ledger/1",
                "runner": {"fingerprint": "bbb-4c-py3.12"},
                "headline": {"speedup": 2.1, "warm_seconds": 2.2},
            },
        )
        assert main(["diff", base, ok, "--gate"]) == 0
        out = capsys.readouterr().out
        assert "gated against the baseline recorded for bbb-4c-py3.12" in out
        # Out of band against bbb's recorded baseline -> hard failure.
        regressed = write(
            "regressed",
            {
                "schema": "bench-ledger/1",
                "runner": {"fingerprint": "bbb-4c-py3.12"},
                "headline": {"speedup": 0.8, "warm_seconds": 6.0},
            },
        )
        assert main(["diff", base, regressed, "--gate"]) == 1
        out = capsys.readouterr().out
        assert "headline.warm_seconds" in out and "headline.speedup" in out

    def test_timing_tolerance_band_is_separate(self, tmp_path, capsys):
        def write(name, doc):
            target = tmp_path / f"{name}.json"
            target.write_text(json.dumps(doc))
            return str(target)

        runner = {"fingerprint": "aaa-8c-py3.11"}
        base = write(
            "base",
            {"schema": "bench-ledger/1", "runner": runner,
             "headline": {"warm_seconds": 1.0, "sessions": 100}},
        )
        new = write(
            "new",
            {"schema": "bench-ledger/1", "runner": runner,
             "headline": {"warm_seconds": 1.4, "sessions": 100}},
        )
        # +40% wall clock: outside the structural band, inside the
        # default +-50% timing band.
        assert main(["diff", base, new, "--gate", "--tolerance", "0.25"]) == 0
        capsys.readouterr()
        assert main(
            ["diff", base, new, "--gate", "--timing-tolerance", "0.1"]
        ) == 1
        assert "headline.warm_seconds" in capsys.readouterr().out


@pytest.fixture(scope="module")
def monitored_trace(tmp_path_factory):
    """A trace recorded with the live monitoring plane adapting."""
    from repro.obs import ObservabilityConfig
    from repro.obs.monitor import MonitorConfig
    from repro.sim import SimulationConfig, run_simulation
    from repro.sim.workload import WorkloadSpec

    path = tmp_path_factory.mktemp("cli-monitor") / "trace.json"
    config = SimulationConfig(
        algorithm="tradeoff",
        seed=7,
        staleness=2.0,
        workload=WorkloadSpec(rate_per_60tu=140.0, horizon=120.0),
        monitoring=MonitorConfig(adapt=True),
        observability=ObservabilityConfig(trace_path=str(path)),
    )
    run_simulation(config)
    return str(path)


@pytest.fixture
def legacy_trace(tmp_path):
    """A trace from before the per-process SLO watchdog was deleted: a
    live monitor's drift detection plus one hand-written event of a kind
    the vocabulary no longer has (``EventLog.emit`` would refuse it)."""
    from repro.obs import EventLog, observability_to_dict
    from repro.obs.monitor import MonitorConfig, OnlineMonitor

    log = EventLog()
    log.subscribe(OnlineMonitor(MonitorConfig(adapt=False), log=log).on_event)
    log.emit(
        "session.planned", session="s1", time=1.0, service="S1", psi=0.4,
        bottleneck="cpu:H1", available={"cpu:H1": 100.0},
    )
    log.emit("session.admitted", session="s1", time=1.0, service="S1", numeric_level=3)
    log.emit("broker.release", resource="cpu:H1", time=2.0, available=10.0)
    assert log.count("session.drift") == 1
    document = observability_to_dict(events=log)
    document["events"].append(
        {
            "kind": "slo.violated", "seq": len(log), "wall": 0.0, "time": 2.0,
            "session": "s1", "resource": None,
            "attributes": {
                "slo": "rej", "objective": "rejection_rate",
                "measured": 1.0, "limit": 0.2,
            },
        }
    )
    document["event_counts"]["slo.violated"] = 1
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(document))
    return str(path)


class TestLegacyWatchdogEvents:
    """Old traces still load; the deleted kind is neither shown nor counted."""

    def test_watch_shows_the_recording_without_it(self, legacy_trace, capsys):
        assert main(["watch", legacy_trace]) == 0
        out = capsys.readouterr().out
        assert "recorded by the run's live monitor" in out
        assert "session.drift" in out
        assert "slo" not in out

    def test_replay_ignores_it(self, legacy_trace, capsys):
        from repro.obs.analyze import adaptation_summary, load_trace
        from repro.obs.monitor import replay_events

        doc = load_trace(legacy_trace)
        assert doc.events[-1].attributes["objective"] == "rejection_rate"
        monitor, log = replay_events(doc.events)
        # planned + admitted + release: not the recorded drift, not the legacy kind
        assert monitor.events_seen == 3
        assert log.kind_counts() == {"session.drift": 1}
        assert adaptation_summary(doc).total_drifts == 1
        assert main(["watch", legacy_trace, "--threshold", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "replayed offline" in out and "slo" not in out

    def test_monitor_report_has_no_row_for_it(self, legacy_trace, capsys):
        assert main(["monitor-report", legacy_trace, "--threshold", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "replayed offline" in out
        assert "events_seen            3" in out
        assert "drift detections       1" in out
        assert "slo" not in out


class TestWatch:
    def test_recorded_timeline(self, monitored_trace, capsys):
        assert main(["watch", monitored_trace]) == 0
        out = capsys.readouterr().out
        assert "recorded by the run's live monitor" in out
        assert "session.drift" in out
        assert "session.renegotiated" in out

    def test_kind_filter_and_limit(self, monitored_trace, capsys):
        assert main(
            ["watch", monitored_trace, "--kind", "session.drift", "--limit", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "session.renegotiated" not in out
        assert "truncated at 5 lines" in out

    def test_unmonitored_trace_replays_offline(self, sim_trace, capsys):
        assert main(["watch", sim_trace]) == 0
        out = capsys.readouterr().out
        assert "replayed offline" in out
        assert "broker.observed" in out

    def test_threshold_override_forces_replay(self, monitored_trace, capsys):
        assert main(["watch", monitored_trace, "--threshold", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "replayed offline" in out

    def test_eventless_trace_has_nothing_to_watch(self, capsys):
        assert main(["watch", SPANS_ONLY]) == 0
        assert "no event log" in capsys.readouterr().out


class TestMonitorReport:
    def test_recorded_monitoring_section(self, monitored_trace, capsys):
        assert main(["monitor-report", monitored_trace]) == 0
        out = capsys.readouterr().out
        assert "recorded by the run's live monitor" in out
        assert "adaptation loop:" in out
        assert "per-broker estimators:" in out
        assert "causal chains (from the event log):" in out
        assert "-> renegotiated seq" in out

    def test_renegotiated_trace_report(self, capsys):
        assert main(["monitor-report", RENEGOTIATED, "--pairs", "1"]) == 0
        out = capsys.readouterr().out
        assert "drift_detected" in out
        # the recorded monitoring section predates the watchdog's
        # removal: its slo_violations key gets no row
        assert "slo_violations" not in out
        assert "outcome downgraded" in out
        assert "ssn-1: trigger seq" in out

    def test_unmonitored_trace_replays_offline(self, sim_trace, capsys):
        assert main(["monitor-report", sim_trace]) == 0
        out = capsys.readouterr().out
        assert "replayed offline" in out
        assert "per-broker estimators:" in out

    def test_eventless_trace_has_nothing_to_report(self, capsys):
        assert main(["monitor-report", SPANS_ONLY]) == 0
        assert "nothing to report" in capsys.readouterr().out


class TestExportProm:
    def test_stdout_exposition(self, capsys):
        assert main(["export-prom", SPANS_ONLY]) == 0
        out = capsys.readouterr().out
        assert 'repro_broker_grants_total{resource="cpu:H1"} 2.0' in out

    def test_output_file_and_prefix(self, tmp_path):
        target = tmp_path / "metrics.prom"
        assert main(
            ["export-prom", SPANS_ONLY, "-o", str(target), "--prefix", "paper_"]
        ) == 0
        assert "paper_broker_grants_total" in target.read_text()

    def test_real_trace_exposition(self, sim_trace, capsys):
        assert main(["export-prom", sim_trace]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_coordinator_establish_seconds histogram" in out
        assert 'le="+Inf"' in out


# -- pinned output -------------------------------------------------------------

_DOCUMENTS = sorted(path.name for path in DATA_DIR.glob("*.json"))
_GOLDEN = "trace_v4_golden.json"
_TWO = "trace_two_sessions.json"


def _event(kind, seq, resource=None, **attributes):
    return {
        "kind": kind, "seq": seq, "wall": 0.0, "session": "s",
        "resource": resource, "attributes": attributes,
    }


_GRANT = _event("broker.grant", 1, "cpu:H1", requested=3.0, available=100.0, capacity=100.0)
#: Documents written beside ``tests/data``: per-shard event logs as the
#: reconcile tests in ``test_cluster.py`` write them (balanced books, an
#: unpaired release, the same release in a ring that dropped events),
#: and a run's fault and recovery events.
_WRITTEN_DOCUMENTS = {
    "shard0.json": {
        "schema_version": 4,
        "events": [_GRANT, _event("broker.release", 2, "cpu:H1", amount=3.0)],
    },
    "shard1.json": {
        "schema_version": 4,
        "events": [_event("broker.release", 2, "cpu:H2", amount=5.0)],
    },
    "wrapped.json": {
        "schema_version": 4,
        "events": [_event("broker.release", 2, "cpu:H1", amount=5.0)],
        "events_dropped": 40,
    },
    "faults.json": {
        "schema_version": 4,
        "events": [
            _event("session.planned", 1, bottleneck="cpu:H1", psi=0.5),
            _event("broker.reject", 2, "cpu:H1", requested=5.0, available=1.0),
            _event("fault.injected", 3, fault="message_drop"),
            _event("segment.timeout", 4, phase="reserve"),
            _event("segment.retry", 5, phase="reserve"),
            _event("session.replanned", 6, reason="host_unreachable"),
            _event("lease.expired", 7),
            _event("session.rejected", 8, reason="host_unreachable"),
        ],
    },
}

#: argv (file names relative to a directory holding ``tests/data`` and
#: the written documents) -> sha256 of stdout and the exit code, recorded
#: before ``repro-obs`` was split into one module per subcommand.
PINNED_OUTPUT = {
    "summarize trace_renegotiated.json": (
        "2026c5d2faa885fb1ed65297233766bdbf8105b0e30cc3057554c28b1ef1f703", 0,
    ),
    "summarize trace_spans_only.json": (
        "d4fc7d0e64523f271a4fad4eaabdfb93981ec53bbdee7e159c61a87caf438ad4", 0,
    ),
    "summarize trace_two_sessions.json": (
        "24638e7b289e4ced7a61a8ed30aec2a40ddf0800e699d69987017bee5e444a37", 0,
    ),
    "summarize trace_v4_golden.json": (
        "20712674f026ff1fe4953efe3e44b2e49396804a6891174311a29334af194a79", 0,
    ),
    "critical-path trace_renegotiated.json": (
        "c12ac82aa20de83c44fd5df39e5b1f0b00a5fe17cbe8e965e9609df96fb078a3", 0,
    ),
    "critical-path trace_spans_only.json": (
        "3c401b297a0baa748744c91e41e13bea5de3d5714346daf9612835d1a440b8ee", 0,
    ),
    "critical-path trace_two_sessions.json": (
        "2d2a5d10dc52a0f1cf222e644b142b9ff3f8ba919cd02c0e234419e650cf2bcc", 0,
    ),
    "critical-path trace_v4_golden.json": (
        "ef6a4616efe3e47ef5bfafb11f33ddfb66109999b8042f86079a8f8f4c95b296", 0,
    ),
    "top trace_renegotiated.json": (
        "9878d04454a3e5ded9e2fce0c1e525eea6d689f67f102fb367be7ac643af48e3", 0,
    ),
    "top trace_spans_only.json": (
        "4184a0420eb6a030307d01f04ce3c700901df1147f73ac779a58777e99237227", 0,
    ),
    "top trace_two_sessions.json": (
        "bba068a5f21935febf0d95f5a5f9d07498623acf4e6bd213373a285a1a7f54f9", 0,
    ),
    "top trace_v4_golden.json": (
        "507352f77dd911411a3c5bc94d0dd5e8e8634803a86c23c662641690ab555cb2", 0,
    ),
    "watch trace_renegotiated.json": (
        "214610506881194a50145b68fe182b6f6c78d78d1fb1dc9885cc08720d4904d9", 0,
    ),
    "watch trace_spans_only.json": (
        "b6bf15c7044f499899f1b32f81f3bf1bbaaa5058ee26a3d13119494904878d23", 0,
    ),
    "watch trace_two_sessions.json": (
        "c83a0e42b88a928a67186707127af452d02a367d27fa18ec1c88d238b56f2970", 0,
    ),
    "watch trace_v4_golden.json": (
        "d12d3dd4acdf61d8e35152f3787aa281bc025e4f36aa4b17b362e7fc088379f2", 0,
    ),
    "monitor-report trace_renegotiated.json": (
        "017fa360c80b43a60a6a83d756576a1283778cfedb3c88e4f3ec5a96c38fc91d", 0,
    ),
    "monitor-report trace_spans_only.json": (
        "1261a5ca170ed1fff77e1220e97eb6505d27eee7192ae905ca1229098280045a", 0,
    ),
    "monitor-report trace_two_sessions.json": (
        "05d20b84337f3ec4b2664c0dc25d9d52206350dd03eb1a966de97c1fb4c44b2e", 0,
    ),
    "monitor-report trace_v4_golden.json": (
        "be5c61c63171488582fe09201786dadd78415c130842303f24830dc4317120a6", 0,
    ),
    "export-prom trace_renegotiated.json": (
        "2156615b55a608def5ca69cf6f9bf14275e6a3ee57643924c5111d0f9c0645dd", 0,
    ),
    "export-prom trace_spans_only.json": (
        "069ae38f917d25f08b1d404d740787daaa0fd4b2ce8ba70498a869426ebc72e0", 0,
    ),
    "export-prom trace_two_sessions.json": (
        "c6cee4c187131fa5b4da8064e9c0ff21854ddd35c6cb7ae095dbbb023ba2c7e8", 0,
    ),
    "export-prom trace_v4_golden.json": (
        "68291218fae57aafe37deb55914a1182703c686bb542c9154156f5f04b1ed11c", 0,
    ),
    "summarize trace_v4_golden.json --top 1": (
        "9f64cf3f5725ab15df48b45398bacea39917255cf39c5209a3bed88dd0034667", 0,
    ),
    "critical-path trace_v4_golden.json --limit 2": (
        "6bd42d8875ed10c24feb4426dca974f7e843464c096a4786eea0286d201ea259", 0,
    ),
    "top trace_v4_golden.json -k 1": (
        "60642e9f39eb31ac1e5dd6de1dbd0e3cdc734c4e4aa20526412331e691e704d1", 0,
    ),
    "watch trace_v4_golden.json --limit 3": (
        "d12d3dd4acdf61d8e35152f3787aa281bc025e4f36aa4b17b362e7fc088379f2", 0,
    ),
    "monitor-report trace_renegotiated.json --pairs 1": (
        "017fa360c80b43a60a6a83d756576a1283778cfedb3c88e4f3ec5a96c38fc91d", 0,
    ),
    "diff trace_v4_golden.json trace_v4_golden.json": (
        "7549dcc5354a2d081ac5d36e99a7dfe7cd001de330c3fc60e64c5ce9e6b4750b", 0,
    ),
    "diff trace_v4_golden.json trace_v4_golden.json --gate": (
        "c3677a857f249beb30665434abaade08dba696237e00d168965d1166eca91878", 0,
    ),
    "diff trace_v4_golden.json trace_two_sessions.json": (
        "70a9873c2183d6af5d15e549d70c981c475baca6ccbda06d621732d03126d77c", 0,
    ),
    "diff trace_v4_golden.json trace_two_sessions.json --gate": (
        "5b6dc8265dcb93f9e861036cb546953f0863543012991211ad7d67b2302a83c0", 1,
    ),
    "diff trace_two_sessions.json trace_v4_golden.json --changed-only --gate": (
        "33c3dd17864fe24460d0852b24fb512b33d6faf6aaf5a972a730c82c7212d8bd", 1,
    ),
    "stitch trace_v4_golden.json trace_v4_golden.json": (
        "09670fc53ff3142063ca1870877940c4ef2197150af441173e15e453af5e7f76", 0,
    ),
    "stitch trace_v4_golden.json trace_v4_golden.json --limit 1": (
        "1d0b32fe5580ef414ff43f3851076e867b3f5702ce8d9918bdb51e8e0a325d69", 0,
    ),
    "stitch trace_v4_golden.json trace_two_sessions.json": (
        "5a5e69d175de7a3e75a96f6da3d35260ff2a3009966e3c6d46f31dd8db801bc7", 0,
    ),
    "stitch trace_two_sessions.json trace_v4_golden.json --require-complete": (
        "06cd8ff1284bb48a9f33680ef125437048ca0986b5c304edecb8009c48e48ed9", 0,
    ),
    "reconcile trace_v4_golden.json": (
        "22ea99bdeee212b1d9f13c859b988f9137b19c268a5137b6c96a7741077c48ba", 0,
    ),
    "reconcile shard0.json": (
        "f58f82532452f296631a095a2c33c84de695cfdb83451889e40f61f0dd283e5e", 0,
    ),
    "reconcile shard0.json shard1.json": (
        "c6ebe536f87df3f8dade62fcca02c351806bb33a5ca001711fbe1c8d424785c4", 1,
    ),
    "reconcile wrapped.json": (
        "605038023847bfb5630dbfcf15a0d91e00cb8774792e2cd30c3dfa8df57cf314", 0,
    ),
    "summarize faults.json": (
        "475f15c5fac27fcafa9c55acc8935d02944d316a84c832c8b3f27b564ebe7bb6", 0,
    ),
    "top faults.json": (
        "7d1245d6086ad94a9c5913e35fda9fe2da4622b2f8e72707823d587f510294cf", 0,
    ),
    "--help": (
        "e2d12004e11de6d5080d0ac78ca7f929785afa19ace02f49ebc523a78447493f", 0,
    ),
    "summarize --help": (
        "e76d90b080a289bf0e7917a552b03f6f480bdfa7f044193a308bf1f3b06114ab", 0,
    ),
    "critical-path --help": (
        "e719fa8eb8c72d638add52e92a4c69bf5eb342160c077c995e9e7621d5d915f1", 0,
    ),
    "top --help": (
        "037ca25cac88c52b073e5d4a972638eab243007f3bb25606cbb2f5585e1194ad", 0,
    ),
    "diff --help": (
        "f457cd01605733c4fdceb3265bf3a50d5e604f296cc354f5a14e9ceddb774d7c", 0,
    ),
    "watch --help": (
        "72a8680e8023901edd4c467aebb996ccf8263742e7251ec84df92c0b2346fc6f", 0,
    ),
    "monitor-report --help": (
        "5d19eec39f7daf69188f25c0d66aee2b4a0248f1e2f6d945fe65a1270f39e443", 0,
    ),
    "export-prom --help": (
        "8e5a49839a1187d2068b614e59a8d8823c5721a62accf6c2bf2e1de72c9fd658", 0,
    ),
    "stitch --help": (
        "e57fd04cae012c732cbf58218e2f2a50651d6b5a0e94b058b7fd1830ad8a3fa2", 0,
    ),
    "reconcile --help": (
        "a3b5520096e4ef8422af5612ffa4c4e74838e7ab1b38a533d30bf23a1e7d6f50", 0,
    ),
}


@pytest.fixture
def document_dir(tmp_path, monkeypatch):
    """A working directory with every test document under a bare name,
    so no absolute path reaches the output; help wraps at 80 columns."""
    for name in _DOCUMENTS:
        (tmp_path / name).write_bytes((DATA_DIR / name).read_bytes())
    for name, document in _WRITTEN_DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(document))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    return tmp_path


def run_pinned(argv):
    """``(sha256 of stdout, exit code)`` of one in-process ``repro-obs`` run."""
    import contextlib
    import hashlib
    import io

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUT))
def test_output_is_pinned(case, document_dir):
    if "--help" in case.split() and sys.version_info >= (3, 13):
        pytest.skip("argparse lays out help differently from Python 3.13")
    assert run_pinned(case.split()) == tuple(PINNED_OUTPUT[case])


def test_pinned_cases_cover_every_subcommand():
    from repro.obs.cli import build_parser

    (sub,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for command in sub.choices:
        assert f"{command} --help" in PINNED_OUTPUT
        assert any(case.startswith(command + " ") and "--help" not in case
                   for case in PINNED_OUTPUT), command


def test_import_loads_no_heavy_module():
    import subprocess

    import repro

    heavy = ("asyncio", "repro.obs.monitor", "repro.faults", "repro.service")
    probe = (
        "import sys, repro.obs.cli\n"
        f"print([name for name in {heavy!r} if name in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert result.stdout.strip() == "[]"


# -- argument validation -------------------------------------------------------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["summarize", _GOLDEN, "--top", "-1"], "--top"),
        (["top", _GOLDEN, "-k", "0"], "-k"),
        (["critical-path", _GOLDEN, "--limit", "-1"], "--limit"),
        (["stitch", _GOLDEN, _GOLDEN, "--limit", "0"], "--limit"),
        (["monitor-report", "trace_renegotiated.json", "--pairs", "-1"], "--pairs"),
        (["watch", _GOLDEN, "--limit", "-1"], "--limit"),
        (["watch", _GOLDEN, "--threshold", "0"], "--threshold"),
        (["watch", _GOLDEN, "--threshold", "-1"], "--threshold"),
        (["monitor-report", _GOLDEN, "--threshold", "0"], "--threshold"),
        (["monitor-report", _GOLDEN, "--threshold", "-1"], "--threshold"),
        (["diff", _GOLDEN, _TWO, "--gate", "--tolerance", "-0.1"], "--tolerance"),
        (["diff", _GOLDEN, _TWO, "--gate", "--timing-tolerance", "-0.1"],
         "--timing-tolerance"),
    ],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_senseless_values_are_refused(argv, flag, document_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
