"""The repro-obs CLI: each subcommand against a real exported trace."""

import json
import re
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
        assert "qrg_build" in out and "phase3_dispatch" in out


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


class TestDashboard:
    """The live fleet dashboard, against real subprocess daemons.

    The fleet must live in other processes: the dashboard command owns
    its own event loop, and an in-process daemon's listening socket
    dies with the loop that created it.
    """

    @pytest.fixture
    def fleet(self):
        import os
        import re
        import subprocess
        import sys as _sys

        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")

        def spawn(argv, pattern):
            process = subprocess.Popen(
                [_sys.executable, "-m"] + argv, cwd=repo, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True,
            )
            line = process.stdout.readline()
            match = re.search(pattern, line)
            assert match, f"no boot line: {line!r}"
            return process, int(match.group(1))

        shard, shard_port = spawn(
            ["repro.service.cli", "--port", "0", "--seed", "11"],
            r"repro-serve: listening on [^:]+:(\d+) ",
        )
        router, router_port = spawn(
            ["repro.cluster.cli", "--port", "0", "--seed", "11",
             "--shard", f"127.0.0.1:{shard_port}"],
            r"repro-cluster: listening on [^:]+:(\d+) ",
        )
        try:
            yield shard_port, router_port
        finally:
            for process in (router, shard):
                process.terminate()
            for process in (router, shard):
                process.wait(timeout=10)
                process.stdout.close()

    def test_snapshot_one_shot(self, fleet, tmp_path, capsys):
        shard_port, router_port = fleet
        snapshot = tmp_path / "telemetry.json"
        assert main([
            "dashboard",
            f"127.0.0.1:{shard_port}", f"127.0.0.1:{router_port}",
            "--interval", "0.05", "--iterations", "2",
            "--snapshot-json", str(snapshot), "--no-ansi",
        ]) == 0
        out = capsys.readouterr().out
        # rendered frames + the snapshot confirmation
        assert "admission-availability" in out
        assert "snapshot written" in out
        document = json.loads(snapshot.read_text())
        assert document["schema"] == "telemetry-dashboard/1"
        assert document["sweeps"] == 2
        targets = {t["role"]: t for t in document["targets"]}
        assert set(targets) == {"shard", "cluster-router"}
        assert targets["shard"]["up"] and targets["shard"]["shard"]
        assert document["firing"] == []
        slos = {s["slo"] for s in document["slos"]}
        assert slos == {"admission-availability", "admission-latency"}

    def test_slo_config_loads_and_validates(self, fleet, tmp_path):
        _, router_port = fleet
        config = tmp_path / "slos.json"
        config.write_text(json.dumps({"slos": [{
            "name": "custom-avail", "kind": "availability", "target": 0.9,
            "good": ['repro_cluster_admissions_total{verdict="established"}'],
            "bad": ['repro_cluster_admissions_total{verdict="rejected_infra"}'],
            "short_window": 1.0, "long_window": 2.0, "budget_window": 4.0,
        }]}))
        snapshot = tmp_path / "telemetry.json"
        assert main([
            "dashboard", f"127.0.0.1:{router_port}",
            "--interval", "0.05", "--iterations", "1",
            "--slo-config", str(config),
            "--snapshot-json", str(snapshot), "--no-ansi", "--quiet",
        ]) == 0
        document = json.loads(snapshot.read_text())
        assert [s["slo"] for s in document["slos"]] == ["custom-avail"]

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"slos": [{"name": "x"}]}))
        with pytest.raises(SystemExit):
            main(["dashboard", "127.0.0.1:1", "--iterations", "1",
                  "--slo-config", str(bad)])
