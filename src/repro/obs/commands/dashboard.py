"""``repro-obs dashboard`` -- the one *live* subcommand: scrape every
given shard/router ``host:port`` on an interval into a
:class:`~repro.obs.telemetry.TimeSeriesStore`, evaluate burn-rate SLOs
(:mod:`repro.obs.burn`), and render per-shard admission rates, merged
p50/p99 phase latencies, lease counters, error-budget remaining and
firing alerts as an ANSI terminal view; ``--snapshot-json`` writes a
machine-readable final state (the CI smoke's artifact) including every
``slo.*`` event the run emitted."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Tuple

from repro.obs.commands._render import load_json, positive, print_lines
from repro.obs.export import table

#: What the snapshot records of each scraped target.
_TARGET_FIELDS = ("target", "role", "shard", "up", "consecutive_failures", "last_error")


def register(sub) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "dashboard",
        help="live cluster telemetry: scrape shard/router /metrics on an "
        "interval, evaluate burn-rate SLOs, render admission rates, "
        "phase latencies and alerts",
    )
    parser.add_argument(
        "targets", nargs="+", metavar="HOST:PORT",
        help="shard daemons and/or the cluster router to scrape",
    )
    parser.add_argument(
        "--interval", type=positive, default=1.0, metavar="SECONDS",
        help="scrape interval (default 1.0)",
    )
    parser.add_argument(
        "--iterations", type=int, metavar="N",
        help="stop after N sweeps (default: run until interrupted)",
    )
    parser.add_argument(
        "--snapshot-json", metavar="PATH",
        help="on exit, write the final dashboard state -- targets, SLO "
        "statuses, budget low-water marks, every slo.* event -- as JSON "
        "(the CI artifact)",
    )
    parser.add_argument(
        "--slo-config", metavar="PATH",
        help="JSON list of BurnRateSLO objects replacing the built-in "
        "cluster SLOs (see docs/observability.md for the schema)",
    )
    parser.add_argument(
        "--short-window", type=float, default=6.0, metavar="SECONDS",
        help="short burn window for the built-in SLOs (default 6)",
    )
    parser.add_argument(
        "--long-window", type=float, default=20.0, metavar="SECONDS",
        help="long burn window for the built-in SLOs (default 20)",
    )
    parser.add_argument(
        "--budget-window", type=float, default=30.0, metavar="SECONDS",
        help="rolling error-budget window for the built-in SLOs (default 30)",
    )
    parser.add_argument(
        "--no-ansi", action="store_true",
        help="append frames as plain text instead of clearing the screen",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="render no frames (useful with --snapshot-json in CI)",
    )
    return parser


def _parse_target(text: str) -> Tuple[str, int]:
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise SystemExit(
            f"repro-obs: malformed target {text!r}; expected HOST:PORT"
        )
    return host, int(port_text)


def _load_burn_slos(args: argparse.Namespace) -> list:
    from repro.obs.burn import default_cluster_slos
    from repro.obs.slo import BurnRateSLO

    if not args.slo_config:
        return default_cluster_slos(
            short_window=args.short_window,
            long_window=args.long_window,
            budget_window=args.budget_window,
        )
    payload = load_json(args.slo_config)
    entries = payload.get("slos") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not entries:
        raise SystemExit(
            f"repro-obs: {args.slo_config} must be a JSON list of SLO "
            'objects (or {"slos": [...]})'
        )
    try:
        return [BurnRateSLO.from_dict(entry) for entry in entries]
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"repro-obs: {args.slo_config}: {exc}")


def _quantile_cell(histogram, q: float) -> str:
    if histogram is None or histogram.count <= 0:
        return "-"
    return f"{1e3 * histogram.quantile(q):.1f}"


def _target_row(store, meta, window: float, now: float) -> tuple:
    """One scraped target's row: admit/s, reject/s, sessions, leases, p50/p99."""

    def rate(*selectors: str) -> float:
        return store.counter_rate(list(selectors), window=window, now=now, target=meta.target)

    leases = phases = None
    if meta.role == "cluster-router":
        admit = rate('repro_cluster_admissions_total{verdict="established"}')
        reject = rate('repro_cluster_admissions_total{verdict="rejected_merit"}',
                      'repro_cluster_admissions_total{verdict="rejected_infra"}')
        sessions = store.latest(meta.target, "repro_cluster_active_sessions")
    else:
        admit = rate('repro_daemon_sessions_total{outcome="established"}')
        reject = rate('repro_daemon_sessions_total{outcome="rejected"}')
        sessions = store.latest(meta.target, "repro_daemon_active_sessions")
        leases = store.latest(meta.target, 'repro_daemon_lease_operations_total{op="committed"}')
        phases = store.histogram_window(
            "repro_daemon_admission_phase_seconds", window=window,
            now=now, target=meta.target, labels={"phase": "plan"},
        )
    return (
        meta.target, meta.role or "?", meta.shard or "-", "1" if meta.up else "0",
        admit, reject,
        "-" if sessions is None else format(int(sessions), "d"),
        "-" if leases is None else format(int(leases), "d"),
        _quantile_cell(phases, 0.50), _quantile_cell(phases, 0.99),
    )


def _dashboard_lines(store, statuses, log, result, sweep: int,
                     window: float) -> List[str]:
    now = result.ts
    total = result.reachable + result.unreachable
    lines = [
        f"cluster telemetry  sweep {sweep}  "
        f"{result.reachable}/{total} targets up  "
        f"(rates over the last {window:g}s)",
        "",
    ]
    lines += table(
        [("target", "<22"), ("role", "<15"), ("shard", "<11"), ("up", ">3"),
         ("admit/s", ">8.2f"), ("rej/s", ">7.2f"), ("sess", ">6"), ("leases", ">7"),
         ("p50ms", ">7"), ("p99ms", ">7")],
        (
            _target_row(store, meta, window, now)
            for meta in sorted(store.targets(), key=lambda m: (m.role, m.target))
        ),
    )
    lines.append("")
    lines += table(
        # The budget title has always stood one column right of its cells.
        [("slo", "<26"), ("kind", "<13"), ("state", "<8"), ("burn_s", ">8.2f"),
         ("burn_l", ">8.2f"), ("thresh", ">7.1f"), ("  budget", ">7.0%")],
        ((s.slo, s.kind, s.state, s.burn_short, s.burn_long, s.threshold, s.budget_remaining)
         for s in statuses),
    )
    alerts = [e for e in log if e.kind.startswith("slo.")]
    if alerts:
        lines += ["", "alerts:"]
        for event in alerts[-6:]:
            attributes = event.attributes
            detail = " ".join(
                f"{key}={attributes[key]}"
                for key in ("state", "burn_short", "burn_long", "budget_remaining")
                if key in attributes
            )
            lines.append(
                f"  [{event.wall:>7.1f}s] {event.kind:<22} "
                f"{attributes.get('slo', '-'):<26} {detail}"
            )
    unreachable = [m for m in store.targets() if not m.up]
    if unreachable:
        lines += [""] + [
            f"  DOWN {meta.target}: {meta.last_error or 'unreachable'} "
            f"(x{meta.consecutive_failures})"
            for meta in unreachable
        ]
    return lines


def _dashboard_snapshot(store, engine, log, sweeps: int,
                        interval: float) -> dict:
    return {
        "schema": "telemetry-dashboard/1",
        "sweeps": sweeps,
        "interval": interval,
        "targets": [
            {key: getattr(meta, key) for key in _TARGET_FIELDS} for meta in store.targets()
        ],
        "slos": [status.to_dict() for status in engine.last_statuses],
        "min_budget": {
            slo.name: engine.min_budget(slo.name) for slo in engine.slos
        },
        "firing": engine.firing(),
        "events": log.to_dicts(),
        "event_counts": {kind: log.count(kind) for kind in log.kinds()},
    }


def run(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import events as _events
    from repro.obs.burn import BurnRateEngine
    from repro.obs.telemetry import TelemetryScraper, TimeSeriesStore

    targets = [_parse_target(text) for text in args.targets]
    slos = _load_burn_slos(args)
    window = max(slo.long_window for slo in slos) if slos else 20.0
    store = TimeSeriesStore()
    log = _events.EventLog()
    engine = BurnRateEngine(slos, store, event_log=log)
    scraper = TelemetryScraper(targets, store, interval=args.interval)
    sweeps = {"count": 0}

    def on_scrape(result) -> None:
        sweeps["count"] += 1
        statuses = engine.evaluate(result.ts)
        if args.quiet:
            return
        frame = _dashboard_lines(
            store, statuses, log, result, sweeps["count"], window
        )
        if not args.no_ansi:
            sys.stdout.write("\x1b[2J\x1b[H")
        print_lines(frame)
        sys.stdout.flush()

    async def _run() -> None:
        # SIGTERM/SIGINT stop the sweep loop cleanly so the snapshot
        # below is still written -- CI backgrounds the dashboard and
        # kill -TERMs it once the scenario (and its recovery) is over.
        import signal

        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError):
                pass
        run_task = asyncio.create_task(
            scraper.run(iterations=args.iterations, on_scrape=on_scrape)
        )
        stop_task = asyncio.create_task(stop.wait())
        done, pending = await asyncio.wait(
            {run_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        if run_task in done:
            await run_task
        await scraper.aclose()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    if args.snapshot_json:
        document = _dashboard_snapshot(
            store, engine, log, sweeps["count"], args.interval
        )
        target = Path(args.snapshot_json)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print_lines([f"dashboard snapshot written to {args.snapshot_json}"])
    return 0
