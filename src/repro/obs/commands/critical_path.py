"""``repro-obs critical-path`` -- per-session phase self-time breakdown,
slowest establishment attempts first."""

from __future__ import annotations

import argparse

from repro.obs import analyze
from repro.obs.commands._render import load_trace, print_lines, row_count


def register(sub) -> argparse.ArgumentParser:
    parser = sub.add_parser("critical-path", help="per-session phase self-time breakdown")
    parser.add_argument("trace", help="trace JSON document")
    parser.add_argument("--session", help="restrict to one session id")
    parser.add_argument(
        "--limit", type=row_count, default=10, metavar="N",
        help="keep only the N slowest sessions (default 10)",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    doc = load_trace(args.trace)
    breakdowns = analyze.critical_path(doc, session=args.session, limit=args.limit)
    if not breakdowns:
        if args.session:
            raise SystemExit(
                f"repro-obs: no establish span for session {args.session!r} in {args.trace}"
            )
        print_lines(["no establish spans in this trace"])
        return 0
    lines = []
    for breakdown in breakdowns:
        lines.append(
            f"session {breakdown.session} ({breakdown.service or '?'}, "
            f"{breakdown.outcome or '?'}): {1e6 * breakdown.total_seconds:.1f} us total, "
            f"critical phase: {breakdown.critical_phase}"
        )
        for name, seconds in sorted(breakdown.phase_seconds.items(), key=lambda item: -item[1]):
            share = seconds / breakdown.total_seconds if breakdown.total_seconds else 0.0
            lines.append(f"    {name:<22} {1e6 * seconds:>10.1f} us  {share:>6.1%}")
    totals = analyze.phase_totals(breakdowns)
    if totals:
        lines += ["", f"aggregate self time over {len(breakdowns)} sessions:"]
        lines += [f"    {name:<22} {seconds:>10.4f} s" for name, seconds in totals.items()]
    print_lines(lines)
    return 0
