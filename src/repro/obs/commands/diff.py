"""``repro-obs diff`` -- numeric deltas between two documents (trace or
benchmark ledger); ``--gate`` turns out-of-tolerance deltas into a
non-zero exit for CI regression gating.  Timing comparisons are keyed on
the ledgers' runner fingerprints (:func:`repro.obs.analyze.gate_documents`):
different machines never hard-compare wall-clock leaves."""

from __future__ import annotations

import argparse
from typing import Optional

from repro.obs import analyze
from repro.obs.commands._render import fraction, load_document, print_lines
from repro.obs.export import table


def register(sub) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "diff", help="numeric deltas between two trace/ledger documents"
    )
    parser.add_argument("base", help="baseline JSON document")
    parser.add_argument("new", help="new JSON document")
    parser.add_argument(
        "--changed-only", action="store_true", help="hide identical leaves"
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="exit 1 when any leaf falls outside the tolerance band",
    )
    parser.add_argument(
        "--tolerance", type=fraction, default=0.25, metavar="FRAC",
        help="symmetric relative band for --gate (default 0.25 = +-25%%)",
    )
    parser.add_argument(
        "--timing-tolerance", type=fraction, default=0.5, metavar="FRAC",
        help="runner-keyed relative band for wall-clock leaves (paths "
        "containing " + ", ".join(analyze.TIMING_FRAGMENTS) + "); applied "
        "when both ledgers share a runner fingerprint, or against the "
        "baseline's recorded timing_baselines entry for the new runner "
        "(default 0.5 = +-50%%)",
    )
    parser.add_argument(
        "--ignore-timing", action="store_true",
        help="exclude wall-clock leaves (paths containing "
        + ", ".join(analyze.TIMING_FRAGMENTS)
        + ") from the gate",
    )
    return parser


def _side(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:g}"


def run(args: argparse.Namespace) -> int:
    base = load_document(args.base)
    new = load_document(args.new)
    entries = analyze.diff_documents(base, new)
    if args.changed_only:
        entries = [e for e in entries if e.base != e.new]
    print_lines(table(
        [("path", "<48"), ("base", ">12"), ("new", ">12"), ("delta", ">12")],
        (
            (e.path, _side(e.base), _side(e.new),
             "-" if e.delta is None else format(e.delta, "+g"))
            for e in entries
        ),
    ))
    if not args.gate:
        return 0
    gate = analyze.gate_documents(
        base, new, entries, tolerance=args.tolerance,
        timing_tolerance=args.timing_tolerance, ignore_timing=args.ignore_timing,
    )
    if gate.note:
        print_lines([gate.note])
    if not gate.regressions:
        print_lines([f"gate: OK ({len(gate.gated)} leaves within +-{args.tolerance:.0%})"])
        return 0
    lines = [f"gate: {len(gate.regressions)} leaves outside the +-{args.tolerance:.0%} band:"]
    for entry in gate.regressions:
        relative = entry.relative
        detail = "present on one side only" if relative is None else f"{relative:+.1%}"
        lines.append(f"  {entry.path}: {_side(entry.base)} -> {_side(entry.new)} ({detail})")
    print_lines(lines)
    return 1
