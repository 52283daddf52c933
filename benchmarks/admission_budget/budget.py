#!/usr/bin/env python3
"""Render ``out/trace.json`` as a per-workload latency budget and reconcile it.

For every workload of the traced pass: one row per layer an admission
crossed (how many admissions entered it, mean and median self time,
share of the end-to-end ``admit_p50_ms``), then the *unattributed* row --
the end-to-end median, measured with tracing off, minus what the rows
explain.  Exits non-zero when the unattributed part of any workload is
more than 15% of its end-to-end median: the rows then do not account for
the number they are meant to explain.

    python benchmarks/admission_budget/budget.py [path/to/trace.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

TOLERANCE = 0.15
#: A daemon's phase histograms split the time inside its request handling;
#: they are shown under that row and not added to the sum a second time.
_PHASE_PARENT = "service.daemon.request"


def render(workload: str, entry: dict) -> bool:
    rows = layers.budget_rows(
        entry["spans"], entry["late_p50_ms"], entry["speed_factor"], entry["hop_us"])
    end_to_end_us = 1e3 * entry["admit_p50_ms_untraced"]
    unattributed_us = end_to_end_us - sum(row[3] for row in rows)
    print(f"\n{workload}: admit_p50_ms {end_to_end_us / 1e3:.4f} untraced, "
          f"{entry['admit_p50_ms_traced']:.4f} traced")
    print(f"  {'layer (self time)':<40}{'entered':>9}{'mean us':>12}{'p50 us':>12}{'share':>9}")
    for name, entered, mean_us, p50_us in sorted(rows, key=lambda row: -row[3]):
        print(f"  {name:<40}{entered:>9}{mean_us:>12.1f}{p50_us:>12.1f}"
              f"{p50_us / end_to_end_us:>9.1%}")
        if name == _PHASE_PARENT:
            for phase, value in entry["phases_us"].items():
                print(f"    {'phase.' + phase + ' (mean, /metrics)':<38}{'':>9}{value:>12.1f}")
    share = unattributed_us / end_to_end_us
    print(f"  {'unattributed':<40}{'':>9}{'':>12}{unattributed_us:>12.1f}{share:>9.1%}")
    reconciled = abs(share) <= TOLERANCE
    if not reconciled:
        print(f"  NOT RECONCILED: unattributed share {share:.1%} exceeds {TOLERANCE:.0%}")
    return reconciled


def main(argv: List[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else HERE / "out" / "trace.json"
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"budget: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    meta = document["meta"]
    print(f"trace of seed {meta['seed']} at {meta['git_sha']} "
          f"(nproc {meta['nproc']}, load {meta['load_1m']:.2f}"
          f"{', noisy host' if meta['noisy_host'] else ''})")
    outcomes = [render(name, entry) for name, entry in document["workloads"].items()]
    return 0 if outcomes and all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
