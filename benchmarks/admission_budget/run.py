#!/usr/bin/env python3
"""admission_budget: the repository's benchmark.

One command runs every workload, prints every metric by name with its
unit, checks the outputs and exits non-zero on a failed check::

    python benchmarks/admission_budget/run.py --seed 7

The driver's form runs one workload and prints one JSON object last::

    python3 benchmarks/admission_budget/run.py \\
        --workload daemon_closed --seed 7 --seconds 12 --trace 0

``--trace 1`` prints the per-layer metrics instead (probes + one traced
round) and writes ``out/trace.json`` for ``budget.py``.  ``--quick`` is
one round of a twentieth of the work; ``--repeat N`` runs N full sets
and writes the noise report ``NOISE.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import dataclasses
import json
import math
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import sut  # noqa: E402

sut.require_source_tree()
sys.path.insert(0, str(sut.SRC_DIR))

import layers  # noqa: E402
import reference  # noqa: E402
from spans import percentile  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK_JSON = sut.REPO_ROOT / "BENCHMARK.json"
END_TO_END = (
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("admit_p50_ms", "ms"),
    ("admit_p90_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("cpu_ms_per_decision", "ms"),
    ("peak_rss_mb", "MiB"),
)
#: Workloads with one caller: their decisions must not differ between rounds.
SINGLE_CALLER = ("coord_dark", "cluster3_serial")
#: A traced round keeps every span in memory and ships them as JSON.
TRACED_ADMISSIONS_CAP = 2000
ROUND_TIMEOUT_S = 170.0
#: The driver allows a run 180 s and all its runs 3420 s (92 of them).  When
#: the host is so slow that a further round would end later than this, the
#: round is dropped (and said so) rather than the whole set of runs lost.
RUN_BUDGET_S = 42.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS,
                        help="run this workload only and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds the fixed script is sized for "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round, a twentieth of the work")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="N full sets; write the noise report NOISE.json")
    parser.add_argument("--check", action=argparse.BooleanOptionalAction, default=True,
                        help="correctness gates (on by default)")
    parser.add_argument("--op-timeout", type=float, default=10.0,
                        help="seconds before one operation counts as failed")
    parser.add_argument("--round", dest="worker_round", help=argparse.SUPPRESS)
    parser.add_argument("--admissions", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_benchmark_json()["run_seconds"])
    args.rounds = 1 if args.quick else wl.ROUNDS
    args.scale = 0.05 if args.quick else 1.0
    return args


def _benchmark_json() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


# -- worker entry points (fresh subprocesses of this file) ---------------------


def worker_round(args: argparse.Namespace) -> int:
    """One ``coord_dark`` round; prints ``ready`` after warm-up, then the result."""
    script = wl.build_script(args.worker_round, args.seed, args.admissions)
    result = asyncio.run(wl.dark_round(
        script, bool(args.trace), lambda: print("ready", flush=True)))
    print(json.dumps(dataclasses.asdict(result)), flush=True)
    return 0


def worker_probe(args: argparse.Namespace) -> int:
    """The in-process probes, their times put at nominal host speed like every other."""
    hot = reference.HotProbe(samples=200)
    samples = asyncio.run(hot.sample())
    readings = layers.run_probes(args.seed)
    samples += asyncio.run(hot.sample())
    speed = reference.NOMINAL_S["coord_dark"] / statistics.median(samples)
    for name, unit, *_ in layers.CATALOGUE:
        if name in readings and unit in ("us", "ms"):
            readings[name] *= speed
    print(json.dumps(readings), flush=True)
    return 0


def _spawn_self(group: sut.ProcessGroup, flags: List[str], log_name: str):
    return group.spawn([str(HERE / "run.py"), *flags], log_name)


def run_probes(seed: int) -> Dict[str, float]:
    with sut.ProcessGroup() as group:
        child = _spawn_self(group, ["--probe", "--seed", str(seed)], "probe")
        return json.loads(sut.read_line(child, ROUND_TIMEOUT_S))


# -- rounds ----------------------------------------------------------------


def run_round(script: wl.Script, traced: bool, args: argparse.Namespace) -> wl.RoundResult:
    """One self-contained round: fresh system under test, warm up, measure, verify, kill."""
    if script.workload != "coord_dark":
        return asyncio.run(
            wl.http_round(script, traced, args.op_timeout, args.reference_port))
    started = time.perf_counter()
    with sut.ProcessGroup() as group:
        child = _spawn_self(group, [
            "--round", script.workload, "--seed", str(script.seed),
            "--admissions", str(script.measured_arrivals), "--trace", str(int(traced)),
        ], "coord_dark-worker")
        if sut.read_line(child, sut.BOOT_TIMEOUT_S).strip() != "ready":
            raise RuntimeError("coord_dark worker did not announce ready")
        setup_s = time.perf_counter() - started
        result = wl.RoundResult(**json.loads(sut.read_line(child, ROUND_TIMEOUT_S)))
    result.setup_s = setup_s
    return result


def traced_script(workload: str, args: argparse.Namespace) -> wl.Script:
    admissions = min(TRACED_ADMISSIONS_CAP,
                     wl.admissions_for(workload, args.seconds, args.scale))
    return wl.build_script(workload, args.seed, admissions)


def describe_round(result: wl.RoundResult, label: str) -> str:
    return (
        f"  {label:<10} setup {result.setup_s:6.2f}s  wall {result.wall_s:6.2f}s  "
        f"decisions {result.decisions} (admitted {result.admitted}, refused "
        f"{result.refused}, levels {result.levels})  ops {result.attempted} "
        f"failed {result.failed}  host slowdown x{1 / result.speed_factor():.2f} "
        f"steal {result.steal_share:.1%}"
    )


# -- aggregation and checks ------------------------------------------------


def end_to_end(rounds: List[wl.RoundResult]) -> Dict[str, float]:
    """The seven end-to-end metrics of one workload from its rounds.

    Every round runs the same script, so every request and every tick
    is measured once per round.  Each raw time is first put at nominal
    host speed (README, "Run protocol"); a request's latency and a
    tick's wall and CPU time are then the median of their readings
    over the rounds, and the metrics are read off that median round.
    Set-up time and peak RSS are medians over the rounds.
    """
    factors = [result.speed_factors() for result in rounds]
    # An open loop times a request from when it was due, so a stall of the
    # host is charged to every request queued behind it and can only add;
    # queueing the script itself causes is there in every round.  The
    # least disturbed of a request's readings is then its minimum, and it
    # repeated where the median did not (README).  A closed loop sheds its
    # load while the host stalls, and there the median is the steadier.
    latency = min if rounds[0].late_ms else statistics.median

    def per_request(pick) -> List[float]:
        readings: Dict[int, List[float]] = collections.defaultdict(list)
        for result, speed in zip(rounds, factors):
            for position, chunk, ms in pick(result):
                readings[position].append(ms * speed[chunk])
        return [latency(values) for values in readings.values()]

    def per_tick(clock: int) -> float:
        return sum(
            statistics.median(r.chunks[c]["ticks"][t][clock] * f[c]
                              for r, f in zip(rounds, factors))
            for c, chunk in enumerate(rounds[0].chunks)
            for t in range(len(chunk["ticks"]))
        )

    decisions = sum(chunk["decisions"] for chunk in rounds[0].chunks)
    admit, read = per_request(lambda r: r.admit), per_request(lambda r: r.read)
    return {
        "setup_s": statistics.median(r.setup_s * r.speed_factor() for r in rounds),
        "decisions_per_s": decisions / per_tick(0),
        "admit_p50_ms": percentile(admit, 50),
        "admit_p90_ms": percentile(admit, 90),
        "read_p50_ms": percentile(read, 50),
        "cpu_ms_per_decision": 1e3 * per_tick(1) / decisions,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
    }


def check_rounds(workload: str, script: wl.Script, rounds: List[wl.RoundResult],
                 quick: bool) -> List[str]:
    """The correctness gates; returns what failed (empty = correct)."""
    problems = []
    for number, result in enumerate(rounds, start=1):
        for message in result.failures:
            problems.append(f"{workload} round {number}: {message}")
        if result.failed > len(result.failures):
            problems.append(
                f"{workload} round {number}: {result.failed - len(result.failures)} "
                "more failed operations")
        if result.admitted + result.refused != script.measured_arrivals:
            problems.append(
                f"{workload} round {number}: admitted + refused != decisions sent")
        if not quick and len(result.admit) < 100:
            problems.append(
                f"{workload} round {number}: p90 has fewer than 10 samples beyond it "
                f"({len(result.admit)} admissions)")
    digests = {result.decision_digest for result in rounds}
    if workload in SINGLE_CALLER and len(digests) > 1:
        problems.append(f"{workload}: decision digests differ between rounds")
    return problems


@dataclasses.dataclass
class WorkloadReport:
    workload: str
    script: wl.Script
    rounds: List[wl.RoundResult]
    #: The rounds that ran the whole script without a failed operation.
    usable: List[wl.RoundResult]
    metrics: Dict[str, float]
    problems: List[str]

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds)

    def router_hop_us(self) -> float:
        """The caller->router hop at nominal speed (0 where there is no router)."""
        return statistics.median(
            r.speed_factor() * r.extra.get("router_hop_us", 0.0) for r in self.usable)

    def round_admit_p50_ms(self) -> float:
        """What one untraced round reads as its median establish latency.

        The base a single traced round is compared with: unlike
        ``admit_p50_ms`` it combines nothing across rounds.
        """
        return statistics.median(
            percentile(r.normalised(r.admit), 50) for r in self.usable)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)


def measure(names: List[str], args: argparse.Namespace) -> Dict[str, WorkloadReport]:
    """``rounds`` rounds of every named workload, interleaved across workloads."""
    scripts = {
        name: wl.build_script(
            name, args.seed, wl.admissions_for(name, args.seconds, args.scale))
        for name in names
    }
    rounds: Dict[str, List[wl.RoundResult]] = {name: [] for name in names}
    run_started = time.perf_counter()
    longest_round_s = 0.0
    for number in range(1, args.rounds + 1):
        round_started = time.perf_counter()
        if args.workload and round_started - run_started + longest_round_s > RUN_BUDGET_S:
            print(f"host too slow: stopping after {number - 1} rounds", flush=True)
            break
        # Interleaved, so a slow minute on the host costs each workload one round.
        for name in names:
            result = run_round(scripts[name], False, args)
            print(f"{name}\n{describe_round(result, f'round {number}')}", flush=True)
            rounds[name].append(result)
        longest_round_s = max(longest_round_s, time.perf_counter() - round_started)
    reports = {}
    for name in names:
        complete = len(scripts[name].chunk_bounds())
        usable = [r for r in rounds[name] if len(r.chunks) == complete and not r.failed]
        metrics = end_to_end(usable) if usable else {}
        problems = check_rounds(name, scripts[name], rounds[name], args.quick)
        if len(usable) < len(rounds[name]):
            problems.append(f"{name}: a round produced no usable measurement")
        reports[name] = WorkloadReport(
            name, scripts[name], rounds[name], usable, metrics, problems)
    return reports


def trace_pass(reports: Dict[str, WorkloadReport], args: argparse.Namespace,
               facts: dict) -> Dict[str, dict]:
    """Probes once, then one traced round per measured workload; writes ``out/trace.json``."""
    probes = run_probes(args.seed)
    document = {"meta": {"seed": args.seed, **facts}, "workloads": {}}
    traced: Dict[str, dict] = {}
    for name, report in reports.items():
        script = traced_script(name, args)
        result = run_round(script, True, args)
        print(f"{name}\n{describe_round(result, 'traced')}", flush=True)
        problems = check_rounds(name, script, [result], quick=True)
        untraced_p50, hop_us = report.round_admit_p50_ms(), report.router_hop_us()
        metrics = {**layers.round_metrics(result, untraced_p50, hop_us), **probes}
        traced[name] = {"metrics": metrics, "problems": problems, "result": result}
        document["workloads"][name] = {
            "admit_p50_ms_untraced": untraced_p50,
            "hop_us": hop_us,
            "admit_p50_ms_traced": percentile(result.normalised(result.admit), 50),
            "late_p50_ms": percentile(result.late_ms, 50) if result.late_ms else 0.0,
            # Span times are raw; times this, they are at nominal host speed.
            "speed_factor": result.speed_factor(),
            "phases_us": {
                phase: metrics[f"service.daemon.phase.{phase}_us"] for phase in layers.PHASES
            },
            "spans": result.spans,
        }
    sut.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (sut.OUT_DIR / "trace.json").write_text(json.dumps(document))
    return traced


# -- output ----------------------------------------------------------------


def print_end_to_end(reports: Dict[str, WorkloadReport]) -> None:
    names = list(reports)
    print("\nend-to-end (times at nominal host speed; median over the rounds)")
    print(f"  {'metric':<22}{'unit':<6}" + "".join(f"{name:>18}" for name in names))
    for metric, unit in END_TO_END:
        cells = "".join(
            f"{reports[name].metrics.get(metric, math.nan):>18.4f}" for name in names)
        print(f"  {metric:<22}{unit:<6}{cells}")
    footer = (
        ("admit samples/round", lambda r: min(len(x.admit) for x in r.rounds)),
        ("read samples/round", lambda r: min(len(x.read) for x in r.rounds)),
        ("rounds", lambda r: len(r.rounds)),
        ("host slowdown (x nominal)", lambda r: "{:.2f}".format(
            statistics.median(1 / x.speed_factor() for x in r.rounds))),
        ("operations attempted", lambda r: r.attempted),
        ("operations failed", lambda r: r.failed),
    )
    for label, pick in footer:
        print(f"  {label:<28}" + "".join(f"{pick(reports[name])!s:>18}" for name in names))
    for name in names:
        print(f"  script sha256 {name}: {reports[name].script.digest}")


def print_per_layer(traced: Dict[str, dict]) -> None:
    names = list(traced)
    print("\nper-layer (probes + one traced round; 0 = layer not on the workload's path)")
    print(f"  {'metric':<52}{'unit':<7}" + "".join(f"{name:>16}" for name in names))
    for metric, unit, _better, _moves in layers.CATALOGUE:
        cells = "".join(f"{traced[name]['metrics'][metric]:>16.4f}" for name in names)
        print(f"  {metric:<52}{unit:<7}{cells}")
    for name in names:
        ratio = traced[name]["metrics"]["trace.overhead_ratio"]
        print(f"  trace.overhead_ratio.{name} = {ratio:.4f}")


def driver_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, float],
                units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    })


def print_host(facts: dict) -> None:
    print(
        f"host: nproc={facts['nproc']} load_1m={facts['load_1m']:.2f} "
        f"python={facts['python']} git={facts['git_sha']}"
        + ("  ** noisy_host: load exceeds nproc, timings are suspect **"
           if facts["noisy_host"] else ""),
        flush=True,
    )


def report_problems(problems: List[str]) -> None:
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)


# -- modes -----------------------------------------------------------------


def run(args: argparse.Namespace, facts: dict) -> int:
    """One workload (the driver's form) or all of them (the reader's form)."""
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    if args.workload and args.trace:
        # The driver's traced run: one untraced round is the overhead's base.
        args.rounds = 1
    reports = measure(names, args)
    problems = [p for report in reports.values() for p in report.problems]
    attempted = sum(r.attempted for r in reports.values())
    failed = sum(r.failed for r in reports.values())
    print_end_to_end(reports)
    traced: Dict[str, dict] = {}
    if args.trace or not args.workload:
        traced = trace_pass(
            {name: report for name, report in reports.items() if report.metrics},
            args, facts)
        print_per_layer(traced)
        for entry in traced.values():
            problems += entry["problems"]
            attempted += entry["result"].attempted
            failed += entry["result"].failed
    if args.check:
        report_problems(problems)
    correct = not problems and failed == 0
    write_results(args, facts, reports, correct)
    if args.workload:
        if args.trace:
            metrics = traced.get(args.workload, {}).get("metrics", {})
            units = {name: unit for name, unit, *_ in layers.CATALOGUE}
        else:
            metrics, units = reports[args.workload].metrics, dict(END_TO_END)
        if not metrics:
            return 1
        print(driver_line(correct, attempted, failed, metrics, units))
    else:
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "host": facts,
            "end_to_end": {name: reports[name].metrics for name in names},
        }))
    return 0 if correct or not args.check else 1


def write_results(args: argparse.Namespace, facts: dict,
                  reports: Dict[str, WorkloadReport], correct: bool) -> None:
    """``out/results.json``: the host, the script and every round's chunks."""
    sut.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (sut.OUT_DIR / "results.json").write_text(json.dumps({
        "host": facts,
        "seed": args.seed,
        "seconds": args.seconds,
        "correct": correct,
        "workloads": {
            name: {
                "script_sha256": report.script.digest,
                "metrics": report.metrics,
                "rounds": [
                    {key: value for key, value in dataclasses.asdict(r).items()
                     if key != "spans"}
                    for r in report.rounds
                ],
            }
            for name, report in reports.items()
        },
    }))


def noise_report(args: argparse.Namespace, facts: dict) -> int:
    """N back-to-back full sets; spread of every end-to-end metric against its bound."""
    bounds = {m["name"]: m["bound"] for m in _benchmark_json()["end_to_end"]}
    names = list(wl.WORKLOADS)
    sets: List[Dict[str, WorkloadReport]] = []
    for number in range(1, args.repeat + 1):
        print(f"\n== set {number} of {args.repeat}", flush=True)
        sets.append(measure(names, args))
    rows, exceeded, problems = [], [], []
    for name in names:
        for metric, unit in END_TO_END:
            values = [s[name].metrics[metric] for s in sets if s[name].metrics]
            median = statistics.median(values)
            spread = (max(values) - min(values)) / median
            bound = bounds[metric]
            row = {
                "workload": name, "metric": metric, "unit": unit, "values": values,
                "min": min(values), "median": median, "max": max(values),
                "spread": spread, "bound": bound,
                "within_bound": spread <= bound,
            }
            rows.append(row)
            if not row["within_bound"]:
                exceeded.append(row)
            print(f"  {name:<16}{metric:<22}{min(values):>12.4f}{median:>12.4f}"
                  f"{max(values):>12.4f}  spread {spread:6.1%}  bound "
                  f"{bound}"
                  f"{'' if row['within_bound'] else '  EXCEEDED'}")
        problems += [p for s in sets for p in s[name].problems]
    (HERE / "NOISE.json").write_text(json.dumps({
        "command": f"run.py --repeat {args.repeat} --seed {args.seed} --seconds {args.seconds:g}",
        "host": facts,
        "sets": args.repeat,
        "spread": "(max - min) / median over the sets",
        "rows": rows,
    }, indent=1) + "\n")
    report_problems(problems)
    for row in exceeded:
        print(f"NOISE: {row['workload']} {row['metric']} spread {row['spread']:.1%} "
              f"exceeds bound {row['bound']}", file=sys.stderr)
    return 1 if exceeded or (problems and args.check) else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.worker_round:
        return worker_round(args)
    if args.probe:
        return worker_probe(args)
    # SIGTERM unwinds like Ctrl-C does, so every ProcessGroup gets to kill its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    facts = sut.host_facts()  # nproc and the load *before* the benchmark pins and adds its own
    sut.pin_to_one_cpu()
    print_host(facts)
    with sut.ProcessGroup() as helpers:
        echo = helpers.spawn([str(HERE / "reference.py")], "reference")
        args.reference_port = sut.read_boot_port(echo)
        if args.repeat:
            return noise_report(args, facts)
        return run(args, facts)


if __name__ == "__main__":
    sys.exit(main())
