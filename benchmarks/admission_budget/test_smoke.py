"""Smoke test of the benchmark itself (outside the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/admission_budget -q
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
HOST_KEYS = {"nproc", "load_1m", "noisy_host", "python", "git_sha"}


def run(*flags, timeout=170):
    return subprocess.run(
        [*RUN, *flags], cwd=REPO_ROOT, capture_output=True, text=True, timeout=timeout
    )


def surviving_children():
    """Command lines of daemons or benchmark workers still alive."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            command = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if "repro.service.cli" in command or "repro.cluster.cli" in command:
            found.append(command)
    return found


def assert_no_children():
    deadline = time.monotonic() + 5.0
    while surviving_children() and time.monotonic() < deadline:
        time.sleep(0.1)
    assert surviving_children() == []


def test_quick_prints_exactly_the_contract_names():
    done = run("--quick", "--seed", "7")
    assert done.returncode == 0, done.stderr[-2000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert set(summary["host"]) == HOST_KEYS
    assert list(summary["end_to_end"]) == WORKLOADS
    end_to_end = [entry["name"] for entry in CONTRACT["end_to_end"]]
    for workload in WORKLOADS:
        assert list(summary["end_to_end"][workload]) == end_to_end
    for entry in CONTRACT["per_layer"]:
        assert f"  {entry['name']} " in done.stdout, entry["name"]
    for workload in WORKLOADS:
        assert f"trace.overhead_ratio.{workload} = " in done.stdout
    assert (HERE / "out" / "trace.json").is_file()
    budget = subprocess.run(
        [sys.executable, str(HERE / "budget.py")], capture_output=True, text=True, timeout=60
    )
    assert "unattributed" in budget.stdout
    assert_no_children()


def test_driver_form_matches_the_contract():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = run("--workload", "daemon_closed", "--seed", "8", "--seconds", "1",
                   "--trace", trace, "--quick")
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
        expected = {entry["name"]: entry["unit"] for entry in CONTRACT[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert_no_children()


def test_probes_run_where_the_full_window_exhausts_a_broker():
    # On seeds 1, 5 and 20 the warm-up leaves a broker under one unit and, on
    # 20, admits no further arrival: each once crashed a probe that assumed room.
    names = {entry["name"] for entry in CONTRACT["per_layer"]}
    for seed in ("1", "5", "20"):
        done = run("--probe", "--seed", seed)
        assert done.returncode == 0, done.stderr[-2000:]
        readings = json.loads(done.stdout)
        assert readings and set(readings) <= names
        assert all(math.isfinite(value) for value in readings.values())


def test_same_seed_same_script_other_seed_other_script():
    def digests(seed):
        done = run("--workload", "coord_dark", "--seed", seed, "--quick")
        assert done.returncode == 0, done.stderr[-2000:]
        return [line for line in done.stdout.splitlines() if "script sha256" in line]

    assert digests("7") == digests("7") != digests("8")


def test_injected_timeout_fails_the_run_and_leaves_no_child():
    done = run("--workload", "cluster3_serial", "--quick", "--op-timeout", "0.0002")
    assert done.returncode != 0
    assert "CHECK FAILED" in done.stderr
    assert_no_children()
