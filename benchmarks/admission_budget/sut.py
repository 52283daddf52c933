"""Systems under test: spawn, read from outside (`/proc`), and always kill.

Every daemon the benchmark starts is the leader of its own process
group and asks the kernel to SIGKILL it if the benchmark dies, so no
``repro-serve``/``repro-cluster`` child outlives a run -- on normal
exit, on a failed check, on Ctrl-C, or when the driver kills the
benchmark at its time limit.
"""

from __future__ import annotations

import ctypes
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = HERE / "out"

#: Grid seed of every system under test (ISSUE: "grid seed 11").
GRID_SEED = 11
BOOT_TIMEOUT_S = 30.0
_BOOT_LINE = re.compile(r"listening on [^:\s]+:(\d+) ")
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1


def require_source_tree() -> None:
    """Exit non-zero when the program the benchmark measures is absent."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(
            f"admission_budget: {SRC_DIR}/repro not found -- the benchmark "
            "measures the repository's own source and cannot run without it"
        )


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _die_with_parent() -> None:
    """preexec hook: have the kernel kill this child when the parent dies."""
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass  # non-Linux libc: the process-group kill still covers exits


class ProcessGroup:
    """The children of one round; :meth:`close` leaves none alive."""

    def __init__(self) -> None:
        self.children: List[subprocess.Popen] = []

    def spawn(self, argv: Sequence[str], log_name: str):
        """Start ``python <argv>`` in its own session; stderr goes to a log."""
        log_dir = OUT_DIR / "logs"
        log_dir.mkdir(parents=True, exist_ok=True)
        with open(log_dir / f"{log_name}.stderr", "wb") as stderr:
            child = subprocess.Popen(
                [sys.executable, *argv],
                cwd=REPO_ROOT,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
                start_new_session=True,
                preexec_fn=_die_with_parent,
            )
        self.children.append(child)
        return child

    def spawn_daemon(self, module: str, args: Sequence[str], log_name: str):
        """Start a ``repro-serve``/``repro-cluster`` module on an ephemeral port."""
        return self.spawn(["-m", module, "--port", "0", *args], log_name)

    def pids(self) -> List[int]:
        return [child.pid for child in self.children]

    def close(self, grace_s: float = 5.0) -> None:
        """SIGTERM every group, wait, then SIGKILL what is left."""
        for child in self.children:
            _signal_group(child, signal.SIGTERM)
        deadline = time.monotonic() + grace_s
        for child in self.children:
            try:
                child.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                _signal_group(child, signal.SIGKILL)
                child.wait()
            if child.stdout is not None:
                child.stdout.close()
        self.children.clear()

    def __enter__(self) -> "ProcessGroup":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _signal_group(child: subprocess.Popen, signum: int) -> None:
    if child.poll() is not None:
        return
    try:
        os.killpg(child.pid, signum)
    except ProcessLookupError:
        pass


def read_boot_port(child: subprocess.Popen, timeout_s: float = BOOT_TIMEOUT_S) -> int:
    """The port from the daemon's ``listening on host:port`` boot line."""
    line = read_line(child, timeout_s)
    match = _BOOT_LINE.search(line)
    if not match:
        raise RuntimeError(f"pid {child.pid}: no boot line, got {line!r}")
    return int(match.group(1))


def read_line(child: subprocess.Popen, timeout_s: float) -> str:
    """One stdout line of a child, or RuntimeError after ``timeout_s``."""
    ready, _, _ = select.select([child.stdout], [], [], timeout_s)
    if not ready:
        raise RuntimeError(f"pid {child.pid}: silent for {timeout_s:.0f}s")
    line = child.stdout.readline()
    if not line:
        raise RuntimeError(f"pid {child.pid}: exited with {child.wait()}")
    return line.decode("utf-8", "replace")


# -- readings from /proc (the surfaces every process already serves) ----------


def cpu_seconds(pids: Sequence[int]) -> float:
    """CPU seconds consumed so far by every thread of ``pids``.

    From ``/proc/<pid>/task/*/schedstat`` (nanoseconds on a CPU): the
    ``utime``/``stime`` of ``/proc/<pid>/stat`` tick at 10 ms, which is a
    whole chunk of the cluster workload.
    """
    total_ns = 0
    for pid in pids:
        for task in Path(f"/proc/{pid}/task").iterdir():
            total_ns += int((task / "schedstat").read_text().split()[0])
    return total_ns / 1e9


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the processes' high-water resident set sizes, in MiB."""
    total_kb = 0
    for pid in pids:
        status = Path(f"/proc/{pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match is None:
            raise RuntimeError(f"pid {pid}: no VmHWM in /proc status")
        total_kb += int(match.group(1))
    return total_kb / 1024.0


def pin_to_one_cpu() -> None:
    """Confine this process, and every child it spawns from now on, to one CPU.

    On a shared two-vCPU host a request that crosses vCPUs waits for the
    hypervisor to schedule the other one, and that wait is what did not
    repeat: the same code's ``admit_p50_ms`` spread 10-87% across seeds with
    the load generator and the daemons free to use both vCPUs, 4-9% in the
    same hour with all of them on one (README, "Run protocol").
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def steal_seconds() -> float:
    """Seconds the hypervisor ran something else while our CPU wanted to run."""
    cpus = os.sched_getaffinity(0)
    with open("/proc/stat") as stat:
        return sum(
            int(fields[8]) for fields in map(str.split, stat)
            if fields[0][:3] == "cpu" and fields[0][3:].isdigit() and int(fields[0][3:]) in cpus
        ) / _CLK_TCK


def host_facts() -> dict:
    """What a reader needs to judge whether two runs are comparable."""
    nproc = len(os.sched_getaffinity(0))
    load_1m = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "load_1m": load_1m,
        "noisy_host": load_1m > nproc,
        "python": sys.version.split()[0],
        "git_sha": _git_sha(),
    }


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None
