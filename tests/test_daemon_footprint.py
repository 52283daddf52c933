"""What a daemon process carries: no numpy, no per-request page faults.

The serving path (``repro-serve``, ``repro-cluster``) draws its grid's
capacities from the pure-Python PCG64 stream, so a daemon that never
plans with ``--algorithm random`` never imports numpy.  Each check runs
in a fresh interpreter: the test runner itself has numpy loaded.
"""

from __future__ import annotations

import http.client
import re
import subprocess
import sys
import textwrap

import pytest

from tests.test_examples import REPO, subprocess_env


def run_python(source: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        cwd=REPO,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_daemons_and_router_serve_without_importing_numpy():
    out = run_python(
        """
        import asyncio, sys
        import repro.service.cli, repro.cluster.cli
        from repro.cluster import ClusterCoordinator, LocalShardClient
        from repro.service.daemon import DaemonConfig, ReservationService

        def serve(config, service_name, domain):
            service = ReservationService(config)
            service.start()
            try:
                session = {"service": service_name, "domain": domain,
                           "session_id": "one"}
                assert service.handle("POST", "/v1/establish", {}, session)[0] == 200
                assert service.handle("POST", "/v1/teardown", {}, session)[0] == 200
            finally:
                service.close()

        serve(DaemonConfig(seed=7), "S2", "D1")
        serve(DaemonConfig(seed=3, shard_index=0, shard_count=3), "S1", "D7")

        async def route():
            shard = LocalShardClient(0, ReservationService(DaemonConfig(seed=7)))
            router = ClusterCoordinator([shard], seed=7)
            session = {"service": "S2", "domain": "D1", "session_id": "one"}
            assert (await router.establish(session))[0] == 200
            assert (await router.teardown(session))[0] == 200

        asyncio.run(route())
        print("numpy" in sys.modules)
        """
    )
    assert out.strip() == "False"


#: sha256 of the 40 ``/v1/establish`` answers below, read off the tree
#: that still drew the grid's capacities through numpy.
RANDOM_PLANNER_DIGEST = "ca676dd76e7c443a491a7fa49c46ace4d15bd58ffb6f4e6199dabbe1533d840c"


def test_random_planner_imports_numpy_on_use_and_keeps_its_decisions():
    out = run_python(
        """
        import hashlib, json, sys
        from repro.service.daemon import DaemonConfig, ReservationService

        before = "numpy" in sys.modules
        service = ReservationService(DaemonConfig(seed=7, algorithm="random"))
        after = "numpy" in sys.modules
        service.start()
        answers = []
        try:
            pairs = [("S2", "D1"), ("S1", "D3"), ("S3", "D7"), ("S4", "D2"), ("S1", "D8")]
            for i in range(40):
                service_name, domain = pairs[i % len(pairs)]
                answers.append(service.handle("POST", "/v1/establish", {}, {
                    "service": service_name, "domain": domain,
                    "session_id": f"s{i}", "demand_scale": 2.0,
                }))
        finally:
            service.close()
        digest = hashlib.sha256(
            json.dumps(answers, sort_keys=True, default=str).encode()
        ).hexdigest()
        print(before, after, digest)
        """
    )
    assert out.split() == ["False", "True", RANDOM_PLANNER_DIGEST]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_request_does_not_fault_in_fresh_pages():
    """asyncio's 256 KiB socket reads stay on the heap, not in a new mmap."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service.cli", "--port", "0"],
        cwd=REPO,
        env=subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"repro-serve: listening on [^:]+:(\d+) ", line)
        assert match, f"no boot line: {line!r}"
        connection = http.client.HTTPConnection("127.0.0.1", int(match.group(1)))

        def healthz(count: int) -> None:
            for _ in range(count):
                connection.request("GET", "/healthz")
                assert connection.getresponse().read()

        def minor_faults() -> int:
            with open(f"/proc/{process.pid}/stat") as stat:
                return int(stat.read().rsplit(")", 1)[1].split()[7])

        healthz(200)
        before = minor_faults()
        healthz(1000)
        faults = minor_faults() - before
        connection.close()
    finally:
        process.terminate()
        process.wait(timeout=10)
    assert faults / 1000 <= 0.1
