"""SIGTERM drain contract, proven against the real serve process.

The in-process shutdown path is covered elsewhere; this is the
operator-facing version: a ``kill <pid>`` (what systemd and container
runtimes send) must let in-flight work finish, flush it to the disk
cache, refuse new compute, and exit 0 — a non-zero exit means leaked
workers.  Conversely, the SIGTERMs a broken worker pool's teardown
sends its own workers must never reach the serving process.
"""

import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

REPO = pathlib.Path(__file__).resolve().parents[2]

SMALL_PLAN = {
    "devices": 4,
    "vocab_size": "32k",
    "microbatches": 8,
    "simulate_top_k": 1,
}


def spawn_serve(*args: str) -> tuple[subprocess.Popen, str, int]:
    """Start ``serve --port 0 *args``; return it with its bound address."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("REPRO_FAULTS", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.harness.cli", "serve", "--port", "0",
         *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 60
    for line in process.stdout:
        if line.startswith("serving on http://"):
            host, raw_port = line.strip().rsplit("/", 1)[1].split(":")
            return process, host, int(raw_port)
        if time.monotonic() > deadline:
            break
    process.kill()
    process.wait(timeout=10)
    process.stdout.close()
    raise AssertionError("server never announced its port")


def test_sigterm_drains_in_flight_flushes_cache_and_exits_zero(tmp_path):
    cache_dir = tmp_path / "plans"
    process, host, port = spawn_serve(
        "--executor", "thread",
        "--cache-dir", str(cache_dir),
        # Make the in-flight request measurably slow so the
        # SIGTERM reliably lands mid-computation.
        "--faults", "slow-worker:rate=1,delay_ms=1500",
    )
    try:
        result = {}

        def slow_request():
            conn = http.client.HTTPConnection(host, port, timeout=120.0)
            try:
                conn.request("POST", "/v1/plan", body=json.dumps(SMALL_PLAN))
                response = conn.getresponse()
                result["status"] = response.status
                result["body"] = json.loads(response.read())
            except Exception as error:  # noqa: BLE001 - recorded, asserted on
                result["error"] = error
            finally:
                conn.close()

        client = threading.Thread(target=slow_request)
        client.start()
        time.sleep(0.4)  # let the request reach the compute tier
        process.send_signal(signal.SIGTERM)

        # New compute during the drain is refused (503 + Retry-After)
        # or the listener is already gone — never a hang, never a 200.
        try:
            conn = http.client.HTTPConnection(host, port, timeout=10.0)
            conn.request(
                "POST", "/v1/plan",
                body=json.dumps(dict(SMALL_PLAN, pass_overhead=1e-9)),
            )
            assert conn.getresponse().status == 503
            conn.close()
        except OSError:
            pass

        # The in-flight request drains to a real answer.
        client.join(timeout=60)
        assert not client.is_alive(), "in-flight request never completed"
        assert result.get("status") == 200, result
        assert result["body"]["result"]["best"] is not None

        # Exit 0: drained, workers joined, nothing leaked.
        assert process.wait(timeout=60) == 0

        # The drained computation was flushed to the disk tier before
        # exit — a restarted server would serve it as a disk hit.
        assert any(cache_dir.rglob("*.pkl")), (
            "drained plan never reached the disk cache"
        )
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        process.stdout.close()


def test_broken_pool_teardown_does_not_stop_the_server():
    """A worker crash breaks the process pool, whose teardown SIGTERMs
    the surviving workers: the server must degrade and keep serving,
    not take those signals for its own shutdown."""
    process, host, port = spawn_serve(
        "--executor", "process", "--workers", "2",
        "--faults", "kill-pool-worker:rate=1,after=1,limit=1",
    )
    try:
        for overhead in (1e-9, 2e-9, 3e-9):
            conn = http.client.HTTPConnection(host, port, timeout=120.0)
            conn.request(
                "POST", "/v1/plan",
                body=json.dumps(dict(SMALL_PLAN, pass_overhead=overhead)),
            )
            assert conn.getresponse().status == 200
            conn.close()
        time.sleep(0.5)
        assert process.poll() is None, "server exited after the pool broke"
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        conn.request("POST", "/shutdown")
        assert conn.getresponse().status == 200
        conn.close()
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        process.stdout.close()
