#!/usr/bin/env python
"""Closed-loop load generator for the planning service.

Drives a live ``repro-experiments serve`` process with a configurable
mix of plan / sweep / scenario / what-if queries from N concurrent
closed-loop workers (each worker issues its next request as soon as the previous
one returns), plus a synchronized *duplicate burst* that exercises
request coalescing.  Records throughput and p50/p95/p99 latency per
request class and validates the service's behavioural contract:

* ``/healthz`` answers OK before and after the load;
* every response is 200 with a well-formed body;
* the coalesce counter is positive after the duplicate burst, and the
  burst's responses are bit-identical;
* the server shuts down cleanly on ``POST /shutdown`` and its exit
  code is propagated — ``repro-experiments serve`` exits non-zero when
  worker processes leak past pool shutdown, and so does this tool.

Usage (CI's service-smoke job runs the first form)::

    PYTHONPATH=src python tools/loadtest_service.py --quick
    PYTHONPATH=src python tools/loadtest_service.py --concurrency 16 --requests 40
    PYTHONPATH=src python tools/loadtest_service.py --url http://127.0.0.1:8181

Without ``--url`` the tool spawns its own server subprocess (an
ephemeral port, ``--executor`` selects its pool type).  The per-class
latency summary can be written with ``--json``; the committed
``BENCH_service.json`` trajectory numbers come from
``tools/bench_trajectory.py --service``, which reuses this module's
client primitives.
"""

from __future__ import annotations

import argparse
import http.client
import json
import re
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Client primitives (also used by tools/bench_trajectory.py --service)
# ---------------------------------------------------------------------------


def request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    timeout: float = 300.0,
) -> tuple[int, dict]:
    """One HTTP request → (status, decoded JSON body)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def percentile(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a latency sample."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def summarize(latencies: list[float], wall_s: float) -> dict:
    """Throughput + latency percentiles for one request class."""
    return {
        "requests": len(latencies),
        "wall_s": wall_s,
        "throughput_rps": len(latencies) / wall_s if wall_s > 0 else 0.0,
        "mean_s": sum(latencies) / len(latencies) if latencies else 0.0,
        "p50_s": percentile(latencies, 50.0),
        "p95_s": percentile(latencies, 95.0),
        "p99_s": percentile(latencies, 99.0),
    }


class ServerHandle:
    """A spawned ``repro-experiments serve`` subprocess."""

    def __init__(self, process: subprocess.Popen, host: str, port: int):
        self.process = process
        self.host = host
        self.port = port

    def shutdown(self, timeout: float = 60.0) -> int:
        """Graceful shutdown; returns the server's exit code."""
        try:
            request_json(self.host, self.port, "POST", "/shutdown", timeout=30.0)
        except OSError:
            pass  # already gone
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10.0)
            return -1


def spawn_server(
    executor: str = "process",
    workers: int | None = None,
    cache_dir: str | None = None,
    lru_size: int = 256,
    startup_timeout: float = 60.0,
    faults: str | None = None,
    extra_args: list[str] | None = None,
) -> ServerHandle:
    """Start a server subprocess on an ephemeral port and wait for it.

    ``faults`` sets (or, when ``None``, strips) ``REPRO_FAULTS`` in the
    child's environment — the env route, not ``--faults``, so pool
    *worker* processes inherit the spec and cache-write fault sites
    fire inside them too.
    """
    import os

    command = [
        sys.executable, "-m", "repro.harness.cli", "serve",
        "--port", "0", "--executor", executor,
    ]
    if workers is not None:
        command += ["--workers", str(workers)]
    if cache_dir is not None:
        command += ["--cache-dir", cache_dir]
    command += ["--lru-size", str(lru_size)]
    command += extra_args or []
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, cwd=str(REPO)
    )
    deadline = time.monotonic() + startup_timeout
    pattern = re.compile(r"serving on http://([^:]+):(\d+)")
    while True:
        # select() before readline(): a subprocess that hangs before
        # announcing its port (with stdout still open) must fail this
        # call after startup_timeout, not block CI forever.
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        readable, _, _ = select.select([process.stdout], [], [], remaining)
        if not readable:
            break
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited during startup (code {process.poll()})"
            )
        match = pattern.search(line)
        if match:
            return ServerHandle(process, match.group(1), int(match.group(2)))
    process.kill()
    raise RuntimeError(f"server did not announce a port in {startup_timeout}s")


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


def build_mix(args: argparse.Namespace) -> list[tuple[str, str, dict]]:
    """The deterministic request classes: (class name, path, payload).

    ``hot`` repeats one configuration (LRU-hit steady state), ``cold``
    walks distinct memory budgets over one schedule structure (planner
    aux caches do the heavy lifting, every digest is new), ``sweep``
    and ``scenarios`` exercise those two endpoints at a size that
    keeps the closed loop interactive, and ``whatif`` walks distinct
    slowdown factors so every delta query is a fresh digest answered
    by the resident compiled graph.
    """
    base = {
        "devices": args.devices,
        "vocab_size": args.vocab_size,
        "microbatches": args.microbatches,
        "simulate_top_k": args.top_k,
    }
    classes = [("plan_hot", "/v1/plan", dict(base))]
    classes.append(
        (
            "plan_cold",
            "/v1/plan",
            dict(base, memory_budget_gib="COLD"),  # placeholder per request
        )
    )
    classes.append(
        (
            "sweep",
            "/v1/sweep",
            {
                "devices": [args.devices],
                "vocab_sizes": [args.vocab_size],
                "microbatches": [args.microbatches],
                "memory_budgets_gib": [40.0, 80.0],
                "simulate_top_k": args.top_k,
            },
        )
    )
    classes.append(
        (
            "scenarios",
            "/v1/scenarios",
            {
                "scenario": "slow-node",
                "method": "vocab-1",
                "devices": args.devices,
                "vocab_size": args.vocab_size,
                "microbatches": args.microbatches,
                "samples": args.samples,
            },
        )
    )
    classes.append(
        (
            "whatif",
            "/v1/whatif",
            {
                "devices": args.devices,
                "vocab_size": args.vocab_size,
                "microbatches": args.microbatches,
                "method": "vocab-1",
                "device": -1,
                "factor": "COLD",  # placeholder per request
            },
        )
    )
    return classes


def run_closed_loop(
    host: str,
    port: int,
    classes: list[tuple[str, str, dict]],
    concurrency: int,
    requests_per_worker: int,
    hot_ratio: float,
) -> tuple[dict[str, list[float]], float, list[str]]:
    """N workers, each issuing its next request when the last returns.

    The request stream is deterministic per worker: a ``hot_ratio``
    fraction of slots replay the hot-plan class, the rest round-robin
    over the remaining classes.  Cold plan slots draw a
    worker-and-slot-unique memory budget so every one is a fresh
    digest.
    """
    latencies: dict[str, list[float]] = {name: [] for name, _, _ in classes}
    errors: list[str] = []
    lock = threading.Lock()
    others = [c for c in classes if c[0] != "plan_hot"]

    def schedule(worker: int, slot: int) -> tuple[str, str, dict]:
        # Bresenham-style interleave: a hot_ratio fraction of slots is
        # hot with hot/cold evenly mixed even for tiny slot counts.
        if int((slot + 1) * hot_ratio) > int(slot * hot_ratio):
            return classes[0]
        name, path, payload = others[(worker + slot) % len(others)]
        if name == "plan_cold":
            payload = dict(payload)
            payload["memory_budget_gib"] = (
                30.0 + (worker * requests_per_worker + slot) * 0.125
            )
        elif name == "whatif":
            payload = dict(payload)
            payload["factor"] = (
                1.05 + (worker * requests_per_worker + slot) * 0.01
            )
        return name, path, payload

    def run_worker(worker: int) -> None:
        for slot in range(requests_per_worker):
            name, path, payload = schedule(worker, slot)
            start = time.perf_counter()
            try:
                status, body = request_json(host, port, "POST", path, payload)
            except OSError as error:
                with lock:
                    errors.append(f"{name}: transport error {error}")
                continue
            elapsed = time.perf_counter() - start
            with lock:
                if status != 200:
                    errors.append(
                        f"{name}: HTTP {status}: {body.get('error', body)}"
                    )
                else:
                    latencies[name].append(elapsed)

    threads = [
        threading.Thread(target=run_worker, args=(w,)) for w in range(concurrency)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, time.perf_counter() - start, errors


def run_duplicate_burst(
    host: str, port: int, payload: dict, duplicates: int
) -> tuple[list[float], set[str], list[str]]:
    """Fire N identical requests through a barrier (the coalesce probe).

    The payload must be a digest the service has not seen (otherwise
    the LRU answers and nothing coalesces).  Returns latencies, the
    set of distinct response bodies (must be exactly one) and errors.
    """
    barrier = threading.Barrier(duplicates)
    latencies: list[float] = []
    bodies: set[str] = set()
    errors: list[str] = []
    lock = threading.Lock()

    def run_one() -> None:
        barrier.wait()
        start = time.perf_counter()
        try:
            status, body = request_json(host, port, "POST", "/v1/plan", payload)
        except OSError as error:
            with lock:
                errors.append(f"burst: transport error {error}")
            return
        elapsed = time.perf_counter() - start
        with lock:
            if status != 200:
                errors.append(f"burst: HTTP {status}: {body.get('error', body)}")
            else:
                latencies.append(elapsed)
                bodies.add(json.dumps(body["result"], sort_keys=True))

    threads = [threading.Thread(target=run_one) for _ in range(duplicates)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, bodies, errors


# ---------------------------------------------------------------------------
# Chaos mode
# ---------------------------------------------------------------------------

#: The fixed fault schedule of ``--chaos`` (CI's chaos-smoke job).
#: Seeded and counter-based, so the same spec yields the same fault
#: schedule every run: the 2nd pool submission crashes a worker (the
#: breaker must trip, then recover), ~90% of cache writes are
#: corrupted and ~40% torn (every disk read-back must checksum,
#: quarantine and recompute), a bounded number of responses are cut
#: mid-body (clients must retry), and some computations run slow.
CHAOS_SPEC = (
    "kill-pool-worker:rate=1,after=1,limit=1;"
    "slow-worker:rate=0.25,seed=5,delay_ms=100;"
    "corrupt-cache-entry:rate=0.9,seed=7;"
    "torn-cache-write:rate=0.4,seed=11;"
    "drop-connection-mid-response:rate=0.25,seed=3,limit=6"
)

#: Response statuses the chaos contract allows.  Anything else — any
#: 500, any unexplained status — is a violation.
CHAOS_ALLOWED = (200, 429, 503, 504)

#: Response-identity contract: every ``/v1/*`` success is the uniform
#: envelope; identity is ``meta.digest`` plus the ``result`` object.
#: ``meta.timings`` varies per request, so raw bytes are never compared.


def chaos_requests(args: argparse.Namespace) -> list[tuple[str, dict]]:
    """The deterministic chaos request list: (path, payload) pairs.

    Several distinct plan digests (more than the chaos server's tiny
    LRU holds, so repeats *must* probe the possibly-corrupt disk
    tier), a couple of what-ifs, and one scenario query.
    """
    plans = 4 if args.quick else 6
    base = {
        "devices": args.devices,
        "vocab_size": args.vocab_size,
        "simulate_top_k": args.top_k,
    }
    requests: list[tuple[str, dict]] = [
        ("/v1/plan", dict(base, microbatches=args.microbatches + i))
        for i in range(plans)
    ]
    requests += [
        (
            "/v1/whatif",
            {
                "devices": args.devices,
                "vocab_size": args.vocab_size,
                "microbatches": args.microbatches,
                "method": "vocab-1",
                "device": -1,
                "factor": factor,
            },
        )
        for factor in (1.1, 1.2)
    ]
    requests.append(
        (
            "/v1/scenarios",
            {
                "scenario": "slow-node",
                "method": "vocab-1",
                "devices": args.devices,
                "vocab_size": args.vocab_size,
                "microbatches": args.microbatches,
                "samples": args.samples,
            },
        )
    )
    return requests


def fetch_with_retries(
    host: str,
    port: int,
    path: str,
    payload: dict,
    problems: list[str],
    attempts: int = 6,
) -> dict | None:
    """One request under chaos: retry torn connections and shed/timeout.

    Returns the 200 body, or ``None`` after appending the violation
    (an unexpected status, or no success within ``attempts``).
    Dropped connections surface as transport/parse errors; 429 honours
    ``retry_after_s``; 503/504 back off briefly.
    """
    last = "no attempt"
    for _ in range(attempts):
        try:
            status, body = request_json(
                host, port, "POST", path, payload, timeout=120.0
            )
        except (OSError, http.client.HTTPException,
                json.JSONDecodeError) as error:
            last = f"torn response ({type(error).__name__})"
            time.sleep(0.1)
            continue
        if status == 200:
            return body
        if status == 429:
            last = "shed (429)"
            retry_after = body.get("error", {}).get("retry_after_s", 1.0)
            time.sleep(min(float(retry_after), 1.0))
            continue
        if status in (503, 504):
            last = f"HTTP {status}"
            time.sleep(0.3)
            continue
        problems.append(
            f"chaos: {path}: unexpected HTTP {status}: "
            f"{body.get('error', body)}"
        )
        return None
    problems.append(
        f"chaos: {path}: no 200 after {attempts} attempts (last: {last})"
    )
    return None


def run_chaos(args: argparse.Namespace) -> int:
    """The ``--chaos`` entry point: oracle run, then run under faults.

    Asserts the resilience contract end to end: under injected worker
    kills, cache corruption, torn writes and dropped connections, every
    completed response is bit-identical to the fault-free oracle run,
    only deliberate 429/503/504 appear, corrupt cache entries are
    quarantined, and the circuit breaker is observed tripping and then
    recovering (process pool restored from thread degradation).
    """
    import tempfile

    problems: list[str] = []
    requests = chaos_requests(args)
    # A digest the main list never computes: the final breaker probe
    # must reach the pool (a disk hit would bypass it).
    probe = ("/v1/plan", {
        "devices": args.devices,
        "vocab_size": args.vocab_size,
        "simulate_top_k": args.top_k,
        "microbatches": args.microbatches + 50,
    })
    expected: dict[str, tuple[str, str]] = {}

    with tempfile.TemporaryDirectory() as oracle_dir, \
            tempfile.TemporaryDirectory() as chaos_dir:
        print("chaos: oracle run (fault-free) ...", flush=True)
        oracle = spawn_server(
            executor="process", workers=args.workers, cache_dir=oracle_dir
        )
        try:
            for path, payload in requests + [probe]:
                body = fetch_with_retries(
                    oracle.host, oracle.port, path, payload, problems
                )
                if body is None:
                    problems.append("chaos: oracle run failed; aborting")
                    return _report_chaos(problems)
                key = json.dumps([path, payload], sort_keys=True)
                expected[key] = (
                    body["meta"]["digest"],
                    json.dumps(body["result"], sort_keys=True),
                )
        finally:
            code = oracle.shutdown()
            if code != 0:
                problems.append(f"chaos: oracle server exited {code}")

        print(
            f"chaos: fault run (spec: {CHAOS_SPEC}) ...", flush=True
        )
        server = spawn_server(
            executor="process",
            workers=args.workers,
            cache_dir=chaos_dir,
            lru_size=2,  # tiny hot tier: repeats must read the disk tier
            faults=CHAOS_SPEC,
            extra_args=["--breaker-backoff", "0.2"],
        )
        matched = 0
        try:
            # Two passes: pass 1 computes (writes corrupt/torn disk
            # entries, crashes a worker), pass 2 re-requests the same
            # digests through the tiny LRU so the disk tier's
            # checksum/quarantine/recompute path runs for real.
            for sweep in range(2):
                for path, payload in requests:
                    body = fetch_with_retries(
                        server.host, server.port, path, payload, problems
                    )
                    if body is None:
                        continue
                    key = json.dumps([path, payload], sort_keys=True)
                    digest, rendered = expected[key]
                    if body["meta"]["digest"] != digest:
                        problems.append(
                            f"chaos: {path}: digest diverged from oracle"
                        )
                    elif (
                        json.dumps(body["result"], sort_keys=True)
                        != rendered
                    ):
                        problems.append(
                            f"chaos: {path}: response bytes diverged from "
                            f"the fault-free oracle (tier {body['meta']['cache']})"
                        )
                    else:
                        matched += 1
            # Past the breaker backoff, force one computation that can
            # only be answered by the pool: the resurrection probe.
            time.sleep(0.5)
            body = fetch_with_retries(
                server.host, server.port, probe[0], probe[1], problems
            )
            if body is not None:
                digest, rendered = expected[
                    json.dumps([probe[0], probe[1]], sort_keys=True)
                ]
                if (
                    body["meta"]["digest"] != digest
                    or json.dumps(body["result"], sort_keys=True) != rendered
                ):
                    problems.append("chaos: probe response diverged")
                else:
                    matched += 1

            status, stats = request_json(
                server.host, server.port, "GET", "/stats"
            )
            if status != 200:
                problems.append(f"chaos: /stats: HTTP {status}")
                stats = {}
            resilience = stats.get("resilience", {})
            breaker = resilience.get("breaker", {})
            fires = resilience.get("faults", {})
            quarantined = stats.get("disk", {}).get("quarantined", 0)
            print(
                f"chaos: matched={matched} "
                f"breaker={breaker.get('state')} "
                f"trips={breaker.get('trips')} "
                f"recoveries={breaker.get('recoveries')} "
                f"quarantined={quarantined} "
                f"dropped={resilience.get('dropped_connections')} "
                f"executor={stats.get('executor', {}).get('kind')}"
            )
            if breaker.get("trips", 0) < 1:
                problems.append(
                    "chaos: breaker never tripped (kill-pool-worker fired "
                    f"{fires.get('kill-pool-worker', {}).get('fires')} times)"
                )
            if breaker.get("recoveries", 0) < 1:
                problems.append(
                    "chaos: breaker never recovered (state "
                    f"{breaker.get('state')!r}, "
                    f"{breaker.get('recovery_attempts')} attempts)"
                )
            if stats.get("executor", {}).get("kind") != "process":
                problems.append(
                    "chaos: process pool not restored after recovery "
                    f"(executor {stats.get('executor')})"
                )
            if quarantined < 1:
                problems.append(
                    "chaos: no corrupt cache entry was quarantined (disk "
                    "tier never caught the injected corruption)"
                )
            if resilience.get("dropped_connections", 0) < 1:
                problems.append(
                    "chaos: drop-connection-mid-response never fired"
                )
        finally:
            code = server.shutdown()
            if code != 0:
                problems.append(
                    f"chaos: server exited {code} (leaked workers or "
                    "unclean shutdown)"
                )
            else:
                print("chaos: server shut down cleanly (exit 0)")

    return _report_chaos(problems)


def _report_chaos(problems: list[str]) -> int:
    if problems:
        print("\nchaos loadtest FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("chaos loadtest OK")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_url(url: str) -> tuple[str, int]:
    match = re.fullmatch(r"(?:https?://)?([^:/]+):(\d+)/?", url.strip())
    if not match:
        raise SystemExit(f"loadtest: cannot parse --url {url!r} (host:port)")
    return match.group(1), int(match.group(2))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--url", default=None,
        help="target an already-running service (default: spawn one)",
    )
    parser.add_argument(
        "--executor", choices=["process", "thread"], default="process",
        help="pool type for the spawned server (ignored with --url)",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument(
        "--requests", type=int, default=25,
        help="closed-loop requests per worker",
    )
    parser.add_argument(
        "--hot-ratio", type=float, default=0.6,
        help="fraction of slots replaying the hot plan config",
    )
    parser.add_argument(
        "--duplicates", type=int, default=8,
        help="size of the synchronized duplicate burst",
    )
    parser.add_argument("--devices", type=int, default=4)
    parser.add_argument("--vocab-size", default="32k")
    parser.add_argument("--microbatches", type=int, default=16)
    parser.add_argument("--top-k", type=int, default=1)
    parser.add_argument(
        "--samples", type=int, default=16,
        help="Monte Carlo samples of the scenario request class",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small CI profile: few workers/requests, assertions on",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="chaos mode: replay a deterministic request list against "
        "a fault-injected server (fixed seed) and assert the "
        "resilience contract vs a fault-free oracle run",
    )
    parser.add_argument(
        "--json", default=None, metavar="OUT",
        help="write the latency/throughput report as JSON",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.concurrency = min(args.concurrency, 6)
        args.requests = min(args.requests, 5)
        args.microbatches = min(args.microbatches, 8)
        args.samples = min(args.samples, 8)
    if args.chaos:
        if args.url is not None:
            raise SystemExit(
                "loadtest: --chaos spawns its own oracle and fault "
                "servers; it cannot target --url"
            )
        return run_chaos(args)

    problems: list[str] = []
    server: ServerHandle | None = None
    if args.url is not None:
        host, port = parse_url(args.url)
    else:
        print(f"spawning service (executor={args.executor}) ...", flush=True)
        server = spawn_server(
            executor=args.executor,
            workers=args.workers,
            cache_dir=args.cache_dir,
        )
        host, port = server.host, server.port
        print(f"spawned http://{host}:{port}", flush=True)

    exit_code = 0
    try:
        status, health = request_json(host, port, "GET", "/healthz")
        if status != 200 or health.get("status") not in ("ok", "degraded"):
            problems.append(f"/healthz before load: HTTP {status} {health}")
        else:
            print(
                f"healthz: {health['status']} "
                f"(executor {health.get('executor')})"
            )

        classes = build_mix(args)
        latencies, wall_s, errors = run_closed_loop(
            host, port, classes, args.concurrency, args.requests,
            args.hot_ratio,
        )
        problems.extend(errors)

        # The coalesce probe: a never-seen digest, N synchronized
        # duplicates.  The distinct microbatch count keeps the digest
        # out of every class above.
        burst_payload = {
            "devices": args.devices,
            "vocab_size": args.vocab_size,
            "microbatches": args.microbatches + 1,
            "simulate_top_k": args.top_k,
        }
        burst, bodies, errors = run_duplicate_burst(
            host, port, burst_payload, args.duplicates
        )
        problems.extend(errors)
        if len(bodies) > 1:
            problems.append(
                f"duplicate burst returned {len(bodies)} distinct plans "
                "(expected bit-identical responses)"
            )

        status, stats = request_json(host, port, "GET", "/stats")
        if status != 200:
            problems.append(f"/stats: HTTP {status}")
            stats = {}
        coalesced = stats.get("coalesced", 0)
        if burst and coalesced < 1:
            problems.append(
                "coalesce counter is 0 after a synchronized duplicate burst"
            )
        status, health = request_json(host, port, "GET", "/healthz")
        if status != 200:
            problems.append(f"/healthz after load: HTTP {status}")

        total = sum(len(v) for v in latencies.values()) + len(burst)
        print(
            f"\n{total} requests over {wall_s:.2f}s closed-loop wall "
            f"({args.concurrency} workers x {args.requests}); "
            f"computed={stats.get('computed')} coalesced={coalesced} "
            f"lru_hits={stats.get('lru', {}).get('hits')}"
        )
        report = {"classes": {}, "stats": stats}
        for name, values in latencies.items():
            if not values:
                continue
            summary = summarize(values, wall_s)
            report["classes"][name] = summary
            print(
                f"  {name:12s} n={summary['requests']:4d}  "
                f"p50 {summary['p50_s'] * 1e3:8.1f} ms  "
                f"p95 {summary['p95_s'] * 1e3:8.1f} ms  "
                f"p99 {summary['p99_s'] * 1e3:8.1f} ms"
            )
        if burst:
            summary = summarize(burst, max(burst))
            report["classes"]["coalesced_burst"] = summary
            print(
                f"  {'burst':12s} n={summary['requests']:4d}  "
                f"p50 {summary['p50_s'] * 1e3:8.1f} ms  "
                f"p95 {summary['p95_s'] * 1e3:8.1f} ms  "
                f"p99 {summary['p99_s'] * 1e3:8.1f} ms"
            )
        if args.json:
            Path(args.json).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
            print(f"wrote {args.json}")
    finally:
        if server is not None:
            code = server.shutdown()
            if code != 0:
                problems.append(
                    f"server exited with code {code} (leaked workers or "
                    "unclean shutdown)"
                )
            else:
                print("server shut down cleanly (exit 0)")

    if problems:
        print("\nloadtest FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        exit_code = 1
    else:
        print("loadtest OK")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
