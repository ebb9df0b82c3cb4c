"""The ``serve-mixed`` workload: the planning service over HTTP.

Spawns ``python -m repro.harness.cli serve --port 0`` with its defaults
and drives it from this process over at most two keep-alive connections:

* set-up starts the server and warms a hot set of plan digests;
* phase A is an open loop at a fixed offered rate: mostly hot
  ``/v1/plan`` requests, plus fresh ``/v1/plan`` and ``/v1/whatif``
  requests, each timed from when it was due;
* phase B is a closed loop of fresh plans back to back; its latencies
  are the workload's end-to-end latencies, and phase A's are per-layer
  numbers (see ``perfbench/README.md``).

In the traced run, shutdown is requested while the second connection is
still open and idle, as a client holding a keep-alive connection leaves
it; tracebacks the server writes to its standard error, and a non-zero
exit, are counted.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path
from time import perf_counter

from common import HostSpeed, Outcome, percentile, ratio, self_peak_rss_mib, window_timings

SETUP_REPEATS = 3
CONNECTIONS = 2
#: Phase A's offered rate (requests/s) and share of the measured window.
#: At this rate fresh requests rarely hold both connections or both cores
#: at once, so hot requests measure the service, not a queue behind
#: compute.
RATE = 10.0
PHASE_A_SHARE = 0.5
#: Phase B runs in bursts of this many fresh plans (about 1.5 s), with
#: the host's speed sampled between them; each burst is a latency window.
WINDOW_B = 20
#: Phase A's request pattern, repeated: 80% hot plans, 15% fresh plans,
#: 5% fresh what-ifs.
PATTERN = (("hot",) * 4 + ("fresh",)) * 3 + ("hot",) * 4 + ("whatif",)
#: (devices, microbatches, seq) of the hot plans, one hot config each.
HOT_STRATA = tuple((d, m, s) for s in (2048, 4096) for d in (4, 8) for m in (16, 32))
#: Fresh plans share one shape and differ in vocabulary: their latencies
#: then form one cluster, and phase B's percentiles stay clear of the
#: gaps between shapes.
FRESH_STRATUM = (8, 16, 2048)
TINY_STRATUM = (4, 8, 2048)
VOCAB_RANGE = (32 * 1024, 256 * 1024)
#: Responses per kind recomputed in this process and compared.
LIBRARY_CHECKS = {"hot": 1, "fresh": 2, "whatif": 1}
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 90.0


class Server:
    """One ``serve`` subprocess; its output goes to files in ``workdir``."""

    def __init__(self, src: Path, workdir: Path, name: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.pop("REPRO_SIM_ENGINE", None)
        self.stdout_path = workdir / f"{name}.out"
        self.stderr_path = workdir / f"{name}.err"
        with open(self.stdout_path, "w") as stdout, open(self.stderr_path, "w") as stderr:
            # Its own process group, so ``kill`` also reaches the pool
            # workers.
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.harness.cli", "serve", "--port", "0"],
                stdout=stdout, stderr=stderr, env=env, cwd=workdir,
                start_new_session=True,
            )
        deadline = perf_counter() + READY_TIMEOUT_S
        pattern = re.compile(r"serving on http://([^:\s]+):(\d+)")
        while True:
            match = pattern.search(self.stdout_path.read_text())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.proc.poll() is not None or perf_counter() > deadline:
                self.kill()
                raise RuntimeError(
                    f"server did not start: {self.stderr_path.read_text()[-2000:]}"
                )
            time.sleep(0.01)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def request_shutdown(self, conn: http.client.HTTPConnection) -> None:
        status, _ = call(conn, "POST", "/shutdown")
        if status != 200:
            raise RuntimeError(f"/shutdown answered {status}")

    def wait(self) -> int:
        try:
            return self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1

    def kill(self) -> None:
        """Stop the server and anything left of its process group."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def tracebacks(self) -> int:
        return self.stderr_path.read_text().count("Traceback (most recent call last)")


def call(conn, method: str, path: str, payload=None):
    """One request on a keep-alive connection → (status, decoded body)."""
    body = None if payload is None else json.dumps(payload)
    headers = {} if body is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def tree_peak_rss_mib(pid: int) -> float:
    """Summed peak resident set (VmHWM) of ``pid`` and its descendants."""
    parents: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = [pid], [pid]
    while frontier:
        frontier = [child for child, parent in parents.items() if parent in frontier]
        tree += frontier
    total_kib = 0
    for member in tree:
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        total_kib += int(match.group(1)) if match else 0
    return total_kib / 1024.0


class Requests:
    """Seeded request bodies: a hot set, fresh plans, fresh what-ifs."""

    def __init__(self, seed: int, tiny: bool) -> None:
        self.rng = random.Random(f"serve-mixed/{seed}")
        self.fresh_stratum = TINY_STRATUM if tiny else FRESH_STRATUM
        self.vocabs: set[int] = set()
        self.whatifs: set[tuple] = set()
        self.hot = [self._plan(stratum) for stratum in ((TINY_STRATUM,) if tiny else HOT_STRATA)]
        self._whatif = 0

    def _plan(self, stratum) -> dict:
        devices, microbatches, seq = stratum
        while True:
            vocab = self.rng.randint(*VOCAB_RANGE)
            if vocab not in self.vocabs:
                self.vocabs.add(vocab)
                break
        return {"devices": devices, "vocab_size": vocab, "seq_length": seq,
                "microbatches": microbatches}

    def fresh(self) -> dict:
        return self._plan(self.fresh_stratum)

    def whatif(self, best: dict) -> dict:
        """A what-if on the smallest hot configs in turn, at a seeded
        device and factor; ``best`` maps a hot vocab size to its best
        method.

        A worker prices its first what-if on a config from scratch;
        on the smallest configs that stays cheaper than a fresh plan, so
        what-ifs stay clear of the fresh-plan latencies in phase A's tail.
        """
        smallest = min(body["devices"] for body in self.hot)
        bases = [body for body in self.hot if body["devices"] == smallest]
        base = bases[self._whatif % len(bases)]
        self._whatif += 1
        while True:
            device = self.rng.randrange(base["devices"])
            factor = round(self.rng.uniform(1.05, 2.0), 6)
            if (base["vocab_size"], device, factor) not in self.whatifs:
                self.whatifs.add((base["vocab_size"], device, factor))
                break
        return {**base, "method": best[base["vocab_size"]], "device": device,
                "factor": factor}


class Log:
    """Every request sent: kind, path, body, times and response."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: list[dict] = []

    def add(self, **entry) -> None:
        with self.lock:
            self.entries.append(entry)


def send(conn, log: Log, phase: str, kind: str, path: str, payload, due=None) -> None:
    sent = perf_counter()
    try:
        status, body = call(conn, "POST", path, payload)
    except (OSError, http.client.HTTPException, ValueError) as error:
        status, body = None, {"error": f"{type(error).__name__}: {error}"}
        conn.close()  # the next request reconnects
    done = perf_counter()
    log.add(phase=phase, kind=kind, path=path, payload=payload, due=due or sent,
            sent=sent, done=done, status=status, body=body)


def closed_loop(conns, log: Log, phase: str, items) -> float:
    """Each connection sends its next item as soon as its last returns.

    ``items`` yields (kind, path, payload).  Returns the wall time until
    all returned.
    """
    lock = threading.Lock()
    iterator = iter(items)

    def worker(conn):
        while True:
            with lock:
                item = next(iterator, None)
            if item is None:
                return
            send(conn, log, phase, *item)

    start = perf_counter()
    run_threads(worker, conns)
    return perf_counter() - start


def open_loop(conns, log: Log, schedule, rate: float) -> None:
    """Request ``i`` is due ``i / rate`` seconds after the start, whether
    or not earlier ones returned; a free connection takes the next due."""
    lock = threading.Lock()
    position = [0]
    start = perf_counter()

    def worker(conn):
        while True:
            with lock:
                index = position[0]
                position[0] += 1
            if index >= len(schedule):
                return
            due = start + index / rate
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            send(conn, log, "A", *schedule[index], due=due)

    run_threads(worker, conns)


def run_threads(worker, conns) -> None:
    threads = [threading.Thread(target=worker, args=(conn,)) for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def stats(conn) -> dict:
    status, body = call(conn, "GET", "/stats")
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return body


def run_serve_mixed(seed: int, seconds: float, trace: bool, tiny: bool, src: Path,
                    workdir: Path) -> Outcome:
    """The measured window is the same traced or not: the layers run in
    the server, and the per-layer numbers come from ``/stats`` and the
    client's timings.  Only the teardown differs: the traced run keeps a
    connection idle through shutdown, which ``service.server_errors``
    measures; the untraced run closes its connections first."""
    out = Outcome()
    log = Log()
    requests = Requests(seed, tiny)

    def setup(attempt: int):
        server = Server(src, workdir, f"server-seed{seed}-{attempt}")
        try:
            conns = [server.connect() for _ in range(CONNECTIONS)]
            warm = Log()
            closed_loop(conns, warm, "setup",
                        [("hot", "/v1/plan", body) for body in requests.hot])
            return server, conns, warm
        except BaseException:
            server.kill()
            raise

    # The host's speed is sampled just before and after each set-up.
    setup_speed = HostSpeed()
    setup_times = []
    for attempt in range(SETUP_REPEATS):
        setup_speed.measure()
        start = perf_counter()
        server, conns, warm = setup(attempt)
        setup_times.append(perf_counter() - start)
        setup_speed.measure()
        if attempt < SETUP_REPEATS - 1:
            try:
                for conn in conns:
                    conn.close()
                with closing(server.connect()) as conn:
                    server.request_shutdown(conn)
                server.wait()
            finally:
                server.kill()
    try:
        best = {}
        for entry in warm.entries:
            if entry["status"] != 200:
                raise RuntimeError(f"warming failed: {entry['body']}")
            best[entry["payload"]["vocab_size"]] = entry["body"]["result"]["best"]

        schedule = []
        patterns = max(1, round(seconds * PHASE_A_SHARE * RATE / len(PATTERN)))
        for index in range(patterns * len(PATTERN)):
            kind = PATTERN[index % len(PATTERN)]
            if kind == "hot":
                schedule.append((kind, "/v1/plan", requests.hot[index % len(requests.hot)]))
            elif kind == "fresh":
                schedule.append((kind, "/v1/plan", requests.fresh()))
            else:
                schedule.append((kind, "/v1/whatif", requests.whatif(best)))
        before = stats(conns[0])
        open_loop(conns, log, schedule, RATE)
        phase_b_s = max(seconds - len(schedule) / RATE, seconds * (1 - PHASE_A_SHARE))
        deadline = perf_counter() + phase_b_s
        speed = HostSpeed()
        speed.measure()
        bursts = []
        while perf_counter() < deadline or not bursts:
            first = len(log.entries)
            wall = closed_loop(conns, log, "B", [
                ("fresh", "/v1/plan", requests.fresh()) for _ in range(WINDOW_B)
            ])
            bursts.append((log.entries[first:], wall))
            speed.measure()
        after = stats(conns[0])
        peak_rss = self_peak_rss_mib() + tree_peak_rss_mib(server.proc.pid)
        if trace:
            # Leave the second connection open and idle through shutdown,
            # as a client holding a keep-alive connection does; the server
            # then drains for 30 s before it gives up on it.
            server.request_shutdown(conns[0])
        else:
            for conn in conns:
                conn.close()
            with closing(server.connect()) as conn:
                server.request_shutdown(conn)
        check(out, log, requests, seed)
        exit_code = server.wait()
    finally:
        server.kill()
        for conn in conns:
            conn.close()
    # A failed shutdown is a server defect, not a failed op: it counts
    # with the tracebacks.
    server_errors = server.tracebacks() + (exit_code != 0)

    phase_a = [e for e in log.entries if e["phase"] == "A"]
    latency_a = [(e["done"] - e["due"]) * 1e3 for e in phase_a]
    windows_b = [
        [e["done"] - e["sent"] for e in entries if e["status"] == 200]
        for entries, _ in bursts
    ]
    walls_b = [wall for _, wall in bursts]
    factors = speed.factors()
    setup_factors = setup_speed.factors()[::2]
    out.e2e.update(
        setup_s=statistics.median(t * f for t, f in zip(setup_times, setup_factors)),
        peak_rss_mib=peak_rss,
        **window_timings(
            [[t * f for t in window] for window, f in zip(windows_b, factors)],
            [wall * f for wall, f in zip(walls_b, factors)],
        ),
    )
    out.notes["raw"] = {"setup_s": statistics.median(setup_times),
                        **window_timings(windows_b, walls_b)}
    out.notes["host_speed"] = statistics.median(factors)
    out.samples.update(setup=len(setup_times), latency=sum(map(len, windows_b)),
                       latency_windows=len(windows_b))

    fresh_digests = {
        e["body"]["meta"]["digest"]
        for e in log.entries
        if e["kind"] != "hot" and e["status"] == 200
    }
    computed_ms = [
        e["body"]["meta"]["timings"]["total_ms"]
        for e in log.entries
        if e["status"] == 200 and e["body"]["meta"]["cache"] == "computed"
    ]
    hot_ms = [(e["done"] - e["due"]) * 1e3 for e in phase_a if e["kind"] == "hot"]
    lru = {k: after["lru"][k] - before["lru"][k] for k in ("hits", "misses")}
    out.layers.update({
        "service.hot_p50_ms": percentile(hot_ms, 50),
        "service.latency_p99_ms": percentile(latency_a, 99),
        "service.compute_p50_ms": percentile(computed_ms, 50),
        "service.computed_per_fresh": ratio(
            after["computed"] - before["computed"], len(fresh_digests)
        ),
        "service.lru.hit_ratio": ratio(lru["hits"], lru["hits"] + lru["misses"]),
        "service.coalesced": after["coalesced"] - before["coalesced"],
        "service.shed": after["resilience"]["shed"] - before["resilience"]["shed"],
        "service.late_p90_ms": percentile(
            [(e["sent"] - e["due"]) * 1e3 for e in phase_a], 90
        ),
        "service.server_errors": server_errors,
    })
    out.samples.update(phase_a=len(latency_a), hot=len(hot_ms), computed=len(computed_ms))
    out.notes.update(server_exit_code=exit_code, phase_b_wall_s=sum(walls_b))
    return out


def check(out: Outcome, log: Log, requests: Requests, seed: int) -> None:
    """Status of every request, identity per digest, library equality.

    Runs after the measured window, in this process, while the server
    drains.
    """
    from repro.service.requests import (
        PlanRequest,
        WhatifRequest,
        execute_plan_request,
        execute_whatif_request,
        plans_to_json,
    )

    by_digest: dict[str, str] = {}
    answered = []
    for entry in log.entries:
        out.attempted += 1
        if entry["status"] != 200:
            out.fail(f"{entry['path']} {entry['payload']}: status {entry['status']} "
                     f"{entry['body']}")
            continue
        answered.append(entry)
        digest = entry["body"]["meta"]["digest"]
        text = json.dumps(entry["body"]["result"], sort_keys=True)
        if by_digest.setdefault(digest, text) != text:
            out.fail(f"{entry['path']} {entry['payload']}: differs from an earlier "
                     "response with the same digest")
    out.outputs.extend(
        {"digest": digest, "result": json.loads(text)}
        for digest, text in sorted(by_digest.items())
    )

    rng = random.Random(f"serve-mixed/check/{seed}")
    for kind, count in LIBRARY_CHECKS.items():
        candidates = [e for e in answered if e["kind"] == kind]
        for entry in rng.sample(candidates, min(count, len(candidates))):
            if entry["path"] == "/v1/plan":
                expected = plans_to_json(execute_plan_request(
                    PlanRequest.from_payload(entry["payload"])
                ))
            else:
                expected = execute_whatif_request(
                    WhatifRequest.from_payload(entry["payload"])
                )
            if json.loads(json.dumps(expected)) != entry["body"]["result"]:
                out.fail(f"{entry['path']} {entry['payload']}: differs from the "
                         "in-process library result")
    out.samples["library_checks"] = sum(LIBRARY_CHECKS.values())
