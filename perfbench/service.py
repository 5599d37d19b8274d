"""The service workload: an open-loop request mix against ``repro serve``.

The server runs as a subprocess with its default admission, cache and
breaker settings.  Arrivals are a seeded Poisson stream plus periodic
bursts, sent over at most two keep-alive connections; each request is
timed from when it was due, so a stall also delays the requests queued
behind it.  Generator lag (send time minus due time) is reported
separately.  It includes the wait for a busy connection, which is the
server's doing; the generator's own *overshoot* (send time minus the
later of the due time and the moment a connection came free) does not,
and a run whose overshoot exceeds the latency limit is invalid rather
than slow.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.datasets import load_dataset
from repro.observability import Observer
from repro.service import GraphRegistry, QueryBroker
from repro.service.schemas import QueryRequest

from check import answer_from_response, check_answer, load_reference
from common import (
    MIN_SAMPLES,
    SETUP_REPEATS,
    calibrate,
    harrell_davis,
    host_scale,
    peak_rss_mb,
    seconds as span_seconds,
    spans_by_name,
)

#: Seconds to wait for the server to start or stop.
SERVER_TIMEOUT = 60.0

#: Preparing-phase trials of a request that does not set ``prepare``.
DEFAULT_PREPARE = 100

#: Methods whose batched runs build and scan the wedge index.
WEDGE_METHODS = ("mc-vp", "os")

#: Requests replayed in-process to measure the service's trace overhead.
REPLAY_REQUESTS = 24

_SERVING = re.compile(r"serving on http://[^:]+:(\d+)")


class InvalidRun(Exception):
    """The load generator could not keep to its schedule."""


class Server:
    """``python -m repro serve --port 0`` as a child process."""

    def __init__(self, env: Dict) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.log: List[str] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = self._wait_for_port()
        self.setup_seconds = time.perf_counter() - started

    def _read(self) -> None:
        for line in self.process.stderr:
            self.log.append(line)
            self.lines.put(line)

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + SERVER_TIMEOUT
        while time.monotonic() < deadline:
            try:
                line = self.lines.get(timeout=0.05)
            except queue.Empty:
                if self.process.poll() is not None:
                    break
                continue
            match = _SERVING.search(line)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError(
            "server did not start:\n" + "".join(self.log[-20:])
        )

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Terminate the server, wait for it, and reap its log reader.

        SIGTERM rather than SIGINT: a parent started without job control
        may hand its children an ignored SIGINT, while the server always
        installs its own SIGTERM handler and shuts down cleanly on it.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=SERVER_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        self._reader.join(timeout=SERVER_TIMEOUT)


def shm_segments() -> set:
    """Names of the shared-memory segments Python created on this host."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


@dataclass
class Arrival:
    due: float
    kind: str
    body: Dict
    looks: int
    latency: float = 0.0
    lag: float = 0.0
    overshoot: float = 0.0
    status: str = "unsent"
    problems: List[str] = field(default_factory=list)
    cache_hit: bool = False
    n_trials: int = 0
    certified: bool = False


def _looks(body: Dict) -> int:
    adaptive = body.get("mode") == "adaptive"
    return max(1, int(body.get("trials") or 1)) if adaptive else 1


def build_schedule(config: Dict, workload: Dict, seed: int,
                   seconds: float) -> Tuple[List[Dict], List[Arrival]]:
    """Hot (repeated) request bodies and the seeded arrival schedule.

    The mix is a *cycle* of request slots: each kind once per dataset
    it runs on, plus ``per_cycle`` repeats of the hot keys.  A run sends
    whole cycles, enough for ``rate_rps × seconds`` arrivals and at
    least ``MIN_SAMPLES``, so seeds change the order, the arrival times
    and the run seeds but never the mix.  Each cycle is sent within its
    own equal window of the run: its slots fall on the periodic bursts
    inside the window and otherwise at uniform random times (a Poisson
    process conditioned on the window's count), so neither the mix nor
    the load drifts from one part of the run to another.
    """
    rng = random.Random(f"{workload['name']}:{seed}")
    mix = workload["mix"]
    single = [k for k in mix if "request" in k
              and k["request"].get("workers", 1) == 1]
    repeat = next(k for k in mix if "hot_keys" in k)
    datasets = config["datasets"]
    # Hot keys are single-process queries of their own, warmed into the
    # cache before the run, so every repeat is a cache hit.
    hot = [
        dict(single[i % len(single)]["request"],
             dataset=datasets[i % len(datasets)],
             seed=rng.randrange(2 ** 31))
        for i in range(repeat["hot_keys"])
    ]
    cycle: List[Tuple[Dict, str]] = [
        (kind, dataset) for kind in mix if "request" in kind
        for dataset in kind.get("datasets", datasets)
    ]
    cycle_size = len(cycle) + repeat["per_cycle"]
    n_cycles = max(
        math.ceil(MIN_SAMPLES / cycle_size),
        round(workload["rate_rps"] * seconds / cycle_size),
    )
    # A run too short for MIN_SAMPLES at the offered rate is stretched,
    # never sent faster.  Each cycle owns an equal window of the run.
    window = max(seconds, n_cycles * cycle_size / workload["rate_rps"]) \
        / n_cycles
    bursts = workload["bursts"]
    arrivals: List[Arrival] = []
    for number in range(n_cycles):
        bodies = [
            (kind["name"], dict(kind["request"], dataset=dataset,
                                seed=rng.randrange(2 ** 31)))
            for kind, dataset in cycle
        ] + [
            (repeat["name"], dict(rng.choice(hot)))
            for _ in range(repeat["per_cycle"])
        ]
        rng.shuffle(bodies)
        start, end = number * window, (number + 1) * window
        first_burst = math.ceil(start / bursts["every_s"]) or 1
        times = [
            step * bursts["every_s"]
            for step in range(first_burst, math.ceil(end / bursts["every_s"]))
            for _ in range(bursts["size"])
        ][:len(bodies)]
        times += [
            rng.uniform(start, end) for _ in range(len(bodies) - len(times))
        ]
        arrivals.extend(
            Arrival(due, name, body, _looks(body))
            for due, (name, body) in zip(times, bodies)
        )
    arrivals.sort(key=lambda arrival: arrival.due)
    return hot, arrivals


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=SERVER_TIMEOUT
        )

    def post(self, body: Dict) -> Tuple[int, Dict]:
        try:
            return self._post(body)
        except (http.client.HTTPException, OSError):
            self.connection.close()
            self.connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=SERVER_TIMEOUT
            )
            return self._post(body)

    def _post(self, body: Dict) -> Tuple[int, Dict]:
        self.connection.request(
            "POST", "/query", json.dumps(body),
            {"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def get(self, path: str) -> Dict:
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self.connection.close()


def _judge(arrival: Arrival, status: int, body: Dict, reference,
           graphs: Dict) -> None:
    arrival.status = body.get("status", f"http-{status}")
    arrival.cache_hit = bool(body.get("cache_hit"))
    arrival.n_trials = int(body.get("n_trials") or 0)
    arrival.certified = "realized_trials" in (body.get("guarantee") or {})
    if arrival.status != "ok":
        arrival.problems.append(
            f"status {arrival.status}: {body.get('reason')} "
            f"{body.get('detail')}"
        )
        return
    answer = answer_from_response(
        body, arrival.looks, arrival.body.get("prepare", DEFAULT_PREPARE)
    )
    dataset = arrival.body["dataset"]
    arrival.problems.extend(
        check_answer(answer, reference[dataset], graphs[dataset])
    )


def drive(port: int, arrivals: List[Arrival], connections: int,
          reference, graphs: Dict) -> None:
    """Send ``arrivals`` on schedule over ``connections`` connections."""
    lock = threading.Lock()
    cursor = iter(arrivals)
    origin = time.perf_counter() + 0.05

    def worker() -> None:
        client = Client(port)
        free_at = origin
        try:
            while True:
                with lock:
                    arrival = next(cursor, None)
                if arrival is None:
                    return
                due = origin + arrival.due
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                arrival.lag = sent - due
                arrival.overshoot = sent - max(due, free_at)
                try:
                    status, body = client.post(arrival.body)
                except (http.client.HTTPException, OSError,
                        ValueError) as error:
                    arrival.status = "transport-error"
                    arrival.problems.append(f"{type(error).__name__}: "
                                            f"{error}")
                else:
                    _judge(arrival, status, body, reference, graphs)
                free_at = time.perf_counter()
                arrival.latency = free_at - due
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def warm_up(port: int, workload: Dict, config: Dict, hot: List[Dict],
            seed: int) -> None:
    """Start the worker pools, run every request kind once, and fill the
    cache with the hot keys.

    Single-process kinds run two at a time on one dataset, the two
    wedge-kernel methods together: that pair holds the largest working
    sets, so the server's peak memory is reached here rather than by
    whichever requests happen to overlap during the run.
    """
    rng = random.Random(f"{workload['name']}:warm:{seed}")
    bodies = [
        dict(kind["request"], dataset=dataset,
             seed=rng.randrange(2 ** 31), use_cache=False)
        for kind in workload["mix"] if "request" in kind
        for dataset in kind.get("datasets", config["datasets"])
    ]
    single = sorted(
        (body for body in bodies if body.get("workers", 1) == 1),
        key=lambda body: (body["dataset"],
                          body["method"] not in WEDGE_METHODS,
                          body["method"]),
    )
    clients = [Client(port) for _ in range(2)]
    try:
        for body in bodies:
            if body.get("workers", 1) > 1:
                clients[0].post(body)
        for first in range(0, len(single), 2):
            threads = [
                threading.Thread(target=client.post, args=(body,))
                for client, body in zip(clients, single[first:first + 2])
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for body in hot:
            clients[0].post(body)
    finally:
        for client in clients:
            client.close()


def _spawn_setups(env: Dict, count: int) -> List[float]:
    """Start-up seconds of ``count`` servers, each stopped at once and
    scaled to reference host speed by a calibration taken just before."""
    setups = []
    for _ in range(count):
        scale = host_scale(calibrate())
        server = Server(env)
        setups.append(scale * server.setup_seconds)
        server.stop()
    return setups


def run(config: Dict, workload: Dict, seed: int, seconds: float,
        trace: bool, env: Dict) -> Dict:
    reference = load_reference()
    graphs = {
        name: load_dataset(name, config["profile"],
                           rng=config["dataset_seed"])
        for name in config["datasets"]
    }
    hot, arrivals = build_schedule(config, workload, seed, seconds)
    before = shm_segments()
    # Set-up is timed on several starts, split around the run so that
    # a slow spell of the host does not hit every sample at once.
    extra = 0 if trace else SETUP_REPEATS - 1
    setups = _spawn_setups(env, extra // 2)
    calibration = calibrate()
    server = Server(env)
    setups.append(host_scale(calibration) * server.setup_seconds)
    try:
        warm_up(server.port, workload, config, hot, seed)
        monitor = Client(server.port)
        start_doc = monitor.get("/metrics") if trace else None
        drive(server.port, arrivals, workload["connections"], reference,
              graphs)
        end_doc = monitor.get("/metrics") if trace else None
        monitor.close()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    # The load generator shares the cores with the server, so the host
    # speed is sampled only before and after the schedule.
    calibration += calibrate()
    setups += _spawn_setups(env, extra - extra // 2)
    leaked = sorted(shm_segments() - before)

    overshoot_p95 = harrell_davis([a.overshoot for a in arrivals], 0.95)
    if overshoot_p95 > config["latency_limit_s"]:
        raise InvalidRun(
            f"generator overshoot p95 {overshoot_p95:.3f}s exceeds the "
            f"{config['latency_limit_s']}s latency limit"
        )
    failures = [
        f"{a.kind} {a.body['dataset']} seed {a.body['seed']}: "
        + "; ".join(a.problems)
        for a in arrivals if a.problems
    ]
    wrong = sum(1 for a in arrivals if a.status == "ok" and a.problems)
    attempted = len(arrivals)
    if leaked:
        failures.append(f"shared-memory segments left behind: {leaked}")
        attempted += 1
    failed = len(failures)
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0 and not leaked,
        "failures": failures,
        "samples": len(arrivals),
    }
    if not trace:
        limit = config["latency_limit_s"]
        scale = host_scale(calibration)
        latencies = [scale * a.latency for a in arrivals]
        # Rates are per second of the run: from the first due time to
        # the last response.
        span = max(a.due + a.latency for a in arrivals)
        answered = sum(1 for a in arrivals if a.status != "transport-error")
        good = sum(
            1 for a in arrivals
            if not a.problems and a.latency <= limit
        )
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "query_s.p50": harrell_davis(latencies, 0.5),
            "query_s.p90": harrell_davis(latencies, 0.9),
            "goodput_rps": good / span,
            "queries_per_s": answered / span,
            "ok_share": 1.0 - failed / attempted,
            "peak_rss_mb": rss,
        }
        return result
    metrics = _layer_metrics(start_doc, end_doc, arrivals)
    metrics["loadgen.lag_s.p95"] = harrell_davis(
        [a.lag for a in arrivals], 0.95
    )
    metrics["loadgen.overshoot_s.p95"] = overshoot_p95
    metrics["observability.trace_overhead_share"] = _trace_overhead(
        config, arrivals
    )
    result["metrics"] = metrics
    return result


def _layer_metrics(start_doc: Dict, end_doc: Dict,
                   arrivals: List[Arrival]) -> Dict[str, float]:
    """Per-layer numbers from the server's own spans and counters,
    restricted to what the scheduled requests recorded."""
    spans = end_doc["spans"][len(start_doc["spans"]):]
    grouped = spans_by_name(spans)
    counters = {
        name: value - start_doc["counters"].get(name, 0.0)
        for name, value in end_doc["counters"].items()
    }
    registry = spans_by_name(end_doc["spans"]).get("registry-load", [])
    requests = grouped.get("service-request", [])
    handle = span_seconds(requests) / max(1, len(requests))
    client = sum(a.latency for a in arrivals) / max(1, len(arrivals))
    ran = [a for a in arrivals if a.status == "ok" and not a.cache_hit]
    executed = max(1, len(ran))
    fan_out = grouped.get("fan-out", [])
    merges = grouped.get("merge", [])
    candidates = grouped.get("candidate-generation", [])
    hits = counters.get("service.cache.hits", 0.0)
    misses = counters.get("service.cache.misses", 0.0)
    # Responses carry each request's trial count and guarantee, so the
    # adaptive and OLS-KL numbers are per request, as offline.
    adaptive = [a for a in ran if a.body.get("mode") == "adaptive"]
    kl = [a for a in ran if a.body["method"] == "ols-kl"]
    used = sum(a.n_trials for a in adaptive)
    saved = counters.get("adaptive.trials_saved", 0.0)
    return {
        "service.registry.load_s": span_seconds(registry),
        "service.handle_s": handle,
        "service.wait_s": client - handle,
        "service.cache.hit_rate": hits / (hits + misses) if hits + misses
        else 0.0,
        "service.admission.rejected":
            counters.get("service.admission.rejected", 0.0),
        "kernels.wedge_index.builds":
            len(grouped.get("wedge-index", [])) / executed,
        "kernels.trials_vectorized":
            counters.get("kernel.trials_vectorized", 0.0) / executed,
        "core.candidates_s":
            span_seconds(candidates) / max(1, len(candidates)),
        "core.edge_ordering_s":
            span_seconds(grouped.get("edge-ordering", [])) / executed,
        "core.ols_kl.trials":
            sum(a.n_trials for a in kl) / max(1, len(kl)),
        "adaptive.trials_saved_share":
            saved / (saved + used) if saved + used else 0.0,
        "adaptive.candidates_eliminated":
            counters.get("adaptive.candidates_eliminated", 0.0)
            / max(1, len(adaptive)),
        "adaptive.certified_share":
            sum(1 for a in adaptive if a.certified) / max(1, len(adaptive)),
        "runtime.fanout_s": span_seconds(fan_out) / max(1, len(fan_out)),
        "runtime.merge_s": span_seconds(merges) / max(1, len(merges)),
        # Pools publish their segments during warm-up, so the shared-
        # memory counts cover the server's whole life.
        "runtime.shm.published":
            end_doc["counters"].get("worker.shm.published", 0.0),
        "runtime.shm.reused":
            end_doc["counters"].get("worker.shm.reused", 0.0),
        "observability.span_coverage":
            span_seconds(requests) / max(1e-9, client * len(arrivals)),
        "observability.nested_request_spans": float(sum(
            1 for r in requests if r["depth"] > 0
        )),
    }


def _trace_overhead(config: Dict, arrivals: List[Arrival]) -> float:
    """Broker wall time with an ``Observer`` over wall time without.

    The server always records spans, so the overhead is measured by
    replaying single-process requests of the schedule through two
    in-process ``QueryBroker`` instances, one traced and one not, in
    alternating order with the cache off.
    """
    requests = [
        QueryRequest.from_dict(dict(a.body, use_cache=False))
        for a in arrivals if a.body.get("workers", 1) == 1
    ][:REPLAY_REQUESTS]
    brokers = {}
    for traced in (False, True):
        observer = Observer() if traced else None
        registry = GraphRegistry(
            config["datasets"], profile=config["profile"],
            dataset_seed=config["dataset_seed"], observer=observer,
        )
        registry.load_all()
        brokers[traced] = QueryBroker(registry, observer=observer)
    walls = {False: 0.0, True: 0.0}
    try:
        for index, request in enumerate(requests):
            for traced in (False, True) if index % 2 == 0 else (True, False):
                started = time.perf_counter()
                brokers[traced].handle(request)
                walls[traced] += time.perf_counter() - started
    finally:
        for broker in brokers.values():
            broker.close()
    return walls[True] / walls[False] - 1.0
