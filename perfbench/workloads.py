"""The benchmark's three workloads, untraced (end to end) and traced (per layer).

* ``build_n8`` — a cold ``CensusStore.build(8, include_ucg=True, jobs=1)``
  plus a directory-format ``save``, each in a fresh interpreter.
* ``ensemble_n7`` — ``run_ensemble("random_weights", n=7, draws=1000,
  jobs=1)`` over a ``DeltaStore`` built in set-up.
* ``serve_mixed`` — ``repro serve`` answering a seeded mix of figure, grid
  and windows queries from one closed-loop client, on one connection
  (solo) and on ``nproc`` connections (pair) in turns.

An untraced run returns an :class:`Outcome` carrying the end-to-end
metrics.  A traced run returns per-layer metrics named
``<workload>.<layer>.<measure>``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from checks import CLASSES_N8, compare_build, load_reference
from client import Phase, Request, latencies, load_requests, merge, run_phase, send
from common import (
    BENCH_DIR,
    ROOT,
    child_env,
    describe_ms,
    metric,
    nproc,
    process_peak_rss_mb,
    run_worker,
)
from layers import self_time_table

#: Per-process ceiling: a cold n = 8 build takes ~20-25 s on a 2-core box.
WORKER_TIMEOUT = 170.0

#: Interpreters started only to time set-up, besides the measured ones.  They
#: run before and after the measured work (and between the ensemble workers):
#: a shared machine's speed can swing for seconds at a time, and many spread
#: samples keep the median steady.
SETUP_PROBES = 20

#: Servers started to time set-up before the phases (the last one serves
#: them) and after them.
SERVER_STARTS = (10, 10)

#: Unmeasured traffic after start-up (fills the store LRU and page cache).
WARMUP_S = 1.0

#: Solo and pair alternate this many times, so that the samples of each
#: phase span the whole run instead of one half of it.
PHASE_TURNS = 2


@dataclass
class Outcome:
    attempted: int
    failed: int
    errors: List[str]
    metrics: Dict[str, dict]
    lines: List[str] = field(default_factory=list)


def _setup_line(setup: List[float]) -> str:
    return "setup_s samples: " + ", ".join(f"{value:.3f}" for value in setup) + " s"


def _e2e(setup: List[float], rate: float, p50_s: float, rss_mb: float) -> Dict[str, dict]:
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "throughput_per_s": metric(rate, "1/s"),
        "latency_p50_ms": metric(p50_s * 1e3, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def _probes(what: str, count: int = SETUP_PROBES // 2) -> List[float]:
    """Set-up times of ``count`` probe interpreters."""
    return [
        run_worker(["probe", "--what", what], WORKER_TIMEOUT)["setup_s"]
        for _ in range(count)
    ]


# --------------------------------------------------------------------------- #
# build_n8
# --------------------------------------------------------------------------- #


def _build_once(workdir: str, index: int, trace: bool = False) -> dict:
    out = os.path.join(workdir, f"census_n8_{index}")
    args = ["build", "--out", out] + (["--trace"] if trace else [])
    try:
        return run_worker(args, WORKER_TIMEOUT)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def build_n8(seed: int, seconds: float, workdir: str) -> Outcome:
    """Cold builds in fresh interpreters until the next would overrun."""
    reference = load_reference()
    setup = _probes("build")
    reports, errors = [], []
    began = time.monotonic()
    while True:
        started = time.monotonic()
        report = _build_once(workdir, len(reports))
        reports.append(report)
        setup.append(report["setup_s"])
        found = compare_build(report, reference)
        report["failed"] = bool(found)
        errors += found
        now = time.monotonic()
        if now - began + (now - started) > seconds:
            break
    setup += _probes("build")
    walls = [r["wall_s"] for r in reports]
    rate = CLASSES_N8 * len(walls) / sum(walls)
    return Outcome(
        attempted=len(reports),
        failed=sum(r["failed"] for r in reports),
        errors=errors,
        metrics=_e2e(setup, rate, statistics.median(walls), max(r["peak_rss_mb"] for r in reports)),
        lines=[
            f"classes_per_s = {rate:.2f} classes/s (build + save, n = {len(walls)} builds)",
            f"build wall: {describe_ms(walls)}",
            _setup_line(setup),
        ],
    )


def trace_build_n8(seed: int, seconds: float, workdir: str) -> Outcome:
    reference = load_reference()
    plain = _build_once(workdir, 0)
    traced = _build_once(workdir, 1, trace=True)
    errors = compare_build(plain, reference) + compare_build(traced, reference)
    wall = traced["wall_s"]
    sec, cnt = traced["ledger"]["seconds"], traced["ledger"]["counts"]
    tele = traced["telemetry"]
    store_s = sec.get("analysis.store.assemble", 0.0) + sec.get("analysis.store.save", 0.0)
    m = {
        "graphs.enumeration.self_s": metric(sec["graphs.enumeration"], "s"),
        "graphs.enumeration.classes": metric(cnt["graphs.enumeration.classes"], "count"),
        "graphs.enumeration.share": metric(sec["graphs.enumeration"] / wall, "ratio"),
        "engine.batch.self_s": metric(sec["engine.batch"], "s"),
        "engine.batch.graphs": metric(cnt["engine.batch.graphs"], "count"),
        "engine.batch.probes": metric(cnt["engine.batch.probes"], "count"),
        "engine.batch.share": metric(sec["engine.batch"] / wall, "ratio"),
        "engine.ucg.self_s": metric(sec["engine.ucg"], "s"),
        "engine.ucg.graphs": metric(cnt["engine.ucg.graphs"], "count"),
        "engine.ucg.share": metric(sec["engine.ucg"] / wall, "ratio"),
        "engine.pool.self_s": metric(sec["engine.pool"], "s"),
        "engine.pool.share": metric(sec["engine.pool"] / wall, "ratio"),
        "analysis.store.assemble_s": metric(sec["analysis.store.assemble"], "s"),
        "analysis.store.save_s": metric(sec["analysis.store.save"], "s"),
        "analysis.store.bytes": metric(traced["bytes"], "bytes"),
        "analysis.store.share": metric(store_s / wall, "ratio"),
        "uncovered_share": metric(1.0 - sum(sec.values()) / wall, "ratio"),
        "tracing_overhead": metric(wall / plain["wall_s"], "ratio"),
        "wall_s": metric(wall, "s"),
    }
    # The traced counts must equal the program's own telemetry exactly.  The
    # materialised enumeration this path uses does not tick
    # repro_enumeration_graphs_total, so classes are checked against the
    # batch kernel's graph counter: every class enters it exactly once.
    checks = (
        ("graphs.enumeration.classes", cnt["graphs.enumeration.classes"], tele["repro_kernel_graphs_total"]),
        ("engine.batch.graphs", cnt["engine.batch.graphs"], tele["repro_kernel_graphs_total"]),
        ("engine.batch.probes", cnt["engine.batch.probes"], tele["repro_kernel_probes_total"]),
    )
    errors += [
        f"build_n8 {name} = {ours:g} but telemetry says {theirs:g}"
        for name, ours, theirs in checks
        if ours != theirs
    ]
    lines = [
        "build_n8 traced wall %.3f s (untraced %.3f s); repro_enumeration_graphs_total = %g"
        % (wall, plain["wall_s"], tele["repro_enumeration_graphs_total"]),
        self_time_table(sec, wall),
    ]
    return _traced("build_n8", m, errors, lines)


# --------------------------------------------------------------------------- #
# ensemble_n7
# --------------------------------------------------------------------------- #


def ensemble_n7(seed: int, seconds: float, workdir: str) -> Outcome:
    """Back-to-back 1000-draw ensembles over a set-up DeltaStore.

    Two workers share the measured time, with probes before, between and
    after them, so the timed ensembles span the whole run: the machine's
    speed swings for ten seconds and more at a time.
    """
    rng = random.Random(seed)
    setup = _probes("ensemble", SETUP_PROBES // 4)
    reports = []
    for gap in (SETUP_PROBES // 2, SETUP_PROBES // 4):
        reports.append(run_worker(
            ["ensemble", "--seed", str(rng.randrange(1 << 30)), "--seconds", repr(seconds / 2.0)],
            WORKER_TIMEOUT,
        ))
        setup += [reports[-1]["setup_s"]] + _probes("ensemble", gap)
    walls = [wall for report in reports for wall in report["walls"]]
    draws = [count for report in reports for count in report["draws"]]
    # The median ensemble, so one slowed by the machine does not move the rate.
    rate = statistics.median(draws) / statistics.median(walls)
    return Outcome(
        attempted=len(walls),
        failed=sum(report["failed"] for report in reports),
        errors=[error for report in reports for error in report["errors"]],
        metrics=_e2e(
            setup, rate, statistics.median(walls), max(r["peak_rss_mb"] for r in reports)
        ),
        lines=[
            f"draws_per_s = {rate:.2f} draws/s (n = {len(walls)} ensembles of 1000 draws)",
            f"ensemble wall: {describe_ms(walls)}",
            "DeltaStore build "
            + ", ".join(f"{r['delta_build_s']:.3f}" for r in reports)
            + " s (inside setup_s)",
            _setup_line(setup),
        ],
    )


def trace_ensemble_n7(seed: int, seconds: float, workdir: str) -> Outcome:
    report = run_worker(
        ["ensemble", "--seed", str(seed), "--seconds", "0", "--trace"], WORKER_TIMEOUT
    )
    plain, wall = report["walls"]
    sec, cnt = report["ledger"]["seconds"], report["ledger"]["counts"]
    errors = list(report["errors"])
    m = {"analysis.delta_store.build_s": metric(report["delta_build_s"], "s")}
    for layer, label in (
        ("analysis.delta_store", "self_s"),
        ("analysis.scenarios", "self_s"),
        ("engine.columnar", "stacked_s"),
        ("engine.streaming", "self_s"),
        ("engine.shardwork", "self_s"),
    ):
        m[f"{layer}.{label}"] = metric(sec[layer], "s")
        m[f"{layer}.share"] = metric(sec[layer] / wall, "ratio")
    for name in (
        "analysis.scenarios.draws",
        "engine.columnar.calls",
        "engine.streaming.rows",
        "engine.shardwork.blocks",
    ):
        m[name] = metric(cnt[name], "count")
    if cnt.get("engine.shardwork.retries", 0):
        errors.append(f"ensemble_n7 retried {cnt['engine.shardwork.retries']:g} blocks at jobs=1")
    m["engine.columnar.bytes_computed"] = metric(cnt["engine.columnar.bytes_computed"], "bytes")
    m["uncovered_share"] = metric(1.0 - sum(sec.values()) / wall, "ratio")
    m["tracing_overhead"] = metric(wall / plain, "ratio")
    m["wall_s"] = metric(wall, "s")
    draws = report["telemetry"]["repro_ensemble_draws_total"]
    if cnt["analysis.scenarios.draws"] != draws:
        errors.append(
            f"ensemble_n7 analysis.scenarios.draws = {cnt['analysis.scenarios.draws']:g} "
            f"but repro_ensemble_draws_total grew by {draws:g}"
        )
    lines = [
        "ensemble_n7 traced wall %.3f s (untraced %.3f s)" % (wall, plain),
        self_time_table(sec, wall),
    ]
    return _traced("ensemble_n7", m, errors, lines)


# --------------------------------------------------------------------------- #
# serve_mixed
# --------------------------------------------------------------------------- #

REQUEST_KINDS = ("figure_n7", "grid_n8", "windows_w7")

#: Which QueryAPI method answers each request kind (traced server records).
METHOD_KINDS = {"figure": "figure_n7", "grid_aggregates": "grid_n8", "windows": "windows_w7"}


class Server:
    """One server subprocess on a free port (``repro serve`` or the launcher)."""

    def __init__(self, argv: List[str], log_path: str) -> None:
        self.spawned = time.monotonic()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv,
            cwd=str(ROOT),
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.host, self.port = self._announced(timeout=60.0)

    def _announced(self, timeout: float) -> Tuple[str, int]:
        """Parse ``serving N artifact(s) on http://HOST:PORT`` from stdout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if not line:
                    break
                if " on http://" in line:
                    host, port = line.strip().rsplit("http://", 1)[1].rsplit(":", 1)
                    return host, int(port)
        self.stop()
        raise RuntimeError("server did not announce its port")

    def get(self, path: str) -> bytes:
        with urllib.request.urlopen(f"http://{self.host}:{self.port}{path}", timeout=30) as r:
            return r.read()

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def _serve_argv(art_dir: str, ledger: Optional[str]) -> List[str]:
    threads = str(nproc())
    if ledger is None:
        return [sys.executable, "-m", "repro.cli", "serve", "--dir", art_dir,
                "--port", "0", "--threads", threads]
    return [sys.executable, str(BENCH_DIR / "serve_launcher.py"), "--dir", art_dir,
            "--port", "0", "--threads", threads, "--ledger", ledger]


def _first_answers(server: Server, requests: Dict[str, List[Request]]) -> List[bool]:
    """One request of every kind on a fresh connection; ``True`` per match."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        return [send(conn, requests[kind][0]) for kind in REQUEST_KINDS]
    finally:
        conn.close()


def _serve_artifacts(seed: int, workdir: str) -> Tuple[str, dict]:
    art_dir = os.path.join(workdir, "artifacts")
    os.makedirs(art_dir)
    request_file = os.path.join(workdir, "requests.json")
    run_worker(
        ["artifacts", "--dir", art_dir, "--seed", str(seed), "--requests", request_file],
        WORKER_TIMEOUT,
    )
    with open(request_file, encoding="utf-8") as handle:
        return art_dir, json.load(handle)


def _phases(server: Server, requests, mix, seed: int, seconds: float) -> Tuple[Phase, Phase, Phase]:
    """Warm-up, then solo and pair in turns, ``seconds`` each in total."""
    warm = run_phase("warmup", server.host, server.port, requests, mix, 1, WARMUP_S, seed)
    solo, pair = [], []
    for turn in range(PHASE_TURNS):
        share, turn_seed = seconds / PHASE_TURNS, seed * PHASE_TURNS + turn
        solo.append(run_phase("solo", server.host, server.port, requests, mix, 1, share, turn_seed))
        pair.append(run_phase("pair", server.host, server.port, requests, mix, nproc(), share, turn_seed))
    return warm, merge(solo), merge(pair)


def serve_mixed(seed: int, seconds: float, workdir: str) -> Outcome:
    art_dir, payload = _serve_artifacts(seed, workdir)
    requests, mix = load_requests(payload), payload["mix"]
    setup: List[float] = []
    answers: List[bool] = []

    def start() -> Server:
        """Spawn ``repro serve``; time it until every artifact answered."""
        server = Server(_serve_argv(art_dir, None), os.path.join(workdir, "server.log"))
        try:
            answers.extend(_first_answers(server, requests))
        except BaseException:
            server.stop()
            raise
        setup.append(time.monotonic() - server.spawned)
        return server

    before, after = SERVER_STARTS
    for _ in range(before - 1):
        start().stop()
    server = start()
    try:
        phases = _phases(server, requests, mix, seed, seconds / 2.0)
        rss_mb = process_peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    for _ in range(after):
        start().stop()
    warm, solo, pair = phases
    attempted = len(answers) + sum(len(phase.samples) for phase in phases)
    failed = answers.count(False) + sum(phase.failed for phase in phases)
    rate = len(pair.ok) / pair.seconds
    solo_lat, pair_lat = latencies(solo.ok), latencies(pair.ok)
    errors = [f"{failed} of {attempted} requests failed"] if failed else []
    return Outcome(
        attempted=attempted,
        failed=failed,
        errors=errors,
        metrics=_e2e(setup, rate, statistics.median(solo_lat), rss_mb),
        lines=[
            f"solo (1 connection): {describe_ms(solo_lat)}",
            f"pair_requests_per_s = {rate:.2f} req/s ({nproc()} connections)",
            f"pair: {describe_ms(pair_lat)}",
            _setup_line(setup),
        ]
        + [
            f"  {phase.name} {kind}: {describe_ms(latencies([s for s in phase.ok if s.kind == kind]))}"
            for phase in (solo, pair)
            for kind in REQUEST_KINDS
        ],
    )


def _scrape_batch_count(server: Server) -> float:
    """``repro_service_batch_size`` observation count from ``/metrics``."""
    text = server.get("/metrics").decode("utf-8")
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_service_batch_size_count")
    )


def trace_serve_mixed(seed: int, seconds: float, workdir: str) -> Outcome:
    art_dir, payload = _serve_artifacts(seed, workdir)
    requests, mix = load_requests(payload), payload["mix"]
    phase_s = seconds / 8.0  # keeps the whole traced run well inside 180 s
    errors: List[str] = []

    plain_server = Server(_serve_argv(art_dir, None), os.path.join(workdir, "server.log"))
    try:
        first = _first_answers(plain_server, requests)
        plain = _phases(plain_server, requests, mix, seed, phase_s)
    finally:
        plain_server.stop()

    ledger_path = os.path.join(workdir, "ledger.json")
    server = Server(_serve_argv(art_dir, ledger_path), os.path.join(workdir, "launcher.log"))
    try:
        first += _first_answers(server, requests)
        traced = _phases(server, requests, mix, seed, phase_s)
        scraped = _scrape_batch_count(server)
    finally:
        code = server.stop()
    if code != 0:
        errors.append(f"traced server exited {code}")
        return _traced("serve_mixed", {}, errors, [])
    with open(ledger_path, encoding="utf-8") as handle:
        ledger = json.load(handle)
    if not all(first):
        errors.append("serve_mixed traced run: a first answer was wrong")
    for phase in plain + traced:
        if phase.failed:
            errors.append(f"serve_mixed traced run: {phase.failed} {phase.name} requests failed")

    records = ledger["records"]
    batches = sum(r["counts"].get("service.batching.batches", 0) for r in records)
    batches += ledger["outside"]["counts"].get("service.batching.batches", 0)
    if batches != scraped:
        errors.append(
            f"serve_mixed service.batching.batch_size samples = {batches:g} but "
            f"repro_service_batch_size_count = {scraped:g}"
        )

    m: Dict[str, dict] = {}
    client_total = api_total = 0.0
    for phase in traced[1:]:
        chosen = [r for r in records if phase.covers(r["start"])]
        for kind in REQUEST_KINDS:
            mine = [r for r in chosen if METHOD_KINDS[r["method"]] == kind]
            lat = latencies([s for s in phase.ok if s.kind == kind])
            if not mine or not lat:
                errors.append(f"serve_mixed traced {phase.name}: no {kind} requests")
                continue
            per = _per_request_layers(mine)
            api_mean = statistics.fmean(r["api_s"] for r in mine)
            client_total += sum(lat)
            api_total += api_mean * len(lat)
            per["service.http.overhead_ms"] = (statistics.fmean(lat) - api_mean) * 1e3
            for name, value in per.items():
                if kind == "windows_w7" and name.startswith("service.batching."):
                    continue  # windows queries bypass the batcher
                if phase.name == "solo" and name in _COALESCING:
                    continue  # one connection never coalesces
                m[f"{name}.{kind}.{phase.name}"] = metric(value, _layer_unit(name))
    m["uncovered_share"] = metric(1.0 - api_total / client_total, "ratio")
    m["tracing_overhead"] = metric(
        statistics.fmean(latencies(traced[1].ok)) / statistics.fmean(latencies(plain[1].ok)),
        "ratio",
    )
    m["service.batching.batches"] = metric(batches, "count")
    lines = [
        "serve_mixed traced solo: %s (untraced %s)"
        % (describe_ms(latencies(traced[1].ok)), describe_ms(latencies(plain[1].ok)))
    ]
    return _traced("serve_mixed", m, errors, lines)


_COALESCING = ("service.batching.batch_size", "service.batching.coalesced_ratio")


def _per_request_layers(records: List[dict]) -> Dict[str, float]:
    """Per-request means of one kind's traced server records."""
    count = len(records)

    def seconds(layer: str) -> float:
        return sum(r["seconds"].get(layer, 0.0) for r in records)

    def total(name: str) -> float:
        return sum(r["counts"].get(name, 0.0) for r in records)

    gets, batches, batched = (
        total("service.catalog.gets"),
        total("service.batching.batches"),
        total("service.batching.requests"),
    )
    return {
        "service.catalog.get_ms": seconds("service.catalog") / count * 1e3,
        "service.catalog.cache_hit_ratio": total("service.catalog.hits") / gets if gets else 0.0,
        "service.batching.wait_ms": seconds("service.batching") / count * 1e3,
        "service.batching.batch_size": batched / batches if batches else 0.0,
        "service.batching.coalesced_ratio": (
            total("service.batching.coalesced") / batched if batched else 0.0
        ),
        "engine.columnar.kernel_ms": seconds("engine.columnar") / count * 1e3,
        "service.api.self_ms": seconds("service.api") / count * 1e3,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "count" if name.endswith("batch_size") else "ratio"


def _traced(workload: str, metrics: Dict[str, dict], errors: List[str], lines: List[str]) -> Outcome:
    """A traced workload's result, its metrics named ``<workload>.<metric>``."""
    return Outcome(
        attempted=1,
        failed=int(bool(errors)),
        errors=errors,
        metrics={f"{workload}.{name}": value for name, value in metrics.items()},
        lines=lines,
    )


WORKLOADS = {
    "build_n8": (build_n8, trace_build_n8),
    "ensemble_n7": (ensemble_n7, trace_ensemble_n7),
    "serve_mixed": (serve_mixed, trace_serve_mixed),
}
