"""The ``serve-mixed`` workload: a real ``repro serve`` daemon under mixed traffic.

A closed loop from this one process over two connections that take
turns: an 8-miter bulk batch (two bulk tenants, alternating), then a
fixed number of single-miter interactive requests (four tenants).  A
quarter of the jobs are fresh — a PI permutation the tenant has never
seen — and the rest repeat miters every tenant saw during warm-up, so
fresh jobs write the resident caches while repeats read them.

Every pass and launch is scaled to the nominal host speed by the
reference run between them (:mod:`hostspeed`).  ``setup_s`` is the
median over fresh daemon launches spread through the run, each timed
until every worker has completed a check (the first ``ping`` answers
before the workers finish importing).  Every launch must also shut down
cleanly, leave no ``/dev/shm`` segment behind and never respawn or
deadline-kill a worker; each lapse counts as a failure.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import inputs
from common import Tally, child_env, hwm_mb, log, to_aig
from hostspeed import Scaler
from spans import median, quantile

#: The quantile the sample must support: at least 10 requests beyond p99.
MIN_INTERACTIVE = 1000
#: A fresh-daemon set-up probe after every this many passes.
PROBE_EVERY = 4
SHM = "/dev/shm"


def group_alive(pgid: int) -> List[int]:
    """Live (non-zombie) processes in a process group."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            alive.append(int(entry))
    return alive


def shm_segments() -> set:
    try:
        return {name for name in os.listdir(SHM) if name.startswith("rs")}
    except OSError:
        return set()


class Daemon:
    """One ``python -m repro serve`` launch in its own process group."""

    def __init__(self, root: str, workdir: str, tag: str, trace: bool = False) -> None:
        from repro.serve.client import ServeClient

        # Socket paths are relative to the checkout root (the cwd of both
        # sides) so they stay under the 108-byte AF_UNIX limit.
        self.socket = os.path.relpath(os.path.join(workdir, f"{tag}.sock"), root)
        args = [
            sys.executable, "-m", "repro", "serve", "--socket", self.socket,
            "--cache-root", os.path.join(workdir, f"{tag}-cache"),
        ]
        if trace:
            args += ["--trace", os.path.join(workdir, f"{tag}-trace.json")]
        self.started = time.perf_counter()
        with open(os.path.join(workdir, f"{tag}.log"), "wb") as log_file:
            self.proc = subprocess.Popen(
                args, cwd=root, env=child_env(root, workdir),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log_file, start_new_session=True,
            )
        self.connections = [
            ServeClient(self.socket, timeout=120, connect_retries=3000,
                        connect_interval=0.01)
            for _ in range(2)
        ]

    def ready(self, miters, tally: Tally) -> float:
        """Seconds from launch until every worker has completed a check."""
        client = self.connections[0]
        while True:
            for result in client.submit_batch(miters, tenant="probe"):
                if result["status"] == "error":
                    tally.fail(f"probe job failed: {result['error']}")
            workers = client.stats()["pool"]["per_worker"]
            if workers and all(w["jobs_done"] > 0 for w in workers):
                return time.perf_counter() - self.started

    def peak_rss_mb(self) -> float:
        workers = self.connections[0].stats()["pool"]["per_worker"]
        return hwm_mb(str(self.proc.pid)) + sum(
            hwm_mb(str(w["pid"])) for w in workers if w["pid"]
        )

    def hygiene(self, tally: Tally) -> Dict:
        """Count respawns and deadline kills; return the pool stats."""
        pool = self.connections[0].stats()["pool"]
        for key in ("respawns", "deadline_kills"):
            if pool[key]:
                tally.fail(f"daemon {self.socket}: {pool[key]} worker {key}")
        return pool

    def shutdown(self, tally: Tally) -> None:
        """Ask for a drain; anything but a clean, complete exit is a failure."""
        for client in self.connections[1:]:
            client.close()
        try:
            self.connections[0].shutdown()
            code = self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired) as error:
            tally.fail(f"daemon {self.socket} did not shut down: {error!r}")
            return
        if code != 0:
            tally.fail(f"daemon {self.socket} exited with {code}")
        deadline = time.monotonic() + 10
        while group_alive(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if group_alive(self.proc.pid):
            tally.fail(f"daemon {self.socket} left workers running")

    def kill(self) -> None:
        """Stop the daemon and its workers whatever state they are in."""
        for client in self.connections:
            client.close()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while group_alive(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)


class Traffic:
    """The seeded schedule, its miters built lazily, and every job record."""

    def __init__(self, schedule: Dict) -> None:
        self.schedule = schedule
        self.circuits = inputs.materialise(schedule)
        self._miters: Dict[int, object] = {}
        self.records: List[Dict] = []
        self.interactive_rtt: List[float] = []

    def miter(self, index: int):
        if index not in self._miters:
            from repro.aig.miter import build_miter

            _, left, right, _ = self.circuits[index]
            self._miters[index] = build_miter(to_aig(left), to_aig(right))
        return self._miters[index]

    def build_pass(self, pass_index: int) -> None:
        for step in self.schedule["passes"][pass_index]:
            for index in step["jobs"]:
                self.miter(index)

    def submit(self, client, tenant: str, jobs: List[int], fresh: List[bool],
               tally: Tally, record: bool) -> Optional[float]:
        """One request; returns its round trip, or None if it was refused."""
        from repro.serve.client import ServeError

        start = time.perf_counter()
        try:
            results = client.submit_batch(
                [self.miter(i) for i in jobs], tenant=tenant)
        except ServeError as error:
            tally.attempted += len(jobs)
            tally.fail(f"request refused: {error}")
            return None
        rtt = time.perf_counter() - start
        for index, is_fresh, result in zip(jobs, fresh, results):
            name, left, right, expect = self.circuits[index]
            if result["status"] == "error":
                tally.attempted += 1
                tally.fail(f"{name}: job error {result['error']}")
                continue
            tally.verdict(name, expect, result["status"], result["cex"],
                          left, right)
            if record:
                self.records.append(dict(result, fresh=is_fresh, rtt=rtt,
                                         single=len(jobs) == 1))
        return rtt

    def run_pass(self, daemon: Daemon, pass_index: int, tally: Tally,
                 record: bool) -> Tuple[float, List[float]]:
        """One pass; returns its wall time and its interactive round trips."""
        bulk, interactive = daemon.connections
        rtts: List[float] = []
        start = time.perf_counter()
        for step in self.schedule["passes"][pass_index]:
            single = step["kind"] == "interactive"
            rtt = self.submit(interactive if single else bulk, step["tenant"],
                              step["jobs"], step["fresh"], tally, record)
            if single and rtt is not None:
                rtts.append(rtt)
        return time.perf_counter() - start, rtts


def probe_launch(root: str, workdir: str, tag: str, miters, tally: Tally) -> float:
    daemon = Daemon(root, workdir, tag)
    try:
        seconds = daemon.ready(miters, tally)
        daemon.hygiene(tally)
        daemon.shutdown(tally)
        return seconds
    finally:
        daemon.kill()


def run(root: str, workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    schedule = inputs.prepare(root, workload, seed)
    traffic = Traffic(schedule)
    tally = Tally()
    workdir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    shm_before = shm_segments()
    probe_miters = [traffic.miter(i) for i in schedule["warmup"][0]["jobs"][:2]]
    daemons: List[Daemon] = []
    try:
        if trace:
            # An untraced daemon and one with the daemon's tracer on, both
            # warm, take alternate passes, so both medians see the same
            # host drift; per-layer figures come from the untraced one.
            for tag, traced in (("plain", False), ("traced", True)):
                daemons.append(Daemon(root, workdir, tag, trace=traced))
            outcome = _drive(traffic, daemons, tally, seconds, probe_miters,
                             root, workdir, probes=False)
            pools = [daemon.hygiene(tally) for daemon in daemons]
            for daemon in daemons:
                daemon.shutdown(tally)
            plain, traced_passes = outcome["passes"]
            metrics = per_layer(traffic.records, pools[0])
            metrics["trace.overhead_s"] = median(traced_passes) - median(plain)
            metrics["host.reference_s"] = outcome["reference_s"]
            return {"tally": tally, "metrics": metrics,
                    "shape": shape_checks(metrics)}
        daemon = Daemon(root, workdir, "main")
        daemons.append(daemon)
        outcome = _drive(traffic, daemons, tally, seconds, probe_miters, root,
                         workdir, probes=True)
        daemon.hygiene(tally)
        peak = daemon.peak_rss_mb()
        daemon.shutdown(tally)
    finally:
        for daemon in daemons:
            daemon.kill()
        leaked = shm_segments() - shm_before
        if leaked:
            tally.fail(f"{len(leaked)} leaked shared-memory segments")
        shutil.rmtree(workdir, ignore_errors=True)

    passes = outcome["passes"][0]
    pass_s = median(passes)
    jobs_per_pass = sum(len(step["jobs"]) for step in schedule["passes"][0])
    rtt = traffic.interactive_rtt
    metrics = {
        "setup_s": median(outcome["setups"]),
        "pass_s": pass_s,
        "jobs_per_s": jobs_per_pass / pass_s,
        "latency_p50_s": median(rtt),
        "latency_p99_s": quantile(rtt, 0.99),
        "peak_rss_mb": peak,
    }
    log(f"serve-mixed: {len(passes)} passes, {len(rtt)} "
        f"interactive requests, {len(outcome['setups'])} launches; "
        f"reference median {outcome['reference_s']:.4f} s")
    return {"tally": tally, "metrics": metrics, "shape": []}


def _drive(traffic: Traffic, daemons: List[Daemon], tally: Tally,
           seconds: float, probe_miters, root: str, workdir: str,
           probes: bool) -> Dict:
    """Warm up, then run passes for ``seconds``, taking daemons in turn.

    Only the first daemon's jobs are recorded.  With ``probes`` the
    window also stretches until the run holds :data:`MIN_INTERACTIVE`
    interactive requests, and a fresh daemon is launched every
    :data:`PROBE_EVERY` passes to time set-up.
    """
    min_interactive = MIN_INTERACTIVE if probes else 0
    for daemon in daemons:
        # The first launch also writes the bytecode caches: not a set-up sample.
        daemon.ready(probe_miters, tally)
        for step in traffic.schedule["warmup"]:
            traffic.submit(daemon.connections[0], step["tenant"], step["jobs"],
                           [False] * len(step["jobs"]), tally, record=False)
    scaler = Scaler()
    scaler.mark()
    setups: List[float] = []
    passes: List[List[float]] = [[] for _ in daemons]
    every: List[float] = []
    start = time.perf_counter()
    total = len(traffic.schedule["passes"])
    while len(every) < total and (
        len(every) < 3 * len(daemons)
        or time.perf_counter() - start + median(every) <= seconds
        or len(traffic.interactive_rtt) < min_interactive
    ):
        index = len(every)
        turn = index % len(daemons)
        traffic.build_pass(index)
        elapsed, rtts = traffic.run_pass(daemons[turn], index, tally,
                                         record=turn == 0)
        every.append(elapsed)
        # The reference runs between passes, while the daemon is idle;
        # the pass's interactive requests share its scale.
        scaled = scaler.scale(elapsed)
        passes[turn].append(scaled)
        if turn == 0:
            traffic.interactive_rtt += [rtt * scaled / elapsed for rtt in rtts]
        if probes and len(every) % PROBE_EVERY == 0:
            setups.append(scaler.scale(probe_launch(
                root, workdir, f"probe{len(setups)}", probe_miters, tally)))
    return {"passes": passes, "setups": setups,
            "reference_s": median(scaler.references)}


def per_layer(records: List[Dict], pool: Dict) -> Dict[str, float]:
    """Per-layer figures from the daemon's result fields and pool stats."""

    def p50(values: List[float]) -> float:
        return median(values) if values else 0.0

    def hit_ratio(rows: List[Dict]) -> float:
        lookups = sum(r["cache_lookups"] for r in rows)
        return sum(r["cache_hits"] for r in rows) / lookups if lookups else 0.0

    fresh = [r for r in records if r["fresh"]]
    repeat = [r for r in records if not r["fresh"]]
    done = [w["jobs_done"] for w in pool["per_worker"]]
    return {
        "serve.wire_s_p50": p50([r["rtt"] - r["latency"]
                                 for r in records if r["single"]]),
        "exec.queue_s_p50": p50([r["latency"] - r["seconds"] for r in records]),
        "serve.worker_s_p50": p50([r["seconds"] for r in records]),
        "cache.fresh_hit_ratio": hit_ratio(fresh),
        "cache.repeat_hit_ratio": hit_ratio(repeat),
        "serve.fresh_worker_s_p50": p50([r["seconds"] for r in fresh]),
        "serve.repeat_worker_s_p50": p50([r["seconds"] for r in repeat]),
        "exec.worker_skew": max(done) / max(min(done), 1),
    }


def shape_checks(m: Dict[str, float]) -> List:
    return [
        ("cache.fresh_hit_ratio < cache.repeat_hit_ratio",
         m["cache.fresh_hit_ratio"] < m["cache.repeat_hit_ratio"]),
    ]
