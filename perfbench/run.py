#!/usr/bin/env python3
"""The tft benchmark: the service daemon under load, and the
in-process research sweep.

    python3 perfbench/run.py --workload svc-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
program (the tft library, tft_serviced) and the benchmark harness into
.bench_build (or $CARGO_TARGET_DIR). See perfbench/README.md for the
workloads, the metric definitions and the traced mode.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
HARNESS = BUILD / "perfbench_harness"
SERVICED = BUILD / "tft_serviced"

ORACLE_PROCS = 4

# Session mixes. Every spec in a run carries its own seed, so every spec in a
# run is unique, and runs with different --seed values share none.
SMALL_MIX = {
    "n": [600, 2000],
    "family": ["planted", "hub", "gnp"],
    "protocol": ["sim-oblivious", "unrestricted"],
    "k": 4,
}
BULK_SPEC = {"protocol": "exact", "family": "gnp", "n": 10_000, "k": 4, "param": 100 * 100}

WORKLOADS = {
    # Open loop, Poisson arrivals at a fixed offered rate, 4 connection threads.
    "svc-small": {
        "daemon": ["--transport=inproc", "--shards=2", "--max-live=4"],
        "rate_per_s": 36.0,
        "threads": 4,
        "deadline_s": 1.0,
        "warmup": 24,
        "setups": 3,  # set-ups per run; setup_s is their median
    },
    # Closed loop, one client, large exact-protocol sessions over TCP frames.
    "svc-bulk": {
        "daemon": ["--transport=socket", "--shards=1"],
        "threads": 1,
        "deadline_s": 10.0,
        "warmup": 1,
        "setups": 3,
    },
    # In-process research grid; its set-up is short, so take more of them.
    "sweep": {"setups": 7},
}


class BenchError(Exception):
    """The benchmark could not run (missing sources, failed build, ...)."""


# Every step after the build shares one per-run deadline, so a hung child
# ends the run in time instead of hanging it.
RUN_BUDGET_S = 170.0
_run_deadline = time.monotonic() + RUN_BUDGET_S


def start_run_clock():
    global _run_deadline
    _run_deadline = time.monotonic() + RUN_BUDGET_S


def left(cap):
    """Seconds a step may take: at most `cap`, and never past the deadline."""
    return max(0.1, min(cap, _run_deadline - time.monotonic()))


def readline_within(pipe, timeout):
    """One line from a child's pipe, or "" if none comes within `timeout`."""
    box = []
    t = threading.Thread(target=lambda: box.append(pipe.readline()), daemon=True)
    t.start()
    t.join(timeout)
    return box[0] if box else ""


# --------------------------------------------------------------------------
# Build


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("the program's sources (src/) are not in this checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT, timeout=300,
        )
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    proc = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=850,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError("build failed")


# --------------------------------------------------------------------------
# Inputs: generated here from the seed; the program only sees the specs.


def small_specs(seed, seconds, rate, base=0, limit=None):
    """Poisson arrivals at `rate` per second over [0, seconds), at most
    `limit` of them."""
    rng = random.Random(f"svc-small/{seed}/{base}")
    out, t, i = [], 0.0, 0
    while limit is None or len(out) < limit:
        t += rng.expovariate(rate)
        if t >= seconds:
            break
        out.append({
            "due_us": int(t * 1e6),
            "protocol": SMALL_MIX["protocol"][int(rng.random() * 2)],
            "family": SMALL_MIX["family"][int(rng.random() * 3)],
            "n": SMALL_MIX["n"][int(rng.random() * 2)],
            "k": SMALL_MIX["k"],
            "seed": spec_seed(seed, base + i),
            "param": 0,
        })
        i += 1
    return out


def bulk_specs(seed, count, base=0):
    return [dict(BULK_SPEC, due_us=0, seed=spec_seed(seed, base + i)) for i in range(count)]


def spec_seed(seed, index):
    return seed * 10_000_000 + index + 1


def write_specs(path, specs):
    with open(path, "w") as f:
        for s in specs:
            f.write(f"{s['due_us']} {s['protocol']} {s['family']} {s['n']} {s['k']} "
                    f"{s['seed']} {s['param']}\n")


# --------------------------------------------------------------------------
# Statistics


def percentile(values, q):
    """Nearest-rank q-quantile of `values`, or None unless at least ten
    samples lie strictly above the reported rank."""
    if not values:
        return None
    xs = sorted(values)
    rank = max(1, -(-int(round(q * 1e6)) * len(xs) // 1_000_000))  # ceil(q * n)
    if len(xs) - rank < 10:
        return None
    return xs[rank - 1]


def laplace_frac(failed, attempted):
    """Failure share as the rule-of-succession estimate (failed+1)/(n+2):
    never 0, so a later regression always reads as a finite ratio."""
    return (failed + 1) / (attempted + 2)


# --------------------------------------------------------------------------
# Processes


def run_harness(args, timeout):
    proc = subprocess.run([str(HARNESS)] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=left(timeout))
    if proc.returncode != 0:
        raise BenchError(f"harness {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


class Daemon:
    """tft_serviced as a child process. It serves until its stdin closes."""

    def __init__(self, flags, workdir):
        self.log = open(workdir / "daemon.log", "w")
        self.proc = subprocess.Popen([str(SERVICED)] + flags, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log, text=True)
        self.peak_kb = 0
        self.port = None
        self.exit_status = None
        line = readline_within(self.proc.stdout, left(30))
        if not line.startswith("listening on 127.0.0.1:"):
            self.kill()
            self.log.close()
            raise BenchError(f"daemon did not start: {line!r}")
        self.port = int(line.split(":")[1].split()[0])
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample_rss, daemon=True)
        self._sampler.start()

    def proc_stat(self, field):
        """A line of /proc/<pid>/status, in kB, or None once the child is gone."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as f:
                for line in f:
                    if line.startswith(field + ":"):
                        return int(line.split()[1])
        except (OSError, ValueError):
            pass
        return None

    def cpu_seconds(self):
        try:
            with open(f"/proc/{self.proc.pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        except (OSError, ValueError, IndexError):
            return None

    def _sample_rss(self):
        while not self._stop.is_set() and self.proc.poll() is None:
            hwm = self.proc_stat("VmHWM")
            if hwm:
                self.peak_kb = max(self.peak_kb, hwm)
            self._stop.wait(0.2)

    def stop(self, grace=10):
        """Close stdin (graceful drain); SIGKILL a daemon that does not exit.
        Returns a description of how it ended."""
        if self.exit_status is not None:
            return self.exit_status
        hwm = self.proc_stat("VmHWM")
        if hwm:
            self.peak_kb = max(self.peak_kb, hwm)
        died_before = self.proc.poll() is not None
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=left(grace))
            hung = False
        except subprocess.TimeoutExpired:
            self.kill()
            hung = True
        self._stop.set()
        self._sampler.join()
        self.log.close()
        rc = self.proc.returncode
        if hung:
            self.exit_status = "hung (no exit after stdin closed; killed)"
        elif rc < 0:
            self.exit_status = f"signal {signal.Signals(-rc).name}" + (
                " during the run" if died_before else "")
        else:
            self.exit_status = f"exit {rc}"
        return self.exit_status

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# --------------------------------------------------------------------------
# Service workloads


def service_setup(wl, seed, workdir, index):
    """Launch the daemon and warm it up with serial sessions. Returns the
    daemon and the set-up time."""
    if wl["name"] == "svc-small":
        warm = small_specs(seed, 1e9, 1000.0, base=9_000_000 + 1000 * index,
                           limit=wl["warmup"])
    else:
        warm = bulk_specs(seed, wl["warmup"], base=9_000_000 + 1000 * index)
    for s in warm:
        s["due_us"] = 0
    spec_path = workdir / f"warm{index}.specs"
    write_specs(spec_path, warm)
    t0 = time.perf_counter()
    daemon = Daemon(wl["daemon"], workdir)
    try:
        run_harness(["load", f"--port={daemon.port}", f"--specs={spec_path}", "--closed=1",
                     f"--deadline-ms={int(wl['deadline_s'] * 1000)}",
                     f"--out={workdir / 'warm.results'}"], timeout=60)
    except Exception:
        daemon.stop(grace=2)
        raise
    return daemon, time.perf_counter() - t0


def parse_results(path):
    sessions, end_s = [], None
    with open(path) as f:
        for line in f:
            parts = line.rstrip("\n").split(" ", 13)
            if parts[0] == "end":
                end_s = float(parts[1])
                continue
            sessions.append({
                "idx": int(parts[0]), "outcome": int(parts[1]),
                "due": float(parts[2]), "send": float(parts[3]), "done": float(parts[4]),
                "charged": int(parts[5]), "payload": int(parts[6]), "messages": int(parts[7]),
                "frames": int(parts[8]), "wire_bytes": int(parts[9]),
                "accounting": parts[10] == "1", "conformance": parts[11] == "1",
                "triangle": parts[12], "error": parts[13] if len(parts) > 13 else "",
            })
    return sessions, end_s


def run_oracle(spec_path, results_path, workdir):
    """Expected values for every answered session, computed by the harness
    on the simulated path after the timed window closed."""
    outs = [workdir / f"oracle{i}.out" for i in range(ORACLE_PROCS)]
    procs = [subprocess.Popen([str(HARNESS), "oracle", f"--specs={spec_path}",
                               f"--results={results_path}", f"--shard={i}",
                               f"--shards={ORACLE_PROCS}", f"--out={outs[i]}"],
                              stderr=subprocess.PIPE, text=True)
             for i in range(ORACLE_PROCS)]
    errors = []
    for p in procs:
        try:
            _, err = p.communicate(timeout=left(120))
        except subprocess.TimeoutExpired:
            p.kill()
            _, err = p.communicate()
        if p.returncode != 0:
            errors.append(err[-500:])
    if errors:
        raise BenchError("oracle failed: " + " | ".join(errors))
    expected = {}
    for path in outs:
        with open(path) as f:
            for line in f:
                idx, bits, tri, witness = line.split()
                expected[int(idx)] = {"bits": int(bits), "triangle": tri == "1",
                                      "witness_ok": witness == "1"}
    return expected


def check_session(s, expected):
    """Why an answered session fails the oracle, or None if it passes."""
    if s["outcome"] not in (0, 1):
        return None
    e = expected.get(s["idx"])
    if e is None:
        return "no expected value"
    if not s["accounting"]:
        return "accounting_exact not set"
    if not s["conformance"]:
        return "conformance_ok not set"
    if s["charged"] != e["bits"]:
        return f"charged_bits {s['charged']} != simulated {e['bits']}"
    if (s["outcome"] == 1) != e["triangle"]:
        return "verdict differs from the simulated run"
    if s["outcome"] == 1 and s["triangle"] == "-":
        return "triangle verdict without a witness"
    if not e["witness_ok"]:
        return "witness is not a triangle of the instance"
    if s["payload"] != s["charged"]:
        return f"payload_bits {s['payload']} != charged_bits {s['charged']}"
    return None


def service_metrics(wl, sessions, end_s, expected):
    """End-to-end metrics from one measured window. A failed session counts
    as later than every success: its latency is censored at the end of the
    run, which is at least one deadline after it fell due."""
    deadline = wl["deadline_s"]
    last_due = max((s["due"] for s in sessions), default=0.0)
    t_end = max(end_s, last_due + deadline)
    mismatches, lat, good, payload = [], [], 0, 0
    for s in sessions:
        why = check_session(s, expected)
        if why is not None:
            mismatches.append((s["idx"], why))
        ok = s["outcome"] in (0, 1) and why is None and s["done"] - s["due"] <= deadline
        if ok:
            good += 1
            payload += s["payload"]
            lat.append(s["done"] - s["due"])
        else:
            lat.append(t_end - s["due"])
    attempted = len(sessions)
    failed = attempted - good
    wall = max(end_s, 1e-9)
    m = {
        "sessions_per_s": (good / wall, "1/s"),
        # Every served session regenerates and tests one instance.
        "instances_per_s": (good / wall, "1/s"),
        "latency_p50_s": (percentile(lat, 0.50), "s"),
        "latency_p90_s": (percentile(lat, 0.90), "s"),
        "failed_frac": (laplace_frac(failed, attempted), "fraction"),
        "payload_mbit_per_s": (payload / wall / 1e6, "Mbit/s"),
    }
    if wl["name"] == "svc-small":
        m["latency_p99_s"] = (percentile(lat, 0.99), "s")
    return m, attempted, failed, mismatches


def run_service(wl, seed, seconds, workdir, record):
    setups, daemon = [], None
    for i in range(wl["setups"]):
        if daemon is not None:
            daemon.stop()
        daemon, t = service_setup(wl, seed, workdir, i)
        setups.append(t)
    record["setups_s"] = setups

    if wl["name"] == "svc-small":
        specs = small_specs(seed, seconds, wl["rate_per_s"])
        args = [f"--threads={wl['threads']}"]
    else:
        # More specs than one closed-loop client can send in the window.
        specs = bulk_specs(seed, int(seconds * 20) + 10)
        args = ["--closed=1", f"--window-s={seconds}"]
    spec_path = workdir / "run.specs"
    results_path = workdir / "run.results"
    write_specs(spec_path, specs)
    try:
        run_harness(["load", f"--port={daemon.port}", f"--specs={spec_path}",
                     f"--deadline-ms={int(wl['deadline_s'] * 1000)}",
                     f"--out={results_path}"] + args,
                    timeout=seconds + 2 * wl["deadline_s"] + 60)
    finally:
        record["daemon_exit"] = daemon.stop()
    sessions, end_s = parse_results(results_path)
    expected = run_oracle(spec_path, results_path, workdir)
    metrics, attempted, failed, mismatches = service_metrics(wl, sessions, end_s, expected)
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (daemon.peak_kb / 1024.0, "MB")
    outcomes = {}
    for s in sessions:
        outcomes[s["outcome"]] = outcomes.get(s["outcome"], 0) + 1
    record["outcomes"] = {OUTCOME_NAMES[k]: v for k, v in sorted(outcomes.items())}
    record["sessions"] = attempted
    record["mismatches"] = mismatches[:10]
    return metrics, attempted, failed, not mismatches


# --------------------------------------------------------------------------
# The sweep workload


def run_sweep(wl, seed, seconds, workdir, record):
    setups = []
    for _ in range(wl["setups"] - 1):
        t0 = time.perf_counter()
        run_harness(["sweep", "--setup-only"], timeout=60)
        setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(HARNESS), "sweep", f"--seed={seed}", f"--seconds={seconds}",
                             f"--out={workdir}"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = readline_within(proc.stdout, left(60))
        setups.append(time.perf_counter() - t0)
        _, err = proc.communicate(timeout=left(seconds + 150))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("sweep did not finish")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"sweep exited {proc.returncode}: {err[-2000:]}")
    record["setups_s"] = setups

    cells, peak_kb = [], 0
    with open(workdir / "cells") as f:
        for line in f:
            parts = line.split(" ", 4)
            if parts[0] == "peak_rss_kb":
                peak_kb = int(parts[1])
                record["instance_cache"] = line.split(" ", 2)[2].strip()
                continue
            cells.append({"pass": int(parts[0]), "name": parts[1], "seconds": float(parts[2]),
                          "instances": int(parts[3]), "status": parts[4].strip()})
    trials = []
    with open(workdir / "trials") as f:
        for line in f:
            p, sec, bits, ok = line.split()
            trials.append({"pass": int(p), "seconds": float(sec), "bits": int(bits),
                           "ok": ok == "1"})
    # Rates are taken per pass and their median reported, so a stall on a
    # shared host moves one pass, not the result.
    passes = {}
    for c in cells:
        p = passes.setdefault(c["pass"], {"s": 0.0, "inst": 0, "n": 0, "bits": 0})
        p["s"] += c["seconds"]
        if c["status"] == "ok":
            p["inst"] += c["instances"]
    for t in trials:
        if t["ok"]:
            passes[t["pass"]]["n"] += 1
            passes[t["pass"]]["bits"] += t["bits"]
    elapsed = sum(p["s"] for p in passes.values())
    bad_cells = [c for c in cells if c["status"] != "ok"]
    # A failed protocol run counts as later than every other: censor it at
    # the length of the run.
    lat = [t["seconds"] if t["ok"] else elapsed for t in trials]
    attempted = len(trials)
    failed = sum(1 for t in trials if not t["ok"])
    record["passes"] = len(passes)
    record["cells_failed"] = [f"{c['pass']}/{c['name']}: {c['status']}" for c in bad_cells][:10]
    per_pass = lambda f: statistics.median(f(p) for p in passes.values())  # noqa: E731
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sessions_per_s": (per_pass(lambda p: p["n"] / p["s"]), "1/s"),
        "instances_per_s": (per_pass(lambda p: p["inst"] / p["s"]), "1/s"),
        "latency_p50_s": (percentile(lat, 0.50), "s"),
        "latency_p90_s": (percentile(lat, 0.90), "s"),
        "failed_frac": (laplace_frac(failed, attempted), "fraction"),
        "payload_mbit_per_s": (per_pass(lambda p: p["bits"] / p["s"]) / 1e6, "Mbit/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, attempted, failed, not bad_cells and failed == 0


# --------------------------------------------------------------------------
# The traced run

TRACE_SMALL = 40     # svc-small specs replayed one at a time
TRACE_BULK = 3       # svc-bulk specs replayed one at a time
TRACE_REPLAY_S = 5   # seconds of svc-small's arrival schedule replayed concurrently

# (unit) of every per-layer metric the traced run reports.
LAYER_UNITS = {
    "service.daemon.self_s": "s", "service.coordinator.self_s": "s",
    "service.coordinator.pending_p99": "count", "service.busy_frac": "fraction",
    "service.spec.codec_ns": "ns", "service.daemon.cpu_s_per_session": "s",
    "net.exec.self_s": "s", "net.frame.encode_ns": "ns", "net.frame.crc_mb_per_s": "MB/s",
    "net.arq.admit_ack_ns": "ns", "net.mpsc.push_pop_ns": "ns",
    "net.payload_bits_per_session": "bit", "net.frames_per_session": "count",
    "net.wire_bytes_per_session": "byte", "net.wire_over_payload": "ratio",
    "comm.charged_bits_per_session": "bit", "comm.messages_per_session": "count",
    "comm.conformance_s": "s", "core.protocol_s": "s", "graph.generate_s": "s",
    "graph.triangles.packing_s": "s", "graph.triangles.count_s": "s",
    "graph.triangles.find_s": "s", "graph.instance_cache.hit_frac": "fraction",
    "lower_bounds.min_budget_s": "s", "lower_bounds.probes_per_search": "count",
    "util.parallel.speedup": "ratio", "loadgen.late_p99_s": "s", "trace.overhead_frac": "fraction",
}


def nearest_rank(values, q):
    xs = sorted(values)
    return xs[max(0, -(-int(round(q * 1e6)) * len(xs) // 1_000_000) - 1)] if xs else 0.0


def run_trace(seed, workdir, record):
    """Per-layer numbers. The same traced replay serves every workload: each
    layer is measured on the inputs of the workload the layer map in
    perfbench/README.md names for it."""
    small = small_specs(seed, 1e9, 1000.0, base=8_000_000, limit=TRACE_SMALL)
    bulk = bulk_specs(seed, TRACE_BULK, base=8_000_000)
    for s in small:
        s["due_us"] = 0
    write_specs(workdir / "small.specs", small)
    write_specs(workdir / "bulk.specs", bulk)
    wl = dict(WORKLOADS["svc-small"], name="svc-small")

    # Daemon CPU per session: the svc-small sample, served one at a time.
    daemon = Daemon(wl["daemon"], workdir)
    try:
        cpu0 = daemon.cpu_seconds()
        run_harness(["load", f"--port={daemon.port}", f"--specs={workdir / 'small.specs'}",
                     "--closed=1", "--deadline-ms=5000", f"--out={workdir / 'cpu.results'}"],
                    timeout=120)
        cpu1 = daemon.cpu_seconds()
    finally:
        record["daemon_exit"] = daemon.stop()
    served = sum(1 for s in parse_results(workdir / "cpu.results")[0] if s["outcome"] in (0, 1))

    run_harness(["trace", f"--small={workdir / 'small.specs'}",
                 f"--bulk={workdir / 'bulk.specs'}", f"--seed={seed}",
                 f"--out={workdir / 'trace.out'}"], timeout=170)
    layers = {}
    with open(workdir / "trace.out") as f:
        for line in f:
            name, value = line.split()
            layers[name] = float(value)
    layers["service.daemon.cpu_s_per_session"] = (cpu1 - cpu0) / max(1, served)

    # svc-small's arrival schedule, concurrently, against an in-process
    # coordinator in a child process.
    write_specs(workdir / "replay.specs", small_specs(seed, TRACE_REPLAY_S, wl["rate_per_s"],
                                                      base=7_000_000))
    scheduled = len(small_specs(seed, TRACE_REPLAY_S, wl["rate_per_s"], base=7_000_000))
    proc = subprocess.Popen([str(HARNESS), "replay", f"--specs={workdir / 'replay.specs'}",
                             f"--threads={wl['threads']}", f"--out={workdir / 'replay.out'}"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        proc.communicate(timeout=left(TRACE_REPLAY_S + 30))
        rc = proc.returncode
        ended = f"signal {signal.Signals(-rc).name}" if rc < 0 else f"exit {rc}"
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        ended = "hung (killed)"
    pending, late, statuses, done = [], [], [], False
    with open(workdir / "replay.out") as f:
        for line in f:
            parts = line.split()
            if parts[:1] == ["pending"]:
                pending.append(int(parts[1]))
            elif parts[:1] == ["session"] and len(parts) == 3:
                late.append(float(parts[1]))
                statuses.append(parts[2])
            elif parts[:1] == ["done"]:
                done = True
    ok = statuses.count("ok")
    record["replay"] = {"scheduled": scheduled, "answered": len(statuses), "ok": ok,
                        "busy": statuses.count("busy"), "ended": ended, "complete": done,
                        "pending_samples": len(pending)}
    layers["service.coordinator.pending_p99"] = nearest_rank(pending, 0.99)
    layers["service.busy_frac"] = statuses.count("busy") / max(1, len(statuses))
    layers["loadgen.late_p99_s"] = nearest_rank(late, 0.99)

    metrics = {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}
    attempted = TRACE_SMALL + TRACE_BULK + scheduled
    failed = scheduled - ok
    return metrics, attempted, failed, True


OUTCOME_NAMES = {0: "triangle-free", 1: "triangle", 2: "busy", 3: "error", 4: "io-error",
                 5: "deadline", 6: "not-sent"}


# --------------------------------------------------------------------------
# Entry point


def host_fingerprint():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fp = {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        with open(BUILD / "CMakeCache.txt") as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                    ver = subprocess.run([compiler, "--version"], capture_output=True, text=True)
                    fp["compiler"] = ver.stdout.splitlines()[0] if ver.stdout else compiler
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    fp["build_type"] = line.split("=", 1)[1].strip()
    except OSError:
        pass
    try:
        fp["kernel_variant"] = run_harness(["host"], timeout=30).strip()
    except (BenchError, subprocess.SubprocessError, OSError):
        fp["kernel_variant"] = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        commit = r.stdout.strip() or commit
    fp["commit"] = commit
    return fp


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        build()
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    start_run_clock()
    wl = dict(WORKLOADS[args.workload], name=args.workload)
    (BUILD / "runs").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD / "runs"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_fingerprint()}
    try:
        if args.trace:
            metrics, attempted, failed, correct = run_trace(args.seed, workdir, record)
        elif args.workload == "sweep":
            metrics, attempted, failed, correct = run_sweep(wl, args.seed, args.seconds,
                                                            workdir, record)
        else:
            metrics, attempted, failed, correct = run_service(wl, args.seed, args.seconds,
                                                              workdir, record)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing:
        print(f"perfbench: too few samples for {', '.join(missing)}", file=sys.stderr)
        return 4
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
