#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the program):

    python3 perfbench/test_perfbench.py

The tests that run the daemon build the program first, like run.py does.
"""

import os
import signal
import sys
import tempfile
import threading
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class InputsTest(unittest.TestCase):
    def test_same_seed_same_specs_and_arrivals(self):
        a = run.small_specs(5, 10.0, 36.0)
        b = run.small_specs(5, 10.0, 36.0)
        self.assertEqual(a, b)
        self.assertEqual(run.bulk_specs(5, 20), run.bulk_specs(5, 20))
        self.assertNotEqual([s["due_us"] for s in a],
                            [s["due_us"] for s in run.small_specs(6, 10.0, 36.0)])

    def test_specs_unique_within_and_across_seeds(self):
        one = run.small_specs(1, 30.0, 36.0)
        two = run.small_specs(2, 30.0, 36.0)
        seeds = [s["seed"] for s in one] + [s["seed"] for s in two]
        self.assertEqual(len(seeds), len(set(seeds)))

    def test_arrivals_are_poisson_at_the_rate(self):
        specs = run.small_specs(3, 200.0, 36.0)
        self.assertLess(abs(len(specs) / 200.0 - 36.0), 36.0 * 0.05)
        dues = [s["due_us"] for s in specs]
        self.assertEqual(dues, sorted(dues))


class PercentileTest(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        self.assertEqual(run.percentile(list(range(100)), 0.90), 89)
        self.assertIsNone(run.percentile(list(range(99)), 0.90))
        self.assertEqual(run.percentile(list(range(20)), 0.50), 9)
        self.assertIsNone(run.percentile(list(range(19)), 0.50))
        self.assertIsNone(run.percentile(list(range(999)), 0.99))
        self.assertEqual(run.percentile(list(range(1000)), 0.99), 989)
        self.assertIsNone(run.percentile([], 0.5))

    def test_failed_sessions_rank_after_every_success(self):
        wl = dict(run.WORKLOADS["svc-small"], name="svc-small")
        sessions = [session(i, 0, due=i * 0.01, done=i * 0.01 + 0.002) for i in range(100)]
        sessions += [session(100 + i, 4, due=0.5, done=0.5) for i in range(100)]
        metrics, attempted, failed, mismatches = run.service_metrics(wl, sessions, 1.1, {
            s["idx"]: {"bits": 7, "triangle": False, "witness_ok": True} for s in sessions})
        self.assertEqual((attempted, failed, mismatches), (200, 100, []))
        self.assertGreaterEqual(metrics["latency_p90_s"][0], wl["deadline_s"])
        self.assertLess(metrics["latency_p50_s"][0], 0.01)


class OracleTest(unittest.TestCase):
    def test_corrupted_expected_value_is_caught(self):
        s = session(0, 1, due=0.0, done=0.01)
        good = {0: {"bits": 7, "triangle": True, "witness_ok": True}}
        self.assertIsNone(run.check_session(s, good))
        for corrupt in ({"bits": 8}, {"triangle": False}, {"witness_ok": False}):
            bad = {0: dict(good[0], **corrupt)}
            self.assertIsNotNone(run.check_session(s, bad), corrupt)
        wl = dict(run.WORKLOADS["svc-bulk"], name="svc-bulk")
        _, _, failed, mismatches = run.service_metrics(wl, [s], 0.02, {0: dict(good[0], bits=8)})
        self.assertEqual((failed, len(mismatches)), (1, 1))

    def test_corrupted_oracle_output_fails_a_real_session(self):
        run.build()
        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            work = Path(tmp)
            specs = run.small_specs(4, 1e9, 1000.0, limit=6)
            sessions, _ = serve(specs, work)
            expected = run.run_oracle(work / "t.specs", work / "t.results", work)
            answered = [s for s in sessions if s["outcome"] in (0, 1)]
            self.assertEqual(len(answered), len(specs))
            self.assertTrue(all(run.check_session(s, expected) is None for s in answered))
            victim = answered[0]["idx"]
            expected[victim]["bits"] += 1
            self.assertIn("charged_bits", run.check_session(answered[0], expected))


class DaemonDeathTest(unittest.TestCase):
    def test_kill_9_mid_run_counts_failures_and_exits_cleanly(self):
        run.build()
        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            work = Path(tmp)
            wl = dict(run.WORKLOADS["svc-small"], name="svc-small")
            specs = run.small_specs(9, 3.0, 30.0)
            run.write_specs(work / "k.specs", specs)
            daemon = run.Daemon(wl["daemon"][:1] + ["--shards=1", "--max-live=1"], work)
            killer = threading.Timer(1.0, lambda: os.kill(daemon.proc.pid, signal.SIGKILL))
            killer.start()
            t0 = time.monotonic()
            run.run_harness(["load", f"--port={daemon.port}", f"--specs={work / 'k.specs'}",
                             "--threads=1", "--deadline-ms=1000",
                             f"--out={work / 'k.results'}"], timeout=60)
            took = time.monotonic() - t0
            killer.join()
            status = daemon.stop()
            sessions, end_s = run.parse_results(work / "k.results")
            expected = run.run_oracle(work / "k.specs", work / "k.results", work)
            _, attempted, failed, mismatches = run.service_metrics(wl, sessions, end_s, expected)
            self.assertIn("SIGKILL", status)
            self.assertEqual(attempted, len(specs))
            self.assertGreater(failed, 0)
            self.assertLess(failed, attempted)
            self.assertEqual(mismatches, [])
            self.assertLess(took, 3.0 + wl["deadline_s"] + 5.0)


def session(idx, outcome, due, done):
    return {"idx": idx, "outcome": outcome, "due": due, "send": due, "done": done,
            "charged": 7, "payload": 7, "messages": 1, "frames": 1, "wire_bytes": 40,
            "accounting": True, "conformance": True,
            "triangle": "1,2,3" if outcome == 1 else "-", "error": ""}


def serve(specs, work):
    """Closed loop over `specs` against a fresh single-worker daemon."""
    for s in specs:
        s["due_us"] = 0
    run.write_specs(work / "t.specs", specs)
    daemon = run.Daemon(["--transport=inproc", "--max-live=1"], work)
    try:
        run.run_harness(["load", f"--port={daemon.port}", f"--specs={work / 't.specs'}",
                         "--closed=1", "--deadline-ms=5000", f"--out={work / 't.results'}"],
                        timeout=60)
    finally:
        daemon.stop()
    return run.parse_results(work / "t.results")


if __name__ == "__main__":
    unittest.main()
