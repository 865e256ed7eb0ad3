"""Tests of the benchmark's own arithmetic and client timing.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import socket
import sys
import threading
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import serve_client  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ladder_picks_highest_with_ten_beyond(self):
        self.assertEqual(metrics.tail_percentile(2000), 99.0)  # 20 beyond p99, 2 beyond p99.9
        self.assertEqual(metrics.tail_percentile(61), 80.0)  # 12 beyond p80, 6 beyond p90
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)
        self.assertEqual(metrics.tail_percentile(20), 50.0)

    def test_too_few_samples_has_no_ladder_percentile(self):
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertIsNone(metrics.tail_percentile(0))

    def test_tail_reports_n_and_falls_back_to_the_maximum(self):
        self.assertEqual(metrics.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        values = [float(i) for i in range(1, 2001)]
        self.assertEqual(metrics.tail(values), (1980.0, 99.0, 2000))

    def test_nearest_rank_percentile(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(metrics.percentile(values, 99.0), 99.0)
        self.assertEqual(metrics.percentile(values, 50.0), 50.0)
        self.assertEqual(metrics.percentile([7.0], 99.0), 7.0)
        self.assertEqual(metrics.percentile(list(reversed(values)), 80.0), 80.0)

    def test_pass_tail_takes_the_percentile_from_one_pass(self):
        one = [float(i) for i in range(1, 123)]  # 122 items: p90 has 12 beyond
        self.assertEqual(metrics.pass_tail(one, 1), (110.0, 90.0, 122))
        # Two passes would allow p95 over 244 items; the rule stays at p90.
        self.assertEqual(metrics.pass_tail(one + one, 2), (110.0, 90.0, 244))

    def test_pass_tail_with_few_items_is_the_median_slowest(self):
        passes = [1.0, 5.0, 2.0] + [1.0, 3.0, 2.0] + [9.0, 1.0, 1.0]
        self.assertEqual(metrics.pass_tail(passes, 3), (5.0, 100.0, 9))
        self.assertEqual(metrics.pass_tail(passes[:3], 1), (5.0, 100.0, 3))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(metrics.spread([1.0, 2.0, 3.0, 4.0, 5.0]), (4.5 - 1.5) / 3.0)


def record(kind="light", status="ok", replied=True, check=True):
    r = metrics.Record(1, kind, 0.0)
    r.sent = 0.0
    if replied:
        r.replied = 0.001
        r.status = status
        r.daemon_ms = 0.5
        r.check = check if status == "ok" else None
    return r


class FailureCounting(unittest.TestCase):
    def test_only_checked_ok_replies_succeed(self):
        records = [
            record(),
            record(status="overloaded"),
            record(status="error"),
            record(status="deadline"),
            record(replied=False),
            record(check=False),
            record(),
        ]
        self.assertEqual(metrics.count_failures(records), (7, 5))

    def test_unchecked_ok_reply_counts_as_success(self):
        self.assertEqual(metrics.count_failures([record(check=None)]), (1, 0))

    def test_no_failures(self):
        self.assertEqual(metrics.count_failures([record(), record()]), (2, 0))


class DueInstantLatency(unittest.TestCase):
    def test_record_arithmetic(self):
        r = metrics.Record(1, "knn", 10.0)
        r.sent, r.replied, r.daemon_ms = 10.2, 10.21, 4.0
        self.assertAlmostEqual(r.latency_ms(), 210.0)
        self.assertAlmostEqual(r.lag_ms(), 200.0)
        self.assertAlmostEqual(r.transport_ms(), 6.0)

    def test_stalled_sender_is_charged_to_later_requests(self):
        """The first send stalls 300 ms; the second request, due 10 ms after
        the first, must show the stall in its latency and lag even though
        the server answers it at once."""
        client_end, server_end = socket.socketpair()

        def serve():
            reader = server_end.makefile("rb")
            for line in reader:
                req = json.loads(line)
                reply = {"id": req["id"], "status": "ok", "elapsed_ms": 0.0,
                         "payload": {"kind": "number", "value": 1.0}}
                server_end.sendall((json.dumps(reply) + "\n").encode())

        threading.Thread(target=serve, daemon=True).start()

        class Stalling:
            def __init__(self, sock):
                self.sock, self.first = sock, True

            def sendall(self, data):
                if self.first:
                    self.first = False
                    time.sleep(0.3)
                self.sock.sendall(data)

            def makefile(self, mode):
                return self.sock.makefile(mode)

        op = {"op": "distance", "a": "x", "b": "y"}
        reqs = [(0.0, "distance", None, op), (0.01, "distance", None, op)]
        records = serve_client.Client(Stalling(client_end), reqs, reference=None).run()
        client_end.close()
        server_end.close()
        second = records[1]
        self.assertTrue(all(metrics.ok(r) for r in records))
        self.assertGreaterEqual(second.lag_ms(), 280.0)
        self.assertGreaterEqual(second.latency_ms(), 280.0)
        # Timed from the actual send instead, the stall would vanish.
        self.assertLess((second.replied - second.sent) * 1000.0, 100.0)


class DaemonCpu(unittest.TestCase):
    def test_cpu_seconds_counts_a_busy_loop(self):
        before = serve_client.cpu_seconds(os.getpid())
        end = time.monotonic() + 0.3
        while time.monotonic() < end:
            pass
        used = serve_client.cpu_seconds(os.getpid()) - before
        self.assertGreater(used, 0.15)
        self.assertLess(used, 1.0)


class Schedule(unittest.TestCase):
    def test_fixed_work_and_seed_determinism(self):
        warm = ["w%d" % i for i in range(10)]
        cold = ["c%d" % i for i in range(7)]
        a = serve_client.schedule(5, 2.0, warm, cold)
        b = serve_client.schedule(5, 2.0, warm, cold)
        c = serve_client.schedule(6, 2.0, warm, cold)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        for reqs in (a, c):
            kinds = [k for _, k, _, _ in reqs]
            self.assertEqual(len(reqs), 200 + 7)
            for kind in serve_client.LIGHT_KINDS:
                self.assertEqual(kinds.count(kind), 50)
            self.assertEqual(sorted(t for _, k, t, _ in reqs if k == "cold"), sorted(cold))
            dues = [d for d, _, _, _ in reqs]
            self.assertEqual(dues, sorted(dues))
            self.assertTrue(all(0.0 <= d < 2.0 for d in dues))
            cold_dues = [d for d, k, _, _ in reqs if k == "cold"]
            slot = 2.0 / len(cold)
            gaps = [b - a for a, b in zip(cold_dues, cold_dues[1:])]
            self.assertTrue(all(g >= 0.5 * slot - 1e-12 for g in gaps))


if __name__ == "__main__":
    unittest.main()
