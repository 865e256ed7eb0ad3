"""The serve workload: a child `mica serve` daemon driven by an open-loop
client with one connection, one sender thread and one receiver thread.

Traffic is fixed work: every light query and every cold characterize is
scheduled before the first send, from the workload seed alone.
"""

import json
import os
import random
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import metrics

ICOUNT = 100_000
LIGHT_RATE = 100.0  # light queries per second, all kinds together
LIGHT_KINDS = ("distance", "knn", "classify", "cached")
KNN_K = 5
CLASSIFY_THRESHOLD = 2.0
SPIN_S = 0.0005  # the sender spins this long before each due instant
REPLY_GRACE_S = 30.0  # how long to wait for replies after the last send


def bits_hex(value):
    return struct.pack(">d", value).hex()


def schedule(seed, seconds, warm, cold):
    """Requests in due order.  Light queries: LIGHT_RATE * seconds of them,
    equal shares of each kind, as a Poisson process conditioned on its
    count (sorted uniform due times over [0, seconds)).  Cold: each of
    `cold` once, one per slot of seconds / len(cold), at a seeded instant
    in the middle half of its slot.  Consecutive cold requests are thus at
    least half a slot apart, so cold computes do not queue behind each
    other by chance."""
    rng = random.Random(seed)
    n_light = int(LIGHT_RATE * seconds)
    kinds = [LIGHT_KINDS[i % len(LIGHT_KINDS)] for i in range(n_light)]
    rng.shuffle(kinds)
    light_due = sorted(rng.uniform(0.0, seconds) for _ in range(n_light))
    cold_order = list(cold)
    rng.shuffle(cold_order)
    slot = seconds / len(cold_order)
    cold_due = [(i + 0.25 + 0.5 * rng.random()) * slot for i in range(len(cold_order))]
    reqs = []
    for due, kind in zip(light_due, kinds):
        if kind == "distance":
            a, b = rng.sample(warm, 2)
            op = {"op": "distance", "a": a, "b": b}
            target = None
        elif kind == "knn":
            target = rng.choice(warm)
            op = {"op": "knn", "workload": target, "k": KNN_K}
        elif kind == "classify":
            target = rng.choice(warm)
            op = {"op": "classify", "workload": target, "threshold": CLASSIFY_THRESHOLD}
        else:
            target = rng.choice(warm)
            op = {"op": "characterize", "workload": target, "estimate": False}
        reqs.append((due, kind, target, op))
    for due, target in zip(cold_due, cold_order):
        op = {"op": "characterize", "workload": target, "estimate": False}
        reqs.append((due, "cold", target, op))
    reqs.sort(key=lambda r: r[0])
    return reqs


class Client:
    """Sends `reqs` open-loop over one connection and records each reply."""

    def __init__(self, sock, reqs, reference):
        self.sock = sock
        self.reference = reference
        self.records = []
        self.lines = {}
        self.targets = {}
        for i, (due, kind, target, op) in enumerate(reqs, start=1):
            rec = metrics.Record(i, kind, due)
            self.records.append(rec)
            self.targets[i] = target
            self.lines[i] = (json.dumps(dict(op, id=i)) + "\n").encode()
        self.by_id = {r.rid: r for r in self.records}
        self.pending = len(self.records)
        self.done = threading.Condition()

    def _send(self):
        for rec in self.records:
            # Sleep to just before the due instant, then spin: a timer
            # wake-up alone lands 0.1-0.2 ms late, more on a busy host.
            delay = rec.due - time.monotonic() - SPIN_S
            if delay > 0:
                time.sleep(delay)
            while time.monotonic() < rec.due:
                pass
            rec.sent = time.monotonic()
            try:
                self.sock.sendall(self.lines[rec.rid])
            except OSError:
                rec.sent = None
                return

    def _receive(self):
        reader = self.sock.makefile("rb")
        try:
            for line in reader:
                now = time.monotonic()
                try:
                    reply = json.loads(line)
                except ValueError:
                    continue
                rec = self.by_id.get(reply.get("id"))
                if rec is None or rec.replied is not None:
                    continue
                rec.replied = now
                rec.status = reply.get("status")
                rec.daemon_ms = reply.get("elapsed_ms")
                rec.check = self._check(rec, reply) if rec.status == "ok" else None
                with self.done:
                    self.pending -= 1
                    if self.pending == 0:
                        self.done.notify_all()
                        return
        except OSError:
            pass

    def _check(self, rec, reply):
        payload = reply.get("payload") or {}
        target = self.targets[rec.rid]
        if rec.kind in ("cold", "cached"):
            ref = self.reference["vectors"][target]
            served = [bits_hex(v) for v in payload.get("mica", [])], [
                bits_hex(v) for v in payload.get("hpc", [])
            ]
            return (
                payload.get("kind") == "vector"
                and not payload.get("estimated")
                and payload.get("cached") == (rec.kind == "cached")
                and served == (ref["mica"], ref["hpc"])
            )
        if rec.kind == "knn":
            return len(payload.get("items", [])) == KNN_K
        if rec.kind == "classify":
            return payload.get("kind") == "classification"
        return payload.get("kind") == "number"

    def run(self):
        # A sender waking for its due instant must not wait out the
        # interpreter's default 5 ms switch interval behind the receiver.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0002)
        try:
            return self._run()
        finally:
            sys.setswitchinterval(interval)

    def _run(self):
        receiver = threading.Thread(target=self._receive, daemon=True)
        receiver.start()
        # Due times become absolute on the monotonic clock.
        t0 = time.monotonic() + 0.05
        for rec in self.records:
            rec.due += t0
        self._send()
        with self.done:
            self.done.wait_for(lambda: self.pending == 0, timeout=REPLY_GRACE_S)
        return self.records


def cpu_seconds(pid):
    """User plus system CPU seconds of all of a process's threads so far."""
    with open("/proc/%d/stat" % pid) as f:
        # Fields after the parenthesised command name; utime and stime are
        # fields 14 and 15 of the whole line.
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Daemon:
    """A `mica serve` child in its own directory, started from a fresh copy
    of the warm cache fixture."""

    def __init__(self, mica_exe, fixture_dir, work_dir, warm):
        shutil.copytree(os.path.join(fixture_dir, "results"), os.path.join(work_dir, "results"))
        self.sock_path = os.path.join(work_dir, "serve.sock")
        args = [mica_exe, "serve", "--icount", str(ICOUNT), "--socket", "serve.sock", "--no-run"]
        for w in warm:
            args += ["--warm", w]
        env = dict(os.environ, MICA_JOBS="1")
        env.pop("MICA_FAULTS", None)
        self.log = open(os.path.join(work_dir, "daemon.log"), "wb")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            args, cwd=work_dir, env=env, stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log
        )
        self.sock = None

    def wait_healthy(self, timeout=60.0):
        """Seconds from spawn until the first health reply."""
        deadline = self.started + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("mica serve exited during start-up (see daemon.log)")
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(self.sock_path)
            except OSError:
                s.close()
                time.sleep(0.002)
                continue
            s.sendall(b'{"id":0,"op":"health"}\n')
            reader = s.makefile("rb")
            line = reader.readline()
            elapsed = time.monotonic() - self.started
            reader.close()
            reply = json.loads(line)
            if reply.get("status") != "ok":
                raise RuntimeError("health check failed: %r" % reply)
            self.sock = s
            return elapsed
        raise RuntimeError("mica serve did not answer health within %.0f s" % timeout)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self):
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.sock is not None:
            self.sock.close()
        self.log.close()
        return self.proc.returncode


def load_reference(fixture_dir):
    with open(os.path.join(fixture_dir, "reference.json")) as f:
        return json.load(f)


def run(mica_exe, fixture_dir, work_root, seed, seconds, spawns):
    """`spawns` start-up samples.  The middle daemon runs the traffic
    script, so the samples straddle it; it also gives the CPU seconds spent
    on the script, the peak RSS and the exit code after the drain."""
    reference = load_reference(fixture_dir)
    warm, cold = reference["warm"], reference["cold"]
    reqs = schedule(seed, seconds, warm, cold)
    setups = []
    for k in range(spawns):
        work = os.path.join(work_root, "serve-%d" % k)
        daemon = Daemon(mica_exe, fixture_dir, work, warm)
        try:
            setups.append(daemon.wait_healthy())
            if k != spawns // 2:
                continue
            cpu0 = cpu_seconds(daemon.proc.pid)
            records = Client(daemon.sock, reqs, reference).run()
            cpu = cpu_seconds(daemon.proc.pid) - cpu0
            rss = daemon.peak_rss_mb()
        finally:
            stopped = daemon.stop()
            shutil.rmtree(work, ignore_errors=True)
        code = stopped  # reached only by the daemon that ran the script
    return {"setup_s": setups, "records": records, "cpu_s": cpu, "peak_rss_mb": rss,
            "exit_code": code}


def summarize(result, trace):
    """End-to-end metrics (trace=False) or the serve per-layer metrics."""
    records = result["records"]
    answered = [r for r in records if metrics.ok(r)]
    light = [r for r in answered if r.kind != "cold"]
    cold = [r for r in answered if r.kind == "cold"]
    if not trace:
        return {
            "setup_s": (metrics.median(result["setup_s"]), "s"),
            "busy_s": (result["cpu_s"], "s"),
            # Cold latency is mostly compute.  A light query's median is
            # mostly thread wake-ups, whose cost flips with the host's load;
            # it is the per-layer serve.query_p50_ms.
            "p50_ms": (metrics.median([r.latency_ms() for r in cold]), "ms"),
            "tail_ms": (metrics.tail([r.latency_ms() for r in light])[0], "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    out = {}
    for kind in LIGHT_KINDS:
        out["serve.%s_p50_ms" % kind] = (
            metrics.median([r.latency_ms() for r in light if r.kind == kind]),
            "ms",
        )
    out["serve.query_p50_ms"] = (metrics.median([r.latency_ms() for r in light]), "ms")
    out["serve.query_daemon_p50_ms"] = (metrics.median([r.daemon_ms for r in light]), "ms")
    out["serve.transport_p50_ms"] = (metrics.median([r.transport_ms() for r in light]), "ms")
    out["serve.cold_tail_ms"] = (metrics.tail([r.latency_ms() for r in cold])[0], "ms")
    out["serve.cold_daemon_p50_ms"] = (metrics.median([r.daemon_ms for r in cold]), "ms")
    sent = [r for r in records if r.sent is not None]
    out["loadgen.lag_p99_ms"] = (metrics.percentile([r.lag_ms() for r in sent], 99.0), "ms")
    return out
