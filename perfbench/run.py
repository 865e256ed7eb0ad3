#!/usr/bin/env python3
"""Repository benchmark: builds the code from source, runs one workload and
prints one JSON result object as the last line of stdout.

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads: characterize, fleet, select,
serve.  --trace 0 prints the end-to-end metrics of the workload; --trace 1
runs the traced per-layer pass of every layer instead.  See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import serve_client  # noqa: E402

WORKLOADS = ("characterize", "fleet", "select", "serve")
BUILD_DIR = ".bench_build"
WORK_DIR = os.path.join("perfbench", ".work")
FIXTURE_ROOT = os.path.join("perfbench", ".fixtures")
BENCH_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
MICA_EXE = os.path.join(BUILD_DIR, "default", "bin", "mica.exe")
STEP_TIMEOUT_S = 170
# Set-up samples per run, each in a fresh process; setup_s is their
# median.  Half come before the measured work and half after, because
# host speed drifts over tens of seconds.
SETUP_SPAWNS = 21


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "./perfbench/bench.exe", "./bin/mica.exe"]
    if shutil.which("dune") is None and shutil.which("opam") is not None:
        # Not started from a login shell: use opam's current switch.
        cmd = ["opam", "exec", "--"] + cmd
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("build failed (%s)" % " ".join(cmd))


def bench_env(jobs):
    env = dict(os.environ, MICA_JOBS=str(jobs))
    env.pop("MICA_FAULTS", None)
    return env


def run_bench(args, jobs):
    """Run bench.exe and return its JSON object."""
    proc = subprocess.run([BENCH_EXE] + args, env=bench_env(jobs), stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=STEP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("bench.exe %s exited with %d" % (args[0], proc.returncode))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def serve_fixture():
    """The warm-cache fixture for the serve workload, built once per
    (icount, model version) and reused by every later run."""
    version = subprocess.run([BENCH_EXE, "model-version"], stdout=subprocess.PIPE,
                             check=True).stdout.decode().strip()
    fixture = os.path.join(FIXTURE_ROOT, "serve-%s-%d" % (version, serve_client.ICOUNT))
    if not os.path.exists(os.path.join(fixture, "reference.json")):
        tmp = fixture + ".tmp-%d" % os.getpid()
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        log("building serve fixture %s" % fixture)
        run_bench(["serve-fixture", "--dir", tmp, "--icount", str(serve_client.ICOUNT)], jobs=2)
        shutil.rmtree(fixture, ignore_errors=True)
        os.rename(tmp, fixture)
    return fixture


def setup_probe(workload, work):
    """One set-up, timed inside a fresh bench.exe."""
    return run_bench(["setup", workload, "--work", work], jobs=1)["setup_s"]


def batch_metrics(raw, setups):
    items_ms = [t * 1000.0 for t in raw["item_s"]]
    passes = len(raw["wall_s"])
    tail_ms, pct, n = metrics.pass_tail(items_ms, passes)
    log("%d pass(es); tail is p%g of n=%d items" % (passes, pct, n))
    return {
        "setup_s": (metrics.median(setups), "s"),
        "busy_s": (metrics.median(raw["wall_s"]), "s"),
        "p50_ms": (metrics.median(items_ms), "ms"),
        "tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def run_batch(workload, seed, seconds, work):
    args = [workload, "--seconds", str(seconds), "--seed", str(seed), "--work", work]
    setups = [setup_probe(workload, work) for _ in range(SETUP_SPAWNS // 2 + 1)]
    raw = run_bench(args, jobs=1)
    setups += [setup_probe(workload, work) for _ in range(SETUP_SPAWNS // 2)]
    attempted = len(raw["ok"])
    failed = sum(1 for ok in raw["ok"] if not ok)
    return attempted, failed, batch_metrics(raw, setups)


def run_serve(seed, seconds, work, trace):
    fixture = serve_fixture()
    result = serve_client.run(os.path.abspath(MICA_EXE), fixture, work, seed, seconds,
                              spawns=SETUP_SPAWNS)
    attempted, failed = metrics.count_failures(result["records"])
    # The daemon's graceful drain on SIGTERM is one more operation.
    attempted += 1
    if result["exit_code"] != 0:
        log("mica serve exited with %d after SIGTERM" % result["exit_code"])
        failed += 1
    log("serve: %d requests, %d failed" % (attempted, failed))
    return attempted, failed, serve_client.summarize(result, trace)


def run_traced(seed, seconds, work):
    raw = run_bench(["traced", "--seed", str(seed), "--work", work], jobs=1)
    checks = raw["checks"]
    for name, ok in checks.items():
        if not ok:
            log("traced check failed: " + name)
    out = {name: (m["value"], m["unit"]) for name, m in raw["metrics"].items()}
    attempted, failed, serve = run_serve(seed, seconds, work, trace=True)
    out.update(serve)
    attempted += len(checks)
    failed += sum(1 for ok in checks.values() if not ok)
    return attempted, failed, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    work = os.path.join(WORK_DIR, "run-%d" % os.getpid())
    try:
        build()
        os.makedirs(work)
        started = time.monotonic()
        if a.trace:
            attempted, failed, ms = run_traced(a.seed, a.seconds, work)
        elif a.workload == "serve":
            attempted, failed, ms = run_serve(a.seed, a.seconds, work, trace=False)
        else:
            attempted, failed, ms = run_batch(a.workload, a.seed, a.seconds, work)
        log("%s done in %.1f s" % (a.workload, time.monotonic() - started))
    except (BenchError, RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in ms.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
