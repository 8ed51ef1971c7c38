#!/usr/bin/env python3
"""End-to-end benchmark of the DeepCAT tuner.

Run from the repository root::

    python3 benchmarks/perf/run.py --seed 0            # all five workloads
    python3 benchmarks/perf/run.py --workload tune --seed 3 --seconds 10
    python3 benchmarks/perf/run.py --seed 0 --trace    # per-layer metrics
    python3 benchmarks/perf/run.py --seed 0 --smoke    # tiny sizes

Each workload runs in a fresh subprocess (``workloads.py``).  Its
environment replaces the caller's ``OMP/OPENBLAS/MKL/VECLIB/NUMEXPR/
GOTO_*THREADS`` variables with one BLAS thread per process: unpinned,
the idle OpenBLAS threads of two worker processes spin on the same two
CPUs and the multi-process workloads run in a fast or a slow mode at
random (README, "Findings").  At most two worker processes run at a
time.  While the measured subprocess runs, a sampler reads its process
tree from ``/proc`` at 10 Hz (resident memory, threads); CPU time and
context switches come from ``getrusage`` of the reaped tree.

The offline-trained models the tune and population workloads load are
an untimed fixture, kept under ``.bench_build/perf/fixtures`` keyed by
the seed and the source code that trains them.

Set-up time is measured in three fresh processes (two set-up probes and
the measured run) and reported as their median.  The metrics and their
units are the ones declared in ``BENCHMARK.json``: ``end_to_end`` for a
plain run, ``per_layer`` for ``--trace``.  Before the last line, one
``{"record": ...}`` line per workload carries everything ``compare.py``
needs (metrics, output digest, host).  The last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status: 0 when
every correctness check passed, 1 when one failed, 2 when the benchmark
itself could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_build" / "perf"
WORKLOADS = ("train", "tune", "population", "population-sharded", "grid")
#: workloads that load offline-trained models
NEEDS_FIXTURE = ("tune", "population", "population-sharded")
#: the models, split over the two fixture-building processes
FIXTURE_PARTS = ("WC,PR", "TS,KM")
FIXTURES_KEPT = 16
SETUP_SAMPLES = 3
#: wall-clock allowance of one workload, fixture and probes included
WORKLOAD_DEADLINE_S = 170.0
LOAD_WARNING = 0.5
BLAS_ENV = re.compile(r"^(OMP|OPENBLAS|MKL|VECLIB|NUMEXPR|GOTO)_\w*THREADS$")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> dict[str, str]:
    """The caller's environment with every BLAS pool pinned to one thread
    and ``src`` on the import path."""
    env = {k: v for k, v in os.environ.items() if not BLAS_ENV.match(k)}
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


# ------------------------------------------------------------------- host


def host_info() -> dict:
    """Where and under what load the numbers were taken."""
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load1": os.getloadavg()[0],
        "git_sha": "unknown",
        "blas": "unknown",
    }
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(top) == 2 and Path(top[0]).resolve() == ROOT:
            info["git_sha"] = top[1]
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # any numpy without the dict config keeps "unknown"
        pass
    return info


# ------------------------------------------------------------- /proc tree


def process_tree(root: int) -> list[int]:
    """``root`` and all its live descendants."""
    pids, todo = [], [root]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
            except OSError:
                continue
    return pids


class TreeSampler(threading.Thread):
    """Samples a process tree's RSS and thread counts at 10 Hz."""

    def __init__(self, root: int, period_s: float = 0.1):
        super().__init__(daemon=True)
        self.root = root
        self.period_s = period_s
        self.peak_rss_kb = 0
        self.max_threads = 0
        self.seen: set[int] = set()
        self._halt = threading.Event()

    def sample(self) -> None:
        rss = 0
        for pid in process_tree(self.root):
            try:
                with open(f"/proc/{pid}/status") as fh:
                    status = fh.read()
            except OSError:
                continue
            self.seen.add(pid)
            for line in status.splitlines():
                if line.startswith("VmRSS:"):
                    rss += int(line.split()[1])
                elif line.startswith("Threads:"):
                    self.max_threads = max(self.max_threads,
                                           int(line.split()[1]))
        self.peak_rss_kb = max(self.peak_rss_kb, rss)

    def run(self) -> None:
        while True:
            self.sample()
            if self._halt.wait(self.period_s):
                return

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def wait_gone(self, timeout_s: float = 10.0) -> None:
        """Wait until every process seen in the tree has ended."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if not any(os.path.exists(f"/proc/{pid}") for pid in self.seen):
                return
            time.sleep(0.05)


# --------------------------------------------------------------- workers


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def run_worker(args: list[str], deadline: float, sample: bool = False):
    """Run one ``workloads.py`` process; returns its JSON result and, when
    ``sample`` is set, what the /proc sampler and getrusage saw."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "workloads.py"), *args,
           "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    sampler = TreeSampler(proc.pid) if sample else None
    if sampler is not None:
        sampler.start()
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    finally:
        if sampler is not None:
            sampler.stop()
            sampler.wait_gone()
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker printed no result: {' '.join(args)}") \
            from None
    if sampler is None:
        return result, None
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return result, {
        "wall_s": wall,
        "peak_rss_mb": sampler.peak_rss_kb / 1024.0,
        "max_threads_per_process": sampler.max_threads,
        "cpu_s": _cpu(after) - _cpu(before),
        "nonvoluntary_ctxt_switches": after.ru_nivcsw - before.ru_nivcsw,
    }


def fixture_for(seed: int, smoke: bool, deadline: float) -> Path:
    """Untimed: the offline-trained models (all four HiBench workloads)
    for ``seed``, trained by two parallel processes.  They are kept under
    a key of the seed and the source code that trains them, so runs with
    a seed seen before skip the training."""
    h = hashlib.sha256(f"{seed}:{int(smoke)}".encode())
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    for path in [*sources, HERE / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    final = WORK / "fixtures" / h.hexdigest()[:24]
    if final.is_dir():
        os.utime(final)
        return final
    tmp = final.with_name(f"{final.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    procs = []
    for part in FIXTURE_PARTS:
        cmd = [sys.executable, str(HERE / "workloads.py"), "--mode",
               "fixture", "--seed", str(seed), "--fixture", str(tmp),
               "--out", str(tmp), "--fixture-workloads", part]
        if smoke:
            cmd.append("--smoke")
        procs.append(subprocess.Popen(cmd, env=worker_env()))
    failed = False
    for proc in procs:
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            failed |= rc != 0
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            failed = True
    if failed:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BenchError("building the model fixture failed")
    try:
        tmp.rename(final)
    except OSError:  # another run stored the same fixture first
        shutil.rmtree(tmp, ignore_errors=True)
    kept = sorted((p for p in final.parent.iterdir() if ".tmp-" not in p.name),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    for old in kept[FIXTURES_KEPT:]:
        shutil.rmtree(old, ignore_errors=True)
    return final


# ------------------------------------------------------------- measuring


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, spec: dict) -> dict:
    """One workload: fixture, set-up probes, measured run -> record."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    host = host_info()
    if host["load1"] > LOAD_WARNING:
        print(f"warning: 1-minute load average {host['load1']:.2f} > "
              f"{LOAD_WARNING}; timings may be noisy", file=sys.stderr)
    work = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        fixture = (fixture_for(seed, smoke, deadline)
                   if workload in NEEDS_FIXTURE else work)
        base = ["--workload", workload, "--seed", str(seed), "--seconds",
                str(seconds), "--fixture", str(fixture), "--out", str(work)]
        if smoke:
            base.append("--smoke")
        setups = []
        if not trace and not smoke:
            for _ in range(SETUP_SAMPLES - 1):
                probe, _ = run_worker(base + ["--mode", "probe"], deadline)
                setups.append(probe["setup_s"])
        mode = "trace" if trace else "run"
        res, proc = run_worker(base + ["--mode", mode], deadline, sample=True)
        if trace:
            shutil.copy(work / "trace.jsonl",
                        WORK / f"trace-{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = res["units"]
    values = {
        "proc.max_threads_per_process": proc["max_threads_per_process"],
        "proc.cpu_util": proc["cpu_s"] / (proc["wall_s"] * os.cpu_count()),
        "proc.nonvoluntary_ctxt_switches_per_unit":
            proc["nonvoluntary_ctxt_switches"] / max(units, 1),
    }
    if trace:
        values.update(res["layers"])
        declared = spec["per_layer"]
    else:
        setups.append(res["setup_s"])
        values.update({
            # no timed work only when every request failed
            "units_per_s": units / res["timed_s"] if res["timed_s"] else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": proc["peak_rss_mb"],
            "latency_ms_p50": res["latency_ms_p50"],
            "latency_ms_p90": res["latency_ms_p90"],
        })
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "correct": not res["failures"] and res["failed_units"] == 0,
        "attempted": units,
        "failed": res["failed_units"],
        "failed_ratio": res["failed_units"] / max(units, 1),
        "failures": res["failures"],
        "digest": res["digest"],
        "requests": res["requests"],
        "latency_samples": res["latency_samples"],
        "setup_samples_s": setups if not trace else [],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "process": proc,
        "host": host,
    }


def print_record(rec: dict) -> None:
    print(f"{rec['workload']} (seed {rec['seed']}): "
          f"{rec['attempted']} units in {rec['requests']} requests, "
          f"{rec['failed']} failed; digest {rec['digest']}")
    for failure in rec["failures"]:
        print(f"  FAILED {failure}")
    for name, m in rec["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"record": rec}))


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(
        description="End-to-end benchmark of the DeepCAT tuner.")
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: all five)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="report per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="tiny input sizes, one set-up sample")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no tuner sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    try:
        for workload in workloads:
            rec = measure(workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke, spec)
            print_record(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records
                   for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
