"""qflow benchmark: seeded closed-loop workloads with checked outputs.

    python3 bench/run.py --workload compile|dense|shots --seed N --seconds S --trace 0|1

Run it from the repository root; it imports qflow from ./src. One client in
one process runs jobs back to back (closed loop) over a pool of distinct jobs
built from the seed: references first, one untimed warm-up job per job kind
and device, then whole timed passes over the pool, as many as ``--seconds``
holds at a nominal time per pass (``PASS_SECONDS``). The number of jobs run
depends only on the workload and ``--seconds``, so every run of one seed
attempts, and fails, the same jobs. Every job's output is checked against
references that do not use qflow's own code.

With --trace 0 the last line holds the end-to-end metrics. With --trace 1
each job runs once untraced and once traced, and the last line holds the
per-layer metrics and the tracing overhead. Reported times are wall times
scaled to a reference machine speed by ``calibrate()``. Details, raw wall
times, machine facts and trace spans go to bench/out/. See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One BLAS thread, set before numpy loads its BLAS. On a shared 2-vCPU host a
# second BLAS thread gained no throughput but made dense latencies swing with
# whatever else ran on the other vCPU (see NOTES.md, "Noise"). The set-up
# probe inherits the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import KNOWN_DEFECTS, POOLS, Checker, build_pool, run_job  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
WALL_LIMIT_S = 150.0
# nominal job seconds of one pass over each pool: a run makes
# max(2, round(--seconds / PASS_SECONDS)) whole passes
PASS_SECONDS = {"compile": 10.0, "dense": 6.7, "shots": 2.2}
# about calibrate()'s median on the reference machine (2-vCPU Xeon VM,
# Python 3.11, numpy 2.4); it only fixes the scale of the reported times
CALIBRATION_REF_S = 0.002


class CalibrationWork:
    """The data calibrate() works on, built once: a 32k-entry dict, larger
    than the CPU caches as qflow's circuits are, a fixed pseudo-random order
    of lookups into it, and a 1 MiB complex array, the size of a 16-qubit
    state."""

    def __init__(self):
        rng = random.Random(0)
        keys = [("op", i) for i in range(1 << 15)]
        self.table = {key: float(i) for i, key in enumerate(keys)}
        self.order = [keys[rng.randrange(len(keys))] for _ in range(2000)]
        self.state = np.full(1 << 16, 1 + 1j)


def calibrate(work: CalibrationWork) -> float:
    """Seconds taken by a fixed stand-in for qflow's mix of work that calls
    no qflow code: dict lookups that miss the caches, tuple churn, float
    math and elementwise numpy on 1 MiB. Timed before every job, it tracks
    how fast the shared host is at that moment."""
    t0 = time.perf_counter()
    acc = 0.0
    churn = []
    for key in work.order:
        acc += work.table[key]
        churn.append((key, acc))
    a = work.state * (1 - 1e-4j) + 0.5
    acc += (a * a.conj())[0].real
    return time.perf_counter() - t0


def load_qflow(root: Path):
    src = root / "src"
    if not (src / "qflow" / "__init__.py").is_file():
        sys.exit("bench: no ./src/qflow here; run from the repository root")
    sys.path.insert(0, str(src))
    import qflow
    if Path(qflow.__file__).resolve().parent != (src / "qflow").resolve():
        sys.exit(f"bench: imported qflow from {qflow.__file__}, not from ./src")
    return qflow


def machine_facts() -> dict:
    import numpy
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        facts["blas"] = None
    facts["blas_threads"] = openblas_threads()
    return facts


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it bundles one."""
    import numpy
    site = Path(numpy.__file__).resolve().parent.parent
    for path in sorted(site.glob("numpy.libs/*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure_setup(root: Path) -> float:
    """Median wall time of a fresh interpreter running bench/probe.py."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py")], cwd=root,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
    return statistics.median(times)


class Loop:
    """Closed-loop runner: run, time and check jobs; tally the outcomes."""

    def __init__(self, qflow, devices, pool, checker, seed: int):
        self.qflow, self.devices, self.pool, self.checker = qflow, devices, pool, checker
        self.seed = seed
        self.samples: list[tuple[int, float, bool]] = []   # (job index, seconds, passed)
        self.work = CalibrationWork()
        self.calibration: list[float] = []                  # calibrate() before each job
        self.reports: dict[int, object] = {}                # first transpile report per job
        self.causes: Counter = Counter()
        self.examples: dict[str, str] = {}
        self.deferred: list[tuple] = []                     # outputs awaiting a full check

    def job_seed(self, index: int, cycle: int) -> int:
        job = self.pool[index]
        return self.seed * 100_003 + index * 101 + (0 if job.kind == "compile" else cycle)

    def run(self, index: int, cycle: int):
        """Run one job with the clock on only around it. calibrate() is
        timed and garbage from earlier jobs and checks is collected first,
        so none of that lands inside the timed region.
        Returns (wall seconds, output or None, exception or None)."""
        self.calibration.append(calibrate(self.work))
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = run_job(self.qflow, self.devices, self.pool[index], self.job_seed(index, cycle))
            exc = None
        except Exception as e:  # every failure is tallied and classified
            out, exc = None, e
        return time.perf_counter() - t0, out, exc

    def tally(self, index: int, dt: float, out, exc, defer: bool = True):
        """Check one output and count it. A job's first output that needs
        the full check waits for flush(), so that no heavy check runs
        between timed jobs and leaves the caches cold for the next one."""
        job = self.pool[index]
        if defer and exc is None and not self.checker.ready(index, job):
            self.deferred.append((index, dt, self.checker.compact(out), exc))
            return
        if exc is None:
            problem = self.checker.check(index, job, out)
            report = getattr(out, "report", None)
            if report is not None:
                self.reports.setdefault(index, report)
        else:
            problem = f"{type(exc).__name__}: {exc}"
        self.samples.append((index, dt, problem is None))
        if problem is not None:
            cause = self.checker.classify(index, job, exc)
            self.causes[cause] += 1
            self.examples.setdefault(cause, f"{job.kind}/{job.label}: {problem}"[:300])

    def flush(self):
        """Fully check and count the deferred outputs (clock stopped)."""
        deferred, self.deferred = self.deferred, []
        for item in deferred:
            self.tally(*item, defer=False)


def ratios(checker, reports: dict) -> tuple[float, float]:
    """Sum of routed two-qubit gates over logical cx after decomposition,
    and sum of output depth over input depth, over every distinct job that
    transpiled."""
    n2q = cx = d_out = d_in = 0
    for i, report in reports.items():
        n2q += report.n_2q
        cx += checker.refs[i]["logical_cx"]
        d_out += report.depth_out
        d_in += report.depth_in
    return (n2q / cx if cx else float("nan"), d_out / d_in if d_in else float("nan"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(POOLS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    root = Path.cwd()
    qflow = load_qflow(root)

    facts = machine_facts()
    print(f"machine: {json.dumps(facts)}")
    setup_s = measure_setup(root)
    devices = {name: qflow.load_bundled_device(name) for name in qflow.bundled_device_names()}
    pool = build_pool(args.workload, args.seed)
    checker = Checker(qflow, devices, args.seed)
    for i, job in enumerate(pool):
        checker.prepare(i, job)
    loop = Loop(qflow, devices, pool, checker, args.seed)
    # one untimed warm-up run per job kind, device and opt level
    firsts: dict[tuple, int] = {}
    for i, job in enumerate(pool):
        firsts.setdefault((job.kind, job.device, job.opt_level), i)
    for i in firsts.values():
        loop.run(i, 0)
    loop.calibration.clear()
    # the references live all run: keep them out of every later collection
    gc.collect()
    gc.freeze()
    passes = max(2, round(args.seconds / PASS_SECONDS[args.workload]))
    print(f"pool: {len(pool)} distinct jobs, {passes} timed passes")

    tracer = Tracer() if args.trace else None
    untraced = traced = measured = 0.0
    n_traced = 0
    for cycle in range(passes):
        for i in range(len(pool)):
            if time.perf_counter() - start >= WALL_LIMIT_S:
                break
            dt, out, exc = loop.run(i, cycle)
            loop.tally(i, dt, out, exc)
            measured += dt
            if tracer is not None:
                untraced += dt
                tracer.job = n_traced
                tracer.install()
                try:
                    dt, out, exc = loop.run(i, cycle)
                finally:
                    tracer.uninstall()
                loop.tally(i, dt, out, exc)
                traced += dt
                measured += dt
                n_traced += 1
        loop.flush()
    cut = len(loop.samples) < passes * len(pool) * (1 + args.trace)
    if cut:
        print(f"bench: stopped after {WALL_LIMIT_S:.0f} s, before the last pass ended")

    # every reported time is given at the reference machine's speed
    calibration_s = statistics.median(loop.calibration)
    scale = CALIBRATION_REF_S / calibration_s
    print(f"calibration: {1e3 * calibration_s:.4f} ms per calibrate() (reference "
          f"{1e3 * CALIBRATION_REF_S:.4f} ms); reported times are wall times x {scale:.4f}")
    attempted = len(loop.samples)
    passed = sum(ok for _, _, ok in loop.samples)
    failed = attempted - passed
    unexpected = {c: n for c, n in loop.causes.items() if c not in KNOWN_DEFECTS}
    print(f"jobs: {attempted} attempted, {failed} failed, {passes} passes over the pool, "
          f"{measured:.2f} s in jobs")
    for cause, n in sorted(loop.causes.items()):
        print(f"failure {cause}: {n} ({loop.examples[cause]})")

    if tracer is None:
        lat_ms = sorted(1000.0 * scale * dt for _, dt, _ in loop.samples)
        routed_2q, depth_ratio = ratios(checker, loop.reports)
        metrics = {
            "setup_s": (setup_s * scale, "s"),
            "jobs_per_s": (passed / (measured * scale), "1/s"),
            "job_p50_ms": (statistics.median(lat_ms), "ms"),
            "job_p90_ms": (statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1
                           else lat_ms[0], "ms"),
            "pass_ratio": (passed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "routed_2q_ratio": (routed_2q, "ratio"),
            "depth_ratio": (depth_ratio, "ratio"),
        }
    else:
        metrics = {k: (v * scale if u == "ms/job" else v, u)
                   for k, (v, u) in tracer.per_job(max(n_traced, 1)).items()}
        metrics["trace.untraced_jobs_per_s"] = (n_traced / (untraced * scale), "1/s")
        metrics["trace.traced_jobs_per_s"] = (n_traced / (traced * scale), "1/s")
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        if tracer.absent:
            print(f"absent layers (no hooked function found): {sorted(tracer.absent)}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"args": vars(args), "machine": facts, "pool": [f"{j.kind}/{j.label}" for j in pool],
              "calibration_s": calibration_s, "time_scale": scale,
              "setup_s_wall": setup_s,
              "passes": passes, "cut": cut, "job_seconds_wall": measured,
              "attempted": attempted, "failed": failed, "failures": dict(loop.causes),
              "failure_examples": loop.examples, "unexpected": unexpected,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "samples_wall_ms": [[i, round(1000.0 * dt, 3), ok] for i, dt, ok in loop.samples],
              "calibration_ms": [round(1000.0 * c, 4) for c in loop.calibration]}
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
