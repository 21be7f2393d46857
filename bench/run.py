"""Benchmark of matslice: time to cross-validated answers on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for why each was chosen): ``flow-spectral``,
``flow-plain``, ``polytope``, ``chart-cli``.

With ``--trace 0`` the run builds the seeded task list, runs one block of it
to warm up, then runs the list round and round for ``--seconds`` and reports
the end-to-end metrics.  ``setup_s`` is the median of five set-ups in fresh
interpreters, each timed from before ``import matslice`` until the task list
is built.  Times are scaled to a reference host speed (see ``hostspeed.py``);
the unscaled figures are printed alongside.

With ``--trace 1`` the run makes one untraced and one traced pass over the
whole list, set-up included, and reports the per-layer metrics of the traced
pass (see ``spans.py``).  The counts repeat exactly for a given seed.

Every task checks its two routes against each other; a task that raises or
whose routes disagree counts as failed.  Human-readable lines go first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when no
task failed.  The package is imported from ``src/`` next to this directory
and from nowhere else.
"""

import os

# One BLAS thread, set before numpy loads: the benchmark measures the program,
# not how many cores the host lends it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 5

SETUP_CHILD = """
import time
start = time.perf_counter()
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - start)
"""


def import_package():
    """Import matslice from this checkout's ``src/``; exit nonzero if it is not there."""
    if not (SRC / "matslice" / "__init__.py").is_file():
        sys.exit(f"bench: no matslice sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import matslice

    if not Path(matslice.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: matslice was imported from {matslice.__file__}, not from {SRC}")
    return matslice


class Tally:
    """Outcomes of attempted tasks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.err_max = 0.0
        self.gate_ratio = {}   # largest err / tol of each kind of check
        self._reported = 0

    def attempt(self, task):
        self.attempted += 1
        try:
            checks = task.run()
        except Exception:
            self.failed += 1
            self._report(f"task {task.kind} raised:\n{traceback.format_exc()}")
            return
        bad = [c for c in checks if not c.ok]
        for c in checks:
            if c.tol is not None:
                self.err_max = max(self.err_max, c.err)
                self.gate_ratio[c.what] = max(self.gate_ratio.get(c.what, 0.0), c.err / c.tol)
        if bad:
            self.failed += 1
            self._report(f"task {task.kind} failed: " + "; ".join(
                f"{c.what}: {c.err:.3e} (tolerance {c.tol})" for c in bad))

    def _report(self, text: str):
        if self._reported < 5:
            self._reported += 1
            print(f"bench: {text}", file=sys.stderr)


def setup_samples(name: str, seed: int, workdir: str, speed) -> list:
    """Set-up times of fresh interpreters, scaled to reference host speed by
    kernel samples taken just before and after each."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        first = len(speed.samples)
        for _ in range(3):
            speed.sample()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH), name, str(seed), workdir],
            check=True, capture_output=True, text=True, timeout=120)
        for _ in range(3):
            speed.sample()
        kernel = statistics.median(speed.samples[first:])
        samples.append(float(out.stdout.strip().splitlines()[-1]) * hostspeed.REFERENCE_S / kernel)
    return samples


def percentile(values, q: int) -> float:
    """The q-th percentile, by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def timed_run(tasks, warmup: int, seconds: float, tally: Tally, speed) -> dict:
    """Closed loop, one task at a time, over the list for ``seconds``.  Each
    latency is scaled to reference host speed; tasks_per_s is tasks over the
    sum of their scaled latencies, so the kernel samples between tasks do not
    count against the program."""
    for task in tasks[:warmup]:
        tally.attempt(task)
    starts, latencies, kinds = [], [], []
    start = time.perf_counter()
    now = start
    while now - start < seconds or len(starts) < 2:   # percentiles need two
        speed.sample_if_due()
        task = tasks[len(starts) % len(tasks)]
        t0 = time.perf_counter()
        tally.attempt(task)
        now = time.perf_counter()
        starts.append(t0)
        latencies.append(now - t0)
        kinds.append(task.kind)
    speed.sample()
    scaled = [latency * speed.scale(t0) for t0, latency in zip(starts, latencies)]
    p90 = percentile(scaled, 90)
    cuts = statistics.quantiles(scaled, n=20)
    print(f"# {len(scaled)} timed tasks in {now - start:.2f} s wall "
          f"({len(scaled) / (now - start):.4g} tasks/s, p50 "
          f"{statistics.median(latencies) * 1e3:.4g} ms, p90 "
          f"{percentile(latencies, 90) * 1e3:.4g} ms unscaled); host kernel median "
          f"{statistics.median(speed.samples) * 1e3:.4g} ms over {len(speed.samples)} samples")
    print(f"# {sum(x > p90 for x in scaled)} tasks above p90; 5% steps of scaled latency "
          f"around p50: {cuts[8] * 1e3:.2f} {cuts[9] * 1e3:.2f} {cuts[10] * 1e3:.2f} ms, "
          f"p90: {cuts[16] * 1e3:.2f} {cuts[17] * 1e3:.2f} {cuts[18] * 1e3:.2f} ms")
    by_kind = {}
    for kind, latency in zip(kinds, scaled):
        by_kind.setdefault(kind, []).append(latency)
    for kind, values in sorted(by_kind.items()):
        print(f"#   {kind:>14}: {len(values):4d} tasks, median "
              f"{statistics.median(values) * 1e3:9.2f} ms scaled")
    return {
        "tasks_per_s": (len(scaled) / sum(scaled), "1/s"),
        "task_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "task_p90_ms": (p90 * 1e3, "ms"),
    }


def traced_run(ms, build, tasks, warmup: int, traced: int, tally: Tally) -> dict:
    """One untraced and one traced window of set-up plus the first ``traced``
    tasks.  Kernel samples between tasks scale both windows to reference host
    speed for the overhead; their own time is left out of the windows."""
    import spans

    for task in tasks[:warmup]:
        tally.attempt(task)
    speed = hostspeed.HostSpeed()

    def window():
        first = len(speed.samples)
        start = time.perf_counter()
        speed.sample()
        for task in build()[:traced]:
            speed.sample_if_due()
            tally.attempt(task)
        kernel = speed.samples[first:]
        wall = time.perf_counter() - start - sum(kernel)
        return wall, wall * hostspeed.REFERENCE_S / statistics.median(kernel)

    _, untraced = window()
    with spans.Tracer(ms) as tracer:
        wall, scaled = window()
    metrics = {}
    for layer in spans.LAYERS:
        t = tracer.layer(layer)
        metrics[f"{layer}.self_s"] = (t.self_s, "s")
        metrics[f"{layer}.calls"] = (t.calls, "count")
        metrics[f"{layer}.errors"] = (t.errors, "count")
    for key in FUNCTION_METRICS:
        t = tracer.function(key)
        metrics[f"{key}.self_s"] = (t.self_s, "s")
        metrics[f"{key}.calls"] = (t.calls, "count")
    metrics["polytope.accessible_vertices.accept_ratio"] = (tracer.accept_ratio, "ratio")
    metrics["fileio.bytes_written"] = (tracer.bytes_written, "B")
    metrics["fileio.bytes_read"] = (tracer.bytes_read, "B")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.attributed_frac"] = (tracer.root_s / wall, "ratio")
    metrics["trace.overhead_frac"] = (scaled / untraced - 1.0, "ratio")
    print("# self time by function, traced pass:")
    for key, t in sorted(tracer.totals.items(), key=lambda kv: -kv[1].self_s):
        if t.calls:
            print(f"#   {key:40} {t.calls:9d} calls {t.self_s:9.4f} s self "
                  f"{t.self_s / wall:7.2%}")
    return metrics


FUNCTION_METRICS = (
    "linalg.eigensystem", "linalg.validate", "linalg.qr_factor", "linalg.apply_function",
    "toda.toda_field", "toda.particle_flow", "toda.flow_integrated", "toda.flow_factorized",
    "polytope.hull_member", "polytope.majorization_member", "polytope.accessible_vertices",
    "polytope.bfr_map", "slices.is_irreducible", "slices.slice_point",
    "slices.functional_step", "slices.qr_step", "jacobi.moser_coordinates",
    "jacobi.moser_reconstruct", "jacobi.is_jacobi", "cli.build_parser", "cli.main",
)


def environment(ms) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "matslice": ms.__version__,
    }


def check_metrics(tally: Tally) -> dict:
    return {
        "xval.failed_frac": (tally.failed / tally.attempted, "ratio"),
        "xval.err_max": (tally.err_max, "ratio"),
        "xval.gate_ratio_max": (max(tally.gate_ratio.values(), default=0.0), "ratio"),
    }


def measure(ms, workloads, name: str, seed: int, seconds: float, trace: bool, workdir: str):
    """Run one workload.  Returns its metrics, as name -> (value, unit), and
    the tally of task outcomes: end-to-end metrics, or per-layer ones when
    traced."""
    tally = Tally()
    spec = workloads.WORKLOADS[name]
    build = partial(workloads.build, name, seed, workdir)
    tasks = build()
    if trace:
        metrics = traced_run(ms, build, tasks, spec.block_size,
                             spec.traced_blocks * spec.block_size, tally)
        metrics.update(check_metrics(tally))
        return metrics, tally
    speed = hostspeed.HostSpeed()
    setup = setup_samples(name, seed, workdir, speed)
    metrics = timed_run(tasks, spec.block_size, seconds, tally, speed)
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ms = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = str(scratch / f"run-{os.getpid()}")
    os.mkdir(workdir)
    try:
        metrics, tally = measure(ms, workloads, args.workload, args.seed, args.seconds,
                                 bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass   # another run still uses it

    print("# env " + json.dumps(environment(ms)))
    for what, ratio in sorted(tally.gate_ratio.items()):
        print(f"# largest share of its tolerance, {what}: {ratio:.3g}")
    for name, (value, unit) in {**metrics, **check_metrics(tally)}.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
