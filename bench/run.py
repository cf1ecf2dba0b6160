"""Run one pinnet benchmark workload and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it builds nothing, it imports the
package from src/. Workloads: certify, select, simulate, simulate_export
(see bench/README.md). The load is a closed loop with one client: each
operation starts when the previous one has returned and been checked.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number of
pool cycles untraced, then the same cycles under the tracer, and prints the
per-layer metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
environment and the details behind each metric.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported: the load is one client on
# one core, and this is the plain single-threaded baseline on every machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
WALL_LIMIT_S = 150.0  # stop early so the process always exits within 180 s

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    beyond it: the sample with exactly TAIL_BEYOND larger ones, or the
    smallest sample when there are fewer. Returns (value, percentile,
    samples beyond)."""
    ordered = sorted(latencies)
    idx = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


class Loop:
    """Issues operations from the pool and records latency and failures."""

    def __init__(self, workload, pool, refs, tracer=None):
        self.workload, self.pool, self.refs, self.tracer = workload, pool, refs, tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, index: int) -> tuple[float, bool]:
        q = self.pool[index % len(self.pool)]
        ref = self.refs[index % len(self.pool)]
        self.attempted += 1
        if self.tracer:
            self.tracer.op = index
        start = time.perf_counter()
        try:
            out = self.workload.run(q)
        except Exception as exc:  # a raising operation is a failed one
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            problems = None
        latency = time.perf_counter() - start
        if self.tracer:
            self.tracer.op = None
        if problems is None:
            try:
                problems = self.workload.check(q, ref, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"answer unreadable: {type(exc).__name__}: {exc}"]
        self.failed += bool(problems)
        self.problems += [f"op {index}: {p}" for p in problems]
        return latency, not problems

    def cycles(self, count: int, deadline: float) -> list[tuple[float, bool]]:
        """Run `count` whole cycles from the start of the pool."""
        n = count * self.workload.cycle
        return [self.op(i) for i in range(n) if time.monotonic() < deadline]

    def timed(self, seconds: float, deadline: float) -> list[tuple[float, bool]]:
        """Run from the start of the pool until the summed latency reaches
        `seconds`, ending on a cycle boundary."""
        results, busy, i = [], 0.0, 0
        while (busy < seconds or i % self.workload.cycle) and time.monotonic() < deadline:
            latency, ok = self.op(i)
            results.append((latency, ok))
            busy += latency
            i += 1
        return results


def environment(seed: int, workload: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
    }


def blas_threads():
    """Thread count OpenBLAS reports, or the pinned variable if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pinnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, seed: int, workdir: Path, tracer=None):
    """Draw the pool from the seed into a fresh workdir; return it and the
    seconds the draw took. With a tracer, the program calls the draw makes
    are recorded under the operation id "setup"."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if tracer:
        tracer.install()
        tracer.op = "setup"
    try:
        start = time.perf_counter()
        pool = workload.setup(seed, workdir)
        return pool, time.perf_counter() - start
    finally:
        if tracer:
            tracer.op = None
            tracer.restore()


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing numpy and pinnet."""
    code = "import time; t = time.perf_counter(); import numpy, pinnet; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def end_to_end(loop: Loop, seconds: float, deadline: float):
    results = loop.timed(seconds, deadline)
    latencies = [lat for lat, _ in results]
    tail, pct, beyond = tail_latency(latencies)
    metrics = {
        "ops_per_s": sum(ok for _, ok in results) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"samples": len(latencies), "op_tail_percentile": pct,
               "op_tail_samples_beyond": beyond, "busy_s": sum(latencies)}
    return metrics, details


def per_layer(loop: Loop, tracer, span_file: Path, deadline: float):
    """The same pool cycles untraced, then traced; per-layer totals come
    from the traced pass (plus the traced setup)."""
    cycles = loop.workload.trace_cycles
    plain = loop.cycles(cycles, deadline)
    tracer.install()
    loop.tracer = tracer
    try:
        traced = loop.cycles(cycles, deadline)
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics()
    per_op = [sum(lat for lat, _ in r) / len(r) for r in (plain, traced)]
    metrics["trace.overhead_frac"] = per_op[1] / per_op[0] - 1.0
    span_file.parent.mkdir(exist_ok=True)
    tracer.dump(span_file)
    details = {"traced_ops": len(traced), "spans": len(tracer.spans),
               "span_file": str(span_file.relative_to(ROOT))}
    return metrics, details


def main(argv=None, scale: float = 1.0) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "pinnet" / "__init__.py").is_file():
        print(f"error: no pinnet sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path[:0] = [p for p in (str(SRC), str(HERE)) if p not in sys.path]
    import numpy  # noqa: F401  (timed as part of set-up)
    import pinnet

    import_s = time.perf_counter() - t0
    if Path(pinnet.__file__).resolve().parent != (SRC / "pinnet").resolve():
        print(f"error: pinnet imported from {pinnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](scale)
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    deadline = started + WALL_LIMIT_S
    tracer = tracing.Tracer() if args.trace else None
    try:
        pool, build_s = set_up(workload, args.seed, workdir, tracer)
        start = time.perf_counter()
        refs = [workload.reference(q) for q in pool]
        details = {"reference_s": time.perf_counter() - start}
        loop = Loop(workload, pool, refs)
        loop.op(0)  # warm-up: first calls, lazy imports, caches
        if tracer:
            span_file = HERE / ".out" / f"spans-{args.workload}-{args.seed}.json"
            units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
            metrics, more = per_layer(loop, tracer, span_file, deadline)
        else:
            units = END_TO_END
            measured, more = end_to_end(loop, args.seconds, deadline)
            # Further set-ups after the timed phase, so that the median spans
            # the run rather than one moment of it.
            samples = [import_s + build_s]
            for _ in range(SETUP_REPEATS - 1):
                samples.append(import_seconds() + set_up(workload, args.seed, workdir)[1])
            metrics = {"setup_s": statistics.median(samples), **measured}
            more["setup_samples_s"] = samples
        details.update(more)
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    details["failed_frac"] = loop.failed / loop.attempted
    for problem in loop.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    row = "  ".join(f"{k}={v:.6g} {units[k]}" for k, v in metrics.items())
    print(f"{args.workload} seed={args.seed}: {row}  failed_frac={details['failed_frac']:.3g}")
    print(json.dumps({"environment": environment(args.seed, args.workload), "details": details}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
