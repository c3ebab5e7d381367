"""Run one benchmark workload against the frenetdir sources of this checkout.

    python3 perfbench/run.py --workload small_pipeline --seed 1 --seconds 20 --trace 0

Workloads (see PREDICTIONS.md for why each exists and what it should show):
small_pipeline, large_pipeline, csv_cli.  Each is a closed loop with one
client that replays a seeded input pool in whole passes until --seconds have
gone by, checking every operation's output.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  Set-up time is
the median over fresh interpreters started by this run: `setup_s` until
`import frenetdir` is done, `cold_start_s` until the first operation is done.

--trace 1 prints the per-layer metrics: half of --seconds runs untraced, the
other half traced (spans around every call into a layer, plus a
numpy.linalg.solve counter), which gives the tracing overhead on the same
inputs.  After the loops the `frenetdir verify` table is recorded row by row.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable summary
and the environment record.  The full record, spans included, is written to
.perfbench_out/ in the checkout.
"""

import argparse
import collections
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
COLD_RUNS = 5
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def load_library():
    """Import frenetdir from this checkout's src/, never from elsewhere."""
    if not (SRC / "frenetdir" / "__init__.py").is_file():
        raise BenchError(f"no frenetdir sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import frenetdir

    if not Path(frenetdir.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"frenetdir imported from {frenetdir.__file__}, not from {SRC}")
    return frenetdir


def _child_env():
    env = dict(os.environ)
    env.pop("FD_CONFIG", None)
    return env


def _child(args):
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=_child_env(), timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return proc


def cold_starts(workload, seed, tiny, workdir, runs):
    """Medians of (fresh interpreter -> import done, -> first op done)."""
    setup, cold = [], []
    for _ in range(runs):
        spawned = time.monotonic()
        proc = _child([str(ROOT / "perfbench" / "cold.py"), str(ROOT), workload,
                       str(seed), "1" if tiny else "0", workdir])
        rec = json.loads(proc.stdout.splitlines()[-1])
        setup.append(rec["import_done"] - spawned)
        cold.append(setup[-1] + rec["first_op_s"])
    return statistics.median(setup), statistics.median(cold)


def import_times(runs):
    """Median cumulative import seconds of numpy and scipy.interpolate under
    `import frenetdir`, from -X importtime; 0 when a module is not imported."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import frenetdir"
    found = collections.defaultdict(list)
    for _ in range(runs):
        seen = {}
        for line in _child(["-X", "importtime", "-c", code]).stderr.splitlines():
            parts = line.partition("import time:")[2].split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for name in ("numpy", "scipy.interpolate"):
            found[name].append(seen.get(name, 0.0))
    return {
        "setup.import_numpy_s": statistics.median(found["numpy"]),
        "setup.import_scipy_interpolate_s": statistics.median(found["scipy.interpolate"]),
    }


class Loop:
    """Outcome of one measuring loop."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.misses = collections.Counter()
        self.advisories = collections.Counter()
        self.worst = (0.0, None)
        self.solves = 0

    @property
    def ops_per_s(self):
        return len(self.latencies) / sum(self.latencies)


def run_loop(workloads, name, specs, seconds, lib, tracer=None):
    """Replay the pool in whole passes until `seconds` have passed."""
    import frenetdir

    op = workloads.operation(name)
    loop = Loop()
    start = time.perf_counter()
    while loop.attempted % len(specs) or time.perf_counter() - start < seconds or not loop.attempted:
        spec = specs[loop.attempted % len(specs)]
        loop.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op(spec, lib)
            else:
                tracer.op = loop.attempted - 1
                solves = tracer.solves
                with tracer.span("op"):
                    result = op(spec, lib, tracer)
                loop.solves += tracer.solves - solves
        except Exception as exc:  # the loop records the failure and goes on
            loop.failed += 1
            loop.misses[f"raised {type(exc).__name__}"] += 1
            continue
        loop.latencies.append(time.perf_counter() - t0)
        try:
            ratios, misses, advisories = workloads.check(name, spec, result)
        except Exception as exc:  # output too broken to read is a miss too
            ratios, misses, advisories = [], [f"unreadable output ({type(exc).__name__})"], []
        if misses:
            loop.failed += 1
            loop.misses.update(misses)
        loop.advisories.update(advisories)
        for check, ratio in ratios:
            if ratio > loop.worst[0]:
                loop.worst = (ratio, check)
        if tracer is not None:
            grid, points = workloads.probe_points(spec, result)
            vs = frenetdir.VectorSamples(grid, points)
            with tracer.span("numerics.derivative"):
                for order in (1, 2, 3):
                    frenetdir.derivative(vs, order)
            with tracer.span("numerics.cumulative_integral"):
                frenetdir.cumulative_integral(vs)
        del result  # not held while the next operation runs
    if not loop.latencies:
        raise BenchError(f"no operation completed: {dict(loop.misses)}")
    return loop


def tail_latency(latencies):
    """(value, percentile): the highest sample with 10 samples above it, or
    the highest sample when too few samples put that above the median."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 20:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _blas_threads(numpy):
    import ctypes

    libs = Path(numpy.__file__).parent.with_name("numpy.libs")
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def _git_commit():
    """HEAD of the checkout's .git, or "unknown" when it is not a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (values by metric name, summary lines,
    Loop, record for the output file)."""
    frenetdir = load_library()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; available: {', '.join(workloads.WORKLOADS)}")
    os.environ.pop("FD_CONFIG", None)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        specs = workloads.make_inputs(workload, seed, workdir, tiny)
        values, lines, record = {}, [], {}
        if not trace:
            values["setup_s"], values["cold_start_s"] = cold_starts(
                workload, seed, tiny, workdir, 1 if tiny else COLD_RUNS)
        else:
            values.update(import_times(1 if tiny else IMPORTTIME_RUNS))
        op = workloads.operation(workload)
        try:
            op(specs[0], frenetdir)  # warm-up, unchecked: the loops record failures
        except Exception:
            pass
        if not trace:
            loop = run_loop(workloads, workload, specs, seconds, frenetdir)
            tail, pct = tail_latency(loop.latencies)
            values.update({
                "ops_per_s": loop.ops_per_s,
                "latency_p50_ms": 1e3 * statistics.median(loop.latencies),
                "latency_tail_ms": 1e3 * tail,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
            above = 0 if pct == 100.0 else 10
            lines.append(f"latency_tail_ms is p{pct:.2f}: {above} of {len(loop.latencies)} samples lie above it")
        else:
            from spans import Tracer

            plain = run_loop(workloads, workload, specs, seconds / 2, frenetdir)
            tracer = Tracer()
            traced_start = time.perf_counter()
            with tracer.installed():
                loop = run_loop(workloads, workload, specs, seconds / 2, tracer.library(), tracer)
            values.update(layer_metrics(workloads, tracer, loop, plain))
            record["spans"] = tracer.records(traced_start)
            loop.attempted += plain.attempted
            loop.failed += plain.failed
            loop.misses += plain.misses
            loop.advisories += plain.advisories
            loop.worst = max(loop.worst, plain.worst, key=lambda w: w[0])
        values["checks.failed_frac"] = loop.failed / loop.attempted
        values["checks.dev_ratio_max"] = loop.worst[0]
        values["direction.compare_predicted.fail_frac"] = loop.advisories["compare_predicted"] / loop.attempted
        lines.insert(0, f"{workload} seed {seed} trace {trace}: {loop.attempted} operations, "
                        f"{loop.failed} failed (failed_frac {loop.failed / loop.attempted:.4g}), "
                        f"dev_ratio_max {loop.worst[0]:.4g} at {loop.worst[1]}")
        if loop.misses:
            lines.append("misses: " + ", ".join(f"{k} x{v}" for k, v in sorted(loop.misses.items())))
        if loop.advisories:
            lines.append("library verdicts FAIL, not gated: "
                         + ", ".join(f"{k} x{v}" for k, v in sorted(loop.advisories.items())))
        return values, lines, loop, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(workloads, tracer, loop, plain):
    import frenetdir
    from spans import LAYERS, SPAN_OF

    ops = loop.attempted
    self_times = tracer.self_times()
    out = {}
    for span in sorted(set(SPAN_OF.values())):
        busy, calls = self_times.get(span, (0.0, 0))
        out[f"{span}.busy_ms"] = 1e3 * busy / ops
        out[f"{span}.calls_per_op"] = calls / ops
    for command in workloads.CLI_ROTATION:
        out[f"cli.{command}.busy_ms"] = 1e3 * self_times.get(f"cli.{command}", (0.0, 0))[0] / ops
    for span in ("numerics.derivative", "numerics.cumulative_integral"):
        busy, probed = self_times.get(span, (0.0, 0))
        out[f"{span}.busy_ms"] = 1e3 * busy / max(probed, 1)
    out["numerics.solve_calls_per_op"] = loop.solves / ops
    out["frenet.valid_frac"] = tracer.frenet_valid / max(tracer.frenet_samples, 1)
    out["trace.overhead_frac"] = 1.0 - loop.ops_per_s / plain.ops_per_s
    with tracer.span("verify.run_checks"):
        rows = frenetdir.run_checks()
    for r in rows:
        out[f"verify.{r.check}.{r.curve}.dev"] = r.deviation
        out[f"verify.{r.check}.{r.curve}.dev_ratio"] = workloads.dev_ratio(r.deviation, r.tolerance, r.exceeds)
    for layer in LAYERS:
        out[f"{layer}.errors"] = tracer.errors[layer]
    return out


def main(argv=None, tiny=False):
    """Command line entry point; tiny shrinks the inputs for the smoke test."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        values, lines, loop, record = measure(args.workload, args.seed, args.seconds, args.trace, tiny)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for m in declared["per_layer" if args.trace else "end_to_end"]:
        value = values[m["name"]]
        if not math.isfinite(value):
            print(f"error: metric {m['name']} is {value}", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    env = environment(args.seed)
    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"env": env, "summary": lines, **result, **record}))
    for line in lines:
        print(line)
    width = max(len(k) for k in metrics)
    for key, m in metrics.items():
        print(f"  {key:{width}s} {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
