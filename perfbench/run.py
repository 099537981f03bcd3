"""Benchmark of masinfo's `run`, `analyze` and toolkit commands.

    python3 perfbench/run.py --workload run-debate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Builds the workload's inputs from the seed (several times, to time set-up),
then runs samples, each in a fresh interpreter, until --seconds have passed,
checks every sample's outputs and prints one JSON line last.  With --trace 0
it reports the end-to-end metrics BENCHMARK.json lists; with --trace 1 it
alternates untraced and traced samples and reports the per-layer metrics,
including the tracing overhead, the median over pairs of neighbouring samples
of traced minus untraced wall time.  Exit code 1 means an output check failed, 2
that the program under test is missing.  See perfbench/README.md.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5
MIN_SAMPLES = 6
MIN_TRACE_PAIRS = 4
STOP_STARTING_S = 120.0  # no sample starts after this, so a run ends well within 180 s
SAMPLE_TIMEOUT_S = 150.0


def child_env():
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONPATH"] = SRC
    return env


def blas_threads():
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*blas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads()}


def run_child(args, timeout):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "sample.py")] + args,
                          capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if os.path.dirname(os.path.dirname(os.path.abspath(result["masinfo"]))) != SRC:
        raise RuntimeError(f"sample imported masinfo from {result['masinfo']}, not {SRC}")
    return result


def set_up(workload, work, seed):
    """Build the inputs SETUP_REPS times; keep the last, return it and the median time."""
    times, ctx = [], None
    for rep in range(SETUP_REPS):
        if ctx is not None:
            workload.stop(ctx)
        wdir = os.path.join(work, "inputs")
        shutil.rmtree(wdir, ignore_errors=True)
        os.makedirs(wdir)
        t0 = time.perf_counter()
        run_child(["--probe"], 60)
        ctx = workload.setup(wdir, seed)
        times.append(time.perf_counter() - t0)
    return ctx, statistics.median(times)


def run_samples(workload, ctx, work, seconds, trace):
    """Samples until `seconds` pass: (untraced, traced, attempted, failed, problems)."""
    from layers import layer_metrics

    untraced, traced, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if trace:
            enough = len(traced) >= MIN_TRACE_PAIRS and len(untraced) == len(traced)
        else:
            enough = len(untraced) >= MIN_SAMPLES
        walls = [r["wall_s"] for r in untraced + traced]
        # stop when the next sample would likely end past the window
        expected_end = elapsed + (statistics.median(walls) if walls else 0.0)
        if enough and (expected_end > seconds or elapsed >= STOP_STARTING_S):
            break
        sdir = os.path.join(work, f"sample{i}")
        os.makedirs(sdir)
        is_traced = trace and i % 2 == 1
        spec = {"steps": workload.steps(ctx, sdir), "trace": is_traced,
                "spans_out": os.path.join(sdir, "spans.json")}
        with open(os.path.join(sdir, "spec.json"), "w") as fh:
            json.dump(spec, fh)
        ops = workload.ops(ctx)
        attempted += ops
        try:
            result = run_child([os.path.join(sdir, "spec.json")], SAMPLE_TIMEOUT_S)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            failed += ops
            problems.append(f"sample {i}: {exc}")
            break
        bad, found, extras = workload.check(ctx, sdir, result["exit_codes"])
        failed += bad
        problems += [f"sample {i}: {p}" for p in found]
        if is_traced:
            with open(spec["spans_out"]) as fh:
                result["layers"] = {**layer_metrics(json.load(fh)), **extras}
            traced.append(result)
        else:
            result["ops_per_s"] = ops / result["wall_s"]
            untraced.append(result)
        shutil.rmtree(sdir)
        i += 1
    return untraced, traced, attempted, failed, problems


def measure(workload, seed, seconds, trace, declared):
    work = os.path.join(ROOT, ".perfbench_work", f"{workload.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = None
    try:
        ctx, setup_s = set_up(workload, work, seed)
        untraced, traced, attempted, failed, problems = run_samples(
            workload, ctx, work, seconds, trace)
    finally:
        if ctx is not None:
            workload.stop(ctx)
        shutil.rmtree(work, ignore_errors=True)

    values = {}
    if untraced:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "ops_per_s": statistics.median(r["ops_per_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    if traced:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(r["layers"].get(name, 0) for r in traced)
        # sample 2k is untraced, 2k+1 traced: pairing neighbours cancels a
        # change of host speed between pairs
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    summary = {"workload": workload.name, "sample_walls_s": [r["wall_s"] for r in untraced],
               "traced_walls_s": [r["wall_s"] for r in traced],
               "error_rate": failed / attempted if attempted else 1.0, "problems": problems}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, summary


def main(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "masinfo", "cli.py")):
        print(f"error: masinfo sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    print(json.dumps({"machine": machine_info()}), flush=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, summary = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                                  declared)
        results[name] = result
        print(json.dumps({**summary, "metrics": result["metrics"]}), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
