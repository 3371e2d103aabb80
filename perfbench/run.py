"""Benchmark of the poissonize CLI: gated end-to-end timings and a traced
per-layer run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload learn-d4 --seed 1 --seconds 25 --trace 0

The program is imported from ./src, so nothing is installed or built.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Run records go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import os
import sys

# Before numpy loads: one process generates the load, and BLAS may use at
# most one thread per CPU.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _value = os.environ.get(_var, "")
    if not _value.isdigit() or not 1 <= int(_value) <= NPROC:
        os.environ[_var] = str(NPROC)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def import_program():
    """Import poissonize from this checkout's src, and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import poissonize
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import poissonize from {SRC}: {exc}")
    location = os.path.dirname(os.path.abspath(poissonize.__file__))
    if os.path.dirname(location) != SRC:
        sys.exit(f"perfbench: poissonize was imported from {location}, not from {SRC}")
    return poissonize


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help="set up once, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


# The program must come from ./src before workloads imports it.
poissonize = import_program()

import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# Fresh processes set up per run; setup_s is their median.
SETUP_CHILDREN = 3


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "poissonize": poissonize.__version__,
        "nproc": NPROC,
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ[v] for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def set_up(workload, seed, directory):
    os.makedirs(directory, exist_ok=True)
    inputs = workload.make_inputs(seed, directory)
    workload.warm_up(directory)
    return inputs


def time_child_setup(workload, seed):
    """Wall time from starting a fresh interpreter on this script to its
    'ready' line: imports, inputs from the seed, and the warm-up."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-child",
               "--workload", workload.name, "--seed", str(seed)]
    started = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        status = child.wait()
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"set-up child exited {status} after {line!r}")
    return elapsed


def run_check(workload, inputs, index, directory):
    try:
        return workload.check(inputs, index, directory)
    except Exception as exc:  # missing or malformed output is a failed check
        return [f"check raised {exc!r}"]


def run_operations(workload, inputs, seconds, directory, tracer=None, between=None):
    """Whole operations until ``seconds`` have passed (at least
    workload.min_ops); each is timed alone, then checked, then ``between``
    runs untimed."""
    times, errors, failures = [], [], []
    started = time.perf_counter()
    paused = 0.0  # time spent in ``between``, which does not count
    index = 0
    while index < workload.min_ops or time.perf_counter() - started - paused < seconds:
        try:
            if tracer is None:
                begin = time.perf_counter()
                status = workload.operation(inputs, index, directory)
                times.append(time.perf_counter() - begin)
            else:
                with tracer.operation("op", index) as op:
                    status = workload.operation(inputs, index, directory)
                times.append(op.seconds)
        except Exception:  # a traceback from the program is a failed operation
            status = "traceback: " + traceback.format_exc(limit=3)
        if status != 0:
            failures.append(f"operation {index} failed: {status}")
        else:
            errors += [f"operation {index}: {e}" for e in
                       run_check(workload, inputs, index, directory)]
        workload.cleanup(index, directory)
        if between is not None:
            pause = time.perf_counter()
            between()
            paused += time.perf_counter() - pause
        index += 1
    errors += workload.run_checks(inputs)
    return index, failures, times, errors


def main(argv):
    args = parse_args(argv)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    directory = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        if args.setup_child:
            set_up(workload, args.seed, directory)
            print("ready", flush=True)
            return
        env = environment()
        print("environment: " + json.dumps(env), flush=True)
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env}
        inputs = set_up(workload, args.seed, directory)
        if args.trace == 0:
            # set-up children run between operations, so that their median
            # samples the machine over the whole run
            setups = record["setup_runs_s"] = [time_child_setup(workload, args.seed)]

            def time_setup():
                if len(setups) < SETUP_CHILDREN:
                    setups.append(time_child_setup(workload, args.seed))

            attempted, failures, times, errors = run_operations(
                workload, inputs, args.seconds, directory, between=time_setup)
            while len(setups) < SETUP_CHILDREN:
                time_setup()
            metrics = {
                "setup_s": {"value": statistics.median(record["setup_runs_s"]), "unit": "s"},
                "op_s": {"value": statistics.median(times), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
            }
        else:
            tracer = spans.Tracer()
            captured = {}
            workload.observe(tracer, captured)
            tracer.install()
            try:
                tracer.enabled = True
                attempted, failures, times, errors = run_operations(
                    workload, inputs, args.seconds, directory, tracer)
                workload.probe(tracer, inputs, directory, captured)
                tracer.enabled = False
                errors += [f"traced: {e}" for e in workload.traced_checks(inputs, captured)]
            finally:
                tracer.enabled = False
                tracer.uninstall()
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"{workload.name}-seed{args.seed}-spans.jsonl.gz"))
            with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
                units = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
            metrics = {}
            for name, value in workloads.layer_metrics(tracer, captured, workload.d,
                                                       times).items():
                if not math.isfinite(value):
                    errors.append(f"traced: no spans for {name}")
                    value = None
                metrics[name] = {"value": value, "unit": units[name]}
        for message in failures + [f"check failed: {e}" for e in errors]:
            print(message, file=sys.stderr)
        record.update(op_s=times, failures=failures, errors=errors, metrics=metrics)
        with open(os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
                  "w") as handle:
            json.dump(record, handle, indent=1)
        print(json.dumps({"correct": not errors, "attempted": attempted,
                          "failed": len(failures), "metrics": metrics}))
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
