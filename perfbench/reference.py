"""Reference figures: runs the benchmark over several seeds and tabulates it.

From the root of a source checkout:

    python3 perfbench/reference.py                      # every workload, seeds 1-10, untraced
    python3 perfbench/reference.py --trace 1 --seeds 1  # one traced run per workload

For each metric it prints the median, the quartile spread (Q3 - Q1, from
statistics.quantiles(values, n=4)) as a share of the median, and the bound
from BENCHMARK.json.  Each run's last output line is also appended to
.perfbench_out/reference.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs seeds 1 to SEEDS")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    log = os.path.join(ROOT, ".perfbench_out", "reference.jsonl")
    for workload in (w["name"] for w in benchmark["workloads"]):
        values, attempted, failed, correct = {}, 0, 0, True
        for seed in range(1, args.seeds + 1):
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
                       "--trace", str(args.trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            with open(log, "a") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed,
                                         "trace": args.trace, **result}) + "\n")
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {args.seeds} runs, correct={correct}, "
              f"failed {failed}/{attempted} operations")
        print("| metric | median | (Q3-Q1)/median | bound |")
        print("| --- | --- | --- | --- |")
        for name, series in values.items():
            median = statistics.median(series)
            if len(series) >= 2 and median:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = f"{(q3 - q1) / median:.3f}"
            else:
                spread = "-"
            print(f"| {name} | {median:.6g} | {spread} | {bounds.get(name) or '-'} |")


if __name__ == "__main__":
    main()
