"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/steadiness.py --workload cli-batch --seeds 1-10

Runs are sequential, with BENCHMARK.json's command and run length.  For
every metric it prints the median and the distance between the first
and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), and the share of failed
operations of every run.  The runs are also written as JSON to
``perfbench/results/<workload>-<first>-<last>[-trace].json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="first-last")
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    first, last = (int(s) for s in args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                             check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"{result['failed']}/{result['attempted']} failed  " +
              "  ".join(f"{k}={v['value']:.4g}"
                        for k, v in result["metrics"].items()), flush=True)
    print("failed shares:", sorted({r["failed"] / r["attempted"] for r in runs}))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        spread = float("nan")
        if len(values) > 1 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
        print(f"{name:40s} median {med:.5g}  spread {spread:.4f}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    tag = f"{args.workload}-{first}-{last}" + ("-trace" if args.trace else "")
    with open(os.path.join(HERE, "results", tag + ".json"), "w") as fh:
        json.dump(runs, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
