"""Run the benchmark as alternating base/change pairs and write a record.

    python3 tools/bench_pairs.py --base ../base-checkout --label mychange

For every BENCHMARK.json workload and seeds 1-10, ``perfbench/run.py``
runs once in the base checkout and once in this one (the base first on
even seeds, second on odd seeds, so a drift of the host's speed falls
on both sides), then once each on the held-out seed 9001.  Seeds and
workloads are fixed so that the records of successive changes compare.
``BENCH_<label>.json`` at the repo root gets, per workload and metric,
the median and quartiles of both sides over the paired seeds
(``statistics.quantiles(n=4)``), the number of pairs the change wins,
whether the median gap exceeds the base's interquartile range, the
held-out values, every run's output, per side the number of runs that
were ``correct`` and the share of attempted operations that failed (the
benchmark's gate rejects on both), and the BLAS thread setting and the
numpy and scipy versions.  The file is rewritten after every run,
so an interrupted set keeps what it ran.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = list(range(1, 11))
HELD_OUT = 9001


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         check=True)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()}}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs, better):
    """Per-metric summary of one workload's paired runs."""
    out = {}
    paired = [s for s in SEEDS if all(s in runs[side] for side in runs)]
    if len(paired) < 2:
        return out
    for metric, lower in better.items():
        base = [runs["base"][s]["metrics"][metric] for s in paired]
        change = [runs["change"][s]["metrics"][metric] for s in paired]
        b, c = spread(base), spread(change)
        sign = 1.0 if lower else -1.0
        entry = {
            "base": b, "change": c, "pairs": len(paired),
            "change_wins": sum(sign * (x - y) > 0
                               for x, y in zip(base, change)),
            "median_gap_exceeds_base_iqr":
                sign * (b["median"] - c["median"]) > b["q3"] - b["q1"],
        }
        if all(HELD_OUT in runs[side] for side in runs):
            entry["held_out"] = {side: runs[side][HELD_OUT]["metrics"][metric]
                                 for side in runs}
        out[metric] = entry
    return out


def outcomes(runs):
    """Per side: runs, how many were ``correct``, and the share of
    attempted operations that failed, over every run of the workload."""
    out = {}
    for side, by_seed in runs.items():
        done = list(by_seed.values())
        attempted = sum(r["attempted"] for r in done)
        out[side] = {
            "runs": len(done),
            "correct": sum(bool(r["correct"]) for r in done),
            "failed_share": (sum(r["failed"] for r in done) / attempted
                             if attempted else None),
        }
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, help="checkout to compare to")
    p.add_argument("--label", required=True)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    record = {
        "label": args.label,
        "command": bench["command"], "run_seconds": bench["run_seconds"],
        "seeds": SEEDS, "held_out_seed": HELD_OUT,
        "environment": {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset"),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(), "cpu_count": os.cpu_count(),
        },
        "workloads": {},
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    sides = {"base": os.path.abspath(args.base), "change": ROOT}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"base": {}, "change": {}}
        entry = record["workloads"][workload] = {"runs": runs}
        for seed in SEEDS + [HELD_OUT]:
            order = ("base", "change") if seed % 2 == 0 else ("change", "base")
            for side in order:
                runs[side][seed] = run_once(sides[side], workload, seed,
                                            bench["run_seconds"])
                print(f"{workload} seed={seed} {side}: "
                      f"{runs[side][seed]['metrics']}", file=sys.stderr,
                      flush=True)
                entry["summary"] = summarize(runs, better)
                entry["outcomes"] = outcomes(runs)
                with open(path, "w") as fh:
                    json.dump(record, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
