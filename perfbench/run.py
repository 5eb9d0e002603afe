"""deltatree benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload evolve-reference --seed 1 \
        --seconds 40 --trace 0

Run from the root of a source checkout; deltatree is imported from its
``src`` directory.  The run does the workload's set-up, then whole
rounds of its operations until the next round would end after
``--seconds``, and at least one.  Every operation's output is checked
(see checks.py).  Each operation's time is the quickest of its times
over the run's rounds (see ``quick_times``).  The last line of
standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``; see tracing.py).  Details of failed operations go to
standard error.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("evolve-reference", "line-many-deltas", "cli-batch")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_rounds(workload, seconds, log):
    """Whole rounds until the next one would end past ``seconds``.
    Returns (number of rounds, times of each operation by name,
    attempted, failed, problems)."""
    import checks as ck
    op_times, problems = {}, []
    rounds = attempted = failed = 0
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for op in workload.round():
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                failed += 1
                problems.append(f"{op.name}: raised\n{traceback.format_exc()}")
                continue
            op_times.setdefault(op.name, []).append(time.perf_counter() - t0)
            try:
                op.check(out)
            except ck.KnownFault as exc:
                failed += 1
                log(f"failed (known fault) {op.name}: {exc}")
            except ck.CheckFailed as exc:
                problems.append(f"{op.name}: {exc}")
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            return rounds, op_times, attempted, failed, problems


def quick_times(op_times):
    """Each operation's quickest time over the run's rounds.

    The host's speed drifts by up to 1.6x over seconds to minutes (the
    benchmark shares the machine), so the median of a run's times
    depends on how much of the run fell in a slow stretch.  Every
    round repeats the same operations on the same inputs, so the
    quickest repeat is the operation's cost at the host's full speed:
    noise only ever adds time."""
    return {name: min(times) for name, times in op_times.items()}


def main(argv=None):
    args = parse_args(argv)
    log = lambda msg: print(msg, file=sys.stderr, flush=True)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "deltatree", "__init__.py")):
        log(f"deltatree sources not found under {src}; run from a checkout")
        return 2
    sys.path[:0] = [HERE, src]
    import checks as ck
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=_work_root())
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - _START
        traced_setup = tracer.snapshot() if tracer else None
        problems = []
        try:
            with tracer.paused() if tracer else contextlib.nullcontext():
                workload.prepare_checks()
        except ck.CheckFailed as exc:
            problems.append(f"set-up output: {exc}")
        rounds, op_times, attempted, failed, round_problems = run_rounds(
            workload, args.seconds, log)
        problems += round_problems
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in problems:
        log(f"INCORRECT {msg}")
    quick = quick_times(op_times)
    run_s = sum(quick.values())
    log(f"{args.workload} seed={args.seed}: {rounds} round(s), "
        f"{attempted} operations, {failed} failed, run_s={run_s:.3f}")
    for name, times in op_times.items():
        log(f"  {name}: quickest {quick[name]:.4f} s, median "
            f"{statistics.median(times):.4f} s over {len(times)}")
    if tracer:
        metrics = tracer.metrics(traced_setup, rounds)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(quick.values() or [0.0]),
                         "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _work_root():
    path = os.path.join(HERE, ".work")
    os.makedirs(path, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
