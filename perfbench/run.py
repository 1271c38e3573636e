"""Benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a flowtarget checkout: the package is imported from
``src/`` of that checkout and nowhere else. The run sets up the workload's
inputs from ``--seed``, repeats whole passes of the workload until
``--seconds`` have elapsed, checks every pass's outputs, and prints one JSON
object as its last line of output: the end-to-end metrics with ``--trace 0``,
the per-layer metrics (from a traced pass) with ``--trace 1``. Spans and the
result are also written under ``perfbench/out/<workload>/``. The exit code is
nonzero when any check failed.
"""

import time

_START = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "proxy_us_per_period": "us",
    "lp_ms_per_solve": "ms",
    "dual_s_per_solve": "s",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import flowtarget from this checkout's ``src/``; None when absent."""
    if not os.path.isfile(os.path.join(SRC, "flowtarget", "__init__.py")):
        return None
    sys.dont_write_bytecode = True  # every run compiles the same sources
    sys.path[:0] = [SRC, ROOT]
    import flowtarget
    if os.path.dirname(os.path.dirname(os.path.abspath(flowtarget.__file__))) != SRC:
        return None
    return flowtarget


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    child (the sweep's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _import_program() is None:
        print(f"perfbench: no flowtarget sources under {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads
    from perfbench.tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with tracer.installed(workloads.trace_targets(workload.box_samples)):
            workload.setup()
    else:
        workload.setup()
    setup_s = time.perf_counter() - _START

    tally = workloads.Tally()
    samples: dict = {}
    extras: dict = {}
    rounds = 0
    begin = time.perf_counter()
    try:
        while rounds == 0 or time.perf_counter() - begin < args.seconds:
            if tracer is None:
                workload.round(tally, samples)
            else:
                for key, value in workload.trace_round(tracer, tally).items():
                    extras.setdefault(key, []).append(value)
            rounds += 1
    except Exception:  # a crash in the program is a failed operation, reported below
        traceback.print_exc()
        tally.attempted += 1
        tally.failed += 1
        tally.messages.append("a pass raised")

    if tracer is not None:
        tracer.dump(os.path.join(out_dir, "spans.jsonl"))
        values = workloads.layer_metrics(tracer, extras, max(rounds, 1))
        units = workloads.LAYER_METRICS
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb()}
        for name, key in (("wall_s", "wall_s"), ("proxy_us_per_period", "proxy_us"),
                          ("lp_ms_per_solve", "lp_ms"), ("dual_s_per_solve", "dual_s")):
            # no samples only after a crash, which the result reports as incorrect
            values[name] = statistics.fmean(samples[key]) if samples.get(key) else 0.0
        units = END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    for msg in tally.messages:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({**result, "rounds": rounds, "seed": args.seed, "samples": samples}, fh, indent=1)
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
