"""Paired parent-against-change runs of the benchmark, summarized as JSON.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pairs 10 \\
        --seed 9101 9201 9301 --seconds 30 --out BENCH.json

``DIR`` are two checkouts of flowtarget. For each workload in
``BENCHMARK.json`` (or ``--workload``), pair ``i`` runs
``perfbench/run.py --seed <seed + i>`` once in each checkout, the parent
first in even pairs and the change first in odd ones, so that a drift of
the machine's speed falls on both sides. Per end-to-end metric the output
holds each side's median and quartiles, the number of pairs in which the
change is better and two verdicts, which are also printed:

* ``claim_met``: the change is better in at least 9 of 10 pairs, and its
  median is better than the parent's by more than the parent's quartile
  spread (the rule a claimed gain must meet);
* ``within_bound``: the change's median is worse than the parent's by at
  most the metric's ``bound`` in ``BENCHMARK.json``, as a share of the
  parent's median (the no-regression rule).

``--traced`` names workloads that also get one traced (``--trace 1``) run
per side, whose per-layer metrics are recorded as they are. The output also
records the python, numpy and scipy versions and, per checkout, its
``git rev-parse HEAD`` and whether its tree differs from that commit
(``null`` where the checkout is not a git work tree).
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{cmd} in {checkout} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"exit": proc.returncode, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def checkout_state(checkout):
    """The checkout's commit and whether its tree differs from it (tracked
    changes or untracked files), or ``None`` for both outside git or
    without a ``git`` program."""
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        except OSError:
            return None
        return proc.stdout if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {"head": head.strip() if head else None,
            "dirty": None if head is None or status is None else bool(status.strip())}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def verdicts(parent, change, wins, pairs, better, bound):
    """The claim and no-regression verdicts of one metric (see the module
    docstring); ``parent`` and ``change`` are :func:`summary` dicts."""
    gain = parent["median"] - change["median"]
    if better != "lower":
        gain = -gain
    return {"claim_met": 10 * wins >= 9 * pairs and gain > parent["q3"] - parent["q1"],
            "within_bound": -gain <= bound * abs(parent["median"])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, nargs="+", required=True,
                        help="first seed of each workload, in workload order")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", nargs="+")
    parser.add_argument("--traced", nargs="*", default=[])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if len(args.seed) != len(workloads):
        parser.error("give one first seed per workload")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    out = {"cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
           "scipy": importlib.metadata.version("scipy"),
           "checkouts": {s: checkout_state(path) for s, path in sides.items()},
           "seconds_per_run": args.seconds,
           "pairs": args.pairs, "workloads": {}}
    for workload, first in zip(workloads, args.seed):
        seeds = list(range(first, first + args.pairs))
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                t0 = time.perf_counter()
                runs[side].append(run_once(sides[side], workload, seed, args.seconds, 0))
                print(f"{workload} seed {seed} {side}: {time.perf_counter() - t0:.0f} s", file=sys.stderr)
        metrics = {}
        for name, direction in better.items():
            par = [r["metrics"][name] for r in runs["parent"]]
            chg = [r["metrics"][name] for r in runs["change"]]
            wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(par, chg))
            p_sum, c_sum = summary(par), summary(chg)
            verdict = verdicts(p_sum, c_sum, wins, len(par), direction, bounds[name])
            metrics[name] = {"parent": p_sum, "change": c_sum, "change_better_pairs": wins,
                             **verdict, "parent_runs": par, "change_runs": chg}
            print(f"{workload} {name}: {p_sum['median']:.4g} [{p_sum['q1']:.4g}, {p_sum['q3']:.4g}]"
                  f" -> {c_sum['median']:.4g} [{c_sum['q1']:.4g}, {c_sum['q3']:.4g}],"
                  f" better in {wins}/{len(par)} pairs;"
                  f" claim rule {'met' if verdict['claim_met'] else 'not met'};"
                  f" {'within' if verdict['within_bound'] else 'OUTSIDE'} the {bounds[name]:g} bound")
        entry = {"seeds": seeds, "metrics": metrics,
                 "failed_operations": {s: sum(r["failed"] for r in runs[s]) for s in sides},
                 "attempted_operations": {s: sum(r["attempted"] for r in runs[s]) for s in sides},
                 "all_correct": {s: all(r["correct"] and r["exit"] == 0 for r in runs[s]) for s in sides}}
        if workload in args.traced:
            entry["traced"] = {s: run_once(sides[s], workload, first, args.seconds, 1) for s in sides}
        out["workloads"][workload] = entry
        with open(args.out, "w") as fh:  # written after each workload, so a cut run keeps its part
            json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
