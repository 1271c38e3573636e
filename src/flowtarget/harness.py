"""Experiment orchestration: seeded Monte-Carlo replications over policies,
a shared offline benchmark per sample path, and deterministic CSV reports.

Replications use common random numbers: within one replication every policy
sees the same instance and arrival path, and the offline benchmark is solved
once and shared. Rows are keyed by replication seed and emitted in a fixed
sort order, so a given configuration reproduces its CSV byte for byte.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import Instance
from .instances import SyntheticParams, generate_synthetic, sample_arrivals
from .oracle import EXACT_LP, hindsight_optimum
from .policies import POLICIES, PolicyConfig, RunResult

RELATIVE_REGRET_FLOOR = 1e-6


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a sweep over (T, delta, gamma) cells with ``reps``
    replications per cell, each replication drawing a fresh instance (unless
    an explicit instance file is given) and a fresh arrival path."""

    policies: tuple[str, ...] = ("proxy-dgd", "smart-me")
    T_values: tuple[int, ...] = (501,)
    deltas: tuple[float, ...] = (1.0,)
    gammas: tuple[float, ...] = (2.0,)
    reps: int = 100
    seed: int = 0
    eta_mult: float = 1.0
    oracle_backend: str = EXACT_LP
    gap_tol: float = 1e-6
    instance_file: Optional[str] = None
    params: SyntheticParams = field(default_factory=SyntheticParams)
    workers: int = 0  # 0 = one per usable CPU (capped at 8)

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError("need at least one replication")
        if not 0.0 < self.eta_mult < np.inf:
            raise ValueError(f"eta_mult must be positive and finite, got {self.eta_mult}")
        if not 0.0 <= self.gap_tol < np.inf:
            raise ValueError(f"gap_tol must be finite and nonnegative, got {self.gap_tol}")
        if self.workers < 0:
            raise ValueError(f"workers must be nonnegative (0 = one per usable CPU), got {self.workers}")
        for name in self.policies:
            if name not in POLICIES:
                raise ValueError(f"unknown policy {name!r}; choose from {sorted(POLICIES)}")
        K = self.params.K
        truncated = tuple(T - T % K for T in self.T_values)
        if truncated != tuple(self.T_values):
            warnings.warn(f"truncating horizons {self.T_values} down to multiples of K={K}")
            if any(T < K for T in truncated):
                raise ValueError("a horizon shorter than one epoch remains after truncation")
            object.__setattr__(self, "T_values", truncated)


@dataclass
class MetricsRow:
    policy: str
    T: int
    delta: float
    gamma: float
    seed: int
    cost: float
    offline: float
    regret: float
    relative_regret_pct: float
    mean_abs_deviation: float
    assignment_cost_per_period: float
    runtime_s: float
    oracle_gap: float
    flagged: bool

    # runtime is reported separately (timings.csv): wall time is the one
    # nondeterministic metric and would break byte-identical replays.
    FIELDS = ("policy", "T", "delta", "gamma", "seed", "cost", "offline", "regret",
              "relative_regret_pct", "mean_abs_deviation", "assignment_cost_per_period",
              "oracle_gap", "flagged")

    def csv_line(self) -> str:
        vals = []
        for name in self.FIELDS:
            v = getattr(self, name)
            vals.append(f"{v:.10g}" if isinstance(v, float) else str(int(v) if isinstance(v, bool) else v))
        return ",".join(vals)


def mean_abs_target_deviation(result: RunResult, instance: Instance) -> float:
    """Average over epochs and resources of |running average - target|, as
    held by the run against the targets it ran on (``instance`` is not read)."""
    return float(result.abs_deviation.mean())


def epoch_acceptance_fraction(result: RunResult, instance: Instance, epoch: int,
                              burn_in: float = 0.05) -> float:
    """Fraction of assigned arrivals in one epoch after a burn-in prefix."""
    step = instance.epoch_len
    lo = epoch * step + int(np.ceil(burn_in * step))
    hi = (epoch + 1) * step
    window = result.decisions[lo:hi]
    return float((window >= 0).mean())


def relative_regret_pct(cost: float, offline: float) -> tuple[float, bool]:
    """Regret as a percentage of the benchmark magnitude.

    The denominator is |offline| so that spending more than the benchmark is
    always positive. When the benchmark is within ``RELATIVE_REGRET_FLOOR``
    of zero the ratio is meaningless: the absolute regret is reported
    instead and the row is flagged.
    """
    regret = cost - offline
    if abs(offline) < RELATIVE_REGRET_FLOOR:
        return regret, True
    return 100.0 * regret / abs(offline), False


def _run_replication(args) -> list[MetricsRow]:
    # Common random numbers across design cells: replication ``rep`` uses the
    # same instance and arrival streams for every (T, delta, gamma), so
    # comparisons across cells (and across policies within a replication)
    # share their randomness.
    (config, T, delta, gamma, rep) = args
    seed = config.seed
    if config.instance_file is not None:
        instance = Instance.load(config.instance_file)
        if instance.T != T:
            raise ValueError("instance file horizon does not match the requested T")
    else:
        params = replace(config.params, T=T, delta=delta, gamma=gamma, seed=seed)
        instance = generate_synthetic(params, stream_index=rep)
    omega = sample_arrivals(instance, seed, stream_index=rep)
    sol = hindsight_optimum(instance, omega, backend=config.oracle_backend)
    flagged_gap = sol.gap > config.gap_tol
    cfg = PolicyConfig(eta_mult=config.eta_mult, traces=False)  # the rows read only costs and deviations
    rows = []
    for name in config.policies:
        t0 = time.perf_counter()
        result = POLICIES[name](instance, omega, cfg)
        dt = time.perf_counter() - t0
        rel, flagged_rel = relative_regret_pct(result.total_cost, sol.objective)
        rows.append(MetricsRow(
            policy=name, T=T, delta=float(delta), gamma=float(gamma), seed=rep,
            cost=result.total_cost, offline=sol.objective,
            regret=result.total_cost - sol.objective,
            relative_regret_pct=rel,
            mean_abs_deviation=mean_abs_target_deviation(result, instance),
            assignment_cost_per_period=result.assignment_cost / instance.T,
            runtime_s=dt, oracle_gap=sol.gap,
            flagged=flagged_gap or flagged_rel,
        ))
    return rows


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count (at least 1)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig, out_dir: str) -> dict:
    """Run the sweep, write per-replication and aggregate CSVs, and return
    summary info (paths, number of flagged rows)."""
    os.makedirs(out_dir, exist_ok=True)
    tasks = [(config, T, d, g, rep)
             for T in config.T_values for d in config.deltas for g in config.gammas
             for rep in range(config.reps)]
    workers = config.workers or min(usable_cpus(), 8)
    if workers > 1 and len(tasks) > 1:
        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_run_replication, tasks, chunksize=max(1, len(tasks) // (8 * workers)))
    else:
        chunks = [_run_replication(t) for t in tasks]
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (r.policy, r.T, r.delta, r.gamma, r.seed))

    rep_path = os.path.join(out_dir, "replications.csv")
    with open(rep_path, "w") as fh:
        fh.write(",".join(MetricsRow.FIELDS) + "\n")
        for r in rows:
            fh.write(r.csv_line() + "\n")
    with open(os.path.join(out_dir, "timings.csv"), "w") as fh:
        fh.write("policy,T,delta,gamma,seed,runtime_s\n")
        for r in rows:
            fh.write(f"{r.policy},{r.T},{r.delta:.10g},{r.gamma:.10g},{r.seed},{r.runtime_s:.6g}\n")

    agg_path = os.path.join(out_dir, "aggregates.csv")
    groups: dict[tuple, list[MetricsRow]] = {}
    for r in rows:
        groups.setdefault((r.policy, r.T, r.delta, r.gamma), []).append(r)
    with open(agg_path, "w") as fh:
        fh.write("policy,T,delta,gamma,reps,mean_cost,se_cost,mean_offline,mean_regret,"
                 "se_regret,median_regret,mean_rel_regret_pct,mean_abs_deviation,"
                 "mean_assignment_cost_per_period,flagged_rows\n")
        for key in sorted(groups):
            g = groups[key]
            cost = np.array([r.cost for r in g])
            reg = np.array([r.regret for r in g])
            rel = np.array([r.relative_regret_pct for r in g])
            se = lambda x: float(x.std(ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0
            fh.write(",".join(
                [key[0], str(key[1]), f"{key[2]:.10g}", f"{key[3]:.10g}", str(len(g)),
                 f"{cost.mean():.10g}", f"{se(cost):.10g}",
                 f"{np.mean([r.offline for r in g]):.10g}",
                 f"{reg.mean():.10g}", f"{se(reg):.10g}", f"{np.median(reg):.10g}",
                 f"{rel.mean():.10g}",
                 f"{np.mean([r.mean_abs_deviation for r in g]):.10g}",
                 f"{np.mean([r.assignment_cost_per_period for r in g]):.10g}",
                 str(sum(r.flagged for r in g))]) + "\n")
    return {
        "replications_csv": rep_path,
        "aggregates_csv": agg_path,
        "rows": len(rows),
        "flagged": sum(r.flagged for r in rows),
    }


def read_csv_rows(path: str) -> list[dict]:
    """Parse a harness CSV into dicts with floats where possible."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        out = []
        for line in fh:
            if not line.strip():
                continue
            vals = line.strip().split(",")
            row = {}
            for key, v in zip(header, vals):
                try:
                    row[key] = float(v)
                except ValueError:
                    row[key] = v
            out.append(row)
    return out


@dataclass(eq=False)
class ScalingReport:
    T_values: np.ndarray
    median_regret: np.ndarray
    slope: float
    ratios: np.ndarray           # consecutive regret ratios
    t_ratios: np.ndarray         # consecutive horizon ratios
    regret_per_period: np.ndarray

    def __str__(self) -> str:
        lines = ["T,median_regret,regret_per_period"]
        for T, r, rp in zip(self.T_values, self.median_regret, self.regret_per_period):
            lines.append(f"{int(T)},{r:.6g},{rp:.6g}")
        lines.append(f"log-log slope: {self.slope:.4f}")
        for i in range(len(self.ratios)):
            lines.append(f"Reg({int(self.T_values[i + 1])})/Reg({int(self.T_values[i])}) = "
                         f"{self.ratios[i]:.3f} (T ratio {self.t_ratios[i]:.3f})")
        return "\n".join(lines)


def regret_scaling_report(rows: Sequence[dict], policy: str = "proxy-dgd") -> ScalingReport:
    """Median-regret growth across horizons: log-log OLS slope plus the
    ratio table of consecutive grid points."""
    per_T: dict[int, list[float]] = {}
    for r in rows:
        if r["policy"] == policy:
            per_T.setdefault(int(r["T"]), []).append(float(r["regret"]))
    if len(per_T) < 2:
        raise ValueError("need at least two horizon values to fit a slope")
    T_values = np.array(sorted(per_T))
    med = np.array([np.median(per_T[t]) for t in T_values])
    if np.any(med <= 0):
        raise ValueError("median regret must be positive to fit a log-log slope")
    slope = float(np.polyfit(np.log(T_values.astype(float)), np.log(med), 1)[0])
    return ScalingReport(
        T_values=T_values,
        median_regret=med,
        slope=slope,
        ratios=med[1:] / med[:-1],
        t_ratios=T_values[1:] / T_values[:-1].astype(float),
        regret_per_period=med / T_values,
    )
