"""The benchmark's three workloads and their per-layer metrics.

Each workload generates its inputs from the benchmark seed in ``setup``,
does a fixed amount of work per pass through flowtarget's public functions
(``work``), and checks the outputs of that pass (``check``). Program calls
go through module attributes (``oracle.hindsight_optimum``, not a name bound
at import), so that a traced pass sees the wrappers that
:data:`trace_targets` installs.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import os
import statistics
import time
import types
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from flowtarget import cli, core, harness, instances, oracle, policies
# Bound at import, so never traced: the sweep's inputs are rebuilt only to
# check its outputs, which is the benchmark's work and not the program's.
from flowtarget.instances import generate_synthetic as _rebuild_instance
from flowtarget.instances import sample_arrivals as _rebuild_arrivals

from perfbench import checks
from perfbench.tracing import Tracer

EXACT_LP = oracle.EXACT_LP
DUAL = oracle.DUAL_SUBGRADIENT
SWEEP_POLICIES = ("proxy-dgd", "smart-me", "naive-pd", "greedy")
BOX_SAMPLE_EVERY = 50   # every n-th traced box solve is re-solved by L-BFGS-B


@dataclass(frozen=True)
class Scale:
    """Input sizes; :data:`FULL` is what the command line runs."""

    sweep_T: tuple[int, ...] = (501, 3000)
    sweep_reps: int = 4
    squared_T: int = 60
    intervals: int = 40_000
    restarts: int = 3
    continuous_T: int = 600


FULL = Scale()


@dataclass
class Tally:
    """Checked operations of a run."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, results: checks.Result) -> None:
        for ok, msg in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.messages.append(msg)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: str, scale: Scale = FULL):
        self.seed = seed
        self.out_dir = out_dir
        self.scale = scale
        self.box_samples: list[tuple] = []

    def setup(self) -> None:
        raise NotImplementedError

    def work(self) -> dict:
        """One pass of program calls. Returns its outputs and the samples
        ``wall_s``, ``proxy_us``, ``lp_ms`` and ``dual_s``."""
        raise NotImplementedError

    def check(self, out: dict) -> checks.Result:
        raise NotImplementedError

    def round(self, tally: Tally, samples: dict) -> None:
        out = self.work()
        tally.add(self.check(out))
        for key in ("wall_s", "proxy_us", "lp_ms", "dual_s"):
            samples.setdefault(key, []).extend(out[key])

    def trace_round(self, tracer: Tracer, tally: Tally) -> dict:
        """An untraced pass, then the same pass traced. Returns layer
        values that do not come from spans."""
        plain, plain_s = _timed(self.work)
        tally.add(self.check(plain))
        with tracer.installed(trace_targets(self.box_samples)):
            out, traced_s = _timed(self.work)
        tally.add(self.check(out))
        tally.add(self._check_box_samples())
        return {"trace.overhead_s": traced_s - plain_s}

    def _check_box_samples(self) -> checks.Result:
        results: checks.Result = []
        for box_value, objective, dim in self.box_samples:
            # finite-difference gradients: independent of the program's subgradient
            ref = minimize(objective, np.full(dim, 0.5), method="L-BFGS-B", bounds=[(0.0, 1.0)] * dim,
                           options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 2000})
            results += checks.box_solve_excess(box_value, float(ref.fun), "squared aux solve")
        self.box_samples.clear()
        return results


# ---------------------------------------------------------------------------
# sweep-typed


class SweepTyped(Workload):
    """``flowtarget sweep`` of four policies on synthetic absolute-penalty
    instances, then certification of its offline column in this process."""

    name = "sweep-typed"

    def setup(self) -> None:
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.params = instances.SyntheticParams(delta=1.0, gamma=2.0, seed=self.seed)
        # The harness's common random numbers: replication ``rep`` uses
        # instance stream ``rep`` and arrival stream ``rep`` in every cell.
        self.inputs = {}
        for T in self.scale.sweep_T:
            for rep in range(self.scale.sweep_reps):
                inst = _rebuild_instance(replace(self.params, T=T), stream_index=rep)
                self.inputs[(T, rep)] = (inst, _rebuild_arrivals(inst, self.seed, stream_index=rep))

    def work(self, workers: int = 0, tag: str = "pool") -> dict:
        out = os.path.join(self.out_dir, tag)
        argv = ["sweep", "--policy", *SWEEP_POLICIES,
                "--T", *map(str, self.scale.sweep_T), "--delta", "1", "--gamma", "2",
                "--reps", str(self.scale.sweep_reps), "--seed", str(self.seed),
                "--oracle-backend", EXACT_LP, "--workers", str(workers or self.workers), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code, wall = _timed(cli.main, argv)
        with open(os.path.join(out, "replications.csv"), "rb") as fh:
            csv_bytes = fh.read()
        with open(os.path.join(out, "timings.csv"), newline="") as fh:
            proxy_us = [float(r["runtime_s"]) / int(r["T"]) * 1e6
                        for r in csv.DictReader(fh) if r["policy"] == "proxy-dgd"]
        lp_ms, lp_obj = [], {}
        for key, (inst, omega) in self.inputs.items():
            sol, dt = _timed(oracle.hindsight_optimum, inst, omega, backend=EXACT_LP)
            lp_ms.append(dt * 1e3)
            lp_obj[key] = sol.objective
        cert = (self.scale.sweep_T[0], 0)
        dual, dual_s = _timed(oracle.hindsight_optimum, *self.inputs[cert], backend=DUAL)
        return {"code": code, "csv_bytes": csv_bytes, "lp_obj": lp_obj, "cert": cert, "dual": dual,
                "wall_s": [wall], "proxy_us": proxy_us, "lp_ms": lp_ms, "dual_s": [dual_s]}

    def check(self, out: dict) -> checks.Result:
        rows = list(csv.DictReader(io.StringIO(out["csv_bytes"].decode())))
        expected = len(SWEEP_POLICIES) * len(self.scale.sweep_T) * self.scale.sweep_reps
        results = [(out["code"] == 0, f"flowtarget sweep exited {out['code']}")]
        results += checks.sweep_rows(rows, expected)
        for r in rows:
            key = (int(r["T"]), int(r["seed"]))
            if key not in self.inputs:
                results.append((False, f"sweep row for unknown cell {key}"))
                continue
            inst, omega = self.inputs[key]
            # replications.csv prints floats with 10 significant digits
            results += checks.printed(r["offline"], out["lp_obj"][key], 10,
                                      f"offline of {key} vs exact-LP re-solve")
            if r["policy"] == "greedy":
                results += checks.printed(
                    r["assignment_cost_per_period"],
                    checks.typed_greedy_cost(inst.costs, inst.feasible, omega.types) / key[0],
                    10, f"greedy assignment cost of {key}")
        dual = out["dual"]
        results += checks.dual_sandwich(dual.dual_bound, out["lp_obj"][out["cert"]], dual.objective,
                                        f"sweep cell {out['cert']}")
        return results

    def trace_round(self, tracer: Tracer, tally: Tally) -> dict:
        """Pool pass, untraced serial pass, traced serial pass; spans from
        forked workers would be lost, so only a serial pass is traced."""
        pool = self.work()
        tally.add(self.check(pool))
        plain, plain_s = _timed(self.work, 1, "serial-plain")
        tally.add(self.check(plain))
        with tracer.installed(trace_targets(self.box_samples)):
            traced, traced_s = _timed(self.work, 1, "serial-traced")
        tally.add(self.check(traced))
        for other, tag in ((plain, "untraced"), (traced, "traced")):
            tally.add(checks.identical_bytes(pool["csv_bytes"], other["csv_bytes"],
                                             f"replications.csv of the pool and the {tag} serial run"))
        # Efficiency compares untraced runs: tracing slows the serial one.
        return {"trace.overhead_s": traced_s - plain_s,
                "harness.serial_s": traced["wall_s"][0],
                "harness.parallel_efficiency": plain["wall_s"][0] / (self.workers * pool["wall_s"][0])}


# ---------------------------------------------------------------------------
# proxy-squared


class ProxySquared(Workload):
    """proxy-dgd and smart-me under squared penalties (the box-solver
    fallback), dual-subgradient hindsight, and the absolute-penalty twin of
    the same instance and path (exact LP, bounding a greedy run)."""

    name = "proxy-squared"

    def setup(self) -> None:
        params = instances.SyntheticParams(T=self.scale.squared_T, delta=1.0, gamma=2.0, seed=self.seed)
        self.absolute = instances.generate_synthetic(params)
        a = self.absolute
        self.squared = core.Instance(
            costs=a.costs, feasible=a.feasible, probs=a.probs, epochs=a.K, horizon=a.T,
            targets=a.targets, dev_costs=core.uniform_dev_costs(a.targets, core.SQUARED, params.delta))
        self.omega = instances.sample_arrivals(self.absolute, self.seed)

    def work(self) -> dict:
        t0 = time.perf_counter()
        proxy, proxy_s = _timed(policies.POLICIES["proxy-dgd"], self.squared, self.omega)
        smart = policies.POLICIES["smart-me"](self.squared, self.omega)
        dual, dual_s = _timed(oracle.hindsight_optimum, self.squared, self.omega, backend=DUAL)
        lp, lp_s = _timed(oracle.hindsight_optimum, self.absolute, self.omega, backend=EXACT_LP)
        twin = policies.POLICIES["greedy"](self.absolute, self.omega)
        wall = time.perf_counter() - t0
        return {"proxy": proxy, "smart": smart, "dual": dual, "lp": lp, "twin": twin,
                "wall_s": [wall], "proxy_us": [proxy_s / self.squared.T * 1e6],
                "lp_ms": [lp_s * 1e3], "dual_s": [dual_s]}

    def check(self, out: dict) -> checks.Result:
        proxy, dual = out["proxy"], out["dual"]
        decomposition = oracle.proxy_cost_decomposition(self.squared, proxy)
        results = checks.close(decomposition["reconstructed"], proxy.total_cost, 1e-9,
                               "proxy cost decomposition")
        for label, run in (("proxy-dgd", proxy), ("smart-me", out["smart"])):
            state, assignment = core.replay_decisions(self.squared, self.omega, run.decisions)
            replayed = core.total_cost(self.squared, state, assignment)[2]
            results += checks.close(replayed, run.total_cost, 1e-9, f"{label} replayed cost")
            results += checks.lower_bound(dual.dual_bound, run.total_cost, f"{label} cost vs dual bound")
        results += checks.lower_bound(dual.dual_bound, dual.objective, "dual bound vs dual primal")
        results += checks.lower_bound(out["lp"].objective, out["twin"].total_cost,
                                      "absolute twin: exact LP vs greedy")
        return results


# ---------------------------------------------------------------------------
# continuous-calibrated


class ContinuousCalibrated(Workload):
    """Fit Gumbel locations from aggregate counts, build a continuous-cost
    instance from the fit, run proxy-dgd and greedy on sampled arrivals,
    solve hindsight with both backends, export and replay the proxy trace."""

    name = "continuous-calibrated"
    LOCATIONS = np.array([[-0.33, 1.27, 0.21]])  # the c09 acceptance model
    RATE = 4.0
    EPOCHS = 3

    def setup(self) -> None:
        model = instances.GumbelCostModel(locations=self.LOCATIONS, rate=self.RATE)
        self.obs = instances.generate_observations(model, self.scale.intervals, seed=self.seed)

    def instance_for(self, locations: np.ndarray) -> core.Instance:
        """Targets follow the fitted greedy shares: 3/4 of them, doubled in
        the middle epoch, with absolute penalties of weight 1."""
        share = instances.softmin_weights(locations)[0]
        targets = np.tile(0.75 * share, (self.EPOCHS, 1))
        targets[self.EPOCHS // 2] *= 2.0
        targets = np.minimum(targets, 1.0)
        m = targets.shape[1]
        return core.Instance(costs=np.zeros((0, m)), feasible=np.zeros((0, m), dtype=bool),
                             probs=None, epochs=self.EPOCHS, horizon=self.scale.continuous_T,
                             targets=targets, dev_costs=core.uniform_dev_costs(targets, core.ABSOLUTE, 1.0),
                             continuous=True)

    def work(self) -> dict:
        t0 = time.perf_counter()
        fit = instances.estimate_gumbel_mle(self.obs, n_types=1, restarts=self.scale.restarts,
                                            iters=10_000, step=0.2, seed=self.seed)
        inst = self.instance_for(fit.locations)
        model = instances.GumbelCostModel(locations=fit.locations, probs=fit.probs, rate=self.RATE)
        omega = instances.sample_gumbel_arrivals(model, inst.T, self.seed)
        proxy, proxy_s = _timed(policies.POLICIES["proxy-dgd"], inst, omega)
        greedy = policies.POLICIES["greedy"](inst, omega)
        lp, lp_s = _timed(oracle.hindsight_optimum, inst, omega, backend=EXACT_LP)
        dual, dual_s = _timed(oracle.hindsight_optimum, inst, omega, backend=DUAL)
        trace_path = os.path.join(self.out_dir, "trace_proxy-dgd.csv")
        core.export_trace_csv(trace_path, inst, omega, proxy)
        state, assignment = core.replay_decisions(inst, omega, proxy.decisions)
        replayed = core.total_cost(inst, state, assignment)[2]
        wall = time.perf_counter() - t0
        with open(trace_path) as fh:
            trace_text = fh.read()
        return {"fit": fit, "omega": omega, "proxy": proxy, "greedy": greedy, "lp": lp, "dual": dual,
                "trace_text": trace_text, "replayed": replayed,
                "wall_s": [wall], "proxy_us": [proxy_s / inst.T * 1e6],
                "lp_ms": [lp_s * 1e3], "dual_s": [dual_s]}

    def check(self, out: dict) -> checks.Result:
        lp = out["lp"].objective
        results = checks.locations_recovered(out["fit"].locations, self.LOCATIONS)
        results += checks.dual_sandwich(out["dual"].dual_bound, lp, out["dual"].objective, "continuous hindsight")
        for label in ("proxy", "greedy"):
            results += checks.lower_bound(lp, out[label].total_cost, f"exact LP vs {label} cost")
        results += checks.close(out["greedy"].assignment_cost,
                                checks.continuous_greedy_cost(out["omega"].cost_vectors),
                                1e-9, "greedy assignment cost")
        results += checks.trace_csv_final_cost(out["trace_text"], out["proxy"].total_cost)
        results += checks.close(out["replayed"], out["proxy"].total_cost, 1e-9, "replayed proxy cost")
        return results


WORKLOADS = {cls.name: cls for cls in (SweepTyped, ProxySquared, ContinuousCalibrated)}


# ---------------------------------------------------------------------------
# Tracing: what is wrapped, and the per-layer metrics built from the spans


def _policy_hook(args, kwargs, result):
    return {"T": args[0].T, "nonconverged": result.diagnostics.get("fallback_nonconverged", 0)}


def _linprog_hook(args, kwargs, result):
    return {"nit": int(result.nit), "nnz": int(kwargs["A_ub"].nnz)}


def _hindsight_hook(args, kwargs, result):
    return {"backend": result.backend, "gap": result.gap, "objective": result.objective}


def _stream_hook(args, kwargs, result):
    return {"stream": args[1]}


def _frozen(fn):
    """A copy of closure ``fn`` whose captured values are copied too.

    The policy's aux objective closes over a view of its live price matrix,
    which the next period's update overwrites; the copy keeps the objective
    that was solved, for re-solving after the pass.
    """
    cells = tuple(types.CellType(copy.deepcopy(c.cell_contents)) for c in fn.__closure__ or ())
    return types.FunctionType(fn.__code__, fn.__globals__, fn.__name__, fn.__defaults__, cells)


def trace_targets(box_samples: list) -> list:
    """``(owner, key, span name, hook)`` for every wrapped name.

    Names are patched where the calling module looks them up, e.g. the
    harness's own ``hindsight_optimum`` binding and the ``POLICIES`` table
    that the harness and this benchmark both index.
    """
    calls = [0]

    def box_hook(args, kwargs, result):
        calls[0] += 1
        if calls[0] % BOX_SAMPLE_EVERY == 0:
            box_samples.append((float(result.objective), _frozen(args[0]), len(result.x)))
        return {"iterations": int(result.iterations)}

    targets = [(policies.POLICIES, key, "policies." + key.replace("-", "_"), _policy_hook)
               for key in SWEEP_POLICIES]
    targets += [
        (policies, "chain_prefix_argmin", "solver.chain_prefix_argmin", None),
        (policies, "solve_box_convex", "solver.solve_box_convex", box_hook),
        (policies, "min_dev_plus_price", "solver.min_dev_plus_price", None),
        (oracle, "min_dev_plus_price", "solver.min_dev_plus_price", None),
        (oracle, "linprog", "oracle.linprog", _linprog_hook),
        (oracle, "hindsight_optimum", "oracle.hindsight", _hindsight_hook),
        (harness, "hindsight_optimum", "oracle.hindsight", _hindsight_hook),
        (instances, "estimate_gumbel_mle", "instances.mle", None),
        (instances, "rng_stream", "instances.rng_stream", _stream_hook),
        (core, "replay_decisions", "core.replay", None),
        (core, "total_cost", "core.total_cost", None),
        (core, "export_trace_csv", "core.export_trace", None),
    ]
    for owner in (instances, harness):
        for key in ("generate_synthetic", "sample_arrivals"):
            targets.append((owner, key, "instances.generate", None))
    for key in ("sample_gumbel_arrivals", "generate_observations"):
        targets.append((instances, key, "instances.generate", None))
    return targets


# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "policies.proxy_dgd.loop_self_s": "s",
    "policies.smart_me.us_per_period": "us",
    "policies.naive_pd.us_per_period": "us",
    "policies.greedy.us_per_period": "us",
    "solver.chain_prefix_argmin.calls": "count",
    "solver.chain_prefix_argmin.self_s": "s",
    "solver.solve_box_convex.calls": "count",
    "solver.solve_box_convex.self_s": "s",
    "solver.solve_box_convex.iterations": "count",
    "solver.solve_box_convex.nonconverged": "count",
    "solver.min_dev_plus_price.calls": "count",
    "solver.min_dev_plus_price.self_s": "s",
    "oracle.exact_lp.solves": "count",
    "oracle.exact_lp.build_s": "s",
    "oracle.exact_lp.highs_s": "s",
    "oracle.exact_lp.highs_iterations": "count",
    "oracle.exact_lp.nnz": "count",
    "oracle.dual.solves": "count",
    "oracle.dual.solve_s": "s",
    "oracle.dual.rel_gap": "ratio",
    "instances.mle.restarts": "count",
    "instances.mle.restart_s": "s",
    "instances.generate_s": "s",
    "core.replay_s": "s",
    "core.export_trace_s": "s",
    "harness.serial_s": "s",
    "harness.parallel_efficiency": "ratio",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, extras: dict, rounds: int) -> dict[str, float]:
    """Per-layer values per traced round (totals divided by ``rounds``;
    per-period times and ratios are medians over their spans)."""
    by_name: dict[str, list] = {}
    for name, dur, self_s, attrs in tracer.records():
        by_name.setdefault(name, []).append((dur, self_s, attrs or {}))

    def spans(name):
        return by_name.get(name, [])

    def total(name, col):
        return sum(s[col] for s in spans(name)) / rounds

    def per_period(name):
        vals = [dur / a["T"] * 1e6 for dur, _, a in spans(name)]
        return statistics.median(vals) if vals else 0.0

    hind = {b: [s for s in spans("oracle.hindsight") if s[2]["backend"] == b] for b in (EXACT_LP, DUAL)}
    lp_calls = spans("oracle.linprog")
    restarts = sum(1 for _, _, a in spans("instances.rng_stream") if a["stream"] == "restarts")
    mle_s = sum(dur for dur, _, _ in spans("instances.mle"))
    gaps = [a["gap"] / abs(a["objective"]) for _, _, a in hind[DUAL] if a["objective"] != 0.0]
    out = {
        "policies.proxy_dgd.loop_self_s": total("policies.proxy_dgd", 1),
        "policies.smart_me.us_per_period": per_period("policies.smart_me"),
        "policies.naive_pd.us_per_period": per_period("policies.naive_pd"),
        "policies.greedy.us_per_period": per_period("policies.greedy"),
        "solver.chain_prefix_argmin.calls": len(spans("solver.chain_prefix_argmin")) / rounds,
        "solver.chain_prefix_argmin.self_s": total("solver.chain_prefix_argmin", 1),
        "solver.solve_box_convex.calls": len(spans("solver.solve_box_convex")) / rounds,
        "solver.solve_box_convex.self_s": total("solver.solve_box_convex", 1),
        "solver.solve_box_convex.iterations":
            sum(a["iterations"] for _, _, a in spans("solver.solve_box_convex")) / rounds,
        "solver.solve_box_convex.nonconverged":
            sum(a["nonconverged"] for _, _, a in spans("policies.proxy_dgd")) / rounds,
        "solver.min_dev_plus_price.calls": len(spans("solver.min_dev_plus_price")) / rounds,
        "solver.min_dev_plus_price.self_s": total("solver.min_dev_plus_price", 1),
        "oracle.exact_lp.solves": len(hind[EXACT_LP]) / rounds,
        "oracle.exact_lp.build_s": sum(s[1] for s in hind[EXACT_LP]) / rounds,
        "oracle.exact_lp.highs_s": total("oracle.linprog", 0),
        "oracle.exact_lp.highs_iterations": sum(a["nit"] for _, _, a in lp_calls) / rounds,
        "oracle.exact_lp.nnz": statistics.mean(a["nnz"] for _, _, a in lp_calls) if lp_calls else 0.0,
        "oracle.dual.solves": len(hind[DUAL]) / rounds,
        "oracle.dual.solve_s": sum(s[0] for s in hind[DUAL]) / rounds,
        "oracle.dual.rel_gap": statistics.median(gaps) if gaps else 0.0,
        "instances.mle.restarts": restarts / rounds,
        "instances.mle.restart_s": mle_s / restarts if restarts else 0.0,
        "instances.generate_s": total("instances.generate", 0),
        "core.replay_s": total("core.replay", 0) + total("core.total_cost", 0),
        "core.export_trace_s": total("core.export_trace", 0),
        "harness.serial_s": 0.0,
        "harness.parallel_efficiency": 0.0,
        "trace.overhead_s": 0.0,
    }
    for key, values in extras.items():
        out[key] = statistics.median(values)
    return out
