"""Command-line interface.

Subcommands::

    flowtarget gen        write a synthetic instance (and optionally arrivals)
    flowtarget run        run one policy on an instance and export its trace
    flowtarget sweep      Monte-Carlo sweep over (T, delta, gamma) cells
    flowtarget oracle     solve an offline benchmark for an instance + path
    flowtarget mle        estimate Gumbel cost locations from ideal quantities
    flowtarget transform  reduce a nonstationary profile to a stationary instance

Flags may also be supplied via ``--config FILE`` (JSON object whose keys
mirror the long flag names with dashes replaced by underscores); explicit
flags win. Exits nonzero when an oracle gap exceeds ``--gap-tol``. The
``dual-subgradient`` backend is a bound certificate whose gap usually
exceeds the default ``--gap-tol`` of 1e-6, so with it ``sweep`` flags its
rows and exits 2; raise ``--gap-tol`` to accept its gap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .core import ArrivalSequence, Instance, export_trace_csv
from .harness import (
    ExperimentConfig,
    mean_abs_target_deviation,
    read_csv_rows,
    regret_scaling_report,
    relative_regret_pct,
    run_experiment,
)
from .instances import (
    AggregateObservation,
    NonstatProfile,
    SyntheticParams,
    estimate_gumbel_mle,
    generate_synthetic,
    nonstationary_transform,
    sample_arrivals,
)
from .oracle import DUAL_SUBGRADIENT, EXACT_LP, hindsight_optimum
from .policies import POLICIES, PolicyConfig


def _apply_config_file(args: argparse.Namespace, command: argparse.ArgumentParser) -> None:
    """Fill flags left at their defaults from the ``--config`` JSON object;
    ``command`` is the subcommand's parser, whose defaults decide that. Every
    value is checked as the flag's own would be (:func:`_config_value`); a
    bad one exits 2 with the flag's message."""
    if getattr(args, "config", None) is None:
        return
    with open(args.config) as fh:
        overrides = json.load(fh)
    actions = {action.dest: action for action in command._actions}
    for key, value in overrides.items():
        if not hasattr(args, key):
            raise SystemExit(f"config file key {key!r} is not a flag of {args.command!r}")
        try:
            value = _config_value(actions[key], value)
        except argparse.ArgumentError as exc:
            command.error(str(exc))
        if getattr(args, key) == command.get_default(key):
            setattr(args, key, value)


def _config_value(action: argparse.Action, value):
    """A ``--config`` value passed through its flag's ``type`` (element by
    element for a flag that takes a list) and checked against its
    ``choices``, raising the ``ArgumentError`` the command line would."""
    if action.nargs == 0:  # an on/off flag
        if not isinstance(value, bool):
            raise argparse.ArgumentError(action, f"expected true or false, got {value!r}")
        return value
    many = action.nargs not in (None, "?")
    if many != isinstance(value, list):
        raise argparse.ArgumentError(action, f"expected {'a list' if many else 'one value'}, got {value!r}")
    convert = action.type or str
    out = []
    for item in value if many else [value]:
        if isinstance(item, bool) or not isinstance(item, (str, int, float)):
            raise argparse.ArgumentError(action, f"expected a number or a string, got {item!r}")
        try:
            item = convert(str(item))
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentError(action, str(exc)) from None
        except (TypeError, ValueError):
            raise argparse.ArgumentError(
                action, f"invalid {getattr(convert, '__name__', 'value')} value: {item!r}") from None
        if action.choices is not None and item not in action.choices:
            raise argparse.ArgumentError(
                action, f"invalid choice: {item!r} (choose from {', '.join(map(repr, action.choices))})")
        out.append(item)
    return out if many else out[0]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file mirroring the flags")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")


def _checked(convert, accept, what: str):
    """An argparse type: ``convert(text)``, rejected with ``must be <what>``
    unless it converts and ``accept`` takes it."""
    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


_finite_nonnegative = _checked(float, lambda v: 0.0 <= v < np.inf, "a finite, nonnegative number")
_finite_positive = _checked(float, lambda v: 0.0 < v < np.inf, "a finite, positive number")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")


def _add_oracle(p: argparse.ArgumentParser) -> None:
    p.add_argument("--oracle-backend", default=EXACT_LP, choices=[EXACT_LP, DUAL_SUBGRADIENT])
    p.add_argument("--gap-tol", type=_finite_nonnegative, default=1e-6,
                   help="largest accepted certified oracle gap; the dual-subgradient bound "
                        "certificate's gap usually exceeds the default, which flags rows and exits 2")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="flowtarget", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    _add_common(p)
    p.add_argument("--T", type=int, default=501)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--K", type=int, default=3)
    p.add_argument("--arrivals", action="store_true", help="also sample an arrival path")

    p = sub.add_parser("run", help="run one policy on an instance")
    _add_common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--omega", help="arrival file; sampled from the instance when omitted")
    p.add_argument("--policy", default="proxy-dgd", choices=sorted(POLICIES))
    p.add_argument("--eta-mult", type=_finite_positive, default=1.0)
    _add_oracle(p)

    p = sub.add_parser("sweep", help="Monte-Carlo sweep across policies and cells")
    _add_common(p)
    p.add_argument("--instance", help="fixed instance file instead of the generator")
    p.add_argument("--policy", nargs="+", default=["proxy-dgd", "smart-me"], choices=sorted(POLICIES))
    p.add_argument("--T", type=int, nargs="+", default=[501])
    p.add_argument("--delta", type=float, nargs="+", default=[1.0])
    p.add_argument("--gamma", type=float, nargs="+", default=[2.0])
    p.add_argument("--reps", type=_positive_int, default=100)
    p.add_argument("--eta-mult", type=_finite_positive, default=1.0)
    _add_oracle(p)
    p.add_argument("--workers", type=_nonnegative_int, default=0, help="0 = one per usable CPU")
    p.add_argument("--scaling-report", action="store_true",
                   help="print the regret-vs-T report after the sweep")

    p = sub.add_parser("oracle", help="solve the offline benchmark")
    _add_common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--omega", required=True)
    _add_oracle(p)

    p = sub.add_parser("mle", help="estimate cost locations from ideal-quantity CSV")
    _add_common(p)
    p.add_argument("--observations", required=True, help="(interval, resource, ideal_quantity) CSV")
    p.add_argument("--n-types", type=int, default=1)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--iters", type=int, default=10_000,
                   help="cap on descent steps; the descent stops sooner at an exact "
                        "(bitwise) fixed point, which gives the result the cap would")
    p.add_argument("--step", type=float, default=0.2)

    p = sub.add_parser("transform", help="stationarize a nonstationary profile")
    _add_common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--fractions", type=float, nargs="+", required=True)
    p.add_argument("--mode", default="per-arrival", choices=["per-arrival", "per-period"])

    args = parser.parse_args(argv)
    _apply_config_file(args, sub.choices[args.command])
    return _COMMANDS[args.command](args)


def _cmd_gen(args) -> int:
    params = SyntheticParams(gamma=args.gamma, delta=args.delta, seed=args.seed,
                             m=args.m, n=args.n, K=args.K, T=args.T)
    instance = generate_synthetic(params)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "instance.json")
    instance.save(path)
    print(f"wrote {path}")
    if args.arrivals:
        omega = sample_arrivals(instance, args.seed)
        opath = os.path.join(args.out, "arrivals.json")
        omega.save(opath)
        print(f"wrote {opath}")
    return 0


def _cmd_run(args) -> int:
    instance = Instance.load(args.instance)
    omega = ArrivalSequence.load(args.omega) if args.omega else sample_arrivals(instance, args.seed)
    result = POLICIES[args.policy](instance, omega, PolicyConfig(eta_mult=args.eta_mult))
    sol = hindsight_optimum(instance, omega, backend=args.oracle_backend)
    os.makedirs(args.out, exist_ok=True)
    trace = os.path.join(args.out, f"trace_{args.policy}.csv")
    export_trace_csv(trace, instance, omega, result)
    rel, flagged = relative_regret_pct(result.total_cost, sol.objective)
    print(f"policy={args.policy} cost={result.total_cost:.6g} offline={sol.objective:.6g} "
          f"regret={result.total_cost - sol.objective:.6g} "
          f"relative_regret={'n/a (offline ~ 0)' if flagged else f'{rel:.4g}%'} "
          f"mean_abs_deviation={mean_abs_target_deviation(result, instance):.4g}")
    print(f"wrote {trace}")
    if sol.gap > args.gap_tol:
        print(f"oracle gap {sol.gap:.3g} exceeds tolerance {args.gap_tol:.3g}", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args) -> int:
    config = ExperimentConfig(
        policies=tuple(args.policy),
        T_values=tuple(args.T),
        deltas=tuple(args.delta),
        gammas=tuple(args.gamma),
        reps=args.reps,
        seed=args.seed,
        eta_mult=args.eta_mult,
        oracle_backend=args.oracle_backend,
        gap_tol=args.gap_tol,
        instance_file=args.instance,
        workers=args.workers,
    )
    info = run_experiment(config, args.out)
    print(f"wrote {info['replications_csv']} ({info['rows']} rows, {info['flagged']} flagged)")
    print(f"wrote {info['aggregates_csv']}")
    if args.scaling_report:
        rows = read_csv_rows(info["replications_csv"])
        for name in args.policy:
            try:
                print(f"--- scaling: {name}")
                print(regret_scaling_report(rows, policy=name))
            except ValueError as exc:
                print(f"--- scaling: {name}: {exc}")
    return 0 if info["flagged"] == 0 else 2


def _cmd_oracle(args) -> int:
    instance = Instance.load(args.instance)
    omega = ArrivalSequence.load(args.omega)
    sol = hindsight_optimum(instance, omega, backend=args.oracle_backend)
    print(f"objective={sol.objective:.10g} gap={sol.gap:.3g} backend={sol.backend}")
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "offline_consumption.csv")
    cons = sol.consumption_by_epoch()
    avg = cons / instance.epoch_periods[:, None]
    with open(path, "w") as fh:
        fh.write("epoch,resource,consumption,running_avg,target\n")
        for (k, i), c in np.ndenumerate(cons):
            fh.write(f"{k + 1},{i + 1},{c:.10g},{avg[k, i]:.10g},{instance.targets[k, i]:.10g}\n")
    print(f"wrote {path}")
    return 0 if sol.gap <= args.gap_tol else 2


def _cmd_mle(args) -> int:
    obs = AggregateObservation.from_csv(args.observations)
    res = estimate_gumbel_mle(obs, n_types=args.n_types, restarts=args.restarts,
                              iters=args.iters, step=args.step, seed=args.seed)
    print(f"log_likelihood={res.log_likelihood:.6g} degenerate={res.degenerate}")
    for j in range(res.locations.shape[0]):
        locs = " ".join(f"{v:.4f}" for v in res.locations[j])
        print(f"type {j + 1}: p={res.probs[j]:.4f} locations=[{locs}]")
    return 0


def _cmd_transform(args) -> int:
    instance = Instance.load(args.instance)
    profile = NonstatProfile(np.asarray(args.fractions), mode=args.mode)
    new = nonstationary_transform(instance, profile)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "instance_stationary.json")
    new.save(path)
    print(f"K={instance.K} -> K_new={new.K}; wrote {path}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "mle": _cmd_mle,
    "transform": _cmd_transform,
}


if __name__ == "__main__":
    raise SystemExit(main())
