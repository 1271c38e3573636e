"""Online control policies for throughput-constrained allocation.

Every policy is a pure function ``(instance, arrivals, config) -> RunResult``;
identical inputs produce identical runs. All of them follow one primal-dual
template -- assign at the dual-adjusted cost, solve for the idealized
consumption, take an OGD step on the prices -- and one kernel,
:func:`_simulate`, runs it: it reads the stepsize and initial prices from
the :class:`PolicyConfig`, takes the proxy decisions of later epochs when
the policy records them, and takes every OGD step. A policy supplies only
an epoch-start hook (its live price rows, their idealized-consumption solve
and their penalty-free coordinates) and its assignment price row. A
period's state is a few price rows of at most K * m floats, where numpy's
fixed cost per call outweighs the arithmetic, so the kernel runs each
epoch's periods on Python floats and converts to and from arrays once per
epoch. The run's totals, per-type counts and epoch snapshots are accounted
once, after the loop, from the decisions by
:func:`flowtarget.core.replay_decisions`, and its deviation cost and
running averages come from one call of
:func:`flowtarget.core.deviation_charge`.

The policies are:

* :func:`run_proxy_dual_gd` -- dual gradient descent with proxy assignments,
  one shadow-price row per epoch, future-epoch proxy decisions, a coupled
  idealized-consumption solve, and a per-epoch dual reset. The solve's
  price-free inputs (a chain table of targets, penalty weights and
  curvatures per resource) are built once per epoch; each period only
  prices the table and solves every resource in one batch call of
  :func:`chain_prefix_argmin`.
* :func:`run_myopic` -- per-epoch single-epoch runs driven by epoch-local
  targets (variants ``me`` and ``smart-me``).
* :func:`run_single_epoch_dgd` -- the single-epoch dual gradient descent
  loop (assign / idealize / price-update): ``me`` at K = 1.
* :func:`run_naive_primal_dual` -- one dual matrix, all future rows summed
  into the assignment price, per-row independent idealized consumption,
  no per-epoch reset.
* :func:`run_greedy` -- minimum-cost assignment, ignoring targets.

Tie-breaking everywhere: among minimizing resources the lowest index wins,
and an arrival is assigned rather than rejected when the best adjusted cost
is exactly zero.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from operator import sub
from typing import Optional

import numpy as np

from .core import (
    REJECT,
    ArrivalSequence,
    Instance,
    check_prior,
    deviation_charge,
    replay_decisions,
)
from .solver import chain_prefix_argmin, dev_price_table, min_dev_plus_price
from .solver import solve_box_convex  # noqa: F401 -- perfbench's tracer wraps this name here

PROXY_NA = -2  # proxy slot for epochs already in the past


@dataclass(frozen=True)
class PolicyConfig:
    """Hyperparameters shared by the dual-descent policies.

    ``eta`` overrides the default stepsize ``eta_mult * sqrt(K / T)``; the
    one that is used must be positive and finite.
    ``mu_init`` is the initial (K, m) shadow-price matrix (zeros when
    omitted); single-row policies use the row of their current epoch.
    ``traces=False`` skips the per-period traces: the run's ``mu_trace``,
    ``a_trace`` and ``proxy_decisions`` are None, and its decisions, costs,
    consumptions and deviations are unchanged. Greedy reads only this field.
    """

    eta: Optional[float] = None
    eta_mult: float = 1.0
    mu_init: Optional[np.ndarray] = None
    traces: bool = True

    def stepsize(self, K: int, T: int) -> float:
        name, value = ("eta", self.eta) if self.eta is not None else ("eta_mult", self.eta_mult)
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.eta is not None:
            return float(self.eta)
        return self.eta_mult * float(np.sqrt(K / T))

    def initial_duals(self, K: int, m: int) -> np.ndarray:
        if self.mu_init is None:
            return np.zeros((K, m))
        mu = np.asarray(self.mu_init, dtype=float)
        if mu.shape != (K, m) or not np.all(np.isfinite(mu)):
            raise ValueError("mu_init must be a finite (K, m) matrix")
        return mu.copy()


@dataclass(eq=False)
class RunResult:
    """Full trace of one policy run.

    ``decisions[t]`` is the implemented resource (-1 = reject).
    ``mu_trace[t]`` is the (K, m) shadow-price matrix at the start of period
    ``t`` (after any epoch reset); ``mu_trace[T]`` is the final matrix.
    ``a_trace[t]`` holds the idealized average consumptions computed in
    period ``t`` (rows before the current epoch stay zero).
    ``proxy_decisions[t, k]`` is the proxy assignment made in period ``t``
    for epoch ``k`` (-1 = reject, -2 = epoch already past); only the proxy
    policy fills it. A run with ``PolicyConfig.traces`` off leaves all three
    traces None.
    """

    policy: str
    eta: float
    arrivals: ArrivalSequence
    decisions: np.ndarray
    mu_trace: Optional[np.ndarray]
    a_trace: Optional[np.ndarray]
    proxy_decisions: Optional[np.ndarray]
    epoch_consumption: np.ndarray
    by_type_final: np.ndarray
    assignment_cost: float
    deviation_cost: float
    total_cost: float
    running_avg: np.ndarray
    abs_deviation: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def proxy_assign(cost_vector, feasible, dual_row) -> int | list[int]:
    """Dual-adjusted assignment decision for one arrival.

    Returns the feasible resource minimizing ``c_i - mu_i`` when that minimum
    is <= 0 (rejecting costs exactly 0), otherwise ``REJECT``; among tied
    minimizers the lowest index wins. The inputs are arrays or lists of
    Python floats (and bools); a stacked (R, m) price matrix, or a list of R
    price rows, gives the list of the R rows' decisions.
    """
    if isinstance(dual_row, np.ndarray):
        cost_vector, feasible = np.asarray(cost_vector), np.asarray(feasible)
        if not cost_vector.shape == feasible.shape == dual_row.shape[-1:]:
            raise ValueError("cost_vector, feasible and each price row need one entry per resource")
        stacked = dual_row.ndim == 2
        cost_vector, feasible, dual_row = cost_vector.tolist(), feasible.tolist(), dual_row.tolist()
    else:
        stacked = not dual_row or isinstance(dual_row[0], list)  # m >= 1: [] has no rows
    cost = [c if ok else math.inf for c, ok in zip(cost_vector, feasible)]
    if stacked:
        return [_cheapest(cost, row) for row in dual_row]
    return _cheapest(cost, dual_row)


def _cheapest(cost: list, dual_row: list) -> int:
    """The pick of :func:`proxy_assign` for one price row, on lists whose
    ``cost`` is inf at the infeasible resources: the first index of the
    minimum adjusted cost when it is <= 0, else REJECT (the same pick as
    ``np.argmin``)."""
    adj = list(map(sub, cost, dual_row))
    best = min(adj)
    return adj.index(best) if best <= 0.0 else REJECT


def ogd_update(mu_row, a_row, x_row, eta: float):
    """One online gradient step ``mu + eta * (a - x)``, componentwise on
    arrays or on single floats."""
    return mu_row + eta * (a_row - x_row)


def idealized_consumption(
    instance: Instance,
    epoch: int,
    duals: np.ndarray,
    prior_consumption: np.ndarray,
) -> np.ndarray:
    """Idealized average consumption per remaining epoch and resource.

    Minimizes, over ``a`` in [0, 1]^{(K - epoch) x m},

        sum_{k' >= epoch} (k'+1) * sum_i g_{k'i}(prior_i / ((k'+1) T / K)
                                 + sum_{k''<=k'} a_{k'' i} / (k'+1))
        + sum_{k' >= epoch} sum_i duals_{k' i} * a_{k' i}

    (0-based epoch indices; the weight is the 1-based epoch number). The
    minimizer is exact for every deviation family: each resource's column is
    solved by the prefix-variable dynamic program :func:`chain_prefix_argmin`,
    on the same per-epoch chain table that :func:`run_proxy_dual_gd` builds
    once per epoch and prices every period.
    """
    K, m = instance.K, instance.m
    duals = np.asarray(duals, dtype=float)
    R = K - epoch
    if duals.shape != (R, m):
        raise ValueError(f"expected duals of shape {(R, m)}")
    if not np.all(np.isfinite(duals)):
        raise ValueError("duals must be finite")
    prior = check_prior(instance, prior_consumption, epoch, "prior_consumption")
    return np.array(_chain_solver(instance, epoch, prior)(duals.tolist()))


def _chain_solver(instance: Instance, epoch: int, prior: np.ndarray):
    """The idealized-consumption solve of the epochs ``epoch..K-1``, as a
    function of their price rows.

    The price-free inputs of :func:`chain_prefix_argmin` (lists of ``tau``,
    ``d+``, ``d-`` and curvature, one per resource column; curvature None
    when no stage is squared) depend on the consumption ``prior`` to the
    epoch's start only, so they are built once here and serve every period
    of the epoch. In prefix variables epoch ``q``'s price is
    ``nu_q = duals_q - duals_{q+1}`` (the last epoch's is its own row). Each
    call takes the price rows as lists of floats, solves every column in one
    batch call of ``chain_prefix_argmin`` and returns fresh lists of rows."""
    K = instance.K
    grid = instance.dev_grid
    x_units = prior * K / instance.T
    weights = np.arange(epoch + 1, K + 1, dtype=float)       # 1-based epoch numbers
    tau = weights[:, None] * instance.targets[epoch:] - x_units[None, :]
    dp = grid.d_plus[epoch:]
    dm = grid.d_minus[epoch:]
    # a squared stage in prefix units: w d ((x + s) / w - rho)^2 = (d / w) (s - tau)^2
    curv = np.where(grid.is_squared[epoch:], dp, 0.0) / weights[:, None]
    table = (tau.T.tolist(), dp.T.tolist(), dm.T.tolist(),
             curv.T.tolist() if (curv > 0.0).any() else None)

    def solve(duals: list) -> list:
        nu = [list(map(sub, col, col[1:])) + [col[-1]] for col in zip(*duals)]
        return [list(row) for row in zip(*chain_prefix_argmin(*table[:3], nu, table[3]))]

    return solve


def _simulate(policy, instance, arrivals, config, epoch_start, price=None,
              proxy=False, shown=None) -> RunResult:
    """The one per-period loop behind every policy, and the one place that
    runs the primal-dual template.

    The kernel reads the stepsize and the initial (K, m) price matrix from
    ``config`` (``PolicyConfig()`` when None) and traces the prices ``mu``
    at the start of every period. At the first period of epoch ``k``,
    ``epoch_start(k, totals, mu, mu_init)`` sees the per-resource
    consumption so far and the initial prices, may reset rows of ``mu``, and
    returns ``(rows, solve, penalty_free)``: the slice of the live rows of
    ``mu``, the map from their prices to their idealized consumptions (both
    lists of rows of floats; a fresh list each call, which the kernel may
    edit), and the mask of live coordinates that no deviation penalty acts
    on. Each period implements :func:`proxy_assign` at the price row
    ``price(live)`` of the live rows (the first live row, ``mu[k]``, when
    None). With ``proxy``, every live row instead takes its own proxy
    decision, in one call, recorded in ``proxy_decisions``; the first live
    row is ``mu[k]``, and its decision is implemented. Every live row then
    takes the step :func:`ogd_update` from the consumption of its decision
    toward its idealized consumption; among minimizers of a flat
    (penalty-free) coordinate the idealized consumption takes the
    decision's, which keeps that coordinate's zero price at zero.

    A period's state is a few rows of at most K * m floats, where numpy's
    fixed cost per call outweighs the arithmetic; so within an epoch the
    live prices, the period's costs and feasibility, the decisions and the
    idealized consumptions are Python lists of floats. The epoch's costs are
    converted once at its start, and its trace rows and decisions are
    written to their arrays once at its end. With ``config.traces`` off the
    run allocates no trace, and each epoch's price and consumption rows go
    to a sink that keeps nothing, so the loop itself is the same either way.

    Without ``epoch_start`` the run keeps zero prices and takes no step, so
    every decision is taken in one pass over the periods' cost arrays.
    ``shown()`` gives an optional (T + 1, K) mask of the trace rows the
    policy reports; the rest read 0. Run costs are accounted once, after the
    loop, from the decisions.
    """
    arrivals.validate_for(instance)
    T, K, m, step = instance.T, instance.K, instance.m, instance.epoch_len
    costs, feasible = arrivals.per_period(instance)
    config = config or PolicyConfig()
    traces = config.traces
    mu_trace = a_trace = proxy_dec = None
    if traces:
        mu_trace, a_trace = np.zeros((T + 1, K, m)), np.zeros((T, K, m))
        if proxy:
            proxy_dec = np.full((T, K), PROXY_NA, dtype=np.int16)
    if epoch_start is None:  # zero prices and no step: every decision in one pass
        eta = 0.0
        adj = np.where(feasible, costs, np.inf)
        decisions = np.where(adj.min(axis=1) <= 0.0, adj.argmin(axis=1), REJECT).astype(np.int16)
    else:
        eta, mu_init = config.stepsize(K, T), config.initial_duals(K, m)
        mu = mu_init.copy()
        # row x: decision x's use; REJECT (-1) reads the zero row
        consumed = [[float(i == x) for i in range(m)] for x in range(m)] + [[0.0] * m]
        decisions = np.full(T, REJECT, dtype=np.int16)
        etas = [eta] * m
        sink = deque(maxlen=0)
        for k in range(K):
            lo, hi = k * step, (k + 1) * step
            totals = np.bincount(decisions[:lo] + 1, minlength=m + 1)[1:]
            rows, solve, free = epoch_start(k, totals, mu, mu_init)
            live = mu[rows].tolist()
            flat = np.argwhere(free).tolist()
            mus, xs, a_rows = ([], [], []) if traces else (sink, [], sink)
            for cvec, feas in zip(costs[lo:hi].tolist(), feasible[lo:hi].tolist()):
                mus.append(live)
                if not proxy:
                    x = proxy_assign(cvec, feas, live[0] if price is None else price(live))
                    x_ind = [consumed[x]] * len(live)
                else:  # live[0] is mu[k]: its decision is the implemented one
                    x = proxy_assign(cvec, feas, live)
                    x_ind = [consumed[xr] for xr in x]
                xs.append(x)
                a = solve(live)
                for r, i in flat:
                    if live[r][i] == 0.0:
                        a[r][i] = x_ind[r][i]
                a_rows.append(a)
                live = [list(map(ogd_update, u, ai, xi, etas)) for u, ai, xi in zip(live, a, x_ind)]
            if traces:
                mu_trace[lo:hi] = mu
                mu_trace[lo:hi, rows] = mus
                a_trace[lo:hi, rows] = a_rows
                if proxy:
                    proxy_dec[lo:hi, rows] = xs
            mu[rows] = live
            decisions[lo:hi] = [x[0] for x in xs] if proxy else xs
        if traces:
            mu_trace[T] = mu
    if shown is not None and traces:
        mu_trace[~shown()] = 0.0
    state, assignment = replay_decisions(instance, arrivals, decisions)
    deviation, running = deviation_charge(instance, state.snapshots)
    return RunResult(
        policy=policy,
        eta=eta,
        arrivals=arrivals,
        decisions=decisions,
        mu_trace=mu_trace,
        a_trace=a_trace,
        proxy_decisions=proxy_dec,
        epoch_consumption=state.snapshots,
        by_type_final=state.by_type,
        assignment_cost=assignment,
        deviation_cost=deviation,
        total_cost=assignment + deviation,
        running_avg=running,
        abs_deviation=np.abs(running - instance.targets),
    )


def run_proxy_dual_gd(instance: Instance, arrivals: ArrivalSequence,
                      config: Optional[PolicyConfig] = None) -> RunResult:
    """Dual gradient descent with proxy assignments.

    Per period ``t`` in epoch ``k``: (i) at the first period of each epoch
    the shadow-price rows for the current and all future epochs are reset to
    their initial values -- this reset is part of the algorithm, not an
    implementation detail; (ii) a proxy assignment is computed for every
    epoch ``k' >= k`` from that epoch's price row, and the current epoch's
    proxy decision is implemented; (iii) idealized average consumptions for
    the remaining epochs are solved jointly; (iv) every remaining price row
    takes an OGD step toward reconciling its proxy decision with its
    idealized consumption.
    """
    # the coupled solve is flat in a coordinate only when no penalty acts
    # on its row or on any later row
    grid = instance.dev_grid
    free = (grid.d_plus == 0.0) & (grid.d_minus == 0.0)
    free = np.logical_and.accumulate(free[::-1], axis=0)[::-1]

    def epoch_start(k, totals, mu, mu_init):
        mu[k:] = mu_init[k:]
        return slice(k, None), _chain_solver(instance, k, totals.astype(float)), free[k:]

    return _simulate("proxy-dgd", instance, arrivals, config, epoch_start, proxy=True)


def run_single_epoch_dgd(instance: Instance, arrivals: ArrivalSequence,
                         config: Optional[PolicyConfig] = None) -> RunResult:
    """Single-epoch dual gradient descent (requires K = 1).

    Assign at the dual-adjusted cost, idealize consumption against the
    deviation penalty plus the current price, then take an OGD step. This is
    the ``me`` myopic policy at K = 1, whose one epoch-local target is the
    instance's target.
    """
    if instance.K != 1:
        raise ValueError("single-epoch policy requires an instance with one epoch")
    return replace(run_myopic(instance, arrivals, config, variant="me"), policy="single-epoch-dgd")


def myopic_epoch_targets(instance: Instance, epoch: int, variant: str,
                         prior_totals: np.ndarray) -> np.ndarray:
    """Epoch-local targets that translate a cumulative target into a
    within-epoch average, assuming either that all past targets were met
    (``me``) or using the actual past consumption (``smart-me``).

    The result is intentionally not clamped to [0, 1]; the idealized
    consumption step optimizes over the box regardless.
    """
    k1 = epoch + 1
    rho_k = instance.targets[epoch]
    if variant == "me":
        rho_prev = instance.targets[epoch - 1] if epoch > 0 else np.zeros(instance.m)
        return k1 * rho_k - (k1 - 1) * rho_prev
    if variant == "smart-me":
        return k1 * rho_k - np.asarray(prior_totals, dtype=float) / instance.epoch_len
    raise ValueError(f"unknown myopic variant {variant!r}")


def _dev_price_start(grid, rows, target):
    """Epoch start of the policies whose live rows each solve their own
    ``argmin g(a) + mu a`` (myopic and naive-pd): the live ``rows`` (a
    slice) of ``grid``, their solve against ``target`` and their
    penalty-free mask."""
    dp, dm = grid.d_plus[rows], grid.d_minus[rows]
    table = dev_price_table(grid.is_squared[rows], target, dp, dm)
    return rows, lambda mu: min_dev_plus_price(table, mu), (dp == 0.0) & (dm == 0.0)


def run_myopic(instance: Instance, arrivals: ArrivalSequence,
               config: Optional[PolicyConfig] = None, variant: str = "smart-me") -> RunResult:
    """Myopic benchmark: an independent single-epoch run per epoch.

    Each epoch runs single-epoch dual gradient descent on its own price row
    over its ``T/K`` periods, against epoch-local targets (see
    :func:`myopic_epoch_targets`) built from the epoch's own deviation
    families, with the row starting from its initial value. Costs are still
    scored against the true cumulative targets of the instance. The trace
    shows only the live row; a finished epoch's final row appears at the
    next epoch's first period.
    """
    T, step = instance.T, instance.epoch_len
    grid = instance.dev_grid

    def epoch_start(k, totals, *_):
        return _dev_price_start(grid, slice(k, k + 1), myopic_epoch_targets(instance, k, variant, totals))

    def shown():
        t = np.arange(T + 1)[:, None]
        lag = t // step - np.arange(instance.K)
        return (lag == 0) | ((lag == 1) & (t % step == 0))

    return _simulate(variant, instance, arrivals, config, epoch_start, shown=shown)


def run_naive_primal_dual(instance: Instance, arrivals: ArrivalSequence,
                          config: Optional[PolicyConfig] = None) -> RunResult:
    """Naive primal-dual control with one persistent dual matrix.

    The assignment price for an arrival in epoch ``k`` sums the dual rows of
    all remaining epochs; idealized consumptions are computed per remaining
    row independently (``argmin g_ki(a) + mu_ki a``); every remaining row
    then steps toward its own idealized consumption against the single
    implemented decision. No per-epoch reset.
    """
    grid = instance.dev_grid
    return _simulate("naive-pd", instance, arrivals, config,
                     lambda k, *_: _dev_price_start(grid, slice(k, None), grid.target[k:]),
                     price=_column_sums)


def _column_sums(rows: list) -> list:
    """Sum of the price rows, column by column from the first row (the
    order of numpy's axis-0 sum, not from the ``0`` that ``sum()`` starts
    with, which would turn a -0.0 column into +0.0)."""
    total = rows[0]
    for row in rows[1:]:
        total = [p + q for p, q in zip(total, row)]
    return total


def run_greedy(instance: Instance, arrivals: ArrivalSequence,
               config: Optional[PolicyConfig] = None) -> RunResult:
    """Assign each arrival to its cheapest feasible resource when that cost
    is nonpositive, otherwise reject; targets are ignored entirely, and of
    the config only ``traces`` is read."""
    return _simulate("greedy", instance, arrivals, config, epoch_start=None)


POLICIES = {
    "proxy-dgd": run_proxy_dual_gd,
    "single-epoch-dgd": run_single_epoch_dgd,
    "me": lambda inst, om, cfg=None: run_myopic(inst, om, cfg, variant="me"),
    "smart-me": lambda inst, om, cfg=None: run_myopic(inst, om, cfg, variant="smart-me"),
    "naive-pd": run_naive_primal_dual,
    "greedy": run_greedy,
}
