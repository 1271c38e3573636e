"""Online control policies for throughput-constrained allocation.

Every policy is a pure function ``(instance, arrivals, config) -> RunResult``;
identical inputs produce identical runs. The policies are:

* :func:`run_proxy_dual_gd` -- dual gradient descent with proxy assignments,
  one shadow-price row per epoch, future-epoch proxy decisions, a coupled
  idealized-consumption solve, and a per-epoch dual reset.
* :func:`run_single_epoch_dgd` -- the single-epoch dual gradient descent
  loop (assign / idealize / price-update); the K = 1 special case.
* :func:`run_myopic` -- per-epoch single-epoch runs driven by epoch-local
  targets (variants ``me`` and ``smart-me``).
* :func:`run_naive_primal_dual` -- one dual matrix, all future rows summed
  into the assignment price, per-row independent idealized consumption,
  no per-epoch reset.
* :func:`run_greedy` -- minimum-cost assignment, ignoring targets.

Tie-breaking everywhere: among minimizing resources the lowest index wins,
and an arrival is assigned rather than rejected when the best adjusted cost
is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    REJECT,
    ArrivalSequence,
    Instance,
    deviation_cost_from_snapshots,
)
from .solver import chain_prefix_argmin, dev_price_table, min_dev_plus_price
from .solver import solve_box_convex  # noqa: F401 -- perfbench's tracer wraps this name here

PROXY_NA = -2  # proxy slot for epochs already in the past


@dataclass(frozen=True)
class PolicyConfig:
    """Hyperparameters shared by the dual-descent policies.

    ``eta`` overrides the default stepsize ``eta_mult * sqrt(K / T)``.
    ``mu_init`` is the initial (K, m) shadow-price matrix (zeros when
    omitted); single-row policies use the row of their current epoch.
    """

    eta: Optional[float] = None
    eta_mult: float = 1.0
    mu_init: Optional[np.ndarray] = None

    def stepsize(self, K: int, T: int) -> float:
        if self.eta is not None:
            if self.eta <= 0:
                raise ValueError("stepsize must be positive")
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
    policy fills it.
    """

    policy: str
    eta: float
    arrivals: ArrivalSequence
    decisions: np.ndarray
    mu_trace: np.ndarray
    a_trace: np.ndarray
    proxy_decisions: Optional[np.ndarray]
    epoch_consumption: np.ndarray
    by_type_final: np.ndarray
    assignment_cost: float
    deviation_cost: float
    total_cost: float
    running_avg: np.ndarray
    abs_deviation: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def proxy_assign(cost_vector: np.ndarray, feasible: np.ndarray, dual_row: np.ndarray) -> int:
    """Dual-adjusted assignment decision for one arrival and one price row.

    Returns the feasible resource minimizing ``c_i - mu_i`` when that minimum
    is <= 0 (rejecting costs exactly 0), otherwise ``REJECT``.
    """
    adj = np.where(feasible, cost_vector - dual_row, np.inf)
    i = int(np.argmin(adj))
    return i if adj[i] <= 0.0 else REJECT


def ogd_update(mu_row: np.ndarray, a_row: np.ndarray, x_row: np.ndarray, eta: float) -> np.ndarray:
    """One online gradient step ``mu + eta * (a - x)``, componentwise."""
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
    solved by the prefix-variable dynamic program :func:`chain_prefix_argmin`.
    """
    K, m = instance.K, instance.m
    duals = np.asarray(duals, dtype=float)
    R = K - epoch
    if duals.shape != (R, m):
        raise ValueError(f"expected duals of shape {(R, m)}")
    prior = np.asarray(prior_consumption, dtype=float)
    limit = epoch * instance.epoch_len
    if np.any(prior > limit + 1e-9):
        raise ValueError("prior consumption exceeds the periods elapsed")
    return _aux_solve(instance, epoch, duals, prior)


def _aux_solve(instance, epoch, duals, prior):
    K, m = instance.K, instance.m
    R = K - epoch
    grid = instance.dev_grid
    x_units = prior * K / instance.T
    weights = np.arange(epoch + 1, K + 1, dtype=float)       # 1-based epoch numbers
    tau = weights[:, None] * instance.targets[epoch:] - x_units[None, :]
    nu = duals.copy()
    nu[:-1] -= duals[1:]
    dp = grid.d_plus[epoch:]
    dm = grid.d_minus[epoch:]
    # a squared stage in prefix units: w d ((x + s) / w - rho)^2 = (d / w) (s - tau)^2
    curv = np.where(grid.is_squared[epoch:], dp, 0.0) / weights[:, None]
    a = np.empty((R, m))
    for i in range(m):
        a[:, i] = chain_prefix_argmin(tau[:, i], dp[:, i], dm[:, i], nu[:, i], curv[:, i])
    return a


def _zero_penalty_tail(instance: Instance) -> np.ndarray:
    """(K, m) mask: True where no deviation penalty acts on the coordinate's
    row or any later row, so the aux objective is flat in it whenever its
    price is zero."""
    free = (instance.dev_grid.d_plus == 0.0) & (instance.dev_grid.d_minus == 0.0)
    return np.logical_and.accumulate(free[::-1], axis=0)[::-1]


def _pin_flat(a: np.ndarray, x_ind: np.ndarray, mu: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Among minimizers of a flat coordinate pick the implemented decision,
    which keeps a penalty-free coordinate's price at zero."""
    mask = flat & (mu == 0.0)
    if mask.any():
        a = a.copy()
        a[mask] = x_ind[mask]
    return a


def _arrival(instance, arrivals, t):
    if arrivals.types is not None:
        j = int(arrivals.types[t])
        return j, instance.costs[j], instance.feasible[j]
    return -1, arrivals.cost_vectors[t], _ALL_TRUE.setdefault(instance.m, np.ones(instance.m, dtype=bool))


_ALL_TRUE: dict[int, np.ndarray] = {}


def _finalize(policy, instance, arrivals, eta, decisions, mu_trace, a_trace,
              proxy_dec, snapshots, by_type, assignment, diagnostics):
    snapshots = np.asarray(snapshots, dtype=np.int64)
    deviation = deviation_cost_from_snapshots(instance, snapshots)
    periods = (np.arange(1, instance.K + 1) * instance.epoch_len)[:, None]
    running = snapshots / periods
    return RunResult(
        policy=policy,
        eta=eta,
        arrivals=arrivals,
        decisions=decisions,
        mu_trace=mu_trace,
        a_trace=a_trace,
        proxy_decisions=proxy_dec,
        epoch_consumption=snapshots,
        by_type_final=by_type,
        assignment_cost=float(assignment),
        deviation_cost=float(deviation),
        total_cost=float(assignment) + float(deviation),
        running_avg=running,
        abs_deviation=np.abs(running - instance.targets),
        diagnostics=diagnostics,
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
    config = config or PolicyConfig()
    arrivals.validate_for(instance)
    T, K, m, n = instance.T, instance.K, instance.m, instance.n
    step = instance.epoch_len
    eta = config.stepsize(K, T)
    mu_init = config.initial_duals(K, m)
    mu = mu_init.copy()

    decisions = np.full(T, REJECT, dtype=np.int16)
    proxy_dec = np.full((T, K), PROXY_NA, dtype=np.int16)
    mu_trace = np.zeros((T + 1, K, m))
    a_trace = np.zeros((T, K, m))
    totals = np.zeros(m, dtype=np.int64)
    by_type = np.zeros((max(n, 1), m), dtype=np.int64)
    snapshots = []
    assignment = 0.0
    x_prev = np.zeros(m)
    flat_tail = _zero_penalty_tail(instance)

    for t in range(T):
        k = t // step
        if t % step == 0:
            mu[k:] = mu_init[k:]
            x_prev = totals.astype(float)
        mu_trace[t] = mu
        j, cvec, feas = _arrival(instance, arrivals, t)

        adj = np.where(feas, cvec[None, :] - mu[k:], np.inf)
        args = adj.argmin(axis=1)
        best = adj[np.arange(K - k), args]
        proxies = np.where(best <= 0.0, args, REJECT)
        proxy_dec[t, k:] = proxies

        x = int(proxies[0])
        decisions[t] = x
        if x != REJECT:
            totals[x] += 1
            by_type[max(j, 0), x] += 1
            assignment += float(cvec[x])

        x_ind = np.zeros((K - k, m))
        live = proxies != REJECT
        x_ind[np.flatnonzero(live), proxies[live]] = 1.0

        a = _aux_solve(instance, k, mu[k:], x_prev)
        a = _pin_flat(a, x_ind, mu[k:], flat_tail[k:])
        a_trace[t, k:] = a

        mu[k:] += eta * (a - x_ind)

        if (t + 1) % step == 0:
            snapshots.append(totals.copy())
    mu_trace[T] = mu
    return _finalize("proxy-dgd", instance, arrivals, eta, decisions, mu_trace,
                     a_trace, proxy_dec, snapshots, by_type, assignment, {})


def _dev_row_arrays(instance, epoch, targets_row):
    grid = instance.dev_grid
    return (grid.is_squared[epoch], targets_row, grid.d_plus[epoch], grid.d_minus[epoch])


def _single_row_loop(instance, arrivals, t0, t1, row, dev_row, mu0, eta,
                     decisions, mu_trace, a_trace, totals, by_type, state):
    """Single-epoch dynamics over periods [t0, t1) using dual row ``row`` of the trace."""
    is_sq, tgt, dpl, dmi = dev_row
    flat = (dpl == 0.0) & (dmi == 0.0)
    table = dev_price_table(is_sq, tgt, dpl, dmi)
    mu = mu0.copy()
    assignment = 0.0
    for t in range(t0, t1):
        mu_trace[t, row] = mu
        j, cvec, feas = _arrival(instance, arrivals, t)
        adj = np.where(feas, cvec - mu, np.inf)
        i = int(np.argmin(adj))
        x = i if adj[i] <= 0.0 else REJECT
        decisions[t] = x
        x_ind = np.zeros(instance.m)
        if x != REJECT:
            totals[x] += 1
            by_type[max(j, 0), x] += 1
            assignment += float(cvec[x])
            x_ind[x] = 1.0
        a = min_dev_plus_price(table, mu)
        a = _pin_flat(a, x_ind, mu, flat)
        a_trace[t, row] = a
        mu = mu + eta * (a - x_ind)
    state["mu"] = mu
    return assignment


def run_single_epoch_dgd(instance: Instance, arrivals: ArrivalSequence,
                         config: Optional[PolicyConfig] = None) -> RunResult:
    """Single-epoch dual gradient descent (requires K = 1).

    Assign at the dual-adjusted cost, idealize consumption against the
    deviation penalty plus the current price, then take an OGD step.
    """
    if instance.K != 1:
        raise ValueError("single-epoch policy requires an instance with one epoch")
    config = config or PolicyConfig()
    arrivals.validate_for(instance)
    T, m, n = instance.T, instance.m, instance.n
    eta = config.stepsize(1, T)
    mu0 = config.initial_duals(1, m)[0]

    decisions = np.full(T, REJECT, dtype=np.int16)
    mu_trace = np.zeros((T + 1, 1, m))
    a_trace = np.zeros((T, 1, m))
    totals = np.zeros(m, dtype=np.int64)
    by_type = np.zeros((max(n, 1), m), dtype=np.int64)
    state: dict = {}
    assignment = _single_row_loop(instance, arrivals, 0, T, 0,
                                  _dev_row_arrays(instance, 0, instance.dev_grid.target[0]),
                                  mu0, eta, decisions, mu_trace, a_trace, totals, by_type, state)
    mu_trace[T, 0] = state["mu"]
    return _finalize("single-epoch-dgd", instance, arrivals, eta, decisions, mu_trace,
                     a_trace, None, [totals.copy()], by_type, assignment, {})


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


def run_myopic(instance: Instance, arrivals: ArrivalSequence,
               config: Optional[PolicyConfig] = None, variant: str = "smart-me") -> RunResult:
    """Myopic benchmark: an independent single-epoch run per epoch.

    Each epoch runs the single-epoch loop over its ``T/K`` periods against
    epoch-local targets (see :func:`myopic_epoch_targets`) built from the
    epoch's own deviation families, with the shadow price re-initialized at
    every epoch start. Costs are still scored against the true cumulative
    targets of the instance.
    """
    config = config or PolicyConfig()
    arrivals.validate_for(instance)
    T, K, m, n = instance.T, instance.K, instance.m, instance.n
    step = instance.epoch_len
    eta = config.stepsize(K, T)
    mu_init = config.initial_duals(K, m)

    decisions = np.full(T, REJECT, dtype=np.int16)
    mu_trace = np.zeros((T + 1, K, m))
    a_trace = np.zeros((T, K, m))
    totals = np.zeros(m, dtype=np.int64)
    by_type = np.zeros((max(n, 1), m), dtype=np.int64)
    snapshots = []
    assignment = 0.0
    for k in range(K):
        tilde = myopic_epoch_targets(instance, k, variant, totals)
        state: dict = {}
        assignment += _single_row_loop(instance, arrivals, k * step, (k + 1) * step, k,
                                       _dev_row_arrays(instance, k, tilde),
                                       mu_init[k], eta, decisions, mu_trace, a_trace,
                                       totals, by_type, state)
        mu_trace[(k + 1) * step, k] = state["mu"]
        snapshots.append(totals.copy())
    return _finalize(variant, instance, arrivals, eta, decisions, mu_trace,
                     a_trace, None, snapshots, by_type, assignment, {})


def run_naive_primal_dual(instance: Instance, arrivals: ArrivalSequence,
                          config: Optional[PolicyConfig] = None) -> RunResult:
    """Naive primal-dual control with one persistent dual matrix.

    The assignment price for an arrival in epoch ``k`` sums the dual rows of
    all remaining epochs; idealized consumptions are computed per remaining
    row independently (``argmin g_ki(a) + mu_ki a``); every remaining row
    then steps toward its own idealized consumption against the single
    implemented decision. No per-epoch reset.
    """
    config = config or PolicyConfig()
    arrivals.validate_for(instance)
    T, K, m, n = instance.T, instance.K, instance.m, instance.n
    step = instance.epoch_len
    eta = config.stepsize(K, T)
    mu = config.initial_duals(K, m)
    grid = instance.dev_grid
    flat_rows = (grid.d_plus == 0.0) & (grid.d_minus == 0.0)

    decisions = np.full(T, REJECT, dtype=np.int16)
    mu_trace = np.zeros((T + 1, K, m))
    a_trace = np.zeros((T, K, m))
    totals = np.zeros(m, dtype=np.int64)
    by_type = np.zeros((max(n, 1), m), dtype=np.int64)
    snapshots = []
    assignment = 0.0
    for t in range(T):
        k = t // step
        if t % step == 0:
            table = dev_price_table(grid.is_squared[k:], grid.target[k:],
                                    grid.d_plus[k:], grid.d_minus[k:])
        mu_trace[t] = mu
        j, cvec, feas = _arrival(instance, arrivals, t)
        price = mu[k:].sum(axis=0)
        adj = np.where(feas, cvec - price, np.inf)
        i = int(np.argmin(adj))
        x = i if adj[i] <= 0.0 else REJECT
        decisions[t] = x
        x_ind = np.zeros(m)
        if x != REJECT:
            totals[x] += 1
            by_type[max(j, 0), x] += 1
            assignment += float(cvec[x])
            x_ind[x] = 1.0
        a = min_dev_plus_price(table, mu[k:])
        a = _pin_flat(a, np.broadcast_to(x_ind, (K - k, m)), mu[k:], flat_rows[k:])
        a_trace[t, k:] = a
        mu[k:] += eta * (a - x_ind[None, :])
        if (t + 1) % step == 0:
            snapshots.append(totals.copy())
    mu_trace[T] = mu
    return _finalize("naive-pd", instance, arrivals, eta, decisions, mu_trace,
                     a_trace, None, snapshots, by_type, assignment, {})


def run_greedy(instance: Instance, arrivals: ArrivalSequence,
               config: Optional[PolicyConfig] = None) -> RunResult:
    """Assign each arrival to its cheapest feasible resource when that cost
    is nonpositive, otherwise reject; targets are ignored entirely."""
    arrivals.validate_for(instance)
    T, K, m, n = instance.T, instance.K, instance.m, instance.n
    step = instance.epoch_len
    zeros = np.zeros(m)
    decisions = np.full(T, REJECT, dtype=np.int16)
    totals = np.zeros(m, dtype=np.int64)
    by_type = np.zeros((max(n, 1), m), dtype=np.int64)
    snapshots = []
    assignment = 0.0
    for t in range(T):
        j, cvec, feas = _arrival(instance, arrivals, t)
        x = proxy_assign(cvec, feas, zeros)
        decisions[t] = x
        if x != REJECT:
            totals[x] += 1
            by_type[max(j, 0), x] += 1
            assignment += float(cvec[x])
        if (t + 1) % step == 0:
            snapshots.append(totals.copy())
    return _finalize("greedy", instance, arrivals, 0.0, decisions,
                     np.zeros((T + 1, K, m)), np.zeros((T, K, m)), None,
                     snapshots, by_type, assignment, {})


POLICIES = {
    "proxy-dgd": run_proxy_dual_gd,
    "single-epoch-dgd": run_single_epoch_dgd,
    "me": lambda inst, om, cfg=None: run_myopic(inst, om, cfg, variant="me"),
    "smart-me": lambda inst, om, cfg=None: run_myopic(inst, om, cfg, variant="smart-me"),
    "naive-pd": run_naive_primal_dual,
    "greedy": run_greedy,
}
