"""Offline benchmarks for throughput-constrained allocation.

Three related convex programs are solved here, all sharing one structure:
pick fractional assignment counts over a window of epochs, subject to
per-epoch arrival availability, minimizing assignment cost plus the scaled
deviation penalties evaluated at cumulative average consumption.

* :func:`hindsight_optimum` -- the full-horizon benchmark (window = all
  epochs, availability = realized arrivals per epoch).
* :func:`myopic_offline` -- one epoch in isolation, conditioned on prior
  consumption.
* :func:`proxy_offline` -- epochs ``k..K`` with every future epoch's
  arrivals assumed identical to epoch ``k``'s.

Two backends: ``exact-lp`` reformulates piecewise-linear deviation costs
with epigraph variables and solves the resulting LP (the fractional
relaxation) with HiGHS. It reports gap 0, which holds to HiGHS's tolerances
(about 1e-7); certifying each solve from its own duals is ROADMAP item 3.
``dual-subgradient`` ascends the Lagrangian dual with exact inner
minimizations, recovers a feasible primal by averaging, and reports the
primal-dual gap as its certificate. Its deviation-price table
(:func:`~flowtarget.solver.dev_price_table`) and every other price-free
array are built once per solve, so each dual step only prices them, and
the bookkeeping that no step reads (dual values, the best multipliers, the
primal values) runs over blocks of :data:`DUAL_BLOCK` steps. A
brute-force enumerator over integral assignment sequences serves as the
test oracle on tiny instances. Every deviation charge here is
:meth:`~flowtarget.core.DevGrid.charge`, at ``core``'s epoch-end periods.

Each dual step works on ``(cells, m)`` arrays of a few columns, where
numpy's fancy indexing, boolean masks and short-axis reductions cost more
than the arithmetic they do. The backend therefore gathers and scatters
with ``take``, ``put`` and assignments at flat indices computed once per
solve. With fewer than 8 columns it sums each row column by column: numpy
adds rows that short left to right, so the sums are the same. From 8
entries on numpy sums pairwise, so longer rows keep the row sum. The
step's scalars (``c / sqrt(s)`` and the norms) are ``math.sqrt`` of Python
floats, which rounds as ``np.sqrt`` does without its per-call cost, and the
per-epoch and per-cell operands of a step's arithmetic are stored at the
step arrays' full shape, because broadcasting costs more than the
arithmetic here; each element's operation is the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .core import REJECT, ArrivalSequence, Instance, check_prior, integer_array
from .solver import dev_price_table, min_dev_plus_price, project_simplex

EXACT_LP = "exact-lp"
DUAL_SUBGRADIENT = "dual-subgradient"
BRUTE_FORCE = "brute-force"

AVAILABILITY_TOL = 1e-9
# Dual-backend steps whose bookkeeping runs as one batch. It bounds the
# stored per-step arrays: batching a whole 1,000-step round raised the peak
# memory of a continuous T = 600 benchmark run from 99 to 161 MB.
DUAL_BLOCK = 32
# The dual backend's base ascent step and gap exit, gap <= GAP_ABS + GAP_REL |primal|.
DUAL_STEP, GAP_REL, GAP_ABS = 2.0, 1e-7, 1e-9


class UnsupportedFamilyError(ValueError):
    """Raised when the exact LP backend meets a non-piecewise-linear family."""


class OracleInternalError(RuntimeError):
    """The LP reported infeasibility, which the model construction rules out."""


@dataclass(eq=False)
class OfflineSolution:
    """A solved offline benchmark.

    ``counts[j, i, k]`` are fractional assignment counts per type, resource,
    and epoch (zeros outside the solved window; in continuous mode the
    pseudo-types are the individual arrivals of the solved window).
    ``objective`` is a feasible primal value; ``dual_bound`` a certified
    lower bound, with ``gap = objective - dual_bound`` (reported as 0 for
    the exact LP, whose solve is exact to HiGHS's tolerances).
    """

    counts: np.ndarray
    objective: float
    backend: str
    gap: float
    dual_bound: float
    window_start: int = 0
    integral: bool = False

    def consumption_by_epoch(self) -> np.ndarray:
        """Cumulative per-resource consumption at each epoch end, (K, m)."""
        per_epoch = self.counts.sum(axis=0).T  # (K, m)
        return np.cumsum(per_epoch, axis=0)


def _window_problem(instance: Instance, omega: ArrivalSequence | np.ndarray,
                    window: list[int], proxy_future: bool
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common data for the windowed programs.

    ``omega`` must be aligned to the window: its first entry is the first
    period of ``window[0]``, covering one epoch when ``proxy_future`` (whose
    arrivals every window epoch then reuses) and the whole window otherwise.
    Returns ``(costs, feasible, caps)`` where rows index effective types
    (real types in discrete mode, individual arrivals in continuous mode)
    and ``caps[j, w]`` is the availability of type ``j`` in window epoch
    ``w``.
    """
    W = len(window)
    step = instance.epoch_len
    need = step if proxy_future else W * step
    if isinstance(omega, ArrivalSequence) and omega.continuous:
        costs = omega.cost_vectors
        feas = np.ones(costs.shape, dtype=bool)
        types = np.arange(costs.shape[0])  # arrival t is pseudo-type t
    else:
        costs, feas = instance.costs, instance.feasible
        types = omega.types if isinstance(omega, ArrivalSequence) else np.asarray(omega, dtype=np.int64)
    if len(types) != need:
        raise ValueError(f"expected {need} arrivals for this window, got {len(types)}")
    if proxy_future:
        types = np.tile(types, W)
    n = costs.shape[0]
    caps = np.bincount(types * W + np.arange(W * step) // step, minlength=n * W).reshape(n, W)
    return costs, feas, caps


def _solve_exact_lp(instance, costs, feas, caps, window, prior):
    """Epigraph LP over the window; piecewise-linear families only.

    Variables: the counts ``z[j, w, i]`` of every available (type, window
    epoch) pair and feasible resource, in (j, w, i) order, then one epigraph
    variable ``u[w, i]`` per penalized cell, in (w, i) order. Rows: one
    availability row per (j, w) pair with a variable, in (j, w) order, then
    two epigraph rows per penalized cell, ``u >= d+ (avg - target)`` before
    ``u >= d- (target - avg)``; a zero-weight side degenerates to
    ``u >= 0``, which keeps one-sided penalties exact.
    """
    grid, dens = instance.dev_grid.rows(window), instance.epoch_periods[window]
    if grid.has_squared:
        raise UnsupportedFamilyError("exact-lp supports only piecewise-linear deviation families")
    n_eff, m = costs.shape
    W = len(window)
    jj, ww, ii = np.nonzero((caps[:, :, None] > 0) & feas[:, None, :])
    pw, pi = np.nonzero((grid.d_plus > 0) | (grid.d_minus > 0))
    n_z, n_u = len(jj), len(pw)
    if n_z + n_u == 0:
        # Nothing to decide: no assignable arrivals and no penalties.
        base = float(grid.charge(dens, prior[None, :] / dens[:, None]))
        return base, np.zeros((n_eff, m, instance.K))

    cells, avail_row = np.unique(jj * W + ww, return_inverse=True)
    n_a = len(cells)
    signed = np.stack([grid.d_plus[pw, pi], -grid.d_minus[pw, pi]], axis=1)  # (n_u, 2)
    coeff = signed / dens[pw, None]
    # epigraph row p holds the counts of resource pi[p] up to epoch pw[p]
    pp, kk = np.nonzero((ii == pi[:, None]) & (ww <= pw[:, None]))
    keep = coeff[pp] != 0.0
    u_rows = np.arange(2 * n_u)
    rows = np.concatenate([avail_row, (n_a + 2 * pp[:, None] + np.arange(2))[keep], n_a + u_rows])
    cols = np.concatenate([np.arange(n_z), np.broadcast_to(kk[:, None], keep.shape)[keep], n_z + u_rows // 2])
    vals = np.concatenate([np.ones(n_z), coeff[pp][keep], np.full(2 * n_u, -1.0)])
    rhs = np.concatenate([caps.ravel()[cells],
                          (signed * (grid.target[pw, pi] - prior[pi] / dens[pw])[:, None]).ravel()])
    a_ub = sparse.coo_matrix((vals, (rows, cols)), shape=(n_a + 2 * n_u, n_z + n_u)).tocsr()
    bounds = [(0, None)] * n_z + [(None, None)] * n_u
    res = linprog(c=np.concatenate([costs[jj, ii], dens[pw]]), A_ub=a_ub,
                  b_ub=rhs, bounds=bounds, method="highs")
    if res.status != 0:
        raise OracleInternalError(f"LP solver returned status {res.status}: {res.message}")
    z = np.zeros((n_eff, m, instance.K))
    z[jj, ii, np.asarray(window)[ww]] = res.x[:n_z]
    return float(res.fun), z


def _project_cell_simplex(v: np.ndarray) -> np.ndarray:
    """Project each row of ``v`` onto {s >= 0, sum(s) <= 1} (reject as slack):
    rows whose clipped sum is at most 1 are clipped at 0, the others go to
    :func:`~flowtarget.solver.project_simplex`. Rows of fewer than 8 entries
    are summed column by column, the order numpy adds them in (the module
    docstring says why)."""
    clipped = np.maximum(v, 0.0)
    m = v.shape[-1]
    if m < 8:
        total = clipped[:, 0]
        for k in range(1, m):
            total = total + clipped[:, k]
    else:
        total = clipped.sum(axis=-1)
    outside = (total > 1.0).nonzero()[0]
    if len(outside):
        clipped[outside] = project_simplex(v.take(outside, axis=0))
    return clipped


def _solve_dual_subgradient(instance, costs, feas, caps, window, prior,
                            iterations, step_scale, gap_rel, gap_abs,
                            recover_iters=2400):
    """Lagrangian dual ascent with exact inner solves and primal recovery.

    The dual bound comes from normalized diminishing ``c / sqrt(s)`` steps on
    the dual subgradient (multipliers of penalty-free coordinates stay 0,
    dropping vacuous constraints). A feasible primal is recovered by
    projected subgradient descent on the true convex objective over per-cell
    assignment shares, warm-started from the best average of the inner
    choices over doubling windows. The reported gap is best primal minus
    best dual.

    Everything runs on the available cells only, the (type, window epoch)
    pairs with ``caps > 0`` in (j, w) order: one per arrival in continuous
    mode. Per-epoch totals of assigned counts are integers, so a
    ``bincount`` sums them exactly; the per-epoch totals of fractional
    counts add each cell in type order, as an axis-0 sum does. The other
    float sums (the inner value, the polish's gradient norm and the
    assignment cost) scatter the cell values into a zeroed full-shape buffer
    and sum that, so numpy groups the terms exactly as it does on the full
    ``(n, W, m)`` problem. When every cell is available, the cell arrays
    already have that layout and are summed as they are.

    Each step runs only its serial core, what the next step reads: in the
    ascent the prices, each cell's cheapest option, the inner minimizer and
    the subgradient step; in the polish the subgradient, the projected step
    and the new averages. The rest is bookkeeping that no step reads until a
    round ends, and it runs over blocks of up to :data:`DUAL_BLOCK` stored
    steps, in step order: the dual values, the strict-``>`` pick of the best
    dual and its multipliers, the doubling-window sums of the inner choices
    (integer counts, so exact in any order) and the polish's objective
    values, scanned for the best value and the gap exit, with the steps
    after an exit discarded. Each stacked value is the same elementwise
    arithmetic as one step's, and each per-step total sums one contiguous
    row, which numpy groups as it groups the one step's array, so every
    output keeps its bits.

    The per-step arrays are ``(cells, m)`` with m small, a shape on which
    numpy's fancy indexing (``priced[ww]``, ``adj[cells, best_i]``,
    ``buf[:, rows] = ...``), boolean masks and row sums cost several times
    the arithmetic. So each step gathers with ``take``, zeroes the dead
    multipliers and infeasible shares with ``put`` at flat indices (skipped
    when there are none), and scatters into the full-layout buffers by
    assignment at flat positions; the indices are computed once per solve.
    The projection sums each row of fewer than 8 shares column by column,
    the order numpy adds such rows in; from 8 on numpy's pairwise sum
    groups them otherwise, so the row sum stays there.

    The polish sums its one-step norm over the full layout directly, the
    same contiguous row ``full_sums`` sums per step of a stack. The assigned
    counts are ``caps * (best_v <= 0)``: the availabilities are finite, so
    the product equals a ``where``, which the dual values keep because
    ``best_v`` is +inf on a cell with no feasible resource.
    """
    grid, dens = instance.dev_grid.rows(window), instance.epoch_periods[window]
    n_eff, m = costs.shape
    W = len(window)
    # full-shape copies of the broadcast operands (the module docstring says why)
    dens_wm = np.repeat(dens[:, None], m, axis=1)
    prior_wm = np.repeat(prior[None], W, axis=0)
    dead = np.flatnonzero(~((grid.d_plus > 0.0) | (grid.d_minus > 0.0)))  # flat, in a (W, m) array
    jj, ww = np.nonzero(caps > 0)
    n_cells = len(jj)
    rows = jj * W + ww  # each cell's row in the full (n * W, ...) layout
    whole = n_cells == n_eff * W  # the cell arrays already have the full layout
    ww_m = ww * m
    ww_rev = W - 1 - ww  # each cell's row in an array of epochs in reverse order
    cell_m = np.arange(n_cells) * m  # flat offset of each cell's row in a (cells, m) array
    caps_c = caps[jj, ww].astype(float)
    caps_cm = np.repeat(caps_c[:, None], m, axis=1)
    cost_c = np.where(feas, costs, 0.0)[jj]
    cost_inf = np.where(feas, costs, np.inf)[jj]
    infeasible = np.flatnonzero(~feas[jj])  # flat, in a (cells, m) array
    cell_bins = (ww_m[:, None] + np.arange(m)).ravel()
    table = dev_price_table(grid.is_squared, grid.target, grid.d_plus, grid.d_minus)
    value_buf = np.zeros((DUAL_BLOCK, n_eff * W))
    full_buf = np.zeros((DUAL_BLOCK, n_eff * W, m))
    # flat positions of the cells in those buffers, step after step, so that
    # one assignment to a stack's first positions scatters its steps
    value_at = (np.arange(DUAL_BLOCK)[:, None] * (n_eff * W) + rows).ravel()
    full_at = (value_at[:, None] * m + np.arange(m)).ravel()
    full_flat0, full_at0 = full_buf[0].reshape(-1), full_at[:n_cells * m]  # one step's slab

    def full_sums(cell_values, buf, at):
        """Per-step totals of stacked ``(steps, cells, ...)`` values."""
        steps = len(cell_values)
        if not whole:
            buf.reshape(-1)[at[:cell_values.size]] = cell_values.ravel()
            cell_values = buf[:steps]
        return cell_values.reshape(steps, -1).sum(axis=1)

    def full_sum(cell_values):
        """Total of one step's ``(cells, m)`` values, summed as
        ``full_sums`` sums each step of a stack."""
        if whole:
            return cell_values.sum()
        full_flat0[full_at0] = cell_values.ravel()
        return full_flat0.sum()

    def averages(counts):
        per_epoch = np.bincount(cell_bins, weights=counts.ravel(), minlength=W * m)
        return (prior_wm + per_epoch.reshape(W, m).cumsum(axis=0)) / dens_wm

    def counts_values(counts, avgs):
        """Objective of stacked counts and their averages."""
        return full_sums(counts * cost_c, full_buf, full_at) + grid.charge(dens, avgs)

    def counts_value(counts):
        return float(counts_values(counts[None], averages(counts)[None])[0])

    best_dual = -np.inf
    best_mu = np.zeros((W, m))
    best_avg = None  # (value, counts)
    avg_counts = np.zeros((n_cells, m))
    avg_n = 0

    dual_rounds = 5
    per_round = max(iterations // dual_rounds, 1)
    step_r = step_scale
    s_total = 0
    stalled = False
    for _ in range(dual_rounds):
        if stalled or s_total >= iterations:
            break
        mu = best_mu.copy()
        s = 0
        while s < per_round and not stalled:
            block = []
            for s in range(s + 1, min(s + DUAL_BLOCK, per_round) + 1):
                # inner minimization: each cell's availability goes to its
                # cheapest price-adjusted option, or is rejected; the price
                # for epoch w sums rows >= w, row W - 1 - w of the reversed cumsum
                adj = cost_inf - mu[::-1].cumsum(axis=0).take(ww_rev, axis=0)
                best_i = adj.argmin(axis=1)
                best_v = adj.take(cell_m + best_i)
                took = caps_c * (best_v <= 0.0)  # count assigned to best_i
                per_cum = np.bincount(ww_m + best_i, weights=took,
                                      minlength=W * m).reshape(W, m).cumsum(axis=0)
                a_star = min_dev_plus_price(table, mu)
                block.append((mu, a_star, best_i, best_v, took))
                g = dens_wm * a_star - prior_wm - per_cum
                if len(dead):
                    g.put(dead, 0.0)
                norm = math.sqrt((g * g).sum())
                if norm == 0.0:
                    stalled = True
                    break
                mu = mu + (step_r / math.sqrt(s)) * (g / norm)

            mus, a_stars, best_is, best_vs, tooks = map(np.array, zip(*block))
            duals = full_sums(caps_c * np.where(best_vs <= 0.0, best_vs, 0.0), value_buf, value_at) \
                + (dens_wm * (grid.evaluate(a_stars) + mus * a_stars)).sum(axis=(1, 2)) \
                - (mus * prior_wm).sum(axis=(1, 2))
            for k, dual in enumerate(duals.tolist()):
                if dual > best_dual:
                    best_dual, best_mu = dual, mus[k]
            # doubling windows of the inner choices
            lo = 0
            for k in range(len(block)):
                s_total += 1
                window_end = s_total == iterations or s_total & (s_total - 1) == 0
                if window_end or k == len(block) - 1:
                    avg_counts += np.bincount((cell_m + best_is[lo:k + 1]).ravel(),
                                              weights=tooks[lo:k + 1].ravel(),
                                              minlength=n_cells * m).reshape(n_cells, m)
                    avg_n += k + 1 - lo
                    lo = k + 1
                if window_end:
                    cand = avg_counts / avg_n
                    val = counts_value(cand)
                    if best_avg is None or val < best_avg[0]:
                        best_avg = (val, cand)
                    if s_total < iterations:
                        avg_counts = np.zeros((n_cells, m))
                        avg_n = 0
            if stalled:
                counts = np.zeros((n_cells, m))
                counts.put(cell_m + best_i, took)
                val = counts_value(counts)
                if best_avg is None or val < best_avg[0]:
                    best_avg = (val, counts)
        step_r *= 0.3

    # Primal polish: descend the true objective over per-cell shares.
    best_primal, counts0 = best_avg
    shares = counts0 / caps_cm
    best_shares = shares.copy()
    rounds, step0 = 8, 0.5
    per_round = max(recover_iters // rounds, 1)
    done = best_primal - best_dual <= gap_abs + gap_rel * abs(best_primal)
    for _ in range(rounds):
        if done:
            break
        shares = best_shares.copy()
        avg = averages(caps_cm * shares)
        it = 0
        while it < per_round and not done:
            block = []
            for it in range(it + 1, min(it + DUAL_BLOCK, per_round) + 1):
                tail = grid.subgradient(avg)[::-1].cumsum(axis=0)  # sums over w' >= w, reversed
                grad = caps_cm * (cost_c + tail.take(ww_rev, axis=0))
                if len(infeasible):
                    grad.put(infeasible, 0.0)
                nrm = math.sqrt(full_sum(grad * grad))
                if nrm == 0.0:
                    done = True
                    break
                shares = _project_cell_simplex(shares - (step0 / math.sqrt(it)) * grad / nrm)
                if len(infeasible):
                    shares.put(infeasible, 0.0)
                counts = caps_cm * shares
                avg = averages(counts)
                block.append((shares, counts, avg))
            if not block:
                break
            kept, counts_b, avgs = zip(*block)
            for k, val in enumerate(counts_values(np.array(counts_b), np.array(avgs)).tolist()):
                if val < best_primal:
                    best_primal, best_shares = val, kept[k]
                if best_primal - best_dual <= gap_abs + gap_rel * abs(best_primal):
                    done = True
                    break
        step0 *= 0.3

    z = np.zeros((n_eff, m, instance.K))
    z[jj, :, np.asarray(window)[ww]] = caps_cm * best_shares
    return float(best_primal), float(best_dual), z


def _solve_window(instance, omega, window, prior, proxy_future, backend, dual_iters):
    costs, feas, caps = _window_problem(instance, omega, window, proxy_future)
    if backend == EXACT_LP:
        obj, z = _solve_exact_lp(instance, costs, feas, caps, window, prior)
        return OfflineSolution(z, obj, EXACT_LP, 0.0, obj, window_start=window[0])
    if backend == DUAL_SUBGRADIENT:
        if dual_iters < 1:
            raise ValueError(f"dual_iters must be at least 1, got {dual_iters}")
        primal, dual, z = _solve_dual_subgradient(
            instance, costs, feas, caps, window, prior,
            dual_iters, DUAL_STEP, GAP_REL, GAP_ABS)
        return OfflineSolution(z, primal, DUAL_SUBGRADIENT, primal - dual, dual,
                               window_start=window[0])
    raise ValueError(f"unknown oracle backend {backend!r}")


def hindsight_optimum(instance: Instance, omega: ArrivalSequence,
                      backend: str = EXACT_LP, dual_iters: int = 5000) -> OfflineSolution:
    """Benchmark with the full arrival sequence known upfront.

    Minimizes total assignment plus scaled deviation cost over fractional
    per-epoch assignment counts, subject to each type's realized arrivals per
    epoch. The fractional relaxation lower-bounds every feasible policy.
    ``dual_iters`` caps the dual backend's ascent steps, as in the two
    windowed benchmarks; its base step and gap exit are the constants
    ``DUAL_STEP``, ``GAP_REL`` and ``GAP_ABS``.
    """
    omega.validate_for(instance)
    window = list(range(instance.K))
    return _solve_window(instance, omega, window, np.zeros(instance.m), False,
                         backend, dual_iters)


def myopic_offline(instance: Instance, omega_k: ArrivalSequence | np.ndarray,
                   prior: np.ndarray, epoch: int, backend: str = EXACT_LP,
                   dual_iters: int = 5000) -> OfflineSolution:
    """Single-epoch benchmark conditioned on prior consumption ``prior``.

    ``omega_k`` holds only epoch ``epoch``'s arrivals (0-based epoch). Only
    that epoch's assignment and deviation costs are optimized.
    """
    prior = check_prior(instance, prior, epoch)
    return _solve_window(instance, _as_epoch_slice(instance, omega_k), [epoch],
                         prior, False, backend, dual_iters)


def proxy_offline(instance: Instance, omega_k: ArrivalSequence | np.ndarray,
                  prior: np.ndarray, epoch: int, backend: str = EXACT_LP,
                  dual_iters: int = 5000) -> OfflineSolution:
    """Benchmark over epochs ``epoch..K-1`` when every future epoch's arrivals
    are assumed identical to epoch ``epoch``'s (availability replicated)."""
    prior = check_prior(instance, prior, epoch)
    window = list(range(epoch, instance.K))
    return _solve_window(instance, _as_epoch_slice(instance, omega_k),
                         window, prior, True, backend, dual_iters)


def _as_epoch_slice(instance, omega_k):
    """Accept either an ArrivalSequence or a bare type array holding exactly
    one epoch of arrivals, each a type in ``[0, n)``."""
    if len(omega_k) != instance.epoch_len:
        raise ValueError("omega_k must hold exactly one epoch of arrivals")
    if isinstance(omega_k, ArrivalSequence):
        return omega_k
    arr = integer_array(omega_k, "omega_k types")
    if np.any(arr < 0) or np.any(arr >= instance.n):
        raise ValueError(f"omega_k types must lie in [0, {instance.n}), "
                         f"got {arr.min()} to {arr.max()}")
    return arr


def brute_force_offline(instance: Instance, omega: ArrivalSequence,
                        limit: float = 1e7, block: int = 1 << 17) -> OfflineSolution:
    """Exhaustive integral optimum over all assignment sequences.

    Refuses instances with ``(m + 1) ** T`` beyond ``limit``; intended as an
    independent test oracle on tiny instances only.
    """
    omega.validate_for(instance)
    if omega.continuous:
        raise ValueError("brute force enumerates typed arrivals only")
    T, K, m = instance.T, instance.K, instance.m
    if (m + 1) ** T > limit:
        raise ValueError(f"refusing enumeration: (m+1)^T = {(m + 1) ** T:.3g} exceeds {limit:.3g}")
    step = instance.epoch_len
    options = []
    opt_costs = []
    for t in range(T):
        j = int(omega.types[t])
        opts = [REJECT] + [int(i) for i in np.flatnonzero(instance.feasible[j])]
        options.append(np.asarray(opts, dtype=np.int16))
        opt_costs.append(np.asarray([0.0] + [float(instance.costs[j, i]) for i in opts[1:]]))
    bases = np.asarray([len(o) for o in options], dtype=np.int64)
    total = int(np.prod(bases))
    strides = np.append(np.cumprod(bases[:0:-1])[::-1], 1)  # strides[t] = prod(bases[t + 1:])
    periods = instance.epoch_periods
    best_val = np.inf
    best_dec = None
    for start in range(0, total, block):
        ids = np.arange(start, min(start + block, total), dtype=np.int64)
        dec = np.empty((len(ids), T), dtype=np.int16)
        cost = np.zeros(len(ids))
        for t in range(T):
            digit = (ids // strides[t]) % bases[t]
            dec[:, t] = options[t][digit]
            cost += opt_costs[t][digit]
        cum = (dec[:, :, None] == np.arange(m)).cumsum(axis=1, dtype=np.int16)[:, step - 1::step]
        vals = cost + instance.dev_grid.charge(periods, cum / periods[:, None])
        idx = int(np.argmin(vals))
        if vals[idx] < best_val:
            best_val = float(vals[idx])
            best_dec = dec[idx].copy()
    z = np.zeros((instance.n, m, K))
    took = np.flatnonzero(best_dec != REJECT)
    np.add.at(z, (omega.types[took], best_dec[took], took // step), 1.0)
    return OfflineSolution(z, best_val, BRUTE_FORCE, 0.0, best_val, integral=True)


def validate_solution(instance: Instance, omega: ArrivalSequence,
                      sol: OfflineSolution) -> None:
    """Check availability, feasibility-set, and nonnegativity invariants."""
    if np.any(sol.counts < -AVAILABILITY_TOL):
        raise AssertionError("negative assignment count")
    if omega.continuous:
        # sol.counts[t, i, k]: arrival t is available once, in its own epoch
        if np.any(sol.counts.sum(axis=(1, 2)) > 1.0 + AVAILABILITY_TOL):
            raise AssertionError("assignment counts exceed availability")
        away = np.arange(instance.K) != (np.arange(len(omega)) // instance.epoch_len)[:, None]
        if np.any(sol.counts.transpose(0, 2, 1)[away] > AVAILABILITY_TOL):
            raise AssertionError("assignment outside the arrival's epoch")
    else:
        for k in range(instance.K):
            lam = omega.type_counts(instance, k * instance.epoch_len, (k + 1) * instance.epoch_len)
            if np.any(sol.counts[:, :, k].sum(axis=1) > lam + AVAILABILITY_TOL):
                raise AssertionError("assignment counts exceed availability")
        if np.any(sol.counts[~instance.feasible, :] > AVAILABILITY_TOL):
            raise AssertionError("assignment outside the feasible set")


def _proxy_pass(instance: Instance, result) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over a proxy run's decisions: the (T, K) cost of every proxy
    decision (0 on a reject or a past epoch), the (K, K, m) counts per
    (decision epoch, target epoch, resource) and the (K, m) consumption
    realized before each epoch."""
    if result.proxy_decisions is None:
        raise ValueError("run result does not record proxy decisions")
    K, m = instance.K, instance.m
    dec = np.asarray(result.proxy_decisions, dtype=np.int64)
    epoch = np.arange(len(dec)) // instance.epoch_len
    tt, kk = np.nonzero(dec >= 0)  # rejects are -1, past epochs -2
    cost = np.zeros(dec.shape)
    cost[tt, kk] = result.arrivals.per_period(instance)[0][tt, dec[tt, kk]]
    counts = np.bincount((epoch[tt] * K + kk) * m + dec[tt, kk], minlength=K * K * m).reshape(K, K, m)
    return cost, counts.astype(float), np.vstack([np.zeros(m), result.epoch_consumption[:-1]])


def _left_sum(values: np.ndarray) -> float:
    """The entries of ``values`` added left to right from 0.0, as a scalar walk adds them."""
    return float(np.add.accumulate(np.append(0.0, values))[-1])


def _proxy_deviation(instance: Instance, z: np.ndarray, counts: np.ndarray, first: int) -> float:
    """Deviation penalties of epochs ``first..K-1`` when the per-epoch proxy
    ``counts`` are implemented on top of the consumption ``z``."""
    periods = instance.epoch_periods[first:]
    avg = (z + np.cumsum(counts, axis=0)) / periods[:, None]
    return float(instance.dev_grid.rows(slice(first, None)).charge(periods, avg))


def cumulative_proxy_cost(instance: Instance, result, epoch: int) -> float:
    """Proxy cost booked in epoch ``epoch``: assignment cost of every proxy
    decision made during the epoch (for the current and all future epochs),
    plus the deviation penalties of epochs ``>= epoch`` evaluated as if the
    cumulative proxy consumption were implemented on top of the consumption
    already realized when the epoch began."""
    if not 0 <= epoch < instance.K:
        raise ValueError(f"epoch must lie in [0, {instance.K}), got {epoch}")
    cost, counts, z = _proxy_pass(instance, result)
    booked = cost.reshape(instance.K, -1, instance.K)[epoch]
    return _left_sum(booked) + _proxy_deviation(instance, z[epoch], counts[epoch, epoch:], epoch)


def proxy_cost_decomposition(instance: Instance, result) -> dict:
    """The exact reconstruction of a proxy run's realized cost.

    Realized cost equals the summed per-epoch proxy costs minus the
    assignment costs of never-implemented proxy decisions minus the
    deviation costs those unimplemented decisions would have caused. Returns
    the three terms and their combination, from one pass over the decisions.
    """
    cost, counts, z = _proxy_pass(instance, result)
    K = instance.K
    proxy_total = sum(_left_sum(rows) + _proxy_deviation(instance, z[k], counts[k, k:], k)
                      for k, rows in enumerate(cost.reshape(K, -1, K)))
    future = np.arange(K) > (np.arange(len(cost)) // instance.epoch_len)[:, None]
    unimpl_assign = _left_sum(np.where(future, cost, 0.0))
    unimpl_dev = _left_sum([_proxy_deviation(instance, z[k], counts[k - 1, k:], k) for k in range(1, K)])
    return {
        "proxy_total": proxy_total,
        "unimplemented_assignment": unimpl_assign,
        "unimplemented_deviation": unimpl_dev,
        "reconstructed": proxy_total - unimpl_assign - unimpl_dev,
    }
