"""Small convex minimizers shared by the online policies and the offline oracles.

Four tools live here:

* :func:`solve_box_convex` -- generic projected subgradient descent over a
  box, with diminishing steps, warm starts, and best-iterate tracking (no
  policy uses it; acceptance criterion 10 certifies it on its own).
* :func:`dev_price_table` and :func:`min_dev_plus_price` -- exact
  minimizer of ``g(a) + price * a`` over ``a in [0, 1]`` for a grid of
  deviation costs (the per-period idealized-consumption step of the myopic
  and naive policies, and the inner minimization of the Lagrangian dual).
  The table holds the price-free part of the answer per cell and is built
  once per grid; each price then costs a closed form or a first minimum
  over three candidate points, on Python floats, for rows of prices given
  as lists or as an array.
* :func:`chain_prefix_argmin` -- exact minimizer of the coupled multi-epoch
  idealized-consumption objective for every deviation family, via a tiny
  dynamic program over prefix variables whose value-to-go functions are
  convex piecewise quadratic; one call solves one chain (an array of
  increments), or a batch of chains given as 2-D inputs (one resource
  column each, in the policies; a list of increment lists).
* :func:`project_simplex` -- the sort-and-threshold Euclidean projection
  onto the probability simplex (Duchi et al., ICML 2008), shared by the
  Gumbel MLE's type mix and the dual backend's per-cell shares.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


@dataclass
class BoxSolveResult:
    x: np.ndarray
    objective: float
    iterations: int
    converged: bool


def solve_box_convex(
    objective: Callable[[np.ndarray], float],
    subgrad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    lo: float = 0.0,
    hi: float = 1.0,
    budget: int = 2000,
    tol: float = 1e-9,
    rounds: int = 6,
    step0: float = 1.0,
) -> BoxSolveResult:
    """Projected subgradient descent on a convex objective over a box.

    Runs ``rounds`` sweeps of normalized diminishing steps
    ``step_r / sqrt(s)``, shrinking the base step between sweeps and warm
    starting each sweep from the incumbent, which gives kink-accurate best
    iterates on piecewise-linear objectives. Convergence is declared on a
    vanishing subgradient or when the final, finest sweep improves the
    incumbent by less than ``tol``; the best iterate found within the
    budget is returned either way.
    """
    # np.minimum(np.maximum(.)) gives np.clip's values without its wrapper's cost
    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lo), hi)
    best_x = x.copy()
    best_f = float(objective(x))
    per_round = max(budget // max(rounds, 1), 1)
    used = 0
    converged = False
    improvement = np.inf
    step_r = step0
    for _ in range(max(rounds, 1)):
        if used >= budget or converged:
            break
        f_enter = best_f
        x = best_x.copy()
        for s in range(1, per_round + 1):
            if used >= budget:
                break
            g = np.asarray(subgrad(x), dtype=float)
            norm = float(np.sqrt((g * g).sum()))
            used += 1
            if norm == 0.0:
                converged = True
                break
            x = np.minimum(np.maximum(x - (step_r / np.sqrt(s)) * (g / norm), lo), hi)
            f = float(objective(x))
            if f < best_f:
                best_f = f
                best_x = x.copy()
        improvement = f_enter - best_f
        step_r *= 0.3
    # Stagnation of a coarse sweep is not convergence; only the final,
    # finest sweep failing to improve certifies the incumbent.
    return BoxSolveResult(best_x, best_f, used, converged or improvement < tol)


class DevPriceTable(NamedTuple):
    """Price-free part of :func:`min_dev_plus_price` for one grid of cells.

    ``cells`` holds one tuple per cell, in C order: ``(target, 2 d+)`` for a
    squared cell with ``d+ > 0``, which takes the closed form, and otherwise
    ``(clip(target), g(0), g(clip(target)), g(1))``, the candidate points'
    penalties (zero for a squared cell with ``d+ = 0``, whose objective is
    the price term alone). ``rows`` holds the same tuples, one list per row
    of the grid's last axis.
    """

    cells: list
    rows: list

    @property
    def only_squared(self) -> bool:
        """Every cell is squared with ``d+ > 0``: the closed form answers
        everywhere."""
        return all(len(cell) == 2 for cell in self.cells)


def dev_price_table(is_squared: np.ndarray, target: np.ndarray,
                    d_plus: np.ndarray, d_minus: np.ndarray) -> DevPriceTable:
    """Build the table that :func:`min_dev_plus_price` prices; the inputs
    broadcast to the grid's shape, which has at least one axis."""
    is_squared, target, d_plus, d_minus = np.broadcast_arrays(is_squared, target, d_plus, d_minus)
    tgt = np.clip(target, 0.0, 1.0)
    gap = np.stack([np.zeros_like(tgt), tgt, np.ones_like(tgt)]) - target
    dev_pts = d_plus * np.maximum(gap, 0.0) + d_minus * np.maximum(-gap, 0.0)
    linear = np.stack([tgt, *np.where(is_squared, 0.0, dev_pts)], axis=-1)
    closed = np.stack([target, 2.0 * d_plus], axis=-1)
    cells = [tuple(sq if use_sq else lin) for use_sq, sq, lin in
             zip((is_squared & (d_plus > 0)).ravel().tolist(),
                 closed.reshape(-1, 2).tolist(), linear.reshape(-1, 4).tolist())]
    width = target.shape[-1]
    return DevPriceTable(cells, [cells[i:i + width] for i in range(0, len(cells), width)])


def min_dev_plus_price(table: DevPriceTable, price):
    """Exact argmin over [0, 1] of ``g(a) + price * a``, elementwise.

    Piecewise-linear families are minimized at one of {0, clip(target), 1};
    the squared family has the closed form ``clip(target - price / (2 d))``.
    Ties go to the smallest candidate, so a flat objective returns 0.

    ``price`` is a list of rows of Python floats, one per row of the table,
    and the answer is a fresh list of rows; or it is an array of the grid's
    shape, and the answer is an array of that shape. Both run the same
    per-cell loop on floats: a grid of a few cells, as the policies price
    every period, is too small for numpy's per-call cost to pay off.
    """
    if isinstance(price, np.ndarray):
        return np.array(_min_row(table.cells, price.ravel().tolist())).reshape(price.shape)
    return [_min_row(c, p) for c, p in zip(table.rows, price)]


def _min_row(cells, prices) -> list:
    """The argmins of a run of table cells at their prices: the closed form,
    clipped to [0, 1] as ``np.clip`` does (-0.0 stays -0.0), or the first
    minimum over the three candidates (at 0 the price term adds nothing, at
    1 it adds the price)."""
    out = []
    for cell, p in zip(cells, prices):
        if len(cell) == 2:
            target, den = cell
            a = target - p / den
            out.append(a if 0.0 <= a <= 1.0 else (0.0 if a < 0.0 else 1.0))
            continue
        pt, v0, g1, g2 = cell
        v1, v2 = g1 + p * pt, g2 + p
        if v1 < v0:
            out.append(1.0 if v2 < v1 else pt)
        else:
            out.append(1.0 if v2 < v0 else 0.0)
    return out


def _floats(v):
    """Arrays as lists of Python floats, for the scalar loops below."""
    return v.tolist() if isinstance(v, np.ndarray) else v


def chain_prefix_argmin(tau, d_plus, d_minus, nu, curvature=None):
    """Exact minimizer of a prefix-coupled convex objective.

    Minimizes ``sum_q [phi_q(s_q) + nu_q s_q]`` over prefix sums ``s`` with
    ``s_0 = 0`` and increments ``s_q - s_{q-1}`` in [0, 1], returning the
    increments as an array. Stage ``q`` is squared,
    ``phi_q(s) = curvature_q (s - tau_q)^2``, when ``curvature_q > 0`` and
    piecewise linear, ``phi_q(s) = d+_q (s - tau_q)^+ + d-_q (tau_q - s)^+``,
    otherwise. This is the multi-epoch idealized average-consumption problem
    for one resource, rewritten in cumulative variables (each epoch's
    deviation term depends only on the consumption prefix). The inputs are
    float arrays or lists; lists are only read, so a caller can build the
    price-free ones once and reuse them across calls.

    A batch of chains is solved in one call: 2-D inputs (arrays or lists of
    lists) hold one chain per row, with ``curvature`` None or 2-D, and the
    result is a list with one list of increments per chain, each equal bit
    for bit to the 1-D call on that row. The policies call the batch form
    every period on a few short chains, so it hands back the DP's own lists
    rather than paying numpy's per-call cost to wrap them.

    The backward pass builds the convex value-to-go functions as
    breakpoints plus a derivative ``c*s + e`` per segment, takes each
    stage's leftmost global argmin, and replaces the function by its
    window minimum ``u -> min over s in [u, u+1]``: by convexity that is the
    function at the argmin's projection onto the window, so segments left of
    the argmin shift by -1 (``e`` becomes ``e + c``) and a flat segment of
    length 1 follows. Until a squared stage appears every segment has
    ``c = 0``, the derivatives ``e`` are nondecreasing and the argmin is
    found by bisection. The lists are updated in place, stage by stage. The
    forward pass clamps each stage's argmin into the sliding feasibility
    window. Flat stretches resolve to their left end.
    """
    tau, d_plus, d_minus, nu = _floats(tau), _floats(d_plus), _floats(d_minus), _floats(nu)
    curv = _floats(curvature)
    if tau and isinstance(tau[0], list):
        if curv is None:
            curv = [None] * len(tau)
        return [_chain(*row) for row in zip(tau, d_plus, d_minus, nu, curv)]
    return np.array(_chain(tau, d_plus, d_minus, nu, curv))


def _chain(tau, d_plus, d_minus, nu, curv) -> list:
    """The increments of one chain of :func:`chain_prefix_argmin`, from lists."""
    inf = math.inf
    R = len(tau)
    bp: list = []
    cs = None  # per-segment curvatures; None while every segment is linear
    es = [0.0]
    argmins = [0.0] * R
    for q in range(R - 1, -1, -1):
        n = len(es)
        if curv is not None and curv[q] > 0.0:
            c_q = 2.0 * curv[q]
            e_q = nu[q] - c_q * tau[q]
            if cs is None:
                cs = [c_q] * n
            else:
                for i in range(n):
                    cs[i] += c_q
            for i in range(n):
                es[i] += e_q
        elif d_plus[q] > 0.0 or d_minus[q] > 0.0:
            t = tau[q]
            p = bisect_left(bp, t)
            if p == n - 1 or bp[p] != t:  # split segment p at the new kink
                bp.insert(p, t)
                es.insert(p, es[p])
                if cs is not None:
                    cs.insert(p, cs[p])
                n += 1
            lo, hi = nu[q] - d_minus[q], nu[q] + d_plus[q]
            for i in range(p + 1):
                es[i] += lo
            for i in range(p + 1, n):
                es[i] += hi
        else:
            e_q = nu[q]
            for i in range(n):
                es[i] += e_q
        last = n - 1
        inside = False
        if cs is None:
            # the derivatives are nondecreasing: the argmin is the left end
            # of the first segment with e >= 0
            j = bisect_left(es, 0.0)
            mstar = -inf if j == 0 else (inf if j > last else bp[j - 1])
        else:  # leftmost argmin: in segment j, strictly inside or at its left end
            mstar, j = inf, last
            left = -inf
            for jj, (c, e) in enumerate(zip(cs, es)):
                if (e if c == 0.0 else c * left + e) >= 0.0:
                    mstar, j = left, jj
                    break
                if c > 0.0:
                    root = -e / c
                    if jj == last or root < bp[jj]:
                        mstar, j, inside = root, jj, True
                        break
                if jj < last:
                    left = bp[jj]
        argmins[q] = mstar
        if q == 0 or mstar == -inf:
            continue
        # window minimum: segments left of the argmin shift by -1 (e becomes
        # e + c, exactly e on linear segments) and a flat one follows; once a
        # squared stage is in, the last segment is curved, so only a linear
        # function decreases forever
        if mstar == inf:
            for i in range(last):
                bp[i] -= 1.0
        elif cs is None:
            for i in range(j):
                bp[i] -= 1.0
            bp.insert(j, mstar)
            es.insert(j, 0.0)
        else:
            k = j + inside  # segments left of the argmin, a split one included
            for i in range(k - 1):
                bp[i] -= 1.0
            bp[k - 1:j] = [mstar - 1.0, mstar]
            tail = [0.0, es[j]] if inside else [0.0]
            for i in range(k):
                es[i] += cs[i]
            es[k:k] = tail
            cs[k:k] = [0.0, cs[j]] if inside else [0.0]
    a = []
    s_prev = 0.0
    for s in argmins:  # clamp into [s_prev, s_prev + 1], as min(max(s, lo), hi)
        if s_prev > s:
            s = s_prev
        elif s_prev + 1.0 < s:
            s = s_prev + 1.0
        a.append(s - s_prev)
        s_prev = s
    return a


def project_simplex(p: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector, or of each row of a matrix, onto the
    probability simplex. ``rho`` counts the decreasingly sorted entries ``u_r``
    above ``(u_1 + ... + u_r - 1) / r``, at least one. The last rank that
    passes differs only where rounding breaks the test's prefix order (entries
    beyond about 1e16), and there it can land far off: ``[1e20, 1]`` -> ``[5e19, 0]``."""
    rows = np.atleast_2d(p)
    n, m = rows.shape
    # Column by column: on the transposed (m, n) copy the prefix sums and the
    # rank count add whole sorted columns. A cumsum adds in order along any
    # axis and the count is an integer, so the values are those of the
    # row-wise calls, which pay numpy's per-row cost on each of n short rows.
    u = np.sort(rows, axis=-1).T[::-1].copy()
    css = u.cumsum(axis=0) - 1.0
    rho = np.maximum((u - css / np.arange(1.0, m + 1)[:, None] > 0).sum(axis=0), 1)
    theta = css.take((rho - 1) * n + np.arange(n)) / rho
    return np.maximum(p - theta.reshape(p.shape[:-1] + (1,)), 0.0)
