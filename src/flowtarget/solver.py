"""Small convex minimizers shared by the online policies and the offline oracles.

Four tools live here:

* :func:`solve_box_convex` -- generic projected subgradient descent over a
  box, with diminishing steps, warm starts, and best-iterate tracking (no
  policy uses it; acceptance criterion 10 certifies it on its own).
* :func:`dev_price_table` and :func:`min_dev_plus_price` -- exact
  vectorized minimizer of ``g(a) + price * a`` over ``a in [0, 1]`` for a
  grid of deviation costs (the per-epoch idealized-consumption step of the
  single-epoch policies, and the inner minimization of the Lagrangian
  dual). The table holds the price-free part of the answer and is built
  once per grid of cells; each price then costs one argmin over three
  candidate points.
* :func:`chain_prefix_argmin` -- exact minimizer of the coupled multi-epoch
  idealized-consumption objective for every deviation family, via a tiny
  dynamic program over prefix variables whose value-to-go functions are
  convex piecewise quadratic; one call solves one chain, or a batch of
  chains given as 2-D inputs (one resource column each, in the policies).
* :func:`project_simplex` -- the sort-and-threshold Euclidean projection
  onto the probability simplex (Duchi et al., ICML 2008), shared by the
  Gumbel MLE's type mix and the dual backend's per-cell shares.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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
    x = np.clip(np.asarray(x0, dtype=float).copy(), lo, hi)
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
            x = np.clip(x - (step_r / np.sqrt(s)) * (g / norm), lo, hi)
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
    """Price-free part of :func:`min_dev_plus_price` for one grid of cells."""

    pts: np.ndarray      # (3, ...) candidate points {0, clip(target), 1}
    dev_pts: np.ndarray  # (3, ...) piecewise-linear penalty at each point
    squared: Optional[tuple]  # (mask, target, d+ > 0, 2 d+ or 1); None without squared cells
    only_squared: bool  # every cell squared with d+ > 0: the closed form is the answer


def dev_price_table(is_squared: np.ndarray, target: np.ndarray,
                    d_plus: np.ndarray, d_minus: np.ndarray) -> DevPriceTable:
    """Build the table that :func:`min_dev_plus_price` prices."""
    tgt = np.clip(target, 0.0, 1.0)
    pts = np.stack([np.zeros_like(tgt), tgt, np.ones_like(tgt)])
    gap = pts - target
    dev_pts = d_plus * np.maximum(gap, 0.0) + d_minus * np.maximum(-gap, 0.0)
    squared = None
    only_squared = False
    if np.any(is_squared):
        pos = d_plus > 0
        squared = (is_squared, target, pos, np.where(pos, 2.0 * d_plus, 1.0))
        only_squared = bool(np.all(is_squared & pos))
    return DevPriceTable(pts, dev_pts, squared, only_squared)


def min_dev_plus_price(table: DevPriceTable, price: np.ndarray) -> np.ndarray:
    """Exact argmin over [0, 1] of ``g(a) + price * a``, elementwise.

    Piecewise-linear families are minimized at one of {0, clip(target), 1};
    the squared family has the closed form ``clip(target - price / (2 d))``.
    Ties go to the smallest candidate, so a flat objective returns 0. A grid
    whose cells are all squared with ``d > 0`` skips the candidate argmin,
    whose answer the closed form would replace everywhere.
    """
    if table.only_squared:
        _, target, _, den = table.squared
        return np.clip(target - price / den, 0.0, 1.0)
    a = np.argmin(table.dev_pts + price * table.pts, axis=0).choose(table.pts)
    if table.squared is None:
        return a
    mask, target, pos, den = table.squared
    sq = np.where(pos, np.clip(target - price / den, 0.0, 1.0), np.where(price < 0, 1.0, 0.0))
    return np.where(mask, sq, a)


def _floats(v):
    """Arrays as lists of Python floats, for the scalar loops below."""
    return v.tolist() if isinstance(v, np.ndarray) else v


def chain_prefix_argmin(tau, d_plus, d_minus, nu, curvature=None) -> np.ndarray:
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
    result holds one row of increments per chain, each equal bit for bit to
    the 1-D call on that row.

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
        return np.array([_chain(*row) for row in zip(tau, d_plus, d_minus, nu, curv)])
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
    u = np.sort(rows, axis=-1)[:, ::-1]
    css = u.cumsum(axis=-1) - 1.0
    rho = np.maximum((u - css / np.arange(1, rows.shape[-1] + 1) > 0).sum(axis=-1), 1)
    theta = css[np.arange(len(rows)), rho - 1] / rho
    return np.maximum(p - theta.reshape(p.shape[:-1] + (1,)), 0.0)
