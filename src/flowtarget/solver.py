"""Small convex minimizers shared by the online policies and the offline oracles.

Three tools live here:

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
  convex piecewise quadratic.
"""

from __future__ import annotations

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


def dev_price_table(is_squared: np.ndarray, target: np.ndarray,
                    d_plus: np.ndarray, d_minus: np.ndarray) -> DevPriceTable:
    """Build the table that :func:`min_dev_plus_price` prices."""
    tgt = np.clip(target, 0.0, 1.0)
    pts = np.stack([np.zeros_like(tgt), tgt, np.ones_like(tgt)])
    gap = pts - target
    dev_pts = d_plus * np.maximum(gap, 0.0) + d_minus * np.maximum(-gap, 0.0)
    squared = None
    if np.any(is_squared):
        pos = d_plus > 0
        squared = (is_squared, target, pos, np.where(pos, 2.0 * d_plus, 1.0))
    return DevPriceTable(pts, dev_pts, squared)


def min_dev_plus_price(table: DevPriceTable, price: np.ndarray) -> np.ndarray:
    """Exact argmin over [0, 1] of ``g(a) + price * a``, elementwise.

    Piecewise-linear families are minimized at one of {0, clip(target), 1};
    the squared family has the closed form ``clip(target - price / (2 d))``.
    Ties go to the smallest candidate, so a flat objective returns 0.
    """
    a = np.argmin(table.dev_pts + price * table.pts, axis=0).choose(table.pts)
    if table.squared is None:
        return a
    mask, target, pos, den = table.squared
    sq = np.where(pos, np.clip(target - price / den, 0.0, 1.0), np.where(price < 0, 1.0, 0.0))
    return np.where(mask, sq, a)


def _leftmost_argmin(bp: list, cs: list, es: list) -> tuple[float, int, bool]:
    """Leftmost minimizer of a convex piecewise-quadratic function on the reals.

    Segment ``j`` spans ``(bp[j-1], bp[j])`` and has derivative
    ``cs[j] * s + es[j]``. Returns the minimizer, the index of its segment
    and whether it lies strictly inside that segment (otherwise it is the
    segment's left end); -inf when the function is nondecreasing from the
    left and +inf when it decreases forever.
    """
    left = -np.inf
    last = len(bp)
    for j, (c, e) in enumerate(zip(cs, es)):
        if (e if c == 0.0 else c * left + e) >= 0.0:
            return left, j, False
        if c > 0.0:
            root = -e / c
            if j == last or root < bp[j]:
                return root, j, True
        if j < last:
            left = bp[j]
    return np.inf, last, False


def _window_min(bp: list, cs: list, es: list, argmin: float, j: int,
                inside: bool) -> tuple[list, list, list]:
    """The function ``u -> min over s in [u, u+1] of V(s)`` for convex ``V``.

    By convexity the window minimum is ``V`` evaluated at the projection of
    its global argmin onto [u, u+1]: segments left of the argmin shift by
    -1 (derivative ``c*s + e`` becomes ``c*s + e + c``), a flat segment of
    length 1 follows, and the rest is unchanged; an argmin inside segment
    ``j`` splits that segment.
    """
    if argmin == -np.inf:
        return bp, cs, es
    if argmin == np.inf:
        return [b - 1.0 for b in bp], cs, [e + c for c, e in zip(cs, es)]
    k = j + inside  # segments left of the argmin, a split one included
    return ([b - 1.0 for b in bp[: k - 1]] + [argmin - 1.0, argmin] + bp[j:],
            cs[:k] + [0.0] + cs[j:],
            [e + c for c, e in zip(cs[:k], es[:k])] + [0.0] + es[j:])


def chain_prefix_argmin(tau: np.ndarray, d_plus: np.ndarray, d_minus: np.ndarray,
                        nu: np.ndarray, curvature: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact minimizer of a prefix-coupled convex objective.

    Minimizes ``sum_q [phi_q(s_q) + nu_q s_q]`` over prefix sums ``s`` with
    ``s_0 = 0`` and increments ``s_q - s_{q-1}`` in [0, 1], returning the
    increments. Stage ``q`` is squared, ``phi_q(s) = curvature_q (s - tau_q)^2``,
    when ``curvature_q > 0`` and piecewise linear,
    ``phi_q(s) = d+_q (s - tau_q)^+ + d-_q (tau_q - s)^+``, otherwise. This
    is the multi-epoch idealized average-consumption problem for one
    resource, rewritten in cumulative variables (each epoch's deviation
    term depends only on the consumption prefix).

    The backward pass builds the convex value-to-go functions as
    breakpoints plus a derivative ``c*s + e`` per segment; the forward pass
    clamps each stage's global argmin into the sliding feasibility window.
    Flat stretches resolve to their left end.
    """
    R = len(tau)
    tau, d_plus, d_minus, nu = tau.tolist(), d_plus.tolist(), d_minus.tolist(), nu.tolist()
    curv = [0.0] * R if curvature is None else curvature.tolist()
    bp: list = []
    cs: list = [0.0]
    es: list = [0.0]
    argmins = [0.0] * R
    for q in range(R - 1, -1, -1):
        if curv[q] > 0.0:
            c_q = 2.0 * curv[q]
            e_q = nu[q] - c_q * tau[q]
            cs = [c + c_q for c in cs]
            es = [e + e_q for e in es]
        elif d_plus[q] > 0.0 or d_minus[q] > 0.0:
            t = tau[q]
            p = bisect_left(bp, t)
            if p == len(bp) or bp[p] != t:  # split segment p at the new kink
                bp.insert(p, t)
                cs.insert(p, cs[p])
                es.insert(p, es[p])
            lo, hi = nu[q] - d_minus[q], nu[q] + d_plus[q]
            es = [e + lo for e in es[: p + 1]] + [e + hi for e in es[p + 1:]]
        else:
            es = [e + nu[q] for e in es]
        mstar, j, inside = _leftmost_argmin(bp, cs, es)
        argmins[q] = mstar
        if q > 0:
            bp, cs, es = _window_min(bp, cs, es, mstar, j, inside)
    a = np.empty(R)
    s_prev = 0.0
    for q in range(R):
        s = min(max(argmins[q], s_prev), s_prev + 1.0)
        a[q] = s - s_prev
        s_prev = s
    return a
