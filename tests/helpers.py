"""Shared independent oracles for the test suite."""

from bisect import bisect_left

import numpy as np

from flowtarget.core import DeviationCost


def grid_minimize(f_batch, d, levels=6, pts=21, lo=0.0, hi=1.0):
    """Multiresolution grid search for a convex objective on a box.

    Refines a ``pts``-per-dimension grid around the incumbent cell; with the
    default settings the final effective step is below 1e-4 per coordinate.
    ``f_batch`` maps an (N, d) array of points to N objective values.
    """
    lo_v = np.full(d, lo, dtype=float)
    hi_v = np.full(d, hi, dtype=float)
    best_x = None
    best_f = np.inf
    for _ in range(levels):
        axes = [np.linspace(lo_v[i], hi_v[i], pts) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        vals = f_batch(points)
        idx = int(np.argmin(vals))
        if vals[idx] < best_f:
            best_f = float(vals[idx])
            best_x = points[idx].copy()
        span = (hi_v - lo_v) / (pts - 1)
        lo_v = np.maximum(best_x - 1.5 * span, lo)
        hi_v = np.minimum(best_x + 1.5 * span, hi)
    return best_x, best_f


def random_composite(seed, d, n_terms=4, allow_squared=True):
    """Random convex composite: deviation families on affine combinations of
    the coordinates plus a linear term. Returns (scalar f, subgradient,
    batched f)."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(n_terms):
        fam = rng.choice(["absolute", "under_over", "squared"] if allow_squared
                         else ["absolute", "under_over"])
        target = float(rng.uniform(0.0, 1.0))
        if fam == "absolute":
            g = DeviationCost.absolute(float(rng.uniform(0.1, 2.0)), target)
        elif fam == "under_over":
            g = DeviationCost.under_over(float(rng.uniform(0.0, 2.0)),
                                         float(rng.uniform(0.0, 2.0)), target)
        else:
            g = DeviationCost.squared(float(rng.uniform(0.1, 2.0)), target)
        w = rng.uniform(0.0, 1.0, size=d)
        w /= max(w.sum(), 1e-9)
        coef = float(rng.uniform(0.2, 2.0))
        terms.append((g, w, coef))
    lin = rng.uniform(-1.0, 1.0, size=d)

    def f(x):
        x = np.asarray(x, dtype=float)
        return float(sum(c * g.evaluate(float(w @ x), check_domain=False)
                         for g, w, c in terms) + lin @ x)

    def sub(x):
        x = np.asarray(x, dtype=float)
        out = lin.copy()
        for g, w, c in terms:
            out += c * g.subgradient(float(w @ x), check_domain=False) * w
        return out

    def f_batch(points):
        vals = points @ lin
        for g, w, c in terms:
            z = points @ w
            gap = z - g.target
            if g.family == "squared":
                vals = vals + c * g.delta_plus * gap * gap
            else:
                vals = vals + c * (g.delta_plus * np.maximum(gap, 0.0)
                                   + g.delta_minus * np.maximum(-gap, 0.0))
        return vals

    return f, sub, f_batch


def legacy_chain_prefix_argmin(tau, d_plus, d_minus, nu):
    """Frozen copy of the piecewise-linear-only prefix DP that preceded the
    piecewise-quadratic one, kept as a bit-for-bit reference: value-to-go
    functions are (breakpoints, slopes) lists."""

    def slope_at(bp, sl, x_left):
        idx = 0
        while idx < len(bp) and bp[idx] <= x_left:
            idx += 1
        return sl[idx]

    def pl_sum(bp_a, sl_a, bp_b, sl_b):
        bp = sorted(set(bp_a) | set(bp_b))
        sl = []
        for idx in range(len(bp) + 1):
            probe_left = bp[idx - 1] if idx > 0 else (bp[0] - 1.0 if bp else 0.0)
            sl.append(slope_at(bp_a, sl_a, probe_left) + slope_at(bp_b, sl_b, probe_left))
        return bp, sl

    def leftmost_argmin(bp, sl):
        for idx, s in enumerate(sl):
            if s >= 0.0:
                return -np.inf if idx == 0 else bp[idx - 1]
        return np.inf

    def window_min(bp, sl, argmin):
        if argmin == -np.inf:
            return list(bp), list(sl)
        if argmin == np.inf:
            return [b - 1.0 for b in bp], list(sl)
        j = 0
        while j < len(sl) and sl[j] < 0.0:
            j += 1
        new_bp = [b - 1.0 for b in bp[: j - 1]] + [argmin - 1.0, argmin] + list(bp[j:])
        new_sl = list(sl[:j]) + [0.0] + list(sl[j:])
        return new_bp, new_sl

    R = len(tau)
    win_bp, win_sl = [], [0.0]
    argmins = [0.0] * R
    for q in range(R - 1, -1, -1):
        if d_plus[q] > 0.0 or d_minus[q] > 0.0:
            bp_phi = [float(tau[q])]
            sl_phi = [float(nu[q] - d_minus[q]), float(nu[q] + d_plus[q])]
        else:
            bp_phi, sl_phi = [], [float(nu[q])]
        bp, sl = pl_sum(bp_phi, sl_phi, win_bp, win_sl)
        mstar = leftmost_argmin(bp, sl)
        argmins[q] = mstar
        if q > 0:
            win_bp, win_sl = window_min(bp, sl, mstar)
    a = np.empty(R)
    s_prev = 0.0
    for q in range(R):
        s = min(max(argmins[q], s_prev), s_prev + 1.0)
        a[q] = s - s_prev
        s_prev = s
    return a


def reference_chain_prefix_argmin(tau, d_plus, d_minus, nu, curvature=None):
    """Frozen copy of the piecewise-quadratic prefix DP as it stood before
    its leftmost-argmin and window-minimum helpers were inlined, kept as a
    bit-for-bit reference for every penalty family (array inputs only)."""

    def leftmost_argmin(bp, cs, es):
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

    def window_min(bp, cs, es, argmin, j, inside):
        if argmin == -np.inf:
            return bp, cs, es
        if argmin == np.inf:
            return [b - 1.0 for b in bp], cs, [e + c for c, e in zip(cs, es)]
        k = j + inside
        return ([b - 1.0 for b in bp[: k - 1]] + [argmin - 1.0, argmin] + bp[j:],
                cs[:k] + [0.0] + cs[j:],
                [e + c for c, e in zip(cs[:k], es[:k])] + [0.0] + es[j:])

    R = len(tau)
    tau, d_plus, d_minus, nu = tau.tolist(), d_plus.tolist(), d_minus.tolist(), nu.tolist()
    curv = [0.0] * R if curvature is None else curvature.tolist()
    bp, cs, es = [], [0.0], [0.0]
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
            if p == len(bp) or bp[p] != t:
                bp.insert(p, t)
                cs.insert(p, cs[p])
                es.insert(p, es[p])
            lo, hi = nu[q] - d_minus[q], nu[q] + d_plus[q]
            es = [e + lo for e in es[: p + 1]] + [e + hi for e in es[p + 1:]]
        else:
            es = [e + nu[q] for e in es]
        mstar, j, inside = leftmost_argmin(bp, cs, es)
        argmins[q] = mstar
        if q > 0:
            bp, cs, es = window_min(bp, cs, es, mstar, j, inside)
    a = np.empty(R)
    s_prev = 0.0
    for q in range(R):
        s = min(max(argmins[q], s_prev), s_prev + 1.0)
        a[q] = s - s_prev
        s_prev = s
    return a


def legacy_min_dev_plus_price(is_squared, target, d_plus, d_minus, price):
    """Frozen copy of the one-call deviation-plus-price minimizer that
    preceded the table/price split, kept as a bit-for-bit reference."""
    tgt = np.clip(target, 0.0, 1.0)
    pts = np.stack([np.zeros_like(tgt), tgt, np.ones_like(tgt)])
    gap = pts - target
    cand = d_plus * np.maximum(gap, 0.0) + d_minus * np.maximum(-gap, 0.0) + price * pts
    pick = np.argmin(cand, axis=0)
    pl = np.take_along_axis(pts, pick[None], axis=0)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.clip(target - price / (2.0 * d_plus), 0.0, 1.0)
    sq = np.where(d_plus > 0, sq, np.where(price < 0, 1.0, 0.0))
    return np.where(is_squared, sq, pl)
