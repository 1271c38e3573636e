"""Shared independent oracles for the test suite."""

from bisect import bisect_left

import numpy as np

from flowtarget.core import REJECT, DeviationCost


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
    # f and sub return the floats of DeviationCost.evaluate / .subgradient
    # summed term by term (f from int 0, as sum() starts), on Python floats.
    # One stacked matmul takes every term's w @ x and lin @ x: each row of
    # (n_terms + 1, 1, d) @ (d,) is the same dot product, rounded alike, as
    # its own 1-D w @ x.
    rows = np.stack([w for _, w, _ in terms] + [lin])[:, None, :]
    coefs = [(g.family == "squared", c, g.delta_plus, g.delta_minus, g.target) for g, _, c in terms]
    columns = list(zip(*[w.tolist() for _, w, _ in terms]))  # coordinate i: every term's w_i
    lin_list = lin.tolist()

    def f(x):
        *zs, z_lin = (rows @ np.asarray(x, dtype=float)).ravel().tolist()
        total = 0
        for (squared, c, dp, dm, target), z in zip(coefs, zs):
            gap = z - target
            total += c * (dp * gap * gap if squared else dp * gap if gap >= 0.0 else -dm * gap)
        return float(total + z_lin)

    def sub(x):
        zs = (rows @ np.asarray(x, dtype=float)).ravel().tolist()
        scales = []
        for (squared, c, dp, dm, target), z in zip(coefs, zs):
            gap = z - target
            scales.append(c * (2.0 * dp * gap if squared else dp if gap > 0.0 else -dm if gap < 0.0 else 0.0))
        out = []
        for o, column in zip(lin_list, columns):  # lin + each term's c * g'(w @ x) * w, in term order
            for scale, wi in zip(scales, column):
                o += scale * wi
            out.append(o)
        return np.array(out)

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


def reference_chain_solve(instance, epoch, prior, duals):
    """Frozen per-column copy of proxy-dgd's idealized-consumption solve as
    it stood before its columns were batched: one DP call per resource,
    curvature always passed, and each prefix price ``d_q - d_{q+1}`` taken
    in Python floats. The DP is the frozen reference above."""
    K = instance.K
    grid = instance.dev_grid
    x_units = prior * K / instance.T
    weights = np.arange(epoch + 1, K + 1, dtype=float)
    tau = weights[:, None] * instance.targets[epoch:] - x_units[None, :]
    dp = grid.d_plus[epoch:]
    dm = grid.d_minus[epoch:]
    curv = np.where(grid.is_squared[epoch:], dp, 0.0) / weights[:, None]
    table = list(zip(tau.T.tolist(), dp.T.tolist(), dm.T.tolist(), curv.T.tolist()))
    a = np.empty(duals.shape)
    for i, (col, column) in enumerate(zip(duals.T.tolist(), table)):
        nu = [d - d_next for d, d_next in zip(col, col[1:])]
        nu.append(col[-1])
        a[:, i] = reference_chain_prefix_argmin(*(np.array(v) for v in (*column[:3], nu, column[3])))
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


def reference_project_simplex(p):
    """Frozen copy of ``solver.project_simplex`` as it stood when it ranked
    the sorted rows with axis-wise ``cumsum`` and ``sum`` calls, kept as a
    bit-for-bit reference."""
    rows = np.atleast_2d(p)
    u = np.sort(rows, axis=-1)[:, ::-1]
    css = u.cumsum(axis=-1) - 1.0
    rho = np.maximum((u - css / np.arange(1, rows.shape[-1] + 1) > 0).sum(axis=-1), 1)
    theta = css[np.arange(len(rows)), rho - 1] / rho
    return np.maximum(p - theta.reshape(p.shape[:-1] + (1,)), 0.0)


def reference_project_cell_simplex(v):
    """Frozen copy of the oracle's projection of each row onto
    {s >= 0, sum(s) <= 1}, used by :func:`reference_dual_subgradient`."""
    clipped = np.maximum(v, 0.0)
    outside = clipped.sum(axis=-1) > 1.0
    if not outside.any():
        return clipped
    rows = v[outside]
    u = np.sort(rows, axis=-1)[:, ::-1]
    css = u.cumsum(axis=-1) - 1.0
    ranks = np.arange(1, v.shape[-1] + 1, dtype=float)
    rho = np.maximum((u - css / ranks > 0).sum(axis=-1), 1)
    theta = (css[np.arange(len(rows)), rho - 1] / rho)[:, None]
    clipped[outside] = np.maximum(rows - theta, 0.0)
    return clipped


def reference_dual_subgradient(instance, costs, feas, caps, window, prior,
                               iterations, step_scale, gap_rel, gap_abs,
                               recover_iters=2400):
    """Frozen copy of the dual-subgradient backend as it stood when every
    ascent and polish step did all of its own bookkeeping (dual value,
    best-multiplier pick, doubling-window sums, primal value), kept as a
    bit-for-bit reference. Takes and returns what
    ``oracle._solve_dual_subgradient`` does: ``(primal, dual, counts)``.
    Its inner minimizer is :func:`legacy_min_dev_plus_price`."""
    rows_w = np.asarray(window, dtype=int)
    grid = instance.dev_grid.rows(rows_w)
    dens = (rows_w + 1).astype(float) * instance.epoch_len
    n_eff, m = costs.shape
    W = len(window)
    dens_col = dens[:, None]
    mu = np.zeros((W, m))
    dead = ~((grid.d_plus > 0.0) | (grid.d_minus > 0.0))
    best_dual = -np.inf
    jj, ww = np.nonzero(caps > 0)
    n_cells = len(jj)
    cell_idx = np.arange(n_cells)
    rows = jj * W + ww
    caps_c = caps[jj, ww].astype(float)
    caps_col = caps_c[:, None]
    cost_c = np.where(feas, costs, 0.0)[jj]
    cost_inf = np.where(feas, costs, np.inf)[jj]
    infeasible = ~feas[jj]
    cell_bins = (ww[:, None] * m + np.arange(m)).ravel()
    value_buf = np.zeros(n_eff * W)
    full_buf = np.zeros((n_eff * W, m))

    def full_sum(cell_values, buf):
        if n_cells == len(buf):
            return cell_values.sum()
        buf[rows] = cell_values
        return buf.sum()

    def averages(counts):
        per_epoch = np.bincount(cell_bins, weights=counts.ravel(), minlength=W * m)
        return (prior + per_epoch.reshape(W, m).cumsum(axis=0)) / dens_col

    def counts_value(counts, avg):
        return float(full_sum(counts * cost_c, full_buf) + (dens_col * grid.evaluate(avg)).sum())

    avg_counts = np.zeros((n_cells, m))
    avg_n = 0
    best_avg = None
    best_mu = mu.copy()

    dual_rounds = 5
    per_round = max(iterations // dual_rounds, 1)
    step_r = step_scale
    s_total = 0
    stalled = False
    for _ in range(dual_rounds):
        if stalled or s_total >= iterations:
            break
        mu = best_mu.copy()
        for s in range(1, per_round + 1):
            s_total += 1
            priced = mu[::-1].cumsum(axis=0)[::-1]
            adj = cost_inf - priced[ww]
            best_i = adj.argmin(axis=1)
            best_v = adj[cell_idx, best_i]
            assign = best_v <= 0.0
            x_val = float(full_sum(caps_c * np.where(assign, best_v, 0.0), value_buf))
            a_star = legacy_min_dev_plus_price(grid.is_squared, grid.target, grid.d_plus,
                                               grid.d_minus, mu)
            dual = x_val + float((dens_col * (grid.evaluate(a_star) + mu * a_star)).sum()) \
                - float((mu * prior).sum())
            if dual > best_dual:
                best_dual = dual
                best_mu = mu.copy()

            took = np.where(assign, caps_c, 0.0)
            per_epoch = np.bincount(ww * m + best_i, weights=took, minlength=W * m)
            per_cum = per_epoch.reshape(W, m).cumsum(axis=0)
            avg_counts[cell_idx, best_i] += took
            avg_n += 1
            if s_total == iterations or s_total & (s_total - 1) == 0:
                cand = avg_counts / avg_n
                val = counts_value(cand, averages(cand))
                if best_avg is None or val < best_avg[0]:
                    best_avg = (val, cand)
                if s_total < iterations:
                    avg_counts = np.zeros((n_cells, m))
                    avg_n = 0

            g = dens_col * a_star - prior - per_cum
            g[dead] = 0.0
            norm = float(np.sqrt((g * g).sum()))
            if norm == 0.0:
                counts = np.zeros((n_cells, m))
                counts[cell_idx, best_i] = took
                val = counts_value(counts, averages(counts))
                if best_avg is None or val < best_avg[0]:
                    best_avg = (val, counts)
                stalled = True
                break
            mu = mu + (step_r / np.sqrt(s)) * (g / norm)
        step_r *= 0.3

    best_primal, counts0 = best_avg
    shares = counts0 / caps_col
    best_shares = shares.copy()
    rounds, step0 = 8, 0.5
    per_round = max(recover_iters // rounds, 1)
    done = best_primal - best_dual <= gap_abs + gap_rel * abs(best_primal)
    for _ in range(rounds):
        if done:
            break
        shares = best_shares.copy()
        avg = averages(caps_col * shares)
        for it in range(1, per_round + 1):
            tail = grid.subgradient(avg)[::-1].cumsum(axis=0)[::-1]
            grad = caps_col * (cost_c + tail[ww])
            grad[infeasible] = 0.0
            nrm = float(np.sqrt(full_sum(grad * grad, full_buf)))
            if nrm == 0.0:
                done = True
                break
            shares = reference_project_cell_simplex(shares - (step0 / np.sqrt(it)) * grad / nrm)
            shares[infeasible] = 0.0
            counts = caps_col * shares
            avg = averages(counts)
            val = counts_value(counts, avg)
            if val < best_primal:
                best_primal = val
                best_shares = shares.copy()
            if best_primal - best_dual <= gap_abs + gap_rel * abs(best_primal):
                done = True
                break
        step0 *= 0.3

    z = np.zeros((n_eff, m, instance.K))
    z[jj, :, np.asarray(window)[ww]] = caps_col * best_shares
    return float(best_primal), float(best_dual), z


def _reference_cumulative_proxy_cost(instance, result, epoch):
    T, K, m = instance.T, instance.K, instance.m
    step = instance.epoch_len
    lo, hi = epoch * step, (epoch + 1) * step
    arr = result.arrivals
    assignment = 0.0
    counts = np.zeros((K, m))
    for t in range(lo, hi):
        for k2 in range(epoch, K):
            i = int(result.proxy_decisions[t, k2])
            if i == REJECT:
                continue
            c = instance.costs[int(arr.types[t]), i] if not instance.continuous \
                else arr.cost_vectors[t, i]
            assignment += float(c)
            counts[k2, i] += 1.0
    z = result.epoch_consumption[epoch - 1].astype(float) if epoch > 0 else np.zeros(m)
    cum = np.cumsum(counts[epoch:], axis=0)
    dens = (np.arange(epoch + 1, K + 1) * step).astype(float)
    dev = instance.dev_grid.rows(slice(epoch, None)).evaluate((z[None, :] + cum) / dens[:, None])
    return assignment + float((dens[:, None] * dev).sum())


def reference_proxy_costs(instance, result):
    """Frozen copy of the scalar walks over a proxy run's decisions that
    ``cumulative_proxy_cost`` and ``proxy_cost_decomposition`` made before
    they shared one vectorized pass. Returns the per-epoch proxy costs and
    the decomposition's dict."""
    T, K, m = instance.T, instance.K, instance.m
    step = instance.epoch_len
    arr = result.arrivals
    grid = instance.dev_grid
    per_epoch = [_reference_cumulative_proxy_cost(instance, result, k) for k in range(K)]
    proxy_total = sum(_reference_cumulative_proxy_cost(instance, result, k) for k in range(K))
    unimpl_assign = 0.0
    unimpl_dev = 0.0
    for k in range(K):
        counts = np.zeros((K, m))
        for t in range(k * step, (k + 1) * step):
            for k2 in range(k + 1, K):
                i = int(result.proxy_decisions[t, k2])
                if i == REJECT:
                    continue
                c = instance.costs[int(arr.types[t]), i] if not instance.continuous \
                    else arr.cost_vectors[t, i]
                unimpl_assign += float(c)
                counts[k2, i] += 1.0
        if k + 1 < K:
            z = result.epoch_consumption[k].astype(float)
            cum = np.cumsum(counts[k + 1:], axis=0)
            dens = (np.arange(k + 2, K + 1) * step).astype(float)
            dev = grid.rows(slice(k + 1, None)).evaluate((z[None, :] + cum) / dens[:, None])
            unimpl_dev += float((dens[:, None] * dev).sum())
    return per_epoch, {
        "proxy_total": proxy_total,
        "unimplemented_assignment": unimpl_assign,
        "unimplemented_deviation": unimpl_dev,
        "reconstructed": proxy_total - unimpl_assign - unimpl_dev,
    }
