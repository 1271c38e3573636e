"""Box solver, closed-form deviation-plus-price minimizer, and the
prefix-coupled exact chain solver, against grid, L-BFGS-B and frozen
reference oracles."""

import numpy as np
import pytest
from scipy.optimize import minimize

from flowtarget.core import DeviationCost
from flowtarget.solver import (
    chain_prefix_argmin,
    dev_price_table,
    min_dev_plus_price,
    solve_box_convex,
)

from helpers import (
    grid_minimize,
    legacy_chain_prefix_argmin,
    legacy_min_dev_plus_price,
    random_composite,
    reference_chain_prefix_argmin,
    reference_solve_box_convex,
)


class TestSolveBoxConvex:
    def test_absolute_plus_small_price_returns_target(self):
        g = DeviationCost.absolute(1.0, 0.6)
        mu = 0.5
        f = lambda x: g.evaluate(float(x[0])) + mu * float(x[0])
        sub = lambda x: np.array([g.subgradient(float(x[0])) + mu])
        grid = np.linspace(0.0, 1.0, 10001)
        oracle = grid[np.argmin(np.abs(grid - 0.6) + mu * grid)]
        res = solve_box_convex(f, sub, np.array([0.1]))
        assert abs(res.x[0] - oracle) <= 1e-4
        assert abs(res.x[0] - 0.6) <= 1e-4

    def test_large_price_drives_to_zero(self):
        g = DeviationCost.absolute(1.0, 0.6)
        f = lambda x: g.evaluate(float(x[0])) + 2.0 * float(x[0])
        sub = lambda x: np.array([g.subgradient(float(x[0])) + 2.0])
        res = solve_box_convex(f, sub, np.array([0.9]))
        assert abs(res.x[0] - 0.0) <= 1e-4

    def test_linear_positive_slope_hits_lower_boundary(self):
        f = lambda x: 3.0 * float(x.sum())
        sub = lambda x: np.full_like(x, 3.0)
        res = solve_box_convex(f, sub, np.array([0.7, 0.2]))
        assert np.all(res.x <= 1e-6)

    def test_separable_quadratics_reach_projected_minimum(self):
        # min (x0 - 0.3)^2 + 2 (x1 + 0.25)^2 over the unit box
        f = lambda x: (x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.25) ** 2
        sub = lambda x: np.array([2.0 * (x[0] - 0.3), 4.0 * (x[1] + 0.25)])
        res = solve_box_convex(f, sub, np.array([0.9, 0.9]), budget=8000, rounds=14)
        np.testing.assert_allclose(res.x, [0.3, 0.0], atol=1e-6)

    def test_flat_objective_keeps_warm_start(self):
        f = lambda x: 0.0
        sub = lambda x: np.zeros_like(x)
        res = solve_box_convex(f, sub, np.array([0.4, 0.8]))
        assert res.converged
        np.testing.assert_allclose(res.x, [0.4, 0.8])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_composites_match_grid_oracle(self, d):
        for seed in range(6):
            f, sub, f_batch = random_composite(1000 * d + seed, d)
            _, ref = grid_minimize(f_batch, d)
            res = solve_box_convex(f, sub, np.full(d, 0.5), budget=3000)
            assert res.objective <= ref + 1e-3


def box_solver_cases():
    """(objective, subgradient, x0, keyword arguments) of every
    :class:`TestSolveBoxConvex` case, then 12 random composites (d = 1, 2, 3)."""
    g = DeviationCost.absolute(1.0, 0.6)
    cases = [
        (lambda x: g.evaluate(float(x[0])) + 0.5 * float(x[0]),
         lambda x: np.array([g.subgradient(float(x[0])) + 0.5]), np.array([0.1]), {}),
        (lambda x: g.evaluate(float(x[0])) + 2.0 * float(x[0]),
         lambda x: np.array([g.subgradient(float(x[0])) + 2.0]), np.array([0.9]), {}),
        (lambda x: 3.0 * float(x.sum()), lambda x: np.full_like(x, 3.0), np.array([0.7, 0.2]), {}),
        (lambda x: (x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.25) ** 2,
         lambda x: np.array([2.0 * (x[0] - 0.3), 4.0 * (x[1] + 0.25)]), np.array([0.9, 0.9]),
         dict(budget=8000, rounds=14)),
        (lambda x: 0.0, lambda x: np.zeros_like(x), np.array([0.4, 0.8]), {}),
    ]
    for seed in range(12):
        d = seed % 3 + 1
        f, sub, _ = random_composite(1000 * d + seed, d)
        cases.append((f, sub, np.full(d, 0.5), dict(budget=3000)))
    return cases


class TestSolveBoxConvexReference:
    @pytest.mark.parametrize("case", range(17))
    def test_matches_frozen_reference_bit_for_bit(self, case):
        f, sub, x0, kwargs = box_solver_cases()[case]
        res = solve_box_convex(f, sub, x0, **kwargs)
        x, objective, iterations, converged = reference_solve_box_convex(f, sub, x0, **kwargs)
        assert res.x.tobytes() == x.tobytes()
        assert (res.objective, res.iterations, res.converged) == (objective, iterations, converged)


class TestMinDevPlusPrice:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_grid(self, seed):
        rng = np.random.default_rng(seed)
        fam = ["zero", "absolute", "under_over", "squared"][seed % 4]
        target = float(rng.uniform(-0.5, 1.5))  # may sit outside the box
        if fam == "zero":
            g = DeviationCost.zero()
        elif fam == "absolute":
            g = DeviationCost.absolute(float(rng.uniform(0.1, 3.0)), target)
        elif fam == "under_over":
            g = DeviationCost.under_over(float(rng.uniform(0, 3)), float(rng.uniform(0, 3)), target)
        else:
            g = DeviationCost.squared(float(rng.uniform(0.1, 3.0)), target)
        mu = float(rng.uniform(-2.0, 2.0))
        table = dev_price_table(np.array([[g.family == "squared"]]), np.array([[g.target]]),
                                np.array([[g.delta_plus]]), np.array([[g.delta_minus]]))
        a = min_dev_plus_price(table, np.array([[mu]]))[0, 0]
        grid = np.linspace(0, 1, 100001)
        vals = np.array([g.evaluate(x, check_domain=False) for x in grid]) + mu * grid
        assert g.evaluate(a, check_domain=False) + mu * a <= vals.min() + 1e-9

    def test_flat_returns_zero(self):
        table = dev_price_table(np.zeros((1, 2), dtype=bool), np.zeros((1, 2)),
                                np.zeros((1, 2)), np.zeros((1, 2)))
        np.testing.assert_array_equal(min_dev_plus_price(table, np.zeros((1, 2))), 0.0)

    def test_list_rows_equal_the_array_form_bit_for_bit(self):
        # the policies price list rows; signed zeros and ties included
        rng = np.random.default_rng(3)
        values = np.array([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5])
        for _ in range(200):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            table = dev_price_table(rng.random(shape) < 0.3, rng.choice(values, shape),
                                    rng.choice(values[3:], shape), rng.choice(values[3:], shape))
            price = rng.choice(values, shape)
            got = min_dev_plus_price(table, price.tolist())
            assert isinstance(got, list) and all(isinstance(row, list) for row in got)
            assert np.array(got).tobytes() == min_dev_plus_price(table, price).tobytes()

    @pytest.mark.parametrize("squared_share", [0.0, 0.3, 1.0])
    def test_bit_identical_to_frozen_one_call_minimizer(self, squared_share):
        # Dyadic weights, targets and prices make exact ties between
        # candidate points common; targets reach outside [0, 1], a fifth of
        # the weights are zero (squared cells with d+ = 0 included), and
        # every table is priced at zero, at +-d+ and +-d- and at random. With
        # every cell squared, odd batches have no zero weight, so their
        # tables take the closed form alone.
        rng = np.random.default_rng(int(squared_share * 10))
        dyadic = np.arange(-12, 13) / 4.0
        draws = 0
        for batch in range(20):
            shape = (500,) if batch % 2 else (4, 125)
            is_sq = rng.random(shape) < squared_share
            target = np.where(rng.random(shape) < 0.5, rng.choice(dyadic, shape) / 2.0,
                              rng.uniform(-0.5, 1.5, shape))
            zero_share = 0.0 if squared_share == 1.0 and batch % 2 else 0.2
            d_plus, d_minus = (np.where(rng.random(shape) < zero_share, 0.0, rng.choice(dyadic[13:], shape))
                               for _ in range(2))
            table = dev_price_table(is_sq, target, d_plus, d_minus)
            assert table.only_squared == (squared_share == 1.0 and batch % 2 == 1)
            for price in (np.zeros(shape), d_plus, -d_plus, d_minus, -d_minus,
                          rng.choice(dyadic, shape), rng.uniform(-3.0, 3.0, shape)):
                got = min_dev_plus_price(table, price)
                ref = legacy_min_dev_plus_price(is_sq, target, d_plus, d_minus, price)
                assert np.array_equal(got, ref)
                assert got.tobytes() == ref.tobytes()
                draws += got.size
        assert draws >= 20_000


def aux_objective_batched(tau, d_plus, d_minus, nu, curvature=None):
    """Batched version of the prefix-coupled objective for grid checking:
    the linear term prices the consumption prefixes, as in the contract;
    stages with positive curvature are squared."""
    curv = np.zeros(len(tau)) if curvature is None else curvature

    def f(points):
        s = np.cumsum(points, axis=1)
        vals = s @ nu
        for q in range(len(tau)):
            gap = s[:, q] - tau[q]
            if curv[q] > 0.0:
                vals = vals + curv[q] * gap * gap
            else:
                vals = vals + d_plus[q] * np.maximum(gap, 0.0) + d_minus[q] * np.maximum(-gap, 0.0)
        return vals
    return f


def lbfgsb_minimum(f_batch, tau, d_plus, d_minus, nu, curvature):
    """L-BFGS-B over the increment box from its centre, with the objective's
    (sub)gradient in increment coordinates."""
    R = len(tau)

    def grad(x):
        gap = np.cumsum(x) - tau
        kink = np.where(gap > 0, d_plus, np.where(gap < 0, -d_minus, 0.0))
        slopes = np.where(curvature > 0, 2.0 * curvature * gap, kink) + nu
        return np.cumsum(slopes[::-1])[::-1]

    res = minimize(lambda x: float(f_batch(x[None, :])[0]), np.full(R, 0.5), jac=grad,
                   method="L-BFGS-B", bounds=[(0.0, 1.0)] * R)
    return float(res.fun)


def random_chain(rng, R, squared_share):
    """Random chain stages; a stage is squared with probability
    ``squared_share``, otherwise piecewise linear (possibly flat)."""
    tau = rng.uniform(-0.5, R + 0.5, size=R)
    dp = np.where(rng.random(R) < 0.15, 0.0, rng.uniform(0.1, 3.0, R))
    dm = np.where(rng.random(R) < 0.15, 0.0, rng.uniform(0.1, 3.0, R))
    curv = np.where(rng.random(R) < squared_share, rng.uniform(0.05, 3.0, R), 0.0)
    nu = rng.uniform(-1.5, 1.5, size=R)
    return tau, dp, dm, nu, curv


REFERENCE_KINDS = ["uniform", "dyadic", "coinciding", "unbounded"]


def reference_case(rng, kind):
    """A chain of 1 to 6 stages for the frozen-reference comparison.

    Dyadic values make exact ties (equal kinks, zero derivatives, roots on
    breakpoints); ``coinciding`` draws the kinks from four points; and
    ``unbounded`` shifts every price by +-20, so the stage argmins are
    +-inf on linear chains. Some stages carry no weight at all."""
    R = int(rng.integers(1, 7))
    if kind == "uniform":
        tau, dp, dm, nu, curv = random_chain(rng, R, 0.3)
    else:
        tau = rng.integers(-2, 4 * R + 3, size=R) * 0.25
        if kind == "coinciding":
            tau = rng.choice([0.0, 0.5, 1.0, 1.5], size=R)
        dp, dm = (np.where(rng.random(R) < 0.2, 0.0, rng.integers(1, 9, size=R) * 0.25)
                  for _ in range(2))
        nu = rng.integers(-8, 9, size=R) * 0.25
        curv = np.where(rng.random(R) < 0.3, rng.integers(1, 9, size=R) * 0.125, 0.0)
        if kind == "unbounded":
            nu = nu + rng.choice([-20.0, 20.0])
    idle = rng.random(R) < 0.15
    dp[idle] = dm[idle] = curv[idle] = 0.0
    return tau, dp, dm, nu, (curv if curv.any() or rng.random() < 0.5 else None)


class TestChainPrefixArgmin:
    def test_single_row_examples(self):
        # absolute penalty toward 0.6 with a small price keeps the target;
        # a price above the kink slope drives consumption to zero
        a = chain_prefix_argmin(np.array([0.6]), np.array([1.0]), np.array([1.0]), np.array([0.5]))
        assert a[0] == pytest.approx(0.6, abs=1e-12)
        a = chain_prefix_argmin(np.array([0.6]), np.array([1.0]), np.array([1.0]), np.array([2.0]))
        assert a[0] == pytest.approx(0.0, abs=1e-12)

    def test_flat_objective_returns_zeros(self):
        a = chain_prefix_argmin(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(a, 0.0)

    @pytest.mark.parametrize("R", [1, 2, 3])
    def test_matches_grid_oracle(self, R):
        for seed in range(25):
            rng = np.random.default_rng(seed + 31 * R)
            tau = rng.uniform(-0.5, R + 0.5, size=R)
            dp = np.where(rng.random(R) < 0.15, 0.0, rng.uniform(0.1, 3.0, R))
            dm = np.where(rng.random(R) < 0.15, 0.0, rng.uniform(0.1, 3.0, R))
            nu = rng.uniform(-1.5, 1.5, size=R)
            a = chain_prefix_argmin(tau, dp, dm, nu)
            assert np.all(a >= -1e-12) and np.all(a <= 1 + 1e-12)
            f = aux_objective_batched(tau, dp, dm, nu)
            _, ref = grid_minimize(f, R, levels=7)
            assert f(a[None, :])[0] <= ref + 1e-9

    @pytest.mark.parametrize("kind", ["uniform", "coinciding", "tiny"])
    def test_piecewise_linear_matches_legacy_dp_bit_for_bit(self, kind):
        # coinciding and tiny targets make equal breakpoints and b - 1 roundings
        rng = np.random.default_rng(["uniform", "coinciding", "tiny"].index(kind))
        for _ in range(1500):
            R = int(rng.integers(1, 6))
            tau, dp, dm, nu, _ = random_chain(rng, R, 0.0)
            if kind == "coinciding":
                tau = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0], size=R)
                dp, dm, nu = (np.round(v, 1) for v in (dp, dm, nu))
            elif kind == "tiny":
                tau = tau * 1e-16
            want = legacy_chain_prefix_argmin(tau, dp, dm, nu)
            assert np.array_equal(chain_prefix_argmin(tau, dp, dm, nu), want)
            assert np.array_equal(chain_prefix_argmin(tau, dp, dm, nu, np.zeros(R)), want)

    @pytest.mark.parametrize("kind", REFERENCE_KINDS)
    def test_matches_frozen_reference_bit_for_bit(self, kind):
        # 4 x 12 500 chains; list inputs give the same bytes and stay unchanged
        rng = np.random.default_rng(REFERENCE_KINDS.index(kind) + 40)
        for _ in range(12_500):
            args = reference_case(rng, kind)
            want = reference_chain_prefix_argmin(*args).tobytes()
            assert chain_prefix_argmin(*args).tobytes() == want
            lists = [None if v is None else v.tolist() for v in args]
            assert chain_prefix_argmin(*lists).tobytes() == want
            assert lists == [None if v is None else v.tolist() for v in args]

    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_squared_and_mixed_match_grid_and_lbfgsb(self, R):
        for seed in range(10 if R < 4 else 6):
            rng = np.random.default_rng(seed + 97 * R)
            tau, dp, dm, nu, curv = random_chain(rng, R, 1.0 if seed % 2 else 0.5)
            a = chain_prefix_argmin(tau, dp, dm, nu, curv)
            assert np.all(a >= 0.0) and np.all(a <= 1.0)
            f = aux_objective_batched(tau, dp, dm, nu, curv)
            got = f(a[None, :])[0]
            tol = 1e-9 * (1.0 + abs(got))
            assert got <= grid_minimize(f, R)[1] + tol
            assert got <= lbfgsb_minimum(f, tau, dp, dm, nu, curv) + tol

    def test_squared_single_stage_closed_form(self):
        # d/ds [2 (s - 0.6)^2 + 0.4 s] = 0 at s = 0.5; a large price pins 0
        a = chain_prefix_argmin(np.array([0.6]), np.zeros(1), np.zeros(1), np.array([0.4]),
                                np.array([2.0]))
        assert a[0] == pytest.approx(0.5, abs=1e-15)
        a = chain_prefix_argmin(np.array([0.6]), np.zeros(1), np.zeros(1), np.array([9.0]),
                                np.array([2.0]))
        assert a[0] == 0.0

    def test_interior_argmin_split_by_the_window(self):
        # (s1 - 0.2)^2 + (s2 - 1.9)^2: stage 2's interior argmin 1.9 is out of
        # reach, so s2 = s1 + 1 and 4 s1 - 2.2 = 0 gives s1 = 0.55
        a = chain_prefix_argmin(np.array([0.2, 1.9]), np.zeros(2), np.zeros(2), np.zeros(2),
                                np.ones(2))
        np.testing.assert_allclose(a, [0.55, 1.0], rtol=0, atol=1e-15)

    def test_quadratic_root_on_a_breakpoint(self):
        # stage 2 (s - 1)^2 leaves breakpoints {0, 1}; stage 1 s^2 plus the
        # window's 2 s has its root exactly at the breakpoint 0
        a = chain_prefix_argmin(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2), np.zeros(2),
                                np.ones(2))
        np.testing.assert_array_equal(a, [0.0, 1.0])

    def test_kink_argmin_on_a_quadratic_breakpoint(self):
        # an absolute kink at 0.5 on top of the flat window of (s - 0.5)^2
        a = chain_prefix_argmin(np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                                np.zeros(2), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(a, [0.5, 0.0])


BATCH_KINDS = ["absolute", "under_over", "zero", "squared", "coinciding"]


def random_batch(rng, kind, rows, R):
    """``rows`` chains of ``R`` stages as 2-D arrays, one chain per row:
    absolute kinks (d+ = d-), one-sided under/over kinks, stages with no
    weight, squared stages, or kinks drawn from three points."""
    shape = (rows, R)
    tau = rng.uniform(-0.5, R + 0.5, size=shape)
    dp = rng.uniform(0.1, 3.0, size=shape)
    dm = dp.copy() if kind in ("absolute", "coinciding") else rng.uniform(0.1, 3.0, size=shape)
    nu = rng.uniform(-1.5, 1.5, size=shape)
    curv = np.zeros(shape)
    if kind == "under_over":
        one_sided = rng.random(shape) < 0.5
        dp[one_sided] = 0.0
        dm[~one_sided & (rng.random(shape) < 0.5)] = 0.0
    elif kind == "zero":
        idle = rng.random(shape) < 0.4
        dp[idle] = dm[idle] = 0.0
    elif kind == "squared":
        sq = rng.random(shape) < 0.5
        curv[sq] = rng.uniform(0.05, 3.0, size=int(sq.sum()))
    elif kind == "coinciding":
        tau = rng.choice([0.0, 0.5, 1.0], size=shape)
        nu = np.round(nu, 1)
    return tau, dp, dm, nu, curv


class TestChainBatch:
    @pytest.mark.parametrize("kind", BATCH_KINDS)
    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_batch_equals_row_by_row_bit_for_bit(self, kind, R):
        rng = np.random.default_rng(BATCH_KINDS.index(kind) * 10 + R)
        for _ in range(300):
            rows = int(rng.integers(1, 5))
            tau, dp, dm, nu, curv = random_batch(rng, kind, rows, R)
            got = np.array(chain_prefix_argmin(tau, dp, dm, nu, curv))
            assert got.shape == (rows, R)
            want = np.array([chain_prefix_argmin(*row) for row in zip(tau, dp, dm, nu, curv)])
            assert got.tobytes() == want.tobytes()
            lists = [v.tolist() for v in (tau, dp, dm, nu, curv)]
            assert np.array(chain_prefix_argmin(*lists)).tobytes() == want.tobytes()
            if kind != "squared":  # no squared stage: None and all zeros agree
                assert np.array(chain_prefix_argmin(tau, dp, dm, nu)).tobytes() == want.tobytes()
                assert np.array(chain_prefix_argmin(*lists[:4], None)).tobytes() == want.tobytes()
                for row, w in zip(zip(tau, dp, dm, nu), want):
                    assert legacy_chain_prefix_argmin(*row).tobytes() == w.tobytes()

