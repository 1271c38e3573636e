"""Online policies: decision rules, dynamics on the counterexample
instances, structural invariants, and the proxy-cost reconstruction."""

import numpy as np
import pytest
from scipy.optimize import minimize

from flowtarget import (
    ArrivalSequence,
    DeviationCost,
    Instance,
    PolicyConfig,
    hindsight_optimum,
    idealized_consumption,
    ogd_update,
    proxy_assign,
    run_greedy,
    run_myopic,
    run_naive_primal_dual,
    run_proxy_dual_gd,
    run_single_epoch_dgd,
    uniform_dev_costs,
)
from flowtarget.core import REJECT
from flowtarget.harness import epoch_acceptance_fraction
from flowtarget.instances import (
    idle_then_full_instance,
    random_instance,
    sample_arrivals,
    zero_cost_two_target_instance,
)
from flowtarget.oracle import proxy_cost_decomposition
from flowtarget.policies import myopic_epoch_targets
from flowtarget.solver import solve_box_convex

from helpers import grid_minimize


class TestProxyAssign:
    def test_all_positive_adjusted_costs_reject(self):
        assert proxy_assign(np.array([0.5, 0.3]), np.array([True, True]), np.zeros(2)) == REJECT

    def test_unique_negative_minimum(self):
        assert proxy_assign(np.array([-1.0, -0.5]), np.array([True, True]), np.zeros(2)) == 0

    def test_price_flips_the_choice(self):
        # adjusted costs (-0.1, 0.1); rejection would cost 0
        got = proxy_assign(np.array([0.5, 0.3]), np.array([True, True]), np.array([0.6, 0.2]))
        options = {REJECT: 0.0, 0: 0.5 - 0.6, 1: 0.3 - 0.2}
        assert got == min(options, key=lambda k: (options[k], k))

    def test_assign_wins_exact_tie(self):
        assert proxy_assign(np.array([0.5]), np.array([True]), np.array([0.5])) == 0

    def test_infeasible_resources_are_masked(self):
        assert proxy_assign(np.array([-2.0, -1.0]), np.array([False, True]), np.zeros(2)) == 1
        assert proxy_assign(np.array([-2.0]), np.array([False]), np.zeros(1)) == REJECT


class TestOgdUpdate:
    def test_direct_arithmetic(self):
        out = ogd_update(np.zeros(1), np.array([0.5]), np.array([1.0]), 0.1)
        assert out[0] == pytest.approx(-0.05, abs=1e-15)

    def test_zero_step(self):
        mu = np.array([0.3, -0.4])
        np.testing.assert_array_equal(ogd_update(mu, np.array([1.0, 0.0]), np.zeros(2), 0.0), mu)

    def test_random_recompute(self):
        rng = np.random.default_rng(0)
        mu, a, x = rng.normal(size=(3, 4))
        eta = 0.37
        np.testing.assert_array_equal(ogd_update(mu, a, x, eta), mu + eta * (a - x))


def single_dev_instance(dev, T=10, K=1, cost=0.0):
    targets = np.array([[dev.target if dev.family != "zero" else 0.0]] * K)
    return Instance(costs=[[cost]], feasible=[[True]], probs=np.array([1.0]), epochs=K,
                    horizon=T, targets=targets, dev_costs=tuple((dev,) for _ in range(K)),
                    allow_extended_targets=True)


def aux_column_objective(inst, epoch, mu, prior, i):
    """Resource ``i``'s coupled idealized-consumption objective and a
    subgradient, both in the epoch-increment coordinates."""
    grid = inst.dev_grid
    x_unit = prior[i] * inst.K / inst.T
    weights = np.arange(epoch + 1, inst.K + 1, dtype=float)
    sq, tg = grid.is_squared[epoch:, i], grid.target[epoch:, i]
    dp, dm = grid.d_plus[epoch:, i], grid.d_minus[epoch:, i]

    def f(col):
        gap = (x_unit + np.cumsum(col)) / weights - tg
        vals = np.where(sq, dp * gap * gap, dp * np.maximum(gap, 0) + dm * np.maximum(-gap, 0))
        return float((weights * vals).sum() + mu[:, i] @ col)

    def sub(col):
        gap = (x_unit + np.cumsum(col)) / weights - tg
        sl = np.where(sq, 2 * dp * gap, np.where(gap > 0, dp, np.where(gap < 0, -dm, 0.0)))
        return np.cumsum(sl[::-1])[::-1] + mu[:, i]
    return f, sub


def lbfgsb_objective(f, sub, R):
    return float(minimize(f, np.full(R, 0.5), jac=sub, method="L-BFGS-B",
                          bounds=[(0.0, 1.0)] * R).fun)


class TestIdealizedConsumption:
    def test_small_price_tracks_target(self):
        inst = single_dev_instance(DeviationCost.absolute(1.0, 0.6))
        a = idealized_consumption(inst, 0, np.array([[0.5]]), np.zeros(1))
        assert a[0, 0] == pytest.approx(0.6, abs=1e-4)

    def test_large_price_drives_to_zero(self):
        inst = single_dev_instance(DeviationCost.absolute(1.0, 0.6))
        a = idealized_consumption(inst, 0, np.array([[2.0]]), np.zeros(1))
        assert a[0, 0] == pytest.approx(0.0, abs=1e-4)

    def test_flat_objective_when_no_penalty(self):
        inst = single_dev_instance(DeviationCost.zero())
        a = idealized_consumption(inst, 0, np.zeros((1, 1)), np.zeros(1))
        assert 0.0 <= a[0, 0] <= 1.0  # any point is optimal; objective is 0

    def test_prior_consumption_validated(self):
        inst = idle_then_full_instance(1.0, 10)
        with pytest.raises(ValueError, match="prior"):
            idealized_consumption(inst, 1, np.zeros((1, 1)), np.array([9.0]))

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_path_matches_subgradient_solver(self, seed):
        inst = random_instance(seed, max_m=2, max_K=3, max_T=60)
        rng = np.random.default_rng(seed)
        epoch = int(rng.integers(0, inst.K))
        R = inst.K - epoch
        mu = rng.uniform(-1.5, 1.5, size=(R, inst.m))
        prior = np.floor(rng.uniform(0, epoch * inst.epoch_len + 1, size=inst.m))
        a = idealized_consumption(inst, epoch, mu, prior)
        for i in range(inst.m):
            f, sub = aux_column_objective(inst, epoch, mu, prior, i)
            res = solve_box_convex(f, sub, np.full(R, 0.5), budget=6000, rounds=10)
            assert f(a[:, i]) <= res.objective + 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_families_match_grid_and_lbfgsb(self, seed):
        inst = random_instance(seed + 300, max_m=2, max_K=4, max_T=80, allow_squared=True)
        rng = np.random.default_rng(seed)
        epoch = int(rng.integers(0, inst.K))
        R = inst.K - epoch
        mu = rng.uniform(-1.5, 1.5, size=(R, inst.m))
        prior = np.floor(rng.uniform(0, epoch * inst.epoch_len + 1, size=inst.m))
        a = idealized_consumption(inst, epoch, mu, prior)
        for i in range(inst.m):
            f, sub = aux_column_objective(inst, epoch, mu, prior, i)
            got = f(a[:, i])
            tol = 1e-9 * (1.0 + abs(got))
            assert got <= grid_minimize(lambda pts: np.array([f(x) for x in pts]), R, pts=9)[1] + tol
            assert got <= lbfgsb_objective(f, sub, R) + tol

    def test_squared_fallback_matches_grid(self):
        # the all-squared column once took a subgradient fallback; it is now exact
        targets = np.array([[0.3], [0.6]])
        dev = tuple((DeviationCost.squared(1.5, float(t)),) for t in targets[:, 0])
        inst = Instance(costs=[[0.0]], feasible=[[True]], probs=np.array([1.0]), epochs=2,
                        horizon=20, targets=targets, dev_costs=dev)
        mu = np.array([[0.4], [-0.3]])
        a = idealized_consumption(inst, 0, mu, np.zeros(1))
        f, sub = aux_column_objective(inst, 0, mu, np.zeros(1), 0)

        def f_batch(points):
            s = np.cumsum(points, axis=1)
            w = np.array([1.0, 2.0])
            vals = points @ mu[:, 0]
            for q in range(2):
                vals = vals + w[q] * 1.5 * (s[:, q] / w[q] - targets[q, 0]) ** 2
            return vals

        got = f_batch(a[:, 0][None, :])[0]
        assert got == pytest.approx(f(a[:, 0]), abs=1e-12)
        tol = 1e-9 * (1.0 + abs(got))
        assert got <= grid_minimize(f_batch, 2)[1] + tol
        assert got <= lbfgsb_objective(f, sub, 2) + tol


class TestProxyDualGd:
    def test_matches_single_epoch_when_one_epoch(self):
        for seed in range(6):
            inst = random_instance(seed, max_K=1, max_T=200)
            omega = sample_arrivals(inst, seed + 50)
            r_proxy = run_proxy_dual_gd(inst, omega)
            r_single = run_single_epoch_dgd(inst, omega)
            np.testing.assert_array_equal(r_proxy.decisions, r_single.decisions)
            assert r_proxy.total_cost == pytest.approx(r_single.total_cost, abs=1e-12)

    def test_epoch_fractions_on_zero_cost_two_target_instance(self):
        inst = zero_cost_two_target_instance(0.3, 0.4, 10.0, 4000)
        omega = ArrivalSequence(types=np.zeros(4000, dtype=int))
        r = run_proxy_dual_gd(inst, omega)
        assert epoch_acceptance_fraction(r, inst, 0) == pytest.approx(0.30, abs=0.03)
        assert epoch_acceptance_fraction(r, inst, 1) == pytest.approx(0.50, abs=0.03)

    def test_rejects_everything_when_costs_positive_and_no_penalty(self):
        targets = np.full((2, 2), 0.5)
        inst = Instance(costs=[[0.4, 0.7]], feasible=[[True, True]], probs=np.array([1.0]),
                        epochs=2, horizon=40, targets=targets,
                        dev_costs=uniform_dev_costs(targets, "zero", 0.0))
        omega = sample_arrivals(inst, 3)
        r = run_proxy_dual_gd(inst, omega)
        assert np.all(r.decisions == REJECT)
        assert r.total_cost == 0.0

    def test_dual_telescoping_and_reset(self):
        inst = random_instance(11, max_K=4, max_T=120)
        omega = sample_arrivals(inst, 11)
        cfg = PolicyConfig()
        r = run_proxy_dual_gd(inst, omega, cfg)
        step = inst.epoch_len
        mu_init = cfg.initial_duals(inst.K, inst.m)
        for t in range(inst.T):
            k = t // step
            x_ind = np.zeros((inst.K, inst.m))
            for k2 in range(k, inst.K):
                d = r.proxy_decisions[t, k2]
                if d >= 0:
                    x_ind[k2, d] = 1.0
            expected = r.mu_trace[t, k:] + r.eta * (r.a_trace[t, k:] - x_ind[k:])
            if t + 1 < inst.T and (t + 1) % step == 0:
                k_next = t // step + 1
                np.testing.assert_array_equal(r.mu_trace[t + 1, k_next:], mu_init[k_next:])
                np.testing.assert_array_equal(r.mu_trace[t + 1, k:k_next], expected[:k_next - k])
            else:
                np.testing.assert_array_equal(r.mu_trace[t + 1, k:], expected)

    def test_feasibility_and_determinism(self):
        inst = random_instance(13, max_T=160)
        omega = sample_arrivals(inst, 13)
        r1 = run_proxy_dual_gd(inst, omega)
        r2 = run_proxy_dual_gd(inst, omega)
        np.testing.assert_array_equal(r1.decisions, r2.decisions)
        np.testing.assert_array_equal(r1.mu_trace, r2.mu_trace)
        for t in range(inst.T):
            d = int(r1.decisions[t])
            assert d == REJECT or inst.feasible[int(omega.types[t]), d]

    @pytest.mark.parametrize("seed", range(10))
    def test_proxy_cost_reconstruction(self, seed):
        inst = random_instance(seed + 200, max_m=3, max_n=3, max_K=4, max_T=240,
                               allow_squared=(seed % 3 == 0))
        omega = sample_arrivals(inst, seed)
        r = run_proxy_dual_gd(inst, omega)
        dec = proxy_cost_decomposition(inst, r)
        scale = 1.0 + abs(dec["proxy_total"]) + abs(dec["unimplemented_assignment"]) \
            + abs(dec["unimplemented_deviation"])
        assert abs(dec["reconstructed"] - r.total_cost) <= 1e-9 * scale


class TestSingleEpochDgd:
    def test_tracks_target_with_large_penalty(self):
        targets = np.array([[0.5]])
        inst = Instance(costs=[[0.0]], feasible=[[True]], probs=np.array([1.0]), epochs=1,
                        horizon=2000, targets=targets,
                        dev_costs=uniform_dev_costs(targets, "absolute", 50.0))
        omega = ArrivalSequence(types=np.zeros(2000, dtype=int))
        r = run_single_epoch_dgd(inst, omega)
        assert (r.decisions >= 0).mean() == pytest.approx(0.5, abs=0.05)

    def test_no_penalty_reduces_to_greedy(self):
        inst = random_instance(21, max_K=1, max_T=300)
        inst = Instance(costs=inst.costs, feasible=inst.feasible, probs=inst.probs,
                        epochs=1, horizon=inst.T, targets=inst.targets[:1],
                        dev_costs=uniform_dev_costs(inst.targets[:1], "zero", 0.0))
        omega = sample_arrivals(inst, 21)
        np.testing.assert_array_equal(run_single_epoch_dgd(inst, omega).decisions,
                                      run_greedy(inst, omega).decisions)

    def test_recovers_from_hostile_initial_price(self):
        targets = np.array([[0.5]])
        inst = Instance(costs=[[-0.5]], feasible=[[True]], probs=np.array([1.0]), epochs=1,
                        horizon=2000, targets=targets,
                        dev_costs=uniform_dev_costs(targets, "absolute", 5.0))
        omega = ArrivalSequence(types=np.zeros(2000, dtype=int))
        cfg = PolicyConfig(mu_init=np.array([[-8.0]]))
        r = run_single_epoch_dgd(inst, omega, cfg)
        assert r.decisions[0] == REJECT  # hostile price rejects at the start
        sol = hindsight_optimum(inst, omega)
        offline_fraction = sol.counts.sum() / inst.T
        final_fraction = (r.decisions[inst.T // 2:] >= 0).mean()
        assert final_fraction == pytest.approx(offline_fraction, abs=0.1)

    def test_requires_single_epoch(self):
        inst = idle_then_full_instance(1.0, 10)
        omega = ArrivalSequence(types=np.zeros(10, dtype=int))
        with pytest.raises(ValueError, match="one epoch"):
            run_single_epoch_dgd(inst, omega)


class TestMyopic:
    def test_epoch_target_formula_me(self):
        targets = np.array([[0.25], [0.5]])
        inst = Instance(costs=[[0.0]], feasible=[[True]], probs=np.array([1.0]), epochs=2,
                        horizon=8, targets=targets,
                        dev_costs=uniform_dev_costs(targets, "absolute", 1.0))
        assert myopic_epoch_targets(inst, 1, "me", np.zeros(1))[0] == pytest.approx(0.75)
        assert myopic_epoch_targets(inst, 0, "me", np.zeros(1))[0] == pytest.approx(0.25)

    def test_epoch_target_formula_smart_me(self):
        targets = np.array([[0.25], [0.5]])
        inst = Instance(costs=[[0.0]], feasible=[[True]], probs=np.array([1.0]), epochs=2,
                        horizon=8, targets=targets,
                        dev_costs=uniform_dev_costs(targets, "absolute", 1.0))
        assert myopic_epoch_targets(inst, 1, "smart-me", np.zeros(1))[0] == pytest.approx(1.0)
        # with prior consumption the target adapts: k rho_k - Z/(T/K)
        assert myopic_epoch_targets(inst, 1, "smart-me", np.array([3.0]))[0] == pytest.approx(1.0 - 0.75)

    def test_smart_me_fails_on_idle_then_full_instance(self):
        T = 2000
        inst = idle_then_full_instance(2.0, T)
        omega = ArrivalSequence(types=np.zeros(T, dtype=int))
        r = run_myopic(inst, omega, variant="smart-me")
        assert epoch_acceptance_fraction(r, inst, 0, burn_in=0.0) <= 0.05
        off = hindsight_optimum(inst, omega).objective
        assert r.total_cost >= off + 0.4 * T

    def test_unknown_variant(self):
        inst = idle_then_full_instance(1.0, 10)
        omega = ArrivalSequence(types=np.zeros(10, dtype=int))
        with pytest.raises(ValueError, match="variant"):
            run_myopic(inst, omega, variant="bogus")


class TestNaivePrimalDual:
    def test_mixes_targets_on_zero_cost_instance(self):
        inst = zero_cost_two_target_instance(0.3, 0.4, 10.0, 4000)
        omega = ArrivalSequence(types=np.zeros(4000, dtype=int))
        r = run_naive_primal_dual(inst, omega)
        frac = (r.decisions[200:2000] >= 0).mean()
        assert frac == pytest.approx(0.35, abs=0.03)

    def test_single_epoch_equals_single_epoch_dgd(self):
        for seed in range(4):
            inst = random_instance(seed + 40, max_K=1, max_T=200)
            omega = sample_arrivals(inst, seed)
            np.testing.assert_array_equal(run_naive_primal_dual(inst, omega).decisions,
                                          run_single_epoch_dgd(inst, omega).decisions)

    def test_no_penalty_reduces_to_greedy(self):
        inst = random_instance(43, max_T=200)
        inst = Instance(costs=inst.costs, feasible=inst.feasible, probs=inst.probs,
                        epochs=inst.K, horizon=inst.T, targets=inst.targets,
                        dev_costs=uniform_dev_costs(inst.targets, "zero", 0.0))
        omega = sample_arrivals(inst, 43)
        np.testing.assert_array_equal(run_naive_primal_dual(inst, omega).decisions,
                                      run_greedy(inst, omega).decisions)


class TestGreedy:
    def test_rejects_positive_costs(self):
        inst = single_dev_instance(DeviationCost.zero(), T=10, cost=0.7)
        omega = ArrivalSequence(types=np.zeros(10, dtype=int))
        assert np.all(run_greedy(inst, omega).decisions == REJECT)

    def test_takes_cheapest_negative(self):
        targets = np.zeros((1, 3))
        inst = Instance(costs=[[-0.2, -0.9, -0.5]], feasible=[[True, True, True]],
                        probs=np.array([1.0]), epochs=1, horizon=5, targets=targets,
                        dev_costs=uniform_dev_costs(targets, "zero", 0.0))
        omega = ArrivalSequence(types=np.zeros(5, dtype=int))
        assert np.all(run_greedy(inst, omega).decisions == 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration(self, seed):
        inst = random_instance(seed + 60, max_T=60)
        omega = sample_arrivals(inst, seed)
        r = run_greedy(inst, omega)
        for t in range(inst.T):
            j = int(omega.types[t])
            opts = {REJECT: 0.0}
            for i in np.flatnonzero(inst.feasible[j]):
                opts[int(i)] = float(inst.costs[j, i])
            best = min(opts.values())
            choices = [k for k, v in opts.items() if v == best]
            want = min(c for c in choices if c != REJECT) if any(c != REJECT for c in choices) else REJECT
            assert r.decisions[t] == want
