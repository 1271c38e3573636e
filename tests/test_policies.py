"""Online policies: decision rules, dynamics on the counterexample
instances, structural invariants, the proxy-cost reconstruction, and
pinned outputs of every policy."""

import hashlib
from dataclasses import replace

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
from flowtarget.core import REJECT, export_trace_csv, replay_decisions, total_cost
from flowtarget.harness import epoch_acceptance_fraction, run_experiment
from flowtarget.instances import (
    SyntheticParams,
    generate_synthetic,
    idle_then_full_instance,
    random_instance,
    sample_arrivals,
    zero_cost_two_target_instance,
)
from flowtarget.oracle import cumulative_proxy_cost, proxy_cost_decomposition
from flowtarget.policies import PROXY_NA, POLICIES, _chain_solver, myopic_epoch_targets
from flowtarget.solver import solve_box_convex

from helpers import grid_minimize, reference_chain_solve
from test_harness import small_config
from test_oracle import pinned_dual_problem


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

    def test_stacked_rows_each_decide(self):
        # tie (lowest index wins), adjusted cost exactly 0 (assign),
        # masked cheaper resource, everything positive, all masked
        cost = np.array([0.5, 0.5, -3.0])
        feasible = np.array([True, True, False])
        rows = np.array([[1.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.75, 9.0], [0.0, 0.0, 9.0]])
        assert proxy_assign(cost, feasible, rows) == [0, 0, 1, REJECT]
        assert proxy_assign(cost, np.zeros(3, dtype=bool), rows[:2]) == [REJECT, REJECT]
        assert proxy_assign(cost, feasible, rows[:0]) == []
        assert proxy_assign(cost.tolist(), feasible.tolist(), []) == []

    def test_mismatched_array_lengths_are_rejected(self):
        cost, feasible = np.array([-1.0, -0.5]), np.array([True, True])
        for args in ((cost, feasible, np.zeros(3)), (cost, feasible[:1], np.zeros(2)),
                     (cost, feasible, np.zeros((2, 3)))):
            with pytest.raises(ValueError, match="one entry per resource"):
                proxy_assign(*args)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_stacked_equals_row_by_row(self, m):
        # dyadic values make exact ties and exact zero adjusted costs common
        rng = np.random.default_rng(m)
        for _ in range(400):
            R = int(rng.integers(1, 5))
            cost = rng.integers(-4, 5, size=m) * 0.25
            feasible = rng.random(m) < 0.7
            rows = rng.integers(-4, 5, size=(R, m)) * 0.25
            got = proxy_assign(cost, feasible, rows)
            assert got == [proxy_assign(cost, feasible, row) for row in rows]
            # the kernel's form: lists of Python floats and bools
            assert proxy_assign(cost.tolist(), feasible.tolist(), rows.tolist()) == got
            assert proxy_assign(cost.tolist(), feasible.tolist(), rows[0].tolist()) == got[0]
            adj = np.where(feasible, cost - rows, np.inf)
            pick = np.argmin(adj, axis=1)
            want = np.where(adj[np.arange(R), pick] <= 0.0, pick, REJECT)
            assert got == want.tolist()


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


class TestPolicyConfig:
    @pytest.mark.parametrize("config, field", [
        (PolicyConfig(eta=np.nan), "eta"),
        (PolicyConfig(eta=np.inf), "eta"),
        (PolicyConfig(eta=0.0), "eta"),
        (PolicyConfig(eta=-0.1), "eta"),
        (PolicyConfig(eta_mult=-1.0), "eta_mult"),
        (PolicyConfig(eta_mult=0.0), "eta_mult"),
        (PolicyConfig(eta_mult=np.nan), "eta_mult"),
    ])
    @pytest.mark.parametrize("policy", ["proxy-dgd", "smart-me", "naive-pd"])
    def test_bad_stepsize_names_its_field(self, config, field, policy):
        # eta_mult = -1 used to run proxy-dgd with prices moving the wrong
        # way (cost 34.3151...), and eta = nan to run it on NaN prices
        inst = generate_synthetic(SyntheticParams(T=30, seed=7))
        with pytest.raises(ValueError, match=rf"^{field} must be positive and finite"):
            POLICIES[policy](inst, sample_arrivals(inst, 7), config)

    def test_greedy_ignores_its_config(self):
        inst = generate_synthetic(SyntheticParams(T=30, seed=7))
        omega = sample_arrivals(inst, 7)
        run = run_greedy(inst, omega, PolicyConfig(eta_mult=-1.0, mu_init=np.ones((inst.K, inst.m))))
        assert run.eta == 0.0 and not run.mu_trace.any()
        np.testing.assert_array_equal(run.decisions, run_greedy(inst, omega).decisions)


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

    @pytest.mark.parametrize("case", ["prior shape", "negative prior", "NaN prior", "NaN duals"])
    def test_bad_input_is_rejected_naming_it(self, case):
        # these once passed silently: a one-element prior broadcast to every
        # resource, a prior of -50 was accepted and NaN prices gave all ones
        inst = generate_synthetic(SyntheticParams(T=30))
        duals, prior = np.zeros((2, 3)), np.zeros(3)
        match = "prior_consumption must be finite and nonnegative"
        if case == "prior shape":
            prior, match = np.array([5.0]), r"prior_consumption must have shape \(3,\)"
        elif case == "negative prior":
            prior[0] = -50.0
        elif case == "NaN prior":
            prior[1] = np.nan
        else:
            duals[0, 1], match = np.nan, "duals must be finite"
        with pytest.raises(ValueError, match=match):
            idealized_consumption(inst, 1, duals, prior)

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

    @pytest.mark.parametrize("squared", [False, True])
    def test_batched_solve_matches_frozen_per_column_solve(self, squared):
        draws = 0
        for seed in range(60):
            inst = random_instance(seed + 500, max_m=4, max_K=4, max_T=80, allow_squared=squared)
            rng = np.random.default_rng(seed)
            epoch = int(rng.integers(0, inst.K))
            prior = np.floor(rng.uniform(0, epoch * inst.epoch_len + 1, size=inst.m))
            solve = _chain_solver(inst, epoch, prior)
            for _ in range(20):
                duals = rng.uniform(-1.5, 1.5, size=(inst.K - epoch, inst.m))
                duals[rng.random(duals.shape) < 0.2] = 0.0
                want = reference_chain_solve(inst, epoch, prior, duals)
                assert np.array(solve(duals)).tobytes() == want.tobytes()
                draws += 1
        assert draws == 1200

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

    @pytest.mark.parametrize("seed", range(6))
    def test_implemented_decision_is_the_current_epochs_proxy(self, seed):
        inst = random_instance(seed + 700, max_K=4, max_T=160, allow_squared=(seed % 2 == 1))
        r = run_proxy_dual_gd(inst, sample_arrivals(inst, seed))
        t = np.arange(inst.T)
        np.testing.assert_array_equal(r.decisions, r.proxy_decisions[t, t // inst.epoch_len])
        past = np.arange(inst.K)[None, :] < (t // inst.epoch_len)[:, None]
        assert np.all(r.proxy_decisions[past] == PROXY_NA)
        assert np.all(r.proxy_decisions[~past] >= REJECT)

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

    @pytest.mark.parametrize("case", ["typed", "continuous"])
    def test_one_pass_equals_per_period_proxy_assign(self, case):
        # ties, zero costs and infeasible cells, including a type with no
        # feasible resource; the reference prices every period at zero
        rng = np.random.default_rng(3)
        targets = np.full((2, 4), 0.25)
        dev = uniform_dev_costs(targets, "absolute", 1.0)
        if case == "typed":
            costs = rng.choice([-0.5, -0.25, 0.0, 0.25], size=(6, 4))
            feasible = rng.random((6, 4)) < 0.7
            feasible[5] = False
            inst = Instance(costs=costs, feasible=feasible, probs=np.full(6, 1 / 6), epochs=2,
                            horizon=400, targets=targets, dev_costs=dev)
            omega = ArrivalSequence(types=rng.integers(0, 6, size=400))
            assert {0.0, -0.5}.issubset(set(costs[feasible]))
        else:
            inst = Instance(costs=np.zeros((0, 4)), feasible=np.zeros((0, 4), dtype=bool),
                            probs=None, epochs=2, horizon=400, targets=targets, dev_costs=dev,
                            continuous=True)
            cvecs = rng.choice([-0.5, -0.25, -0.0, 0.0, 0.25], size=(400, 4))
            cvecs[::20] = 0.25
            omega = ArrivalSequence(cost_vectors=cvecs)
        r = run_greedy(inst, omega)
        cvecs, feas = omega.per_period(inst)
        want = [proxy_assign(c, f, np.zeros(4)) for c, f in zip(cvecs, feas)]
        assert r.decisions.dtype == np.int16
        np.testing.assert_array_equal(r.decisions, want)
        assert REJECT in want and len(set(want)) > 2
        assert not r.mu_trace.any() and not r.a_trace.any()


def pinned_policy_problem(kind):
    """Small seeded instances for the pinned policy outputs, with the config
    every dual policy runs under: the pinned dual-backend problems (typed,
    squared, continuous), ``mixed`` with every penalty family, infeasible
    cells and a warm, nonzero initial price, and ``single`` with K = 1."""
    if kind == "mixed":
        inst = random_instance(17, max_K=4, max_T=120, allow_squared=True)
        mu_init = np.random.default_rng(17).normal(scale=0.3, size=(inst.K, inst.m))
        return inst, sample_arrivals(inst, 17), PolicyConfig(eta=0.3, mu_init=mu_init)
    if kind == "single":
        inst = generate_synthetic(SyntheticParams(T=60, K=1, delta=1.0, gamma=2.0, seed=7))
        return inst, sample_arrivals(inst, 7), PolicyConfig()
    return (*pinned_dual_problem(kind), PolicyConfig())


def run_digest(inst, omega, result, tmp_path):
    """SHA-256 over a run's arrays (name, dtype, shape and bytes of each) and
    the bytes of its exported trace CSV."""
    h = hashlib.sha256()
    for name in ("decisions", "mu_trace", "a_trace", "proxy_decisions",
                 "epoch_consumption", "by_type_final"):
        arr = getattr(result, name)
        h.update(name.encode())
        if arr is None:
            h.update(b"none")
            continue
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    path = tmp_path / "trace.csv"
    export_trace_csv(str(path), inst, omega, result)
    h.update(path.read_bytes())
    return h.hexdigest()


def pinned_cases():
    kinds = ("continuous", "mixed", "squared", "typed")
    cases = [(kind, name) for kind in kinds for name in sorted(POLICIES) if name != "single-epoch-dgd"]
    return cases + [("single", name) for name in sorted(POLICIES)]


class TestPoliciesPinned:
    # (digest of run_digest, assignment cost, deviation cost, total cost),
    # recorded from the four per-policy loops before they became one kernel.
    # The one kernel sums me/smart-me assignment costs over the whole run,
    # not per epoch first; only those costs (and their totals) were
    # re-recorded, each within 2e-14 of the old value.
    PINNED = {
        ("continuous", "greedy"): ("16164b1019876441ed359dffce83b1d2a955e8955e1acd57ca04b0b2bfc9d4c5",
            -66.36240907401958, 29.0, -37.36240907401958),
        ("continuous", "me"): ("d5550ffab8f421487496e71ac0ca92d2de7616c11cdc17af2d8920d5e0f8e836",
            -65.44910948096351, 28.0, -37.449109480963514),
        ("continuous", "naive-pd"): ("4ae10b974016a740bed1b28398bd2903d5c8cfa56c9ff97b53d5be636159f3fb",
            -63.73820506392355, 24.0, -39.73820506392355),
        ("continuous", "proxy-dgd"): ("85b0add419220e4de3627f7fd5c64b9511ea0c8f513cb7c7495e2be40e745488",
            -66.19401127116082, 28.0, -38.19401127116082),
        ("continuous", "smart-me"): ("406a5e66be8a15591e285e12aef313a020ffd57d7fd07b3c4d10216987f725ee",
            -65.26661724577272, 28.0, -37.26661724577272),
        ("mixed", "greedy"): ("9076b6fae460f9078a66310938e396b15ed021ddeb62ad66eccdc94078a43dd8",
            -60.97651119504478, 124.03588698766012, 63.05937579261534),
        ("mixed", "me"): ("b36a09f774c2f4a71be7ace822f0bd7eecfb6ade69cd2d7f07c7b29219c7f00d",
            -44.510247311009735, 115.23403270811593, 70.7237853971062),
        ("mixed", "naive-pd"): ("208c008cdee38a9e16150786f2a6abaa8b21471e4a5716fc23b8591e18837df3",
            -47.78645297935719, 91.25515487695617, 43.468701897598976),
        ("mixed", "proxy-dgd"): ("a9822d3b5f82046bb39fedf46875c4f21feeef607190825830addd06840f749d",
            -46.84430596395094, 91.18379104702048, 44.33948508306954),
        ("mixed", "smart-me"): ("6f31f771c26761baea025a2e1c18b0cfca333c8999a440c564d059d51230407d",
            -44.425758104742286, 99.23534114128597, 54.809583036543685),
        ("squared", "greedy"): ("e09a647f9927d04fbede147d5f2275459908aca6c54a6b6d8f5f106838e144c1",
            -45.617687961614514, 9.148756009669267, -36.46893195194525),
        ("squared", "me"): ("4398ba2fb465e645dbbb0f2ea4f7ef1c6562f30a588bbd7229a5133650b8d8d8",
            -38.305745822343994, 4.771202383177423, -33.53454343916657),
        ("squared", "naive-pd"): ("98a7c622bc4129973cebfcd63bc1020d2c56a685d5831592db577cfc69ebdd11",
            -38.03889305598245, 5.798756009669266, -32.24013704631318),
        ("squared", "proxy-dgd"): ("82c37851a4c6c18f6761348266fb7e9b1c25b5edfccf90e114b31d8fd40e2fa7",
            -42.93379680981159, 6.1987560096692675, -36.73504080014232),
        ("squared", "smart-me"): ("6130d18be75d586cab80e1a8f7f593d77048a145e0dab2677c4e8d76e0dc1e44",
            -40.08855825879754, 5.14222383377416, -34.94633442502338),
        ("typed", "greedy"): ("65c699bdb29f20814f897d2e1a9dd03707e76d6dc6a541f2076bb358df82adf4",
            -45.617687961614514, 42.37688117263404, -3.2408067889804713),
        ("typed", "me"): ("19fcab1aee829d319c9f67648851126ee8300f231b4d95ed071683f489d9e144",
            -35.34751144622238, 30.0, -5.347511446222377),
        ("typed", "naive-pd"): ("ab5ef03168bde368976d7ad02ce5d798ba18b86e2ab33e08ae2adc86755db066",
            -30.43210969126473, 27.0, -3.4321096912647313),
        ("typed", "proxy-dgd"): ("4ee3ab3afdc7a2b93c20960b721ec5cfa29ba6e84410ed7209d4c55c8ce68e17",
            -36.045295389114074, 31.0, -5.045295389114074),
        ("typed", "smart-me"): ("7cd758f54141f56910ffb2094b3beec0b6eb05eb6a6dee1a8c069eaa8a1119a1",
            -35.03446559503168, 30.0, -5.0344655950316834),
        ("single", "greedy"): ("1034ffa09ff3271d48ca6941d69cada4b38ab0ced953010666207295c95d92c8",
            -45.617687961614514, 18.86935648209789, -26.748331479516626),
        ("single", "me"): ("a4d16786c03666f5f17ca64004f9e8e6c9d9b0144aaff5c2a009e3eaa6058337",
            -40.763323710007576, 8.869356482097889, -31.893967227909688),
        ("single", "naive-pd"): ("a4d16786c03666f5f17ca64004f9e8e6c9d9b0144aaff5c2a009e3eaa6058337",
            -40.763323710007576, 8.869356482097889, -31.893967227909688),
        ("single", "proxy-dgd"): ("0c1457827cb978a16910ae35c448a8cbcd06e97b4e6047630d080bcf841cdf02",
            -40.763323710007576, 8.869356482097889, -31.893967227909688),
        ("single", "single-epoch-dgd"): ("a4d16786c03666f5f17ca64004f9e8e6c9d9b0144aaff5c2a009e3eaa6058337",
            -40.763323710007576, 8.869356482097889, -31.893967227909688),
        ("single", "smart-me"): ("a4d16786c03666f5f17ca64004f9e8e6c9d9b0144aaff5c2a009e3eaa6058337",
            -40.763323710007576, 8.869356482097889, -31.893967227909688),
    }

    @pytest.mark.parametrize("kind, policy", pinned_cases())
    def test_outputs_are_bit_identical_to_recorded(self, kind, policy, tmp_path):
        inst, omega, cfg = pinned_policy_problem(kind)
        r = POLICIES[policy](inst, omega, cfg)
        got = (run_digest(inst, omega, r, tmp_path), r.assignment_cost, r.deviation_cost, r.total_cost)
        assert got == self.PINNED[kind, policy]

    @pytest.mark.parametrize("kind, policy", pinned_cases())
    def test_costs_match_a_replay_of_the_decisions(self, kind, policy):
        # the kernel charges through core.deviation_charge, not total_cost
        inst, omega, cfg = pinned_policy_problem(kind)
        r = POLICIES[policy](inst, omega, cfg)
        state, assignment = replay_decisions(inst, omega, r.decisions)
        assert (r.assignment_cost, r.deviation_cost, r.total_cost) == total_cost(inst, state, assignment)
        running = state.snapshots / (np.arange(1, inst.K + 1) * inst.epoch_len)[:, None]
        np.testing.assert_array_equal(r.running_avg, running)
        np.testing.assert_array_equal(r.epoch_consumption, state.snapshots)

    # SHA-256 of replications.csv from the harness tests' small config
    REPLICATIONS = "bb7131ccd07c3cd024b36051360e7dbb78b5bc80424951a8c9b6e9b05734423d"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_small_config_replications_csv(self, workers, tmp_path):
        info = run_experiment(small_config(workers=workers), str(tmp_path / "out"))
        with open(info["replications_csv"], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == self.REPLICATIONS


BATTERY_POLICIES = ("greedy", "me", "naive-pd", "proxy-dgd", "smart-me")


def battery_problem(seed, K):
    """A seeded typed instance, its arrivals and config for the digest
    battery: every penalty family, squared penalties in a third of the
    seeds, one all-zero (flat) epoch row in a fifth, costs on a 0.25 grid
    (ties and signed zeros) in half, and a random ``mu_init`` in half."""
    rng = np.random.default_rng([seed, K])
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    T = K * int(rng.integers(4, 25))
    costs = rng.uniform(-1.0, 1.0, size=(n, m))
    if seed % 2 == 0:
        costs = np.round(costs * 4.0) / 4.0
    feasible = rng.random((n, m)) < 0.85
    targets = rng.uniform(0.0, 1.0, size=(K, m))
    fams = ["absolute", "under_over", "zero"] + (["squared"] if seed % 3 == 0 else [])
    flat_row = int(rng.integers(0, K)) if seed % 5 == 0 else -1
    rows = []
    for k in range(K):
        row = []
        for i in range(m):
            fam, t = ("zero" if k == flat_row else str(rng.choice(fams))), float(targets[k, i])
            d_plus, d_minus = rng.uniform(0.1, 2.0, size=2)
            row.append({"zero": DeviationCost.zero(),
                        "absolute": DeviationCost.absolute(d_plus, t),
                        "under_over": DeviationCost.under_over(d_plus, float(rng.choice([0.0, d_minus])), t),
                        "squared": DeviationCost.squared(d_plus, t)}[fam])
        rows.append(tuple(row))
    inst = Instance(costs=costs, feasible=feasible, probs=rng.dirichlet(np.ones(n)), epochs=K,
                    horizon=T, targets=targets, dev_costs=tuple(rows))
    mu_init = rng.normal(scale=0.5, size=(K, m)) if seed % 2 == 1 else None
    return inst, sample_arrivals(inst, seed), PolicyConfig(eta=float(rng.uniform(0.1, 1.0)),
                                                           mu_init=mu_init)


class TestPolicyDigestBattery:
    # SHA-256, per (K, policy), over 30 seeds' run_digest values and the
    # float.hex of their three costs; recorded before the policy kernel
    # moved its per-period state from numpy arrays to Python floats
    PINNED = {
        (1, 'greedy'): "24703880a6d487c3f08f5a5759db44aa6d12368a1a7cd31a1e370450626ec0c2",
        (3, 'greedy'): "c2ba506ebbc2a20dc5894df45bc8e9d8400f2a86f349f8d8f6a4d2b7e2710575",
        (4, 'greedy'): "98774866722ed5a99654273578559248bfee56ca76bf493db53fcee5f05a5d11",
        (1, 'me'): "78c2bef9b11f892ddbf212ad878d947208f455075248fc252344e9608917bf6a",
        (3, 'me'): "d7da6bac9f8ed264ccb87f4ef7084e6ae17c0f512f568c8a6737f67665608ed4",
        (4, 'me'): "c31995f61a8ba8eab0ca920a28d08bb17c6ad10ab1a8167d3feac4fa826a213d",
        (1, 'naive-pd'): "78c2bef9b11f892ddbf212ad878d947208f455075248fc252344e9608917bf6a",
        (3, 'naive-pd'): "9fa925dcc555f12f5198dd62c55538b3ccc8832fdcf3978979900337ff6768ae",
        (4, 'naive-pd'): "9695b428e36fa5cc9f35d73410abaffb676333ac80895c0109e38ee350f02c29",
        (1, 'proxy-dgd'): "7fffc9e05cfbaf08f30d6fb02a5eb23a40db3e3127d8ecb1fc3d77e4600fb8f1",
        (3, 'proxy-dgd'): "48f18548a7d5a9ab345c227f7931c700220c318f5f8bda8d6bc2e42a48b65503",
        (4, 'proxy-dgd'): "809eca7824eed417a2ad9a63138846f906da4ef0973ae9b7c1b6394a3abd5514",
        (1, 'smart-me'): "78c2bef9b11f892ddbf212ad878d947208f455075248fc252344e9608917bf6a",
        (3, 'smart-me'): "3ddeadab2699ef0d98b8a0863c049eced311af53e91b446c20abda5c83588868",
        (4, 'smart-me'): "871a07866a951fb7711df5218bbdf4eb9c8ac6be00e27e0ae73d17382af1c190",
    }

    @pytest.mark.parametrize("K", [1, 3, 4])
    @pytest.mark.parametrize("policy", BATTERY_POLICIES)
    def test_outputs_are_bit_identical_to_recorded(self, policy, K, tmp_path):
        h = hashlib.sha256()
        for seed in range(30):
            inst, omega, cfg = battery_problem(seed, K)
            r = POLICIES[policy](inst, omega, cfg)
            h.update(run_digest(inst, omega, r, tmp_path).encode())
            for cost in (r.assignment_cost, r.deviation_cost, r.total_cost):
                h.update(float(cost).hex().encode())
        assert h.hexdigest() == self.PINNED[K, policy]


class TestTracesOff:
    """``PolicyConfig(traces=False)``, the harness's runs: no trace, and
    every other output bit for bit the traced run's."""

    @pytest.mark.parametrize("K", [1, 3, 4])
    @pytest.mark.parametrize("policy", BATTERY_POLICIES)
    def test_outputs_equal_the_traced_run(self, policy, K):
        for seed in range(30):
            inst, omega, cfg = battery_problem(seed, K)
            off = POLICIES[policy](inst, omega, replace(cfg, traces=False))
            on = POLICIES[policy](inst, omega, cfg)
            assert off.mu_trace is None and off.a_trace is None and off.proxy_decisions is None
            assert on.mu_trace is not None and on.a_trace is not None
            for name in ("decisions", "epoch_consumption", "by_type_final", "running_avg",
                         "abs_deviation"):
                a, b = getattr(off, name), getattr(on, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), (seed, name)
            for name in ("assignment_cost", "deviation_cost", "total_cost", "eta"):
                assert float(getattr(off, name)).hex() == float(getattr(on, name)).hex(), (seed, name)

    def test_trace_readers_reject_an_untraced_run(self, tmp_path):
        inst, omega, cfg = battery_problem(3, 3)
        r = run_proxy_dual_gd(inst, omega, replace(cfg, traces=False))
        with pytest.raises(ValueError, match="no mu_trace"):
            export_trace_csv(str(tmp_path / "trace.csv"), inst, omega, r)
        assert not (tmp_path / "trace.csv").exists()
        with pytest.raises(ValueError, match="proxy decisions"):
            proxy_cost_decomposition(inst, r)
        with pytest.raises(ValueError, match="proxy decisions"):
            cumulative_proxy_cost(inst, r, 0)
