"""Offline benchmarks: closed forms, brute-force sandwich, backend
agreement, window degeneracies, and the proxy-cost bookkeeping."""

import hashlib

import numpy as np
import pytest

from flowtarget import (
    ArrivalSequence,
    Instance,
    brute_force_offline,
    cumulative_proxy_cost,
    hindsight_optimum,
    myopic_offline,
    proxy_offline,
    run_proxy_dual_gd,
    uniform_dev_costs,
)
from flowtarget.instances import (
    generate_synthetic,
    idle_then_full_instance,
    random_instance,
    sample_arrivals,
    sample_gumbel_arrivals,
    zero_cost_two_target_instance,
    GumbelCostModel,
    SyntheticParams,
)
from flowtarget.oracle import (
    DUAL_SUBGRADIENT,
    EXACT_LP,
    UnsupportedFamilyError,
    validate_solution,
)
from flowtarget.policies import POLICIES


def constant_omega(T):
    return ArrivalSequence(types=np.zeros(T, dtype=int))


class TestClosedForms:
    @pytest.mark.parametrize("T", [100, 2000])
    def test_push_pull_instance_values(self, T):
        delta = 2.0
        inst = idle_then_full_instance(delta, T)
        omega = constant_omega(T)
        off = hindsight_optimum(inst, omega)
        assert off.objective == pytest.approx(-T + delta * T / 2, abs=1e-9 * T)
        myo1 = myopic_offline(inst, omega.types[: T // 2], np.zeros(1), 0)
        assert myo1.objective == pytest.approx(0.0, abs=1e-9 * T)
        myo2 = myopic_offline(inst, omega.types[T // 2:], np.zeros(1), 1)
        assert myo2.objective == pytest.approx(-T / 2 + delta * T / 2, abs=1e-9 * T)

    def test_myopic_zero_deviation_is_greedy_within_epoch(self):
        inst = random_instance(77, max_K=3, max_T=60)
        inst = Instance(costs=inst.costs, feasible=inst.feasible, probs=inst.probs,
                        epochs=inst.K, horizon=inst.T, targets=inst.targets,
                        dev_costs=uniform_dev_costs(inst.targets, "zero", 0.0))
        omega = sample_arrivals(inst, 77)
        k = inst.K - 1
        step = inst.epoch_len
        slice_k = omega.types[k * step:(k + 1) * step]
        lam = np.bincount(slice_k, minlength=inst.n)
        want = sum(
            lam[j] * min(0.0, min((inst.costs[j, i] for i in np.flatnonzero(inst.feasible[j])),
                                  default=0.0))
            for j in range(inst.n))
        got = myopic_offline(inst, slice_k, np.zeros(inst.m), k).objective
        assert got == pytest.approx(want, abs=1e-8)

    def test_zero_deviation_reduces_to_greedy_split(self):
        inst = random_instance(17, max_T=120)
        inst = Instance(costs=inst.costs, feasible=inst.feasible, probs=inst.probs,
                        epochs=inst.K, horizon=inst.T, targets=inst.targets,
                        dev_costs=uniform_dev_costs(inst.targets, "zero", 0.0))
        omega = sample_arrivals(inst, 17)
        lam = omega.type_counts(inst)
        want = sum(
            lam[j] * min(0.0, min((inst.costs[j, i] for i in np.flatnonzero(inst.feasible[j])),
                                  default=0.0))
            for j in range(inst.n))
        assert hindsight_optimum(inst, omega).objective == pytest.approx(want, abs=1e-8)

    def test_brute_force_push_pull_T4(self):
        inst = idle_then_full_instance(2.0, 4)
        omega = constant_omega(4)
        sol = brute_force_offline(inst, omega)
        assert sol.objective == pytest.approx(-4 + 2.0 * 4 / 2, abs=1e-12)
        assert sol.counts.sum() == 4  # accepts every arrival

    def test_brute_force_matches_greedy_with_zero_deviation(self):
        inst = random_instance(23, max_m=2, max_n=2, max_K=2, max_T=8)
        inst = Instance(costs=inst.costs, feasible=inst.feasible, probs=inst.probs,
                        epochs=inst.K, horizon=inst.T, targets=inst.targets,
                        dev_costs=uniform_dev_costs(inst.targets, "zero", 0.0))
        omega = sample_arrivals(inst, 23)
        greedy = POLICIES["greedy"](inst, omega, None)
        assert brute_force_offline(inst, omega).objective == pytest.approx(
            greedy.total_cost, abs=1e-10)


class TestSandwichAndBackends:
    @pytest.mark.parametrize("seed", range(25))
    def test_lp_brute_force_sandwich(self, seed):
        inst = random_instance(seed, max_m=2, max_n=2, max_K=2, max_T=8)
        omega = sample_arrivals(inst, seed + 1)
        lp = hindsight_optimum(inst, omega, backend=EXACT_LP)
        bf = brute_force_offline(inst, omega)
        assert lp.objective <= bf.objective + 1e-8
        validate_solution(inst, omega, lp)
        validate_solution(inst, omega, bf)

    @pytest.mark.parametrize("seed", range(10))
    def test_dual_backend_agrees_within_gap(self, seed):
        inst = random_instance(seed + 500, max_m=2, max_n=2, max_K=2, max_T=8)
        omega = sample_arrivals(inst, seed + 2)
        lp = hindsight_optimum(inst, omega, backend=EXACT_LP)
        ds = hindsight_optimum(inst, omega, backend=DUAL_SUBGRADIENT, dual_iters=8000)
        assert ds.gap >= -1e-9
        assert ds.dual_bound <= lp.objective + 1e-7
        assert lp.objective <= ds.objective + 1e-7
        assert ds.gap <= 0.01 * abs(ds.objective) + 1e-6

    def test_squared_family_rejected_by_exact_lp(self):
        inst = random_instance(4)
        targets = inst.targets
        sq = Instance(costs=inst.costs, feasible=inst.feasible, probs=inst.probs,
                      epochs=inst.K, horizon=inst.T, targets=targets,
                      dev_costs=uniform_dev_costs(targets, "squared", 1.0))
        omega = sample_arrivals(sq, 4)
        with pytest.raises(UnsupportedFamilyError):
            hindsight_optimum(sq, omega, backend=EXACT_LP)
        ds = hindsight_optimum(sq, omega, backend=DUAL_SUBGRADIENT, dual_iters=3000)
        assert np.isfinite(ds.objective)

    def test_brute_force_refusal(self):
        inst = random_instance(9, max_m=3, max_n=3, max_K=2, max_T=60)
        if (inst.m + 1) ** inst.T <= 1e7:
            pytest.skip("instance too small to trigger the refusal")
        omega = sample_arrivals(inst, 9)
        with pytest.raises(ValueError, match="refusing enumeration"):
            brute_force_offline(inst, omega)

    def test_lower_bounds_every_policy(self):
        inst = random_instance(31, max_T=120)
        omega = sample_arrivals(inst, 31)
        off = hindsight_optimum(inst, omega).objective
        for name, policy in POLICIES.items():
            if name == "single-epoch-dgd" and inst.K != 1:
                continue
            cost = policy(inst, omega, None).total_cost
            assert off <= cost + 1e-7 * abs(cost) + 1e-9, name

    def test_continuous_mode_exact_lp(self):
        model = GumbelCostModel(locations=np.array([[-0.3, 0.4]]), rate=2.0)
        T, K = 24, 2
        targets = np.full((K, 2), 0.3)
        inst = Instance(costs=np.zeros((0, 2)), feasible=np.zeros((0, 2), dtype=bool),
                        probs=None, epochs=K, horizon=T, targets=targets,
                        dev_costs=uniform_dev_costs(targets, "absolute", 0.7),
                        continuous=True)
        omega = sample_gumbel_arrivals(model, T, seed=5)
        lp = hindsight_optimum(inst, omega, backend=EXACT_LP)
        ds = hindsight_optimum(inst, omega, backend=DUAL_SUBGRADIENT, dual_iters=6000)
        assert lp.objective <= ds.objective + 1e-7
        greedy = POLICIES["greedy"](inst, omega, None)
        assert lp.objective <= greedy.total_cost + 1e-9


class TestWindowDegeneracies:
    def test_proxy_last_epoch_equals_myopic(self):
        inst = random_instance(41, max_K=3, max_T=90)
        omega = sample_arrivals(inst, 41)
        k = inst.K - 1
        step = inst.epoch_len
        z = np.minimum(np.arange(inst.m, dtype=float), k * step)
        slice_k = omega.types[k * step:]
        a = proxy_offline(inst, slice_k, z, k)
        b = myopic_offline(inst, slice_k, z, k)
        assert a.objective == pytest.approx(b.objective, abs=1e-8)

    def test_proxy_single_epoch_equals_hindsight(self):
        inst = random_instance(43, max_K=1, max_T=60)
        omega = sample_arrivals(inst, 43)
        a = proxy_offline(inst, omega.types, np.zeros(inst.m), 0)
        b = hindsight_optimum(inst, omega)
        assert a.objective == pytest.approx(b.objective, abs=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_proxy_offline_lower_bounds_proxy_run_cost(self, seed):
        inst = random_instance(seed + 700, max_m=2, max_n=2, max_K=3, max_T=120)
        omega = sample_arrivals(inst, seed)
        r = run_proxy_dual_gd(inst, omega)
        step = inst.epoch_len
        for k in range(inst.K):
            z = r.epoch_consumption[k - 1].astype(float) if k > 0 else np.zeros(inst.m)
            off = proxy_offline(inst, omega.types[k * step:(k + 1) * step], z, k)
            online = cumulative_proxy_cost(inst, r, k)
            assert off.objective <= online + 1e-7 * abs(online) + 1e-7


class TestCumulativeProxyCost:
    def test_single_epoch_equals_total_cost(self):
        inst = random_instance(51, max_K=1, max_T=80)
        omega = sample_arrivals(inst, 51)
        r = run_proxy_dual_gd(inst, omega)
        assert cumulative_proxy_cost(inst, r, 0) == pytest.approx(r.total_cost, rel=1e-12, abs=1e-12)

    def test_reject_everything_zero_deviation(self):
        targets = np.full((2, 1), 0.4)
        inst = Instance(costs=[[0.8]], feasible=[[True]], probs=np.array([1.0]), epochs=2,
                        horizon=20, targets=targets,
                        dev_costs=uniform_dev_costs(targets, "zero", 0.0))
        omega = constant_omega(20)
        r = run_proxy_dual_gd(inst, omega)
        assert np.all(r.proxy_decisions[r.proxy_decisions != -2] == -1)
        assert cumulative_proxy_cost(inst, r, 0) == 0.0
        assert cumulative_proxy_cost(inst, r, 1) == 0.0

    def test_requires_proxy_traces(self):
        inst = zero_cost_two_target_instance(0.3, 0.4, 1.0, 20)
        omega = constant_omega(20)
        r = POLICIES["smart-me"](inst, omega, None)
        with pytest.raises(ValueError, match="proxy"):
            cumulative_proxy_cost(inst, r, 0)


def pinned_dual_problem(kind):
    """Small typed-absolute, squared and continuous hindsight problems."""
    if kind == "continuous":
        model = GumbelCostModel(locations=np.array([[-0.33, 1.27, 0.21]]), rate=4.0)
        targets = np.array([[0.3, 0.05, 0.2], [0.6, 0.1, 0.4], [0.3, 0.05, 0.2]])
        inst = Instance(costs=np.zeros((0, 3)), feasible=np.zeros((0, 3), dtype=bool),
                        probs=None, epochs=3, horizon=60, targets=targets,
                        dev_costs=uniform_dev_costs(targets, "absolute", 1.0), continuous=True)
        return inst, sample_gumbel_arrivals(model, inst.T, seed=7)
    inst = generate_synthetic(SyntheticParams(T=60, delta=1.0, gamma=2.0, seed=7))
    if kind == "squared":
        inst = Instance(costs=inst.costs, feasible=inst.feasible, probs=inst.probs,
                        epochs=inst.K, horizon=inst.T, targets=inst.targets,
                        dev_costs=uniform_dev_costs(inst.targets, "squared", 1.0))
    return inst, sample_arrivals(inst, 7)


class TestDualBackendPinned:
    # objective, dual bound and the SHA-256 of the counts' bytes, recorded
    # from the dual backend before its deviation-price table and hoisted
    # loop invariants; those changes must not move a single bit.
    PINNED = {
        "typed": (-10.506631665729852, -10.520643673029186,
                  "a739da11719b8d9dbe7313dc8fb0c6f16db43421ab2b82c9c5756e12083715cf"),
        "squared": (-37.21144526690611, -37.213839062277366,
                    "f6366d77aa6123512ff74baeb5023062b7b2245d533c3646c446ab58c0673785"),
        "continuous": (-42.285569340832915, -42.289102096419846,
                       "46b73d93e61a4faa98a433c7f55453c2db157ddfdaa055d68e33c3cdedabadd9"),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_outputs_are_bit_identical_to_recorded(self, kind):
        inst, omega = pinned_dual_problem(kind)
        ds = hindsight_optimum(inst, omega, backend=DUAL_SUBGRADIENT, dual_iters=2000)
        digest = hashlib.sha256(np.ascontiguousarray(ds.counts).tobytes()).hexdigest()
        assert (ds.objective, ds.dual_bound, digest) == self.PINNED[kind]
