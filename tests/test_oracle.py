"""Offline benchmarks: closed forms, brute-force sandwich, backend
agreement, window degeneracies, and the proxy-cost bookkeeping."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from flowtarget import (
    ArrivalSequence,
    DeviationCost,
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
from flowtarget import oracle as oracle_mod
from flowtarget.oracle import (
    DUAL_SUBGRADIENT,
    EXACT_LP,
    UnsupportedFamilyError,
    validate_solution,
)
from flowtarget.policies import POLICIES
from flowtarget.solver import project_simplex
from helpers import (
    reference_dual_subgradient,
    reference_project_cell_simplex,
    reference_project_simplex,
    reference_proxy_costs,
)


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
        validate_solution(inst, omega, lp)
        validate_solution(inst, omega, ds)
        assert lp.objective <= ds.objective + 1e-7
        greedy = POLICIES["greedy"](inst, omega, None)
        assert lp.objective <= greedy.total_cost + 1e-9

    def test_continuous_validation_rejects_misplaced_counts(self):
        inst, omega = pinned_dual_problem("continuous")
        lp = hindsight_optimum(inst, omega)
        validate_solution(inst, omega, lp)
        assert lp.counts.sum() > 0
        shifted = replace(lp, counts=np.roll(lp.counts, 1, axis=2))
        with pytest.raises(AssertionError, match="outside the arrival's epoch"):
            validate_solution(inst, omega, shifted)
        doubled = replace(lp, counts=lp.counts * 2.0)
        with pytest.raises(AssertionError, match="exceed availability"):
            validate_solution(inst, omega, doubled)


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


class TestBareTypeArrays:
    @pytest.mark.parametrize("solve", [myopic_offline, proxy_offline])
    @pytest.mark.parametrize("bad", ["n", "-1"])
    def test_out_of_range_type_names_omega_k(self, solve, bad):
        inst = random_instance(3, max_K=2, max_T=40)
        types = np.zeros(inst.epoch_len, dtype=int)
        types[-1] = inst.n if bad == "n" else -1
        with pytest.raises(ValueError, match=rf"omega_k types must lie in \[0, {inst.n}\)"):
            solve(inst, types, np.zeros(inst.m), 0)

    @pytest.mark.parametrize("solve", [myopic_offline, proxy_offline])
    @pytest.mark.parametrize("bad", [0.7, np.nan, np.inf])
    def test_non_integral_type_names_omega_k(self, solve, bad):
        # a fractional type array used to be truncated to all zeros
        inst = random_instance(3, max_K=2, max_T=40)
        with pytest.raises(ValueError, match="omega_k types must be integers"):
            solve(inst, np.full(inst.epoch_len, bad), np.zeros(inst.m), 0)

    def test_integral_float_types_are_accepted(self):
        inst = random_instance(3, max_K=2, max_T=40)
        types = np.arange(inst.epoch_len) % inst.n
        want = myopic_offline(inst, types, np.zeros(inst.m), 0).objective
        assert myopic_offline(inst, types.astype(float), np.zeros(inst.m), 0).objective == want


class TestPriorValidation:
    @pytest.mark.parametrize("solve", [myopic_offline, proxy_offline])
    @pytest.mark.parametrize("bad, message", [
        ([-50.0, 0.0, 0.0], "prior must be finite and nonnegative"),
        ([np.nan, 0.0, 0.0], "prior must be finite and nonnegative"),
        ([1.0], r"prior must have shape \(3,\), got \(1,\)"),
    ])
    def test_bad_prior_names_prior(self, solve, bad, message):
        # -50 used to return an objective, a one-element prior to fail with an
        # IndexError and a NaN one with linprog's b_ub message
        inst = generate_synthetic(SyntheticParams(T=30, seed=7))
        types = sample_arrivals(inst, 7).types[inst.epoch_len:2 * inst.epoch_len]
        with pytest.raises(ValueError, match=message):
            solve(inst, types, np.array(bad), 1)

    @pytest.mark.parametrize("solve", [myopic_offline, proxy_offline])
    def test_prior_beyond_elapsed_periods_is_rejected(self, solve):
        inst = generate_synthetic(SyntheticParams(T=30, seed=7))
        types = np.zeros(inst.epoch_len, dtype=int)
        with pytest.raises(ValueError, match="exceeds the periods elapsed"):
            solve(inst, types, np.full(inst.m, inst.epoch_len + 1.0), 1)


class TestDualIters:
    @pytest.mark.parametrize("dual_iters", [0, -3])
    @pytest.mark.parametrize("solve", ["hindsight", "myopic", "proxy"])
    def test_fewer_than_one_step_names_dual_iters(self, solve, dual_iters):
        # these used to fail with "cannot unpack non-iterable NoneType object"
        inst = generate_synthetic(SyntheticParams(T=30, seed=7))
        omega = sample_arrivals(inst, 7)
        if solve == "hindsight":
            args = (inst, omega)
        else:
            args = (inst, omega.types[:inst.epoch_len], np.zeros(inst.m), 0)
        fn = {"hindsight": hindsight_optimum, "myopic": myopic_offline, "proxy": proxy_offline}[solve]
        with pytest.raises(ValueError, match=rf"dual_iters must be at least 1, got {dual_iters}"):
            fn(*args, backend=DUAL_SUBGRADIENT, dual_iters=dual_iters)
        assert fn(*args, dual_iters=dual_iters).backend == EXACT_LP   # unused by the exact LP


def bisection_cell_projection(row, iters=200):
    """Projection of one row onto {s >= 0, sum(s) <= 1}: the row clipped at 0
    if that sums to at most 1, else ``max(row - theta, 0)`` with ``theta``
    found by bisection so that the result sums to 1."""
    clipped = np.maximum(row, 0.0)
    if clipped.sum() <= 1.0:
        return clipped
    lo, hi = 0.0, float(row.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(row - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(row - 0.5 * (lo + hi), 0.0)


class TestProjectCellSimplex:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_per_row_bisection(self, m):
        rng = np.random.default_rng(m)
        random_rows = rng.uniform(-1.0, 2.0, size=(300, m))
        # dyadic rows make exact ties and sums of exactly 1 common
        dyadic_rows = rng.integers(-4, 9, size=(300, m)) / 4.0
        inside = rng.dirichlet(np.ones(m + 1), size=50)[:, :m] * 0.9
        boundary = np.full((1, m), 1.0 / m) if m in (1, 2, 4) else np.array([[0.5, 0.25, 0.25]])
        positive = rng.uniform(0.1, 1.0, size=(50, m))
        just_outside = positive / positive.sum(axis=1, keepdims=True) * (1.0 + 1e-6)
        ties = np.full((1, m), 1.5)
        v = np.vstack([random_rows, dyadic_rows, inside, just_outside, boundary, ties])
        got = oracle_mod._project_cell_simplex(v.copy())
        want = np.array([bisection_cell_projection(row) for row in v])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert np.all(got >= 0.0) and np.all(got.sum(axis=1) <= 1.0 + 1e-12)
        # rows inside the set, on its boundary or with only negative excess are kept or clipped
        kept = np.maximum(v, 0.0).sum(axis=1) <= 1.0
        assert kept.sum() >= 50
        np.testing.assert_array_equal(got[kept], np.maximum(v[kept], 0.0))
        assert np.all(got[-1] == got[-1, 0])  # ties split evenly
        np.testing.assert_allclose(got[-1], np.full(m, 1.0 / m), rtol=0.0, atol=1e-15)

    def test_single_resource_rows(self):
        v = np.array([[2.0], [-1.0], [0.3], [1.0]])
        np.testing.assert_array_equal(oracle_mod._project_cell_simplex(v), [[1.0], [0.0], [0.3], [1.0]])

    # m < 8 sums the clipped rows column by column, m >= 8 takes numpy's row sum
    @pytest.mark.parametrize("m", range(1, 10))
    def test_bytes_match_frozen_projection(self, m):
        rng = np.random.default_rng(100 + m)
        v = np.vstack([
            rng.uniform(-1.0, 2.0, size=(2000, m)),
            rng.integers(-4, 9, size=(2000, m)) / 4.0,  # dyadic, with exact ties and sums of 1
            rng.integers(-6, 12, size=(2000, m)) / 3.0,  # ties whose thresholds round
            np.repeat(rng.uniform(0.0, 1.0, size=(500, 1)), m, axis=1),  # every entry tied
            rng.standard_normal((2000, m)) * 10.0 ** rng.integers(-12, 22, size=(2000, 1)),
            # signed zeros among entries that sum to 1 or just past it
            rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0, -0.5], size=(2000, m)),
            np.full((1, m), -0.0),
        ])
        got = oracle_mod._project_cell_simplex(v.copy())
        assert got.tobytes() == reference_project_cell_simplex(v.copy()).tobytes()
        assert project_simplex(v).tobytes() == reference_project_simplex(v).tobytes()
        assert project_simplex(v[7]).tobytes() == reference_project_simplex(v[7]).tobytes()


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

    @pytest.mark.parametrize("epoch", [-1, 2])
    def test_epoch_outside_the_horizon_is_rejected(self, epoch):
        # -1 used to return NaN and K to return 0.0
        inst = zero_cost_two_target_instance(0.3, 0.4, 1.0, 20)
        r = run_proxy_dual_gd(inst, constant_omega(20))
        with pytest.raises(ValueError, match=r"epoch must lie in \[0, 2\), got " + str(epoch)):
            cumulative_proxy_cost(inst, r, epoch)

    def test_requires_proxy_traces(self):
        inst = zero_cost_two_target_instance(0.3, 0.4, 1.0, 20)
        omega = constant_omega(20)
        r = POLICIES["smart-me"](inst, omega, None)
        with pytest.raises(ValueError, match="proxy"):
            cumulative_proxy_cost(inst, r, 0)


def proxy_pass_case(kind, seed):
    """A proxy-dgd run: typed with squared cells, continuous, or K = 1."""
    if kind == "typed-squared":
        inst = random_instance(seed + 900, max_K=4, max_T=240, allow_squared=True)
        return inst, run_proxy_dual_gd(inst, sample_arrivals(inst, seed))
    if kind == "single-epoch":
        inst = random_instance(seed + 950, max_K=1, max_T=120, allow_squared=True)
        return inst, run_proxy_dual_gd(inst, sample_arrivals(inst, seed))
    rng = np.random.default_rng(seed)
    m, K = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    targets = rng.uniform(0.0, 1.0, size=(K, m))
    family = ["absolute", "squared", "under_over"][seed % 3]
    inst = Instance(costs=np.zeros((0, m)), feasible=np.zeros((0, m), dtype=bool), probs=None,
                    epochs=K, horizon=K * int(rng.integers(5, 40)), targets=targets,
                    dev_costs=uniform_dev_costs(targets, family, float(rng.uniform(0.2, 2.0)), 0.5),
                    continuous=True)
    model = GumbelCostModel(locations=rng.uniform(-1.0, 1.0, size=(1, m)), rate=4.0)
    return inst, run_proxy_dual_gd(inst, sample_gumbel_arrivals(model, inst.T, seed=seed))


class TestProxyPassMatchesFrozenWalks:
    @pytest.mark.parametrize("kind", ["typed-squared", "continuous", "single-epoch"])
    def test_equal_to_scalar_walks(self, kind):
        squared = 0
        for seed in range(40):
            inst, r = proxy_pass_case(kind, seed)
            per_epoch, decomposition = reference_proxy_costs(inst, r)
            assert [cumulative_proxy_cost(inst, r, k) for k in range(inst.K)] == per_epoch
            assert oracle_mod.proxy_cost_decomposition(inst, r) == decomposition
            squared += inst.dev_grid.has_squared
        assert squared >= 10


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


def pinned_dual_solve(kind):
    """The dual backend on the three hindsight problems, a typed proxy window
    with unavailable (type, epoch) cells and an infeasible type, its myopic
    twin, and a continuous proxy window."""
    if kind == "continuous-proxy":
        inst, omega = pinned_dual_problem("continuous")
        step = inst.epoch_len
        return proxy_offline(inst, ArrivalSequence(cost_vectors=omega.cost_vectors[step:2 * step]),
                             np.array([4.0, 1.0, 2.5]), 1, backend=DUAL_SUBGRADIENT, dual_iters=2000)
    if kind.startswith("typed-"):
        # types 0 and 2 only: type 1 is never available, type 2 has no resource
        types = np.array([0, 2, 0, 0, 2, 0, 2, 0, 0, 2])
        solve = proxy_offline if kind == "typed-proxy-window" else myopic_offline
        return solve(pinned_lp_instance(), types, np.array([3.0, 4.0, 1.0]), 1,
                     backend=DUAL_SUBGRADIENT, dual_iters=2000)
    inst, omega = pinned_dual_problem(kind)
    return hindsight_optimum(inst, omega, backend=DUAL_SUBGRADIENT, dual_iters=2000)


class TestDualBackendPinned:
    # objective, dual bound and the SHA-256 of the counts' bytes, recorded
    # from the dual backend before its deviation-price table and hoisted
    # loop invariants (the three hindsight problems), and before it worked on
    # available cells only (the three windows); neither change may move a
    # single bit.
    PINNED = {
        "typed-proxy-window": (-1.7763568394002505e-15, -0.0010417817460566248,
                               "adf32461184253f8d4f65e5ccf25cca0d71e5329b82bebfbdcd9dc691506c41b"),
        "typed-myopic-window": (-1.8000000000000012, -1.8003593714867323,
                                "2ef51c5e52991eb7423ef4b8f3ab13e730e076dc673d0524fef7eda0913532ae"),
        "continuous-proxy": (-24.023567576867848, -24.027003624823074,
                             "f7028e54299d6cd44eca8436ff40708084d5d5645ea230d69ebccc5603aaa282"),
        "typed": (-10.506631665729852, -10.520643673029186,
                  "a739da11719b8d9dbe7313dc8fb0c6f16db43421ab2b82c9c5756e12083715cf"),
        "squared": (-37.21144526690611, -37.213839062277366,
                    "f6366d77aa6123512ff74baeb5023062b7b2245d533c3646c446ab58c0673785"),
        "continuous": (-42.285569340832915, -42.289102096419846,
                       "46b73d93e61a4faa98a433c7f55453c2db157ddfdaa055d68e33c3cdedabadd9"),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_outputs_are_bit_identical_to_recorded(self, kind):
        ds = pinned_dual_solve(kind)
        digest = hashlib.sha256(np.ascontiguousarray(ds.counts).tobytes()).hexdigest()
        assert (ds.objective, ds.dual_bound, digest) == self.PINNED[kind]


def pinned_lp_instance(family_mix=True):
    """K = 3, m = 3, n = 3 typed instance: type 2 has no feasible resource,
    and the grid mixes absolute, zero-family, zero-weight and one-sided
    ``under_over`` cells (d- = 0 and d+ = 0)."""
    targets = np.array([[0.3, 0.2, 0.4], [0.5, 0.1, 0.3], [0.2, 0.4, 0.3]])
    if family_mix:
        t = targets
        dev = ((DeviationCost.absolute(1.0, t[0, 0]), DeviationCost.zero(),
                DeviationCost.under_over(1.5, 0.0, t[0, 2])),
               (DeviationCost.under_over(0.0, 2.0, t[1, 0]), DeviationCost.absolute(0.5, t[1, 1]),
                DeviationCost.zero()),
               (DeviationCost.absolute(1.2, t[2, 0]), DeviationCost.under_over(0.7, 0.0, t[2, 1]),
                DeviationCost.absolute(0.0, t[2, 2])))
    else:
        dev = uniform_dev_costs(targets, "zero", 0.0)
    costs = np.array([[-0.8, -0.3, 0.4], [0.2, -0.6, -0.9], [-1.0, -1.0, -1.0]])
    feasible = np.array([[True, True, False], [False, True, True], [False, False, False]])
    return Instance(costs=costs, feasible=feasible, probs=np.array([0.4, 0.4, 0.2]),
                    epochs=3, horizon=30, targets=targets, dev_costs=dev)


def pinned_lp_solve(kind):
    if kind.startswith("continuous"):
        inst, omega = pinned_dual_problem("continuous")
        if kind == "continuous-hindsight":
            return hindsight_optimum(inst, omega)
        step = inst.epoch_len
        prior = np.array([4.0, 1.0, 2.5])
        return proxy_offline(inst, ArrivalSequence(cost_vectors=omega.cost_vectors[step:2 * step]),
                             prior, 1)
    inst = pinned_lp_instance(family_mix=kind not in ("no-penalty", "empty"))
    omega = sample_arrivals(inst, 11)
    step = inst.epoch_len
    prior = np.array([3.0, 4.0, 1.0])
    if kind in ("typed-hindsight", "no-penalty"):
        return hindsight_optimum(inst, omega)
    if kind == "typed-proxy":
        return proxy_offline(inst, omega.types[step:2 * step], prior, 1)
    if kind == "typed-myopic":
        return myopic_offline(inst, omega.types[step:2 * step], prior, 1)
    # "epigraph-only" and "empty": only type-2 arrivals, which no resource takes
    return myopic_offline(inst, np.full(step, 2), prior, 1)


class TestExactLPPinned:
    # SHA-256 over every (c, A_ub CSR arrays and shape, b_ub, bounds) that
    # reaches linprog, the exact objective, and the SHA-256 of the counts'
    # bytes; recorded from the loop-built LP before it was built from arrays.
    PINNED = {
        "typed-hindsight": (
            "51f1b576c5c48b5bb63fe4f61bd9e9bbe5d149c0c816183a3f0382ab9ad6fc10",
            -11.900000000000004,
            "6e77938a9d62ddbfdb9387d67b1ef58072cff9b1b3f9f2a86f41fa56f1ee9829"),
        "typed-proxy": (
            "cd0e09d896b5e8634217d8290d2c84548153f6fda032df38b2c4a8bd1380125f",
            -1.6000000000000023,
            "77a6be8c8517496472cff8b65280ca1ca70c8913e4c1663821cc0dff6e6271b6"),
        "typed-myopic": (
            "bb19515193383fda531e2bf313f67fc3033f8f472469d295012ab5d6ba0cefc7",
            1.0999999999999979,
            "012daa33b8b10d6ee63ef71c401956d82f0fde5ad45e4c9d914f11ffa79a7750"),
        "no-penalty": (
            "e6165bf7318bd4b4bb9a3fa2f3909e6656b00ae3cf0451fe0bad6e35a5d5f878",
            -22.700000000000003,
            "306da155220f04a7f4e9d7160772923815fa4a3a9f66d7f1cbe9842b6486cfcf"),
        "epigraph-only": (
            "d27f35797c5bc0e9f5969a02da9013c5d5ea50c8f1467d04a09f52dc8bf2be82",
            15.0,
            "a5645e7a3fa0866cde8842c4dab96567507c3d1a3c028b816bc63f6966367b70"),
        "empty": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0.0,
            "a5645e7a3fa0866cde8842c4dab96567507c3d1a3c028b816bc63f6966367b70"),
        "continuous-hindsight": (
            "b5c0125eade60b62bea4888a2c2fdb8717e4ba00a4dfed056b5fe207ed4572c1",
            -42.28572284955853,
            "561d20d68dd142e5b77613ce419ddfe71362968dbac5ed7b8fe1a4d438e3a95d"),
        "continuous-proxy": (
            "d4508db7fb341e682a3a9dc7fe537e8c66a45fef9fccfa2b7179057a2e1612eb",
            -24.024751007291716,
            "bb5971a584b419f3c18cb7f424aef83e5acbd4184144cdcb7ffb1bfa9c16dcc7"),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_lp_and_outputs_are_bit_identical_to_recorded(self, kind, monkeypatch):
        real = oracle_mod.linprog
        lp_hash = hashlib.sha256()

        def spy(*args, **kwargs):
            a = kwargs["A_ub"]
            for arr in (kwargs["c"], a.data, a.indices, a.indptr, kwargs["b_ub"]):
                lp_hash.update(np.ascontiguousarray(arr).tobytes())
            lp_hash.update(repr((a.shape, kwargs["bounds"])).encode())
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle_mod, "linprog", spy)
        sol = pinned_lp_solve(kind)
        digest = hashlib.sha256(np.ascontiguousarray(sol.counts).tobytes()).hexdigest()
        assert (lp_hash.hexdigest(), sol.objective, digest) == self.PINNED[kind]


REFERENCE_FAMILIES = {
    "absolute": lambda rng, t: DeviationCost.absolute(float(rng.uniform(0.1, 2.0)), t),
    "over-only": lambda rng, t: DeviationCost.under_over(float(rng.uniform(0.1, 2.0)), 0.0, t),
    "under-only": lambda rng, t: DeviationCost.under_over(0.0, float(rng.uniform(0.1, 2.0)), t),
    "zero": lambda rng, t: DeviationCost.zero(),
    "squared": lambda rng, t: DeviationCost.squared(float(rng.uniform(0.1, 2.0)), t),
}
REFERENCE_GRIDS = {"absolute": ["absolute"], "squared": ["squared"], "zero": ["zero"],
                   "mixed": sorted(REFERENCE_FAMILIES)}


def reference_battery_case(seed):
    """One random dual-backend problem and solver settings.

    The grid is all absolute, all squared, all zero-family (the ascent stalls
    at once) or mixed with one-sided cells. The problem is a typed hindsight
    problem, a typed proxy or myopic window with a nonzero prior, a
    never-available type and a type with no feasible resource, or a
    continuous hindsight problem or window. The step counts and the gap
    tolerance vary so that block ends, doubling windows, gap exits and
    round ends fall at different steps.
    """
    rng = np.random.default_rng(seed)
    grid_kind = sorted(REFERENCE_GRIDS)[seed % 4]
    problem = ["hindsight", "proxy", "myopic", "continuous", "continuous-proxy"][(seed // 4) % 5]
    continuous = problem.startswith("continuous")
    m = int(rng.integers(1, 4))
    K = int(rng.integers(2, 4))
    step = int(rng.integers(1, 7))
    targets = rng.uniform(0.0, 1.0, size=(K, m))
    fams = REFERENCE_GRIDS[grid_kind]
    dev = tuple(tuple(REFERENCE_FAMILIES[fams[int(rng.integers(len(fams)))]](rng, float(targets[k, i]))
                      for i in range(m)) for k in range(K))
    if continuous:
        inst = Instance(costs=np.zeros((0, m)), feasible=np.zeros((0, m), dtype=bool), probs=None,
                        epochs=K, horizon=K * step, targets=targets, dev_costs=dev, continuous=True)
        model = GumbelCostModel(locations=rng.uniform(-1.0, 1.0, size=(1, m)), rate=4.0)
        omega = sample_gumbel_arrivals(model, inst.T, seed=seed)
    else:
        n = int(rng.integers(2, 4))
        feasible = rng.random((n, m)) < 0.8
        feasible[n - 1] = False  # a type with no feasible resource
        inst = Instance(costs=rng.uniform(-1.0, 1.0, size=(n, m)), feasible=feasible,
                        probs=np.full(n, 1.0 / n), epochs=K, horizon=K * step, targets=targets,
                        dev_costs=dev)
        # type 0 never arrives in the windows
        omega = ArrivalSequence(types=rng.integers(1 if problem != "hindsight" else 0, n, size=inst.T))
    if problem in ("hindsight", "continuous"):
        window, proxy_future, omega_w, prior = list(range(K)), False, omega, np.zeros(m)
    else:
        epoch = 1
        prior = np.floor(rng.uniform(0.0, 1.0, size=m) * step)
        window = [epoch] if problem == "myopic" else list(range(epoch, K))
        proxy_future = problem != "myopic"
        lo, hi = epoch * step, (epoch + 1) * step
        omega_w = (ArrivalSequence(cost_vectors=omega.cost_vectors[lo:hi]) if continuous
                   else omega.types[lo:hi])
    costs, feas, caps = oracle_mod._window_problem(inst, omega_w, window, proxy_future)
    settings = dict(iterations=int(rng.choice([1, 4, 37, 160, 700])), step_scale=2.0,
                    gap_rel=float(rng.choice([1e-7, 1e-3])), gap_abs=1e-9,
                    recover_iters=int(rng.choice([8, 100, 400])))
    return (inst, costs, feas, caps, window, prior), settings


class TestDualBackendReference:
    @pytest.mark.parametrize("block", range(4))
    def test_matches_frozen_reference_bit_for_bit(self, block):
        for seed in range(30 * block, 30 * block + 30):
            args, settings = reference_battery_case(seed)
            got = oracle_mod._solve_dual_subgradient(*args, **settings)
            ref = reference_dual_subgradient(*args, **settings)
            digests = [hashlib.sha256(np.ascontiguousarray(r[2]).tobytes()).hexdigest()
                       for r in (got, ref)]
            assert (got[0], got[1], digests[0]) == (ref[0], ref[1], digests[1]), seed
