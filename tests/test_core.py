"""Core types: deviation families, the total-cost functional, decision
replay, serialization and the trace export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtarget import (
    ArrivalSequence,
    ConsumptionState,
    DeviationCost,
    Instance,
    replay_decisions,
    total_cost,
    uniform_dev_costs,
)
from flowtarget.core import deviation_charge, export_trace_csv
from flowtarget.instances import (
    NonstatProfile,
    SyntheticParams,
    generate_synthetic,
    idle_then_full_instance,
    nonstationary_total_cost,
    random_instance,
    sample_arrivals,
)
from flowtarget.policies import run_greedy, run_myopic, run_proxy_dual_gd

from test_oracle import pinned_dual_problem


def dev_strategy():
    target = st.floats(0.0, 1.0)
    delta = st.floats(0.0, 2.0)
    return st.one_of(
        st.just(DeviationCost.zero()),
        st.builds(DeviationCost.absolute, st.floats(0.0, 2.0), target),
        st.builds(DeviationCost.under_over, delta, delta, target),
        st.builds(DeviationCost.squared, st.floats(0.0, 2.0), target),
    )


class TestDeviationCost:
    def test_absolute_zero_at_target(self):
        assert DeviationCost.absolute(1.0, 0.5).evaluate(0.5) == 0.0

    def test_under_over_substitution(self):
        g = DeviationCost.under_over(2.0, 3.0, 0.4)
        assert g.evaluate(0.7) == pytest.approx(2.0 * 0.3, abs=1e-12)
        assert g.evaluate(0.2) == pytest.approx(3.0 * 0.2, abs=1e-12)

    def test_squared_value_and_subgradient(self):
        g = DeviationCost.squared(1.0, 0.25)
        assert g.evaluate(0.75) == pytest.approx(0.25, abs=1e-12)
        h = 1e-6
        fd = (g.evaluate(0.75 + h) - g.evaluate(0.75 - h)) / (2 * h)
        assert g.subgradient(0.75) == pytest.approx(1.0, abs=1e-9)
        assert g.subgradient(0.75) == pytest.approx(fd, abs=1e-6)

    def test_absolute_kink_subgradient_is_zero(self):
        assert DeviationCost.absolute(3.0, 0.4).subgradient(0.4) == 0.0
        assert DeviationCost.under_over(1.0, 2.0, 0.4).subgradient(0.4) == 0.0

    def test_domain_error(self):
        g = DeviationCost.absolute(1.0, 0.5)
        with pytest.raises(ValueError):
            g.evaluate(1.5)
        with pytest.raises(ValueError):
            g.subgradient(-0.2)
        assert g.evaluate(1.5, check_domain=False) == pytest.approx(1.0)

    def test_lipschitz_constants(self):
        assert DeviationCost.zero().lipschitz == 0.0
        assert DeviationCost.absolute(1.5, 0.3).lipschitz == 1.5
        assert DeviationCost.under_over(1.0, 2.5, 0.3).lipschitz == 2.5
        assert DeviationCost.squared(1.25, 0.3).lipschitz == 2.5

    @given(dev_strategy(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_convexity(self, g, a, b, lam):
        mid = lam * a + (1 - lam) * b
        assert g.evaluate(mid) <= lam * g.evaluate(a) + (1 - lam) * g.evaluate(b) + 1e-12

    @given(dev_strategy(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_subgradient_inequality(self, g, a, b):
        assert g.evaluate(b) >= g.evaluate(a) + g.subgradient(a) * (b - a) - 1e-12

    def test_zero_at_target_all_families(self):
        for g in (DeviationCost.zero(), DeviationCost.absolute(2.0, 0.3),
                  DeviationCost.under_over(1.0, 2.0, 0.3), DeviationCost.squared(2.0, 0.3)):
            assert g.evaluate(g.target if g.family != "zero" else 0.5) == 0.0

    def test_rescale_matches_definition(self):
        rng = np.random.default_rng(0)
        for g in (DeviationCost.absolute(1.3, 0.4), DeviationCost.under_over(0.7, 1.1, 0.6),
                  DeviationCost.squared(0.9, 0.5), DeviationCost.zero()):
            coef, scale = 1.7, 0.6
            h = g.rescale(coef, scale)
            for a in rng.uniform(0, 1, 20):
                assert h.evaluate(a, check_domain=False) == pytest.approx(
                    coef * g.evaluate(scale * a, check_domain=False), abs=1e-12)


def manual_total_cost(instance, omega, decisions):
    """Independent double-loop accumulation of the run cost."""
    T, K, m, n = instance.T, instance.K, instance.m, instance.n
    Z = np.zeros((n, m))
    assignment = 0.0
    deviation = 0.0
    for t in range(T):
        d = int(decisions[t])
        if d >= 0:
            j = int(omega.types[t])
            Z[j, d] += 1
            assignment += instance.costs[j, d]
        if (t + 1) % (T // K) == 0:
            k = t // (T // K)
            for i in range(m):
                avg = sum(Z[j, i] for j in range(n)) / (t + 1)
                deviation += (t + 1) * instance.dev_costs[k][i].evaluate(avg)
    return assignment + deviation


class TestTotalCost:
    def test_accept_all_on_push_pull_instance(self):
        inst = idle_then_full_instance(2.0, 100)
        omega = ArrivalSequence(types=np.zeros(100, dtype=int))
        state, assignment = replay_decisions(inst, omega, np.zeros(100, dtype=int))
        asg, dev, tot = total_cost(inst, state)
        assert asg == pytest.approx(-100.0)
        assert dev == pytest.approx(100.0)
        assert tot == pytest.approx(0.0, abs=1e-12)

    def test_all_reject_with_zero_deviation(self):
        inst = random_instance(3)
        inst = Instance(costs=inst.costs, feasible=inst.feasible, probs=inst.probs,
                        epochs=inst.K, horizon=inst.T, targets=inst.targets,
                        dev_costs=uniform_dev_costs(inst.targets, "zero", 0.0))
        omega = sample_arrivals(inst, 7)
        state, assignment = replay_decisions(inst, omega, np.full(inst.T, -1))
        assert total_cost(inst, state)[2] == 0.0

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_manual_double_loop(self, seed):
        inst = random_instance(seed, max_m=2, max_n=3, max_K=2, max_T=8)
        omega = sample_arrivals(inst, seed + 100)
        rng = np.random.default_rng(seed)
        decisions = np.empty(inst.T, dtype=int)
        for t in range(inst.T):
            opts = [-1] + list(np.flatnonzero(inst.feasible[omega.types[t]]))
            decisions[t] = opts[rng.integers(len(opts))]
        state, assignment = replay_decisions(inst, omega, decisions)
        _, _, tot = total_cost(inst, state)
        assert tot == pytest.approx(manual_total_cost(inst, omega, decisions), abs=1e-12)

    def test_missing_snapshot_is_structural_error(self):
        inst = idle_then_full_instance(2.0, 10)
        state = ConsumptionState(inst.n, inst.m)
        with pytest.raises(ValueError, match="snapshot"):
            total_cost(inst, state)

    def test_snapshot_average_outside_unit_interval(self):
        inst = idle_then_full_instance(2.0, 10)
        state = ConsumptionState(inst.n, inst.m)
        state.snapshots = [np.zeros(inst.m, dtype=np.int64), np.full(inst.m, inst.T + 1)]
        with pytest.raises(ValueError, match=r"outside \[0, 1\] at epoch 1, resource 0"):
            total_cost(inst, state)

    def test_deviation_depends_only_on_snapshots(self):
        inst = random_instance(5, max_K=2, max_T=40)
        omega = sample_arrivals(inst, 5)
        state, _ = replay_decisions(inst, omega, np.full(inst.T, -1))
        _, dev_a, _ = total_cost(inst, state)
        state.by_type[:] += 0  # composition untouched; snapshots identical
        _, dev_b, _ = total_cost(inst, state)
        assert dev_a == dev_b


class TestDeviationCharge:
    def test_epoch_periods(self):
        inst = random_instance(4, max_K=4, max_T=60)
        want = [(k + 1) * inst.T // inst.K for k in range(inst.K)]
        assert inst.epoch_periods.dtype == float and inst.epoch_periods.tolist() == want
        with pytest.raises(ValueError, match="read-only"):
            inst.epoch_periods[0] = 1.0

    @pytest.mark.parametrize("seed", range(12))
    def test_charge_of_a_stack_matches_each_row(self, seed):
        inst = random_instance(seed, max_K=4, max_T=60, allow_squared=(seed % 2 == 0))
        stack = np.random.default_rng(seed).uniform(size=(7, inst.K, inst.m))
        periods, grid = inst.epoch_periods, inst.dev_grid
        got = grid.charge(periods, stack)
        assert got.shape == (7,)
        assert got.tolist() == [float(grid.charge(periods, avg)) for avg in stack]
        assert got.tolist() == [float((periods[:, None] * grid.evaluate(avg)).sum()) for avg in stack]

    def test_matches_total_cost_and_replay(self):
        inst = random_instance(6, max_K=3, max_T=60, allow_squared=True)
        omega = sample_arrivals(inst, 6)
        state, assignment = replay_decisions(inst, omega, run_greedy(inst, omega).decisions)
        assert state.snapshots.shape == (inst.K, inst.m) and state.snapshots.dtype == np.int64
        deviation, avg = deviation_charge(inst, state.snapshots)
        assert deviation == total_cost(inst, state, assignment)[1]
        np.testing.assert_array_equal(avg, state.snapshots / inst.epoch_periods[:, None])


def two_type_problem():
    """T = 6, K = 2; type 1 may not use resource 0; arrivals alternate."""
    targets = np.full((2, 2), 0.4)
    inst = Instance(costs=[[-0.5, -0.2], [-0.3, -0.4]], feasible=[[True, True], [False, True]],
                    probs=np.array([0.5, 0.5]), epochs=2, horizon=6, targets=targets,
                    dev_costs=uniform_dev_costs(targets, "absolute", 1.0))
    return inst, ArrivalSequence(types=np.array([0, 1, 0, 1, 0, 1]))


ACCOUNTING = {
    "replay": replay_decisions,
    "nonstationary": lambda inst, omega, dec: nonstationary_total_cost(
        inst, NonstatProfile(np.full(inst.K, 1.0 / inst.K)), omega, dec),
}


class TestBadDecisionSequences:
    """Replay and the nonstationary reference cost reject a bad decision
    sequence, naming its first bad period."""

    @pytest.mark.parametrize("account", sorted(ACCOUNTING))
    def test_negative_resource_index(self, account):
        inst = random_instance(3, max_m=3, max_n=3, max_K=2, max_T=20)
        omega = sample_arrivals(inst, 3)
        with pytest.raises(ValueError, match="decision -2 at period 0 "):
            ACCOUNTING[account](inst, omega, np.full(inst.T, -2))

    @pytest.mark.parametrize("account", sorted(ACCOUNTING))
    def test_sequence_longer_than_horizon(self, account):
        inst, omega = two_type_problem()
        with pytest.raises(ValueError, match="length 8, expected 6: period 6 "):
            ACCOUNTING[account](inst, omega, np.full(8, -1))

    @pytest.mark.parametrize("account", sorted(ACCOUNTING))
    def test_sequence_shorter_than_horizon(self, account):
        inst, omega = two_type_problem()
        with pytest.raises(ValueError, match="length 4, expected 6: period 4 "):
            ACCOUNTING[account](inst, omega, np.full(4, -1))

    @pytest.mark.parametrize("account", sorted(ACCOUNTING))
    def test_resource_infeasible_for_the_type(self, account):
        inst, omega = two_type_problem()
        with pytest.raises(ValueError, match="decision 0 at period 3 "):
            ACCOUNTING[account](inst, omega, np.array([0, 1, -1, 0, 0, 0]))

    @pytest.mark.parametrize("account", sorted(ACCOUNTING))
    def test_resource_index_past_m(self, account):
        inst, omega = two_type_problem()
        with pytest.raises(ValueError, match="decision 2 at period 5 "):
            ACCOUNTING[account](inst, omega, np.array([0, 1, -1, 1, 0, 2]))

    @pytest.mark.parametrize("account", sorted(ACCOUNTING))
    def test_non_integer_decisions(self, account):
        inst, omega = two_type_problem()
        with pytest.raises(ValueError, match="integer sequence"):
            ACCOUNTING[account](inst, omega, np.array([0.0, 1.0, -1.0, 1.0, 0.5, 1.0]))

    def test_valid_sequence_still_accounted(self):
        inst, omega = two_type_problem()
        state, assignment = replay_decisions(inst, omega, np.array([0, 1, -1, 1, 1, -1]))
        assert assignment == pytest.approx(-0.5 - 0.4 - 0.4 - 0.2)
        np.testing.assert_array_equal(state.by_type, [[1, 1], [0, 2]])
        np.testing.assert_array_equal(np.array(state.snapshots), [[1, 1], [1, 3]])


class TestInstanceValidation:
    def test_horizon_multiple_of_epochs(self):
        with pytest.raises(ValueError, match="multiple"):
            idle = idle_then_full_instance(1.0, 10)
            Instance(costs=idle.costs, feasible=idle.feasible, probs=idle.probs,
                     epochs=2, horizon=11, targets=idle.targets, dev_costs=idle.dev_costs)

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Instance(costs=[[1.0]], feasible=[[True]], probs=np.array([0.9]),
                     epochs=1, horizon=4, targets=np.array([[0.5]]),
                     dev_costs=uniform_dev_costs(np.array([[0.5]]), "absolute", 1.0))

    def test_targets_range(self):
        with pytest.raises(ValueError, match="targets"):
            Instance(costs=[[1.0]], feasible=[[True]], probs=np.array([1.0]),
                     epochs=1, horizon=4, targets=np.array([[1.5]]),
                     dev_costs=uniform_dev_costs(np.array([[1.5]]), "absolute", 1.0))

    @pytest.mark.parametrize("field", ["costs", "probs", "targets", "dev_costs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_name_their_field(self, field, bad):
        kwargs = dict(costs=[[-0.5, 0.2]], feasible=[[True, True]], probs=np.array([1.0]),
                      epochs=1, horizon=10, targets=np.array([[0.5, 0.5]]),
                      dev_costs=((DeviationCost.absolute(1.0, 0.5),) * 2,))
        if field == "dev_costs":
            kwargs[field] = ((DeviationCost.absolute(1.0, 0.5), DeviationCost.squared(bad, 0.5)),)
        elif field == "probs":
            kwargs[field] = np.array([bad])
        else:
            kwargs[field] = np.where([[True, False]], bad, np.asarray(kwargs[field], dtype=float))
        with pytest.raises(ValueError, match=field):
            Instance(**kwargs)

    @pytest.mark.parametrize("cost, delta, field", [("NaN", "1.0", "costs"),
                                                    ("0.5", "Infinity", "dev_costs")])
    def test_non_finite_json_fails_in_from_dict(self, cost, delta, field):
        import json
        text = ('{"m": 1, "n": 1, "K": 1, "T": 4, "costs": [[%s]], "feasible_sets": [[0]], '
                '"probs": [1.0], "targets": [[0.5]], '
                '"dev_costs": [[{"family": "absolute", "delta": %s, "target": 0.5}]]}' % (cost, delta))
        with pytest.raises(ValueError, match=field):
            Instance.from_dict(json.loads(text))

    def test_costs_of_the_wrong_size_fail_in_from_dict(self):
        # a missing row used to fail with numpy's "cannot reshape" message
        d = generate_synthetic(SyntheticParams(T=30, seed=7)).to_dict()
        with pytest.raises(ValueError, match=r"costs must have n \* m = 9 entries, got 6"):
            Instance.from_dict({**d, "costs": d["costs"][:-1]})

    def test_non_finite_cost_vectors_rejected(self):
        inst = Instance(costs=np.zeros((0, 2)), feasible=np.zeros((0, 2), dtype=bool), probs=None,
                        epochs=1, horizon=2, targets=np.array([[0.5, 0.5]]),
                        dev_costs=uniform_dev_costs(np.array([[0.5, 0.5]]), "absolute", 1.0),
                        continuous=True)
        omega = ArrivalSequence(cost_vectors=np.array([[0.1, -0.2], [np.nan, 0.3]]))
        with pytest.raises(ValueError, match="cost_vectors"):
            omega.validate_for(inst)

    def test_empty_feasible_set_is_allowed(self):
        inst = Instance(costs=[[1.0, -1.0], [0.5, 0.5]],
                        feasible=[[True, True], [False, False]],
                        probs=np.array([0.5, 0.5]), epochs=1, horizon=4,
                        targets=np.array([[0.2, 0.2]]),
                        dev_costs=uniform_dev_costs(np.array([[0.2, 0.2]]), "zero", 0.0))
        assert inst.feasible_set(1).size == 0

    def test_c_max(self):
        inst = idle_then_full_instance(2.0, 10)
        assert inst.c_max == 1.0

    @pytest.mark.parametrize("sets, message", [
        ([[0, -1], [1]], r"feasible_sets\[0\] entries must lie in \[0, 2\), got \[0, -1\]"),
        ([[0], [2]], r"feasible_sets\[1\] entries must lie in \[0, 2\), got \[2\]"),
        ([[0], [0.5]], r"feasible_sets\[1\] must be integers"),
        ([[0, 1]], r"feasible_sets must have one row per type \(2\), got 1"),
        ([[0], [1], [0]], r"feasible_sets must have one row per type \(2\), got 3"),
    ])
    def test_bad_feasible_sets_fail_in_from_dict(self, sets, message):
        # -1 used to mark resource m - 1 feasible, and m to raise an IndexError
        d = Instance(costs=[[-0.5, 0.2], [0.1, -0.3]], feasible=[[True, False], [False, True]],
                     probs=np.array([0.5, 0.5]), epochs=1, horizon=4, targets=np.array([[0.5, 0.5]]),
                     dev_costs=uniform_dev_costs(np.array([[0.5, 0.5]]), "absolute", 1.0)).to_dict()
        assert d["feasible_sets"] == [[0], [1]]
        with pytest.raises(ValueError, match=message):
            Instance.from_dict({**d, "feasible_sets": sets})


class TestArrivalTypes:
    @pytest.mark.parametrize("bad", [0.7, np.nan, np.inf])
    def test_non_integral_types_name_types(self, bad):
        # 0.7 used to be truncated to type 0, and the benchmark then solved
        # the all-zeros path
        with pytest.raises(ValueError, match="types must be integers"):
            ArrivalSequence.from_dict({"mode": "discrete", "types": [bad] * 30})
        with pytest.raises(ValueError, match="types must be integers"):
            ArrivalSequence(types=np.full(30, bad))

    def test_types_must_be_one_dimensional(self):
        # a (30, 2) array used to be accepted and to fail later inside numpy
        with pytest.raises(ValueError, match=r"types must be one-dimensional, got shape \(30, 2\)"):
            ArrivalSequence(types=np.zeros((30, 2), dtype=int))

    def test_cost_vectors_must_be_a_matrix(self):
        with pytest.raises(ValueError, match=r"cost_vectors must be a \(T, m\) matrix, got shape \(30, 3, 2\)"):
            ArrivalSequence(cost_vectors=np.zeros((30, 3, 2)))
        assert ArrivalSequence(cost_vectors=[0.1, -0.2]).cost_vectors.shape == (1, 2)

    def test_integral_types_of_any_dtype_are_kept(self):
        want = np.array([0, 2, 1, 1])
        for types in (want, want.astype(np.int16), want.astype(float), want.tolist(),
                      [0.0, 2.0, 1.0, 1.0]):
            got = ArrivalSequence(types=types).types
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


class TestSerialization:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip(self, tmp_path, seed):
        inst = random_instance(seed, allow_squared=True)
        path = str(tmp_path / "inst.json")
        inst.save(path)
        back = Instance.load(path)
        assert back.T == inst.T and back.K == inst.K
        np.testing.assert_array_equal(back.costs, inst.costs)
        np.testing.assert_array_equal(back.feasible, inst.feasible)
        np.testing.assert_allclose(back.probs, inst.probs)
        np.testing.assert_allclose(back.targets, inst.targets)
        assert back.dev_costs == inst.dev_costs
        back.save(str(tmp_path / "again.json"))
        assert (tmp_path / "again.json").read_text() == (tmp_path / "inst.json").read_text()

    def test_arrivals_round_trip(self, tmp_path):
        inst = random_instance(4)
        omega = sample_arrivals(inst, 9)
        path = str(tmp_path / "omega.json")
        omega.save(path)
        back = ArrivalSequence.load(path)
        np.testing.assert_array_equal(back.types, omega.types)

    @pytest.mark.parametrize("case", ["typed-greedy", "typed-smart-me", "continuous-proxy-dgd"])
    def test_trace_csv_columns(self, tmp_path, case):
        inst, omega, result = trace_case(case)
        path = str(tmp_path / "trace.csv")
        export_trace_csv(path, inst, omega, result)
        lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["t", "epoch", "type", "decision"]
        assert f"mu_{inst.K}_{inst.m}" in header
        assert f"running_avg_{inst.m}" in header
        assert header[-1] == "cost_so_far"
        assert len(lines) == inst.T + 1
        # final cost_so_far equals the run's total cost
        assert float(lines[-1].split(",")[-1]) == pytest.approx(result.total_cost, rel=1e-9)
        # the mu_* columns are the price matrix at the start of each period
        cols = [header.index(f"mu_{k + 1}_{i + 1}") for k in range(inst.K) for i in range(inst.m)]
        mu = np.array([[float(line.split(",")[c]) for c in cols] for line in lines[1:]])
        np.testing.assert_allclose(mu, result.mu_trace[:inst.T].reshape(inst.T, -1), rtol=1e-11, atol=0)
        if case == "typed-smart-me":
            # myopic shows only its live row; a finished epoch's final row
            # shows only at the next epoch's first period
            step = inst.epoch_len
            mu = mu.reshape(inst.T, inst.K, inst.m)
            for t in range(inst.T):
                k = t // step
                hidden = [r for r in range(inst.K) if r != k and not (t % step == 0 and r == k - 1)]
                assert not mu[t, hidden].any()
                if t % step == 0 and k > 0:
                    assert mu[t, k - 1].any()


def trace_case(case):
    """A run to export: typed greedy, typed smart-me (K = 3) or proxy-dgd
    on the pinned continuous problem."""
    if case == "continuous-proxy-dgd":
        inst, omega = pinned_dual_problem("continuous")
        return inst, omega, run_proxy_dual_gd(inst, omega)
    if case == "typed-smart-me":
        inst = random_instance(8, max_T=24)
        omega = sample_arrivals(inst, 8)
        return inst, omega, run_myopic(inst, omega, variant="smart-me")
    inst = random_instance(6, max_T=24)
    omega = sample_arrivals(inst, 6)
    return inst, omega, run_greedy(inst, omega)


class TestConsumptionState:
    def test_invariant_check(self):
        inst, omega = two_type_problem()
        st_, _ = replay_decisions(inst, omega, np.array([0, 1, -1, 1, 1, -1]))
        st_.check()
        st_.by_type[1, 0] = 5  # assignments without arrivals
        with pytest.raises(AssertionError):
            st_.check()


def _array_dataclasses():
    from flowtarget.harness import ScalingReport
    from flowtarget.instances import AggregateObservation, GumbelCostModel, MleResult
    from flowtarget.solver import BoxSolveResult
    inst = generate_synthetic(SyntheticParams(T=30, seed=7))
    return {
        "DevGrid": lambda: inst.dev_grid.rows(slice(None)),
        "GumbelCostModel": lambda: GumbelCostModel(locations=np.array([[0.2, -0.5]])),
        "AggregateObservation": lambda: AggregateObservation(np.ones((2, 2)), np.full(2, 3)),
        "NonstatProfile": lambda: NonstatProfile(np.array([0.5, 0.5])),
        "MleResult": lambda: MleResult(np.ones(1), np.zeros((1, 2)), -1.0),
        "BoxSolveResult": lambda: BoxSolveResult(np.zeros(2), 0.0, 1, True),
        "ScalingReport": lambda: ScalingReport(*(np.ones(2) for _ in range(2)), 0.5,
                                               *(np.ones(1) for _ in range(2)), np.ones(2)),
    }


class TestArrayDataclassesCompareByIdentity:
    # each holds arrays, so the generated field-by-field == raised
    # "truth value of an array ... is ambiguous" and hash() a TypeError
    @pytest.mark.parametrize("name", sorted(_array_dataclasses()))
    def test_eq_and_hash_are_by_identity(self, name):
        make = _array_dataclasses()[name]
        a, b = make(), make()
        assert a == a and not (a != a)
        assert (a == b) is False and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2
