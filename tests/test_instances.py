"""Generators, the Gumbel/aggregate-count model and estimator, and the
nonstationary-to-stationary reductions."""

import hashlib

import numpy as np
import pytest
from scipy.special import gammaln

from flowtarget import (
    AggregateObservation,
    GumbelCostModel,
    Instance,
    NonstatProfile,
    SyntheticParams,
    estimate_gumbel_mle,
    generate_synthetic,
    ideal_quantities,
    nonstationary_transform,
    replay_decisions,
    sample_arrivals,
    sample_gumbel_arrivals,
    total_cost,
)
from flowtarget.instances import (
    generate_observations,
    mle_gradient,
    nonstationary_total_cost,
    random_instance,
    softmin_rates,
    softmin_weights,
)
from flowtarget.rng import rng_stream


class TestSyntheticGenerator:
    def test_deterministic_given_seed(self, tmp_path):
        params = SyntheticParams(gamma=2.0, delta=1.0, seed=11)
        a = generate_synthetic(params)
        b = generate_synthetic(params)
        a.save(str(tmp_path / "a.json"))
        b.save(str(tmp_path / "b.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_no_impulse_means_flat_targets(self):
        inst = generate_synthetic(SyntheticParams(gamma=1.0, seed=3))
        assert np.allclose(inst.targets, inst.targets[0, 0])

    def test_impulse_scales_middle_epoch(self):
        inst = generate_synthetic(SyntheticParams(gamma=2.0, seed=3))
        assert np.allclose(inst.targets[1], 2.0 * inst.targets[0])
        assert np.allclose(inst.targets[2], inst.targets[0])

    def test_cost_ranges_and_mean(self):
        diag = []
        off = []
        for rep in range(10_000 // 3 + 1):
            inst = generate_synthetic(SyntheticParams(seed=77), stream_index=rep)
            for j in range(inst.n):
                diag.append(inst.costs[j, j % inst.m])
                off.extend(inst.costs[j, i] for i in range(inst.m) if i != j % inst.m)
        diag = np.asarray(diag)
        off = np.asarray(off)
        assert np.all((diag >= -1.0) & (diag <= -2.0 / 3.0))
        assert np.all((off >= -2.0 / 3.0) & (off <= 0.0))
        assert diag.mean() == pytest.approx(-5.0 / 6.0, abs=0.01)

    def test_target_clipping_warns(self):
        with pytest.warns(UserWarning, match="clipping"):
            inst = generate_synthetic(SyntheticParams(gamma=2.5, m=1, n=1, seed=1,
                                                      base_target_range=(0.59, 0.6)))
        assert inst.targets.max() == 1.0

    def test_probabilities_normalized(self):
        inst = generate_synthetic(SyntheticParams(seed=5))
        assert inst.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestArrivalSampling:
    def test_degenerate_distribution(self):
        inst = random_instance(2, max_n=3)
        probs = np.zeros(inst.n)
        probs[0] = 1.0
        inst = Instance(costs=inst.costs, feasible=inst.feasible, probs=probs,
                        epochs=inst.K, horizon=inst.T, targets=inst.targets,
                        dev_costs=inst.dev_costs)
        omega = sample_arrivals(inst, 9)
        assert np.all(omega.types == 0)

    def test_empirical_frequencies(self):
        params = SyntheticParams(T=9999, seed=21)
        inst = generate_synthetic(params)
        omega = sample_arrivals(inst, 21)
        counts = omega.type_counts(inst)
        for j in range(inst.n):
            se = np.sqrt(inst.probs[j] * (1 - inst.probs[j]) * inst.T)
            assert abs(counts[j] - inst.probs[j] * inst.T) <= 3.0 * se + 1.0

    def test_gumbel_argmin_matches_softmin(self):
        locs = np.array([[-0.33, 1.27, 0.21]])
        model = GumbelCostModel(locations=locs, rate=4.0)
        omega = sample_gumbel_arrivals(model, 100_000, seed=13)
        cv = omega.cost_vectors
        best = cv.argmin(axis=1)
        assigned = cv[np.arange(len(cv)), best] <= 0.0
        w = softmin_weights(locs)[0]
        for i in range(3):
            emp = np.mean(assigned & (best == i))
            assert emp == pytest.approx(w[i], abs=0.02)
        assert np.mean(~assigned) == pytest.approx(1.0 - w.sum(), abs=0.02)


class TestGumbelModelValidation:
    # a NaN or infinite rate or a NaN location used to be accepted, and the
    # sampled cost vectors were then NaN
    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0])
    def test_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            GumbelCostModel(locations=np.array([[0.1, -0.4]]), rate=rate)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_locations_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="locations must be finite"):
            GumbelCostModel(locations=np.array([[0.1, bad]]), rate=3.0)


class TestIdealQuantities:
    def test_all_positive_costs_count_nothing(self):
        cv = np.full((10, 3), 0.5)
        obs = ideal_quantities(cv, [4, 6])
        assert obs.counts.sum() == 0
        np.testing.assert_array_equal(obs.arrivals, [4, 6])

    def test_dominant_resource_takes_all(self):
        cv = np.tile([0.4, -1.0, 0.2], (12, 1))
        obs = ideal_quantities(cv, [5, 7])
        np.testing.assert_array_equal(obs.counts[:, 1], [5, 7])
        assert obs.counts[:, [0, 2]].sum() == 0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(4)
        cv = rng.normal(size=(30, 2))
        sizes = [10, 12, 8]
        obs = ideal_quantities(cv, sizes)
        manual = np.zeros((3, 2), dtype=int)
        pos = 0
        for t, size in enumerate(sizes):
            for _ in range(size):
                row = cv[pos]
                i = int(np.argmin(row))
                if row[i] <= 0:
                    manual[t, i] += 1
                pos += 1
        np.testing.assert_array_equal(obs.counts, manual)

    def test_csv_round_trip(self, tmp_path):
        model = GumbelCostModel(locations=np.array([[0.1, -0.4]]), rate=3.0)
        obs = generate_observations(model, 40, seed=3)
        path = str(tmp_path / "obs.csv")
        obs.to_csv(path)
        back = AggregateObservation.from_csv(path)
        np.testing.assert_array_equal(back.counts, obs.counts)
        np.testing.assert_array_equal(back.arrivals, obs.arrivals)

    @pytest.mark.parametrize("rows", [["1,1,-2"], ["1,0,3", "1,1,-2", "1,2,1"]])
    def test_negative_ideal_quantity_names_counts(self, tmp_path, rows):
        # such a file used to load, and the MLE then returned -inf
        path = tmp_path / "obs.csv"
        path.write_text("\n".join(["interval,resource,ideal_quantity"] + rows) + "\n")
        with pytest.raises(ValueError, match="counts .* must be nonnegative"):
            AggregateObservation.from_csv(str(path))

    @pytest.mark.parametrize("rows, message", [
        # interval 0 used to wrap onto the last interval: arrivals [4, 11]
        (["0,0,5", "0,1,2", "1,0,1", "1,1,3", "2,0,4", "2,1,0"],
         r"line 2: intervals start at 1 .* got interval 0, resource 0"),
        # a negative resource used to count as the outside option
        (["1,0,3", "1,-1,2"], r"line 3: .* got interval 1, resource -1"),
        # a repeated row used to overwrite the earlier one
        (["1,0,3", "1,1,2", "2,0,1", "1,1,4"], r"line 5: interval 1, resource 1 appears twice"),
        (["1,0,3", "1,1"], r"line 3: expected three integers, got '1,1'"),
        (["1,0,3", "1,1,2.5"], r"line 3: expected three integers, got '1,1,2.5'"),
    ])
    def test_misplaced_rows_name_their_line(self, tmp_path, rows, message):
        path = tmp_path / "obs.csv"
        path.write_text("\n".join(["interval,resource,ideal_quantity"] + rows) + "\n")
        with pytest.raises(ValueError, match=message):
            AggregateObservation.from_csv(str(path))

    @pytest.mark.parametrize("rows, message", [
        # used to load with an empty interval 2, which the MLE then fitted
        (["1,0,3", "3,1,2"], r"interval 1, resource 1 has no row: every interval 1\.\.3 needs "
                             r"one for each resource 0\.\.1"),
        (["1,0,3", "1,1,2", "2,1,1", "2,0,1", "3,0,0"], r"interval 3, resource 1 has no row"),
        (["1,0,3", "1,2,2", "2,0,1", "2,1,0", "2,2,1"], r"interval 1, resource 1 has no row"),
    ])
    def test_missing_rows_are_rejected_naming_the_first(self, tmp_path, rows, message):
        path = tmp_path / "obs.csv"
        path.write_text("\n".join(["interval,resource,ideal_quantity"] + rows) + "\n")
        with pytest.raises(ValueError, match=message):
            AggregateObservation.from_csv(str(path))

    def test_header_only_file_names_the_path(self, tmp_path):
        # used to fail with "max() arg is an empty sequence"
        path = tmp_path / "obs.csv"
        path.write_text("interval,resource,ideal_quantity\n")
        with pytest.raises(ValueError, match=r"obs\.csv: the file has a header but no rows"):
            AggregateObservation.from_csv(str(path))

    def test_rows_in_any_order_load_as_written(self, tmp_path):
        path = tmp_path / "obs.csv"
        rows = ["2,1,1", "1,1,2", "2,0,4", "1,0,3"]
        path.write_text("\n".join(["interval,resource,ideal_quantity"] + rows) + "\n")
        obs = AggregateObservation.from_csv(str(path))
        np.testing.assert_array_equal(obs.counts, [[2], [1]])
        np.testing.assert_array_equal(obs.arrivals, [5, 5])


class TestMle:
    def test_soft_min_rates_bounded_by_rate(self):
        model = GumbelCostModel(locations=np.array([[-2.0, 0.5], [1.0, -1.0]]),
                                probs=np.array([0.6, 0.4]), rate=5.0)
        rates = softmin_rates(model)
        assert rates.sum() <= model.rate
        assert np.all(rates > 0)

    def test_symmetric_exact_rates_recover_equal_locations(self):
        counts = np.ones((64, 3), dtype=int)
        arrivals = np.full(64, 4)
        obs = AggregateObservation(counts, arrivals)
        res = estimate_gumbel_mle(obs, restarts=4, iters=4000)
        assert np.ptp(res.locations) <= 0.05
        w = softmin_weights(res.locations)[0]
        np.testing.assert_allclose(4.0 * w, 1.0, atol=0.02)

    def test_gradient_matches_finite_differences(self):
        rng = rng_stream(7, "restarts", 0)
        for _ in range(5):
            n, m = 2, 3
            p = rng.dirichlet(np.ones(n))
            c = rng.uniform(-2, 2, size=(n, m))
            rate = 4.0
            mean_counts = rng.uniform(0.05, 1.5, size=m)
            _, gp, gc = mle_gradient(p, c, rate, mean_counts)
            h = 1e-6
            for j in range(n):
                pp = p.copy(); pp[j] += h
                pm = p.copy(); pm[j] -= h
                fd = (mle_gradient(pp, c, rate, mean_counts)[0]
                      - mle_gradient(pm, c, rate, mean_counts)[0]) / (2 * h)
                assert gp[j] == pytest.approx(fd, abs=1e-5)
                for i in range(m):
                    cp = c.copy(); cp[j, i] += h
                    cm = c.copy(); cm[j, i] -= h
                    fd = (mle_gradient(p, cp, rate, mean_counts)[0]
                          - mle_gradient(p, cm, rate, mean_counts)[0]) / (2 * h)
                    assert gc[j, i] == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("n_types", [1, 3])
    def test_batched_restarts_match_one_at_a_time(self, n_types):
        # The reference loop steps through mle_gradient, np.clip and the
        # frozen simplex projection, independently of the batched loop's code.
        from helpers import reference_project_simplex
        model = GumbelCostModel(locations=np.array([[-0.8, 0.9], [0.6, -0.5], [0.1, 1.0]]),
                                probs=np.array([0.8, 0.15, 0.05]), rate=3.0)
        obs = generate_observations(model, 400, seed=3)
        rate, mean_counts = float(obs.arrivals.mean()), obs.counts.mean(axis=0)
        res = estimate_gumbel_mle(obs, n_types=n_types, restarts=4, iters=120, step=0.3, seed=9)
        ends = []
        for r in range(4):
            rng = rng_stream(9, "restarts", r)
            c = rng.uniform(-3.0, 3.0, size=(n_types, 2))
            p = rng.dirichlet(np.ones(n_types)) if n_types > 1 else np.ones(1)
            for _ in range(120):
                _, gp, gc = mle_gradient(p, c, rate, mean_counts)
                c = np.clip(c - 0.3 * gc, -50.0, 50.0)
                if n_types > 1:
                    p = reference_project_simplex(p - 0.3 * gp)
            assert res.restart_lls[r] == -mle_gradient(p, c, rate, mean_counts)[0]
            ends.append((p, c))
        assert res.restart_lls.max() > res.restart_lls.min()
        p, c = ends[int(np.argmax(res.restart_lls))]
        assert res.locations.tobytes() == c.tobytes()
        assert res.probs.tobytes() == p.tobytes()

    def test_quick_recovery_from_sampled_counts(self):
        locs = np.array([[-0.33, 1.27, 0.21]])
        model = GumbelCostModel(locations=locs, rate=4.0)
        obs = generate_observations(model, 3000, seed=42)
        res = estimate_gumbel_mle(obs, restarts=4, iters=4000, seed=1)
        np.testing.assert_allclose(res.locations[0], locs[0], atol=0.1)
        assert not res.degenerate

    def test_degenerate_observations_flagged(self):
        obs = AggregateObservation(np.zeros((5, 2), dtype=int), np.full(5, 3))
        res = estimate_gumbel_mle(obs, restarts=2, iters=10)
        assert res.degenerate
        assert np.all(res.locations == 50.0)

    def test_result_beats_random_start(self):
        model = GumbelCostModel(locations=np.array([[0.5, -0.5]]), rate=3.0)
        obs = generate_observations(model, 500, seed=8)
        res = estimate_gumbel_mle(obs, restarts=3, iters=2000, seed=2)
        from flowtarget.instances import _full_log_likelihood
        rng = rng_stream(99, "restarts", 0)
        random_ll = _full_log_likelihood(np.ones(1), rng.uniform(-3, 3, (1, 2)),
                                         float(obs.arrivals.mean()), obs)
        assert res.log_likelihood >= random_ll


class TestMleInputValidation:
    @pytest.fixture(scope="class")
    def obs(self):
        model = GumbelCostModel(locations=np.array([[0.2, -0.5]]), rate=3.0)
        return generate_observations(model, 50, seed=6)

    @pytest.mark.parametrize("kwargs, name", [
        ({"restarts": 0}, "restarts"),
        ({"n_types": 0}, "n_types"),
        ({"iters": -1}, "iters"),
        ({"step": float("nan")}, "step"),
        ({"step": float("inf")}, "step"),
        ({"step": 0.0}, "step"),
        ({"step": -1.0}, "step"),
        ({"bounds": (1.0, 1.0)}, "bounds"),
        ({"bounds": (2.0, -2.0)}, "bounds"),
        ({"bounds": (-np.inf, 50.0)}, "bounds"),
        ({"bounds": (-50.0, float("nan"))}, "bounds"),
    ])
    def test_bad_parameter_is_named(self, obs, kwargs, name):
        with pytest.raises(ValueError, match=rf"^{name} must"):
            estimate_gumbel_mle(obs, **kwargs)

    def test_zero_iters_returns_the_best_start(self, obs):
        res = estimate_gumbel_mle(obs, restarts=3, iters=0, seed=4)
        assert res.restart_lls.shape == (3,)
        assert res.log_likelihood == pytest.approx(
            res.restart_lls.max() * obs.intervals
            - float(np.sum(gammaln(obs.counts + 1.0))), rel=1e-12)

    def test_no_finite_restart_is_reported(self, obs, monkeypatch):
        import flowtarget.instances as inst_mod
        real = inst_mod.mle_gradient

        def nan_likelihood(*args):
            nll, gp, gc = real(*args)
            return np.full_like(nll, np.nan), gp, gc

        monkeypatch.setattr(inst_mod, "mle_gradient", nan_likelihood)
        with pytest.raises(ValueError, match="no restart reached a finite likelihood"):
            estimate_gumbel_mle(obs, restarts=2, iters=3)

    def test_cli_passes_the_message_through(self, obs, tmp_path):
        from flowtarget.cli import main as cli_main
        path = str(tmp_path / "obs.csv")
        obs.to_csv(path)
        with pytest.raises(ValueError, match="^restarts must"):
            cli_main(["mle", "--observations", path, "--restarts", "0", "--out", str(tmp_path)])


def pinned_mle_fit(kind):
    """Short MLE runs whose restarts end apart: one type, and two types whose
    simplex projection clips the type mix to the boundary."""
    if kind == "one-type":
        model = GumbelCostModel(locations=np.array([[-0.33, 1.27, 0.21]]), rate=4.0)
        obs = generate_observations(model, 2000, seed=5)
        return estimate_gumbel_mle(obs, n_types=1, restarts=5, iters=150, seed=5)
    model = GumbelCostModel(locations=np.array([[-0.8, 0.9, 0.3], [0.6, -0.5, 1.1]]),
                            probs=np.array([0.9, 0.1]), rate=3.0)
    obs = generate_observations(model, 2000, seed=6)
    return estimate_gumbel_mle(obs, n_types=2, restarts=4, iters=300, step=0.2, seed=6)


class TestMlePinned:
    # exact log-likelihood and the SHA-256 of the locations', probabilities'
    # and restart log-likelihoods' bytes, recorded from the estimator that
    # ran its restarts one after another.
    PINNED = {
        "one-type": (-7198.73289352472,
                     "4bdf4ebbc39c75040227ae1985621349cb941cd3f499593c7fc222920153bf2c",
                     "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
                     "ed5fdb49150ed2eb6e1e698c12012dd41271ee18c7fe70805709871ac8258baf"),
        "two-type": (-6534.908154401957,
                     "c888c9f02230ffa055562a2351edfed046afdf2bc3c58e59f77d4aa05ba4e7f8",
                     "081e60a07837a8e4edc09444b2fee7c5b77c9f9898e2c209c741232acd0669df",
                     "26ef9975bdbd73b38df9550235433b7bcaf635168e3ac3670a3ee192c6009809"),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_outputs_are_bit_identical_to_recorded(self, kind):
        res = pinned_mle_fit(kind)
        digests = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                        for a in (res.locations, res.probs, res.restart_lls))
        assert (res.log_likelihood,) + digests == self.PINNED[kind]


def random_profile(rng, K, T):
    """Random positive integer arrival counts per epoch summing to T."""
    while True:
        cuts = np.sort(rng.choice(np.arange(1, T), size=K - 1, replace=False)) if K > 1 else np.array([], dtype=int)
        counts = np.diff(np.concatenate([[0], cuts, [T]]))
        if np.all(counts > 0):
            return NonstatProfile(counts / T)


def random_feasible_decisions(rng, inst, omega):
    dec = np.empty(inst.T, dtype=int)
    for t in range(inst.T):
        opts = [-1] + list(np.flatnonzero(inst.feasible[int(omega.types[t])]))
        dec[t] = opts[rng.integers(len(opts))]
    return dec


class TestNonstationary:
    def test_profile_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            NonstatProfile(np.array([0.5, 0.6]))
        with pytest.raises(ValueError, match="integral"):
            NonstatProfile(np.array([1 / 3, 2 / 3])).counts(10)
        with pytest.raises(ValueError, match="per-arrival or per-period"):
            NonstatProfile(np.array([0.5, 0.5]), mode="sideways")

    @pytest.mark.parametrize("fractions", [[np.nan, 1.0], [np.inf, 0.5], [[0.5, 0.5]], 1.0])
    def test_profile_rejects_non_finite_or_non_vector_fractions(self, fractions):
        # [nan, 1.0] used to be accepted, and counts(T) then said "must be integral"
        with pytest.raises(ValueError, match="fractions must be a 1-D array of positive values that sum to 1"):
            NonstatProfile(np.array(fractions))

    def test_quarter_half_quarter_example(self):
        inst = random_instance(1, max_m=2, max_n=2, max_K=1, max_T=1)
        targets = np.array([[0.2] * inst.m, [0.5] * inst.m, [0.8] * inst.m])
        base = Instance(costs=inst.costs, feasible=inst.feasible, probs=inst.probs,
                        epochs=3, horizon=96, targets=targets,
                        dev_costs=tuple(
                            tuple(__import__("flowtarget").DeviationCost.absolute(1.0, float(t))
                                  for t in row) for row in targets))
        profile = NonstatProfile(np.array([0.25, 0.5, 0.25]))
        new = nonstationary_transform(base, profile)
        assert new.K == 4
        # original epochs land at new epochs 1, 3, 4 (1-based); epoch 2 is free
        assert new.dev_costs[0] == base.dev_costs[0]
        assert all(g.family == "zero" for g in new.dev_costs[1])
        assert new.dev_costs[2] == base.dev_costs[1]
        assert new.dev_costs[3] == base.dev_costs[2]

    def test_uniform_profile_is_identity(self):
        inst = random_instance(8, max_K=4, max_T=80)
        profile = NonstatProfile(np.full(inst.K, 1.0 / inst.K))
        new = nonstationary_transform(inst, profile)
        assert new.K == inst.K
        assert new.dev_costs == inst.dev_costs
        np.testing.assert_allclose(new.targets, inst.targets)

    def test_gcd_floor_rejection(self):
        from flowtarget import uniform_dev_costs
        targets = np.full((2, 1), 0.4)
        base = Instance(costs=[[0.1]], feasible=[[True]], probs=np.array([1.0]),
                        epochs=2, horizon=300, targets=targets,
                        dev_costs=uniform_dev_costs(targets, "absolute", 1.0))
        with pytest.raises(ValueError, match="cap"):
            nonstationary_transform(base, NonstatProfile(np.array([1 / 300, 299 / 300])))

    @pytest.mark.parametrize("seed", range(10))
    def test_per_arrival_cost_equality(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(seed + 900, max_m=3, max_n=3, max_K=4, max_T=120,
                               allow_squared=True)
        omega = sample_arrivals(inst, seed)
        profile = random_profile(rng, inst.K, inst.T)
        dec = random_feasible_decisions(rng, inst, omega)
        new = nonstationary_transform(inst, profile)
        state, asg = replay_decisions(new, omega, dec)
        _, _, v_new = total_cost(new, state, None if not new.continuous else asg)
        v_orig = nonstationary_total_cost(inst, profile, omega, dec)
        scale = 1.0 + abs(v_orig)
        assert abs(v_new - v_orig) <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(10))
    def test_per_period_cost_equality(self, seed):
        rng = np.random.default_rng(seed + 1)
        inst = random_instance(seed + 950, max_m=2, max_n=3, max_K=4, max_T=120,
                               allow_squared=True)
        omega = sample_arrivals(inst, seed)
        counts = random_profile(rng, inst.K, inst.T)
        profile = NonstatProfile(counts.fractions, mode="per-period")
        dec = random_feasible_decisions(rng, inst, omega)
        new = nonstationary_transform(inst, profile)
        state, asg = replay_decisions(new, omega, dec)
        _, _, v_new = total_cost(new, state)
        v_orig = nonstationary_total_cost(inst, profile, omega, dec)
        scale = 1.0 + abs(v_orig)
        assert abs(v_new - v_orig) <= 1e-9 * scale
