"""Experiment harness: metrics, CSV determinism, aggregation, scaling
report, and the command-line interface."""

import os
import types

import numpy as np
import pytest

from flowtarget import (
    ExperimentConfig,
    Instance,
    generate_synthetic,
    mean_abs_target_deviation,
    regret_scaling_report,
    run_experiment,
    sample_arrivals,
    uniform_dev_costs,
)
from flowtarget.cli import main as cli_main
from flowtarget import harness
from flowtarget.harness import (
    epoch_acceptance_fraction,
    read_csv_rows,
    relative_regret_pct,
)
from flowtarget.instances import SyntheticParams, random_instance
from flowtarget.policies import POLICIES


class TestMetrics:
    def test_perfect_tracking_is_zero(self):
        inst = random_instance(5)
        omega = sample_arrivals(inst, 5)
        running = POLICIES["greedy"](inst, omega, None).running_avg
        # greedy ignores the targets, so its rerun against its own running
        # averages tracks them exactly
        inst2 = Instance(costs=inst.costs, feasible=inst.feasible, probs=inst.probs,
                         epochs=inst.K, horizon=inst.T, targets=running,
                         dev_costs=uniform_dev_costs(running, "zero", 0.0))
        result = POLICIES["greedy"](inst2, omega, None)
        assert np.array_equal(result.decisions, POLICIES["greedy"](inst, omega, None).decisions)
        assert mean_abs_target_deviation(result, inst2) == 0.0

    def test_reject_all_against_half_targets(self):
        targets = np.full((2, 2), 0.5)
        inst = Instance(costs=[[0.5, 0.5]], feasible=[[True, True]], probs=np.array([1.0]),
                        epochs=2, horizon=8, targets=targets,
                        dev_costs=uniform_dev_costs(targets, "absolute", 1.0))
        result = POLICIES["greedy"](inst, sample_arrivals(inst, 0), None)
        assert np.all(result.decisions == -1) and not result.epoch_consumption.any()
        assert mean_abs_target_deviation(result, inst) == 0.5

    def test_matches_independent_recomputation(self):
        inst = random_instance(9, max_T=120)
        omega = sample_arrivals(inst, 9)
        r = POLICIES["smart-me"](inst, omega, None)
        manual = 0.0
        for k in range(inst.K):
            periods = (k + 1) * inst.epoch_len
            for i in range(inst.m):
                manual += abs(r.epoch_consumption[k, i] / periods - inst.targets[k, i])
        manual /= inst.K * inst.m
        assert mean_abs_target_deviation(r, inst) == pytest.approx(manual, abs=1e-12)

    def test_acceptance_fraction_burn_in(self):
        inst = random_instance(3, max_K=2, max_T=40)
        dec = np.full(inst.T, -1)
        dec[inst.T // 2:] = 0
        r = types.SimpleNamespace(decisions=dec)
        assert epoch_acceptance_fraction(r, inst, inst.K - 1, burn_in=0.0) == pytest.approx(
            (dec[(inst.K - 1) * inst.epoch_len:] >= 0).mean())

    def test_relative_regret_guard(self):
        rel, flagged = relative_regret_pct(5.0, 0.0)
        assert flagged and rel == 5.0
        rel, flagged = relative_regret_pct(-90.0, -100.0)
        assert not flagged and rel == pytest.approx(10.0)


class TestScalingReport:
    @staticmethod
    def rows_from_series(T_values, fn, reps=5):
        rows = []
        for T in T_values:
            for rep in range(reps):
                rows.append({"policy": "proxy-dgd", "T": T, "regret": fn(T) * (1 + 0.001 * rep)})
        return rows

    def test_sqrt_series_slope(self):
        rows = self.rows_from_series([100, 200, 400, 800, 1600], lambda T: 3.0 * np.sqrt(T))
        rep = regret_scaling_report(rows)
        assert rep.slope == pytest.approx(0.5, abs=0.02)
        np.testing.assert_allclose(rep.ratios, np.sqrt(2.0), rtol=0.01)

    def test_linear_series_slope(self):
        rows = self.rows_from_series([100, 200, 400, 800], lambda T: 0.4 * T)
        assert regret_scaling_report(rows).slope == pytest.approx(1.0, abs=0.02)

    def test_needs_two_horizons(self):
        with pytest.raises(ValueError, match="two horizon"):
            regret_scaling_report(self.rows_from_series([100], lambda T: T))


def small_config(**kw):
    defaults = dict(policies=("greedy", "smart-me"), T_values=(30, 60), deltas=(0.5,),
                    gammas=(1.5,), reps=3, seed=7, workers=1,
                    params=SyntheticParams(m=2, n=2, K=3))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_same_seed_byte_identical(self, tmp_path):
        a = run_experiment(small_config(), str(tmp_path / "a"))
        b = run_experiment(small_config(), str(tmp_path / "b"))
        for key in ("replications_csv", "aggregates_csv"):
            assert open(a[key], "rb").read() == open(b[key], "rb").read()

    def test_parallel_matches_serial(self, tmp_path):
        a = run_experiment(small_config(workers=1), str(tmp_path / "serial"))
        b = run_experiment(small_config(workers=2), str(tmp_path / "par"))
        assert open(a["replications_csv"], "rb").read() == open(b["replications_csv"], "rb").read()

    def test_default_workers_follow_the_affinity_mask(self, tmp_path, monkeypatch):
        # workers=0 sizes the pool by the CPUs this process may use, not by
        # the machine's count: pinned to one CPU, the sweep runs serially
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started on one usable CPU")

        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(harness.multiprocessing, "cpu_count", lambda: 64)
        monkeypatch.setattr(harness.multiprocessing, "Pool", no_pool)
        assert harness.usable_cpus() == 1
        a = run_experiment(small_config(workers=0), str(tmp_path / "pinned"))
        b = run_experiment(small_config(workers=1), str(tmp_path / "serial"))
        assert open(a["replications_csv"], "rb").read() == open(b["replications_csv"], "rb").read()

    def test_offline_lower_bounds_and_aggregates(self, tmp_path):
        info = run_experiment(small_config(), str(tmp_path / "x"))
        rows = read_csv_rows(info["replications_csv"])
        assert len(rows) == 2 * 2 * 3
        for row in rows:
            assert row["offline"] <= row["cost"] + 1e-7 * abs(row["cost"]) + 1e-9
            assert row["regret"] == pytest.approx(row["cost"] - row["offline"], abs=1e-6)
        aggs = read_csv_rows(info["aggregates_csv"])
        for agg in aggs:
            sel = [r for r in rows if r["policy"] == agg["policy"] and r["T"] == agg["T"]]
            assert agg["reps"] == len(sel)
            assert agg["mean_regret"] == pytest.approx(
                np.mean([r["regret"] for r in sel]), rel=1e-8)
            assert agg["median_regret"] == pytest.approx(
                np.median([r["regret"] for r in sel]), rel=1e-8)

    def test_fixed_instance_file(self, tmp_path):
        inst = generate_synthetic(SyntheticParams(T=30, seed=3, m=2, n=2))
        path = str(tmp_path / "inst.json")
        inst.save(path)
        cfg = small_config(T_values=(30,), instance_file=path)
        info = run_experiment(cfg, str(tmp_path / "out"))
        assert info["rows"] == 2 * 3

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            small_config(policies=("bogus",))

    @pytest.mark.parametrize("gap_tol", [float("nan"), float("inf"), -1e-6])
    def test_gap_tol_must_be_finite_and_nonnegative(self, gap_tol):
        # a NaN tolerance used to flag nothing, since gap > nan is False
        with pytest.raises(ValueError, match="gap_tol must be finite and nonnegative"):
            small_config(gap_tol=gap_tol)

    @pytest.mark.parametrize("eta_mult", [-1.0, 0.0, float("nan"), float("inf")])
    def test_eta_mult_must_be_positive_and_finite(self, eta_mult):
        # -1 used to be accepted and fail only in the sweep's first policy run
        with pytest.raises(ValueError, match="eta_mult must be positive and finite"):
            small_config(eta_mult=eta_mult)

    def test_policies_run_with_traces_off(self, tmp_path, monkeypatch):
        # a replication reads only costs and deviations, never a trace
        seen = []

        def spy(inst, omega, cfg):
            seen.append(cfg)
            return greedy(inst, omega, cfg)

        greedy = POLICIES["greedy"]
        monkeypatch.setitem(POLICIES, "greedy", spy)
        run_experiment(small_config(policies=("greedy",), reps=1), str(tmp_path / "out"))
        assert len(seen) == 2 and all(cfg.traces is False for cfg in seen)

    def test_negative_workers_rejected_naming_the_field(self):
        # -3 used to run serially without a word
        with pytest.raises(ValueError, match="workers must be nonnegative"):
            small_config(workers=-3)

    def test_horizons_truncated_to_epoch_multiples(self):
        with pytest.warns(UserWarning, match="truncating"):
            cfg = small_config(T_values=(31, 60))
        assert cfg.T_values == (30, 60)

    def test_greedy_has_zero_regret_without_penalties(self, tmp_path):
        inst = generate_synthetic(SyntheticParams(T=60, seed=5, m=2, n=2))
        inst = Instance(costs=inst.costs, feasible=inst.feasible, probs=inst.probs,
                        epochs=inst.K, horizon=inst.T, targets=inst.targets,
                        dev_costs=uniform_dev_costs(inst.targets, "zero", 0.0))
        path = str(tmp_path / "zero.json")
        inst.save(path)
        cfg = small_config(policies=("greedy",), T_values=(60,), reps=1, instance_file=path)
        info = run_experiment(cfg, str(tmp_path / "zr"))
        rows = read_csv_rows(info["replications_csv"])
        for row in rows:
            assert abs(row["regret"]) <= 1e-7 * (1 + abs(row["cost"]))
        # Pareto-style columns for deviation/assignment trade-off plots exist
        aggs = read_csv_rows(info["aggregates_csv"])
        assert "mean_abs_deviation" in aggs[0]
        assert "mean_assignment_cost_per_period" in aggs[0]


class TestCli:
    def test_gen_run_oracle_transform(self, tmp_path):
        out = str(tmp_path / "exp")
        assert cli_main(["gen", "--T", "30", "--m", "2", "--n", "2", "--seed", "4",
                         "--out", out, "--arrivals"]) == 0
        inst_path = os.path.join(out, "instance.json")
        omega_path = os.path.join(out, "arrivals.json")
        assert cli_main(["run", "--instance", inst_path, "--omega", omega_path,
                         "--policy", "proxy-dgd", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "trace_proxy-dgd.csv"))
        assert cli_main(["oracle", "--instance", inst_path, "--omega", omega_path,
                         "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "offline_consumption.csv"))
        assert cli_main(["transform", "--instance", inst_path,
                         "--fractions", "0.5", "0.3", "0.2", "--out", out]) == 0
        new = Instance.load(os.path.join(out, "instance_stationary.json"))
        assert new.T == 30 and new.K == 10

    def test_sweep_and_scaling(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = cli_main(["sweep", "--policy", "greedy", "proxy-dgd", "--T", "30", "60",
                         "--delta", "0.5", "--gamma", "1.5", "--reps", "2",
                         "--seed", "5", "--workers", "1", "--out", out])
        assert code == 0
        captured = capsys.readouterr()
        assert "replications.csv" in captured.out
        rows = read_csv_rows(os.path.join(out, "replications.csv"))
        assert len(rows) == 2 * 2 * 2

    def test_mle_command(self, tmp_path, capsys):
        from flowtarget.instances import GumbelCostModel, generate_observations
        obs = generate_observations(GumbelCostModel(locations=np.array([[0.2, -0.5]]),
                                                    rate=3.0), 200, seed=6)
        path = str(tmp_path / "obs.csv")
        obs.to_csv(path)
        code = cli_main(["mle", "--observations", path, "--restarts", "2",
                         "--iters", "500", "--out", str(tmp_path)])
        assert code == 0
        assert "locations=" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["run", "--instance", "i.json"], ["sweep"],
                                      ["oracle", "--instance", "i.json", "--omega", "o.json"]])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
    def test_gap_tol_rejected_unless_finite_and_nonnegative(self, argv, value, capsys):
        # a NaN --gap-tol used to exit 0 from run, 2 from oracle and flag
        # nothing in sweep
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--gap-tol", value])
        assert exc.value.code == 2
        assert f"--gap-tol: must be a finite, nonnegative number, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["run", "--instance", "i.json"], ["sweep"],
                                      ["oracle", "--instance", "i.json", "--omega", "o.json"]])
    @pytest.mark.parametrize("value", [float("nan"), "abc", -1])
    def test_config_file_gap_tol_checked_like_the_flag(self, argv, value, tmp_path, capsys):
        # config values used to skip the flag's type: NaN let run exit 0 with
        # any oracle gap, and "abc" ended run and oracle in a TypeError
        import json
        cfg_path = str(tmp_path / "c.json")
        with open(cfg_path, "w") as fh:
            json.dump({"gap_tol": value}, fh)
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--config", cfg_path])
        assert exc.value.code == 2
        assert f"--gap-tol: must be a finite, nonnegative number, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"workers": -3}, "--workers: must be a nonnegative integer, got '-3'"),
        ({"T": [30, "x"]}, "--T: invalid int value: 'x'"),
        ({"T": 30}, "--T: expected a list, got 30"),
        ({"policy": ["greedy", "bogus"]}, "--policy: invalid choice: 'bogus'"),
        ({"oracle_backend": "simplex"}, "--oracle-backend: invalid choice: 'simplex'"),
        ({"scaling_report": "yes"}, "--scaling-report: expected true or false, got 'yes'"),
    ])
    def test_config_file_values_checked_per_element_and_choice(self, overrides, message,
                                                                tmp_path, capsys):
        import json
        cfg_path = str(tmp_path / "c.json")
        with open(cfg_path, "w") as fh:
            json.dump(overrides, fh)
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--config", cfg_path])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["run", "--instance", "i.json"], ["sweep"]])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc"])
    def test_eta_mult_flag_rejected_unless_positive_and_finite(self, argv, value, capsys):
        # nan used to end run in a traceback from PolicyConfig.stepsize (exit 1)
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--eta-mult", value])
        assert exc.value.code == 2
        assert f"--eta-mult: must be a finite, positive number, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2", "1.5", "abc"])
    def test_reps_flag_rejected_unless_a_positive_integer(self, value, capsys):
        # 0 used to end sweep in "ValueError: need at least one replication" (exit 1)
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--reps", value])
        assert exc.value.code == 2
        assert f"--reps: must be a positive integer, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, overrides, message", [
        (["run", "--instance", "i.json"], {"eta_mult": float("nan")},
         "--eta-mult: must be a finite, positive number, got 'nan'"),
        (["sweep"], {"eta_mult": -1}, "--eta-mult: must be a finite, positive number, got '-1'"),
        (["sweep"], {"reps": 0}, "--reps: must be a positive integer, got '0'"),
    ])
    def test_config_file_eta_mult_and_reps_checked_like_the_flags(self, argv, overrides, message,
                                                                  tmp_path, capsys):
        import json
        cfg_path = str(tmp_path / "c.json")
        with open(cfg_path, "w") as fh:
            json.dump(overrides, fh)
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--config", cfg_path])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_negative_workers_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--workers", "-3"])
        assert exc.value.code == 2
        assert "--workers: must be a nonnegative integer, got '-3'" in capsys.readouterr().err

    def test_valid_config_file_values_still_apply(self, tmp_path):
        import json
        out = str(tmp_path / "sweep")
        cfg_path = str(tmp_path / "c.json")
        with open(cfg_path, "w") as fh:
            json.dump({"policy": ["greedy"], "T": [30], "delta": [0.5], "reps": 1, "seed": 5,
                       "gap_tol": 0.5, "workers": 1, "scaling_report": False, "out": out}, fh)
        assert cli_main(["sweep", "--config", cfg_path]) == 0
        rows = read_csv_rows(os.path.join(out, "replications.csv"))
        assert [(r["policy"], r["T"], r["delta"]) for r in rows] == [("greedy", 30, 0.5)]

    def test_config_file_mirrors_flags(self, tmp_path):
        import json
        out = str(tmp_path / "cfg")
        cfg_path = str(tmp_path / "run.json")
        with open(cfg_path, "w") as fh:
            json.dump({"T": 30, "m": 2, "n": 2, "seed": 4, "out": out}, fh)
        assert cli_main(["gen", "--config", cfg_path]) == 0
        assert os.path.exists(os.path.join(out, "instance.json"))

    def test_config_file_with_required_flags(self, tmp_path):
        import json
        out = str(tmp_path / "exp")
        assert cli_main(["gen", "--T", "30", "--m", "2", "--n", "2", "--out", out]) == 0
        cfg_path = str(tmp_path / "c.json")
        with open(cfg_path, "w") as fh:
            json.dump({"policy": "greedy", "seed": 3, "out": out}, fh)
        assert cli_main(["run", "--instance", os.path.join(out, "instance.json"),
                         "--config", cfg_path]) == 0
        assert os.path.exists(os.path.join(out, "trace_greedy.csv"))
