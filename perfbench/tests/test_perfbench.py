"""Tests of the benchmark itself: every workload at a tiny size, every check
shown able to fail, and the tracer's bookkeeping.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import checks, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

TINY = workloads.Scale(sweep_T=(30, 60), sweep_reps=1, squared_T=30, restarts=1, continuous_T=60)


def _failures(results):
    return [msg for ok, msg in results if not ok]


def _setup(cls, tmp_path_factory):
    wl = cls(7, str(tmp_path_factory.mktemp(cls.name)), TINY)
    wl.setup()
    return wl, wl.work()


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return _setup(workloads.SweepTyped, tmp_path_factory)


@pytest.fixture(scope="module")
def squared(tmp_path_factory):
    return _setup(workloads.ProxySquared, tmp_path_factory)


@pytest.fixture(scope="module")
def continuous(tmp_path_factory):
    return _setup(workloads.ContinuousCalibrated, tmp_path_factory)


@pytest.mark.parametrize("name", ["sweep", "squared", "continuous"])
def test_tiny_pass_checks_clean(name, request):
    wl, out = request.getfixturevalue(name)
    results = wl.check(out)
    assert len(results) > 3
    assert _failures(results) == []
    for key in ("wall_s", "proxy_us", "lp_ms", "dual_s"):
        assert out[key] and all(v > 0 for v in out[key])


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_tiny_traced_round_reports_every_layer(cls, tmp_path):
    wl = cls(3, str(tmp_path), TINY)
    tracer = Tracer()
    with tracer.installed(workloads.trace_targets(wl.box_samples)):
        wl.setup()
    tally = workloads.Tally()
    extras = {k: [v] for k, v in wl.trace_round(tracer, tally).items()}
    assert tally.failed == 0, tally.messages
    metrics = workloads.layer_metrics(tracer, extras, 1)
    assert list(metrics) == list(workloads.LAYER_METRICS)
    assert "trace.overhead_s" in extras
    if cls is workloads.SweepTyped:
        assert metrics["harness.serial_s"] > 0 and metrics["harness.parallel_efficiency"] > 0
        assert metrics["solver.chain_prefix_argmin.calls"] > 0
        assert metrics["solver.solve_box_convex.calls"] == 0
    if cls is workloads.ProxySquared:
        # proxy-dgd's squared aux solves all take the box-solver fallback
        assert metrics["solver.solve_box_convex.calls"] == 3 * TINY.squared_T
        assert metrics["solver.solve_box_convex.iterations"] > 0
    if cls is workloads.ContinuousCalibrated:
        assert metrics["instances.mle.restarts"] == TINY.restarts
        assert metrics["oracle.exact_lp.nnz"] > 0 and metrics["core.export_trace_s"] > 0
    # wrappers are gone after the traced pass
    assert not hasattr(workloads.oracle.linprog, "__wrapped__")
    assert not hasattr(workloads.policies.POLICIES["proxy-dgd"], "__wrapped__")


# --- each check can fail -----------------------------------------------------


def _edit_csv_field(csv_bytes, line, column, policy=None):
    """Change the last digit of one field of ``replications.csv`` by 5."""
    lines = csv_bytes.decode().split("\n")
    header = lines[0].split(",")
    idx = line if policy is None else next(i for i, text in enumerate(lines) if text.startswith(policy + ","))
    fields = lines[idx].split(",")
    col = header.index(column)
    fields[col] = fields[col][:-1] + str((int(fields[col][-1]) + 5) % 10)
    lines[idx] = ",".join(fields)
    return "\n".join(lines).encode()


def test_sweep_checks_fail_on_perturbed_outputs(sweep):
    wl, out = sweep
    bad = dict(out, csv_bytes=_edit_csv_field(out["csv_bytes"], 1, "offline"))
    assert any("offline" in m for m in _failures(wl.check(bad)))
    bad = dict(out, csv_bytes=_edit_csv_field(out["csv_bytes"], 1, "assignment_cost_per_period", "greedy"))
    assert any("greedy assignment" in m for m in _failures(wl.check(bad)))
    bad = dict(out, csv_bytes=_edit_csv_field(out["csv_bytes"], 1, "flagged"))
    assert any("flagged" in m for m in _failures(wl.check(bad)))
    key = next(iter(out["lp_obj"]))
    bad = dict(out, lp_obj={**out["lp_obj"], key: out["lp_obj"][key] + 1e-3})
    assert _failures(wl.check(bad))
    assert _failures(wl.check(dict(out, code=2)))
    dual = dataclasses.replace(out["dual"], dual_bound=out["lp_obj"][out["cert"]] + 1.0)
    assert any("dual bound" in m for m in _failures(wl.check(dict(out, dual=dual))))


def test_sweep_row_checks_fail():
    row = {"policy": "proxy-dgd", "T": "30", "seed": "0", "offline": "-10", "regret": "-0.001", "flagged": "0"}
    assert _failures(checks.sweep_rows([row], 1))
    assert _failures(checks.sweep_rows([dict(row, regret="0.5")], 2))
    assert _failures(checks.identical_bytes(b"a,1\n", b"a,2\n", "csv"))
    assert not _failures(checks.printed("-5.194994991", -5.1949949913, 10, "offline"))
    for text in ("-5.194994992", "inf", "nan", "x"):
        assert _failures(checks.printed(text, -5.1949949913, 10, "offline"))


def test_squared_checks_fail_on_perturbed_outputs(squared):
    wl, out = squared
    proxy = out["proxy"]
    bad = dict(out, proxy=dataclasses.replace(proxy, total_cost=proxy.total_cost + 1e-6))
    failed = _failures(wl.check(bad))
    assert any("decomposition" in m for m in failed) and any("replayed" in m for m in failed)
    bad = dict(out, dual=dataclasses.replace(out["dual"], dual_bound=proxy.total_cost + 1.0))
    assert any("dual bound" in m for m in _failures(wl.check(bad)))
    bad = dict(out, lp=dataclasses.replace(out["lp"], objective=out["twin"].total_cost + 1.0))
    assert any("twin" in m for m in _failures(wl.check(bad)))
    assert _failures(checks.box_solve_excess(-0.2, -0.201, "aux"))
    assert not _failures(checks.box_solve_excess(-0.2, -0.2 + 1e-9, "aux"))


def test_continuous_checks_fail_on_perturbed_outputs(continuous):
    wl, out = continuous
    fit = copy.deepcopy(out["fit"])
    fit.locations[0, 1] += 0.06
    assert any("locations" in m for m in _failures(wl.check(dict(out, fit=fit))))
    greedy = dataclasses.replace(out["greedy"], assignment_cost=out["greedy"].assignment_cost - 1e-6)
    assert any("greedy assignment" in m for m in _failures(wl.check(dict(out, greedy=greedy))))
    lp = dataclasses.replace(out["lp"], objective=out["proxy"].total_cost + 1.0)
    assert any("exact LP" in m for m in _failures(wl.check(dict(out, lp=lp))))
    text = out["trace_text"].rstrip("\n")
    bad_text = text[:-1] + str((int(text[-1]) + 5) % 10) + "\n"
    assert any("cost_so_far" in m for m in _failures(wl.check(dict(out, trace_text=bad_text))))
    assert any("replayed" in m for m in _failures(wl.check(dict(out, replayed=out["replayed"] + 1e-3))))


# --- tracer and command ------------------------------------------------------


def test_tracer_self_time_and_restore():
    import types

    mod = types.SimpleNamespace(outer=None, inner=lambda: sum(range(20000)))
    mod.outer = lambda: mod.inner() + mod.inner()
    original = mod.inner
    tracer = Tracer()
    with tracer.installed([(mod, "outer", "outer", None), (mod, "inner", "inner", None)]):
        mod.outer()
    assert mod.inner is original
    recs = list(tracer.records())
    assert [r[0] for r in recs] == ["outer", "inner", "inner"]
    outer_dur, outer_self = recs[0][1], recs[0][2]
    assert outer_self == pytest.approx(outer_dur - recs[1][1] - recs[2][1])
    with pytest.raises(ZeroDivisionError):
        with tracer.installed([(mod, "inner", "inner", None)]):
            raise ZeroDivisionError
    assert mod.inner is original


def test_benchmark_json_lists_what_the_command_prints():
    from perfbench import run

    bench = json.loads(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == workloads.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_command_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(bench["command"] + ["--workload", "sweep-typed", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
