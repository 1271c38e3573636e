"""Correctness checks on the program's outputs.

Every check returns a list of ``(ok, message)`` pairs, one per checked
item; the benchmark counts each pair as one attempted operation and each
``ok == False`` as a failed one. Expected values are computed here from the
inputs with numpy, or follow from properties the method must have (the
hindsight relaxation bounds every policy from below; a certified dual bound
bounds the relaxation).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

Result = list[tuple[bool, str]]

# Relative slack for comparisons against an LP optimum (HiGHS works to ~1e-9).
LP_TOL = 1e-7


def _slack(tol: float, *values: float) -> float:
    return tol * (1.0 + max(abs(v) for v in values))


def close(actual: float, expected: float, rel: float, what: str) -> Result:
    ok = math.isfinite(actual) and abs(actual - expected) <= rel * max(1.0, abs(expected))
    return [(ok, f"{what}: {actual!r} != {expected!r} (rel tol {rel:g})")]


def printed(text: str, expected: float, digits: int, what: str) -> Result:
    """``text`` is ``expected`` printed with ``digits`` significant digits:
    within half a unit of its last digit (plus float noise of ``expected``)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        return [(False, f"{what}: {text!r} is not a finite number")]
    unit = 10.0 ** (math.floor(math.log10(abs(value))) - digits + 1) if value else 0.0
    ok = abs(value - expected) <= 0.5 * unit * (1 + 1e-6) + 1e-12 * abs(expected)
    return [(ok, f"{what}: printed {text} but expected {expected!r}")]


def lower_bound(bound: float, value: float, what: str) -> Result:
    """``bound <= value`` up to the LP tolerance."""
    ok = math.isfinite(bound) and bound <= value + _slack(LP_TOL, bound, value)
    return [(ok, f"{what}: bound {bound!r} exceeds {value!r}")]


def dual_sandwich(dual_bound: float, lp_objective: float, dual_primal: float, what: str) -> Result:
    """Certified dual bound <= exact-LP optimum <= dual backend's primal."""
    return (lower_bound(dual_bound, lp_objective, f"{what}: dual bound vs exact LP")
            + lower_bound(lp_objective, dual_primal, f"{what}: exact LP vs dual primal"))


def typed_greedy_cost(costs: np.ndarray, feasible: np.ndarray, types: np.ndarray) -> float:
    """Sum over arrivals of the cheapest feasible cost, or 0 when rejecting is cheaper."""
    best = np.where(feasible, costs, np.inf).min(axis=1)
    return float(np.minimum(best, 0.0)[types].sum())


def continuous_greedy_cost(cost_vectors: np.ndarray) -> float:
    """Sum over arrivals of ``min(0, min_i c_t,i)``."""
    return float(np.minimum(cost_vectors.min(axis=1), 0.0).sum())


def sweep_rows(rows: Sequence[dict], expected: int) -> Result:
    """Row count, no flagged rows, and regret >= -1e-7 (1 + |offline|)."""
    out = [(len(rows) == expected, f"sweep wrote {len(rows)} rows, expected {expected}")]
    for r in rows:
        key = f"{r['policy']} T={r['T']} rep={r['seed']}"
        offline, regret = float(r["offline"]), float(r["regret"])
        out.append((r["flagged"] == "0", f"sweep row {key} is flagged"))
        out.append((regret >= -LP_TOL * (1.0 + abs(offline)),
                    f"sweep row {key}: regret {regret!r} below the LP relaxation"))
    return out


def trace_csv_final_cost(text: str, total: float) -> Result:
    """The last ``cost_so_far`` of an exported trace equals the run's cost."""
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    last = lines[-1].split(",")
    if header[-1] != "cost_so_far" or len(last) != len(header):
        return [(False, "trace CSV is malformed")]
    return printed(last[-1], total, 12, "trace CSV final cost_so_far")


def identical_bytes(a: bytes, b: bytes, what: str) -> Result:
    return [(a == b, f"{what} differ")]


def box_solve_excess(box_objective: float, reference: float, what: str, tol: float = 1e-6) -> Result:
    """The box solver's objective is within ``tol`` of an independent optimum."""
    ok = box_objective - reference <= tol
    return [(ok, f"{what}: objective {box_objective!r} exceeds reference {reference!r} by more than {tol:g}")]


def locations_recovered(fitted: np.ndarray, truth: np.ndarray, tol: float = 0.05) -> Result:
    err = float(np.abs(np.asarray(fitted) - np.asarray(truth)).max())
    return [(err <= tol, f"fitted locations off by {err:.4f} > {tol}")]
