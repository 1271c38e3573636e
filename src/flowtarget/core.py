"""Domain types and cost accounting for throughput-constrained online allocation.

An :class:`Instance` describes the problem: ``m`` resources, ``n`` arrival
types with assignment cost vectors and feasible resource sets, a horizon of
``T`` periods split into ``K`` equal epochs, and per-(epoch, resource)
cumulative consumption targets with convex deviation penalties. The total
cost of a run is the realized assignment cost plus, for each epoch ``k``,
``(kT/K) * g_ki(running average consumption of i through epoch k)``.

All types here are immutable after construction and safe to share across
parallel workers, except the :class:`ConsumptionState` a replay returns. A
run is accounted in one place: the checked, vectorized per-period ledger of
its decisions behind :func:`replay_decisions` and :func:`export_trace_csv`.
Every module charges deviation through :attr:`Instance.epoch_periods`,
:meth:`DevGrid.charge` and :func:`deviation_charge`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

REJECT = -1

ZERO = "zero"
UNDER_OVER = "under_over"
ABSOLUTE = "absolute"
SQUARED = "squared"
FAMILIES = (ZERO, UNDER_OVER, ABSOLUTE, SQUARED)

_DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class DeviationCost:
    """Convex penalty on running-average consumption relative to a target rate.

    Four families are supported:

    * ``zero``       -- no penalty.
    * ``under_over`` -- ``d+ * (a - target)^+ + d- * (target - a)^+``.
    * ``absolute``   -- ``d * |a - target|`` (under/over with equal weights).
    * ``squared``    -- ``d * (a - target)^2``.

    ``target`` is normally a rate in [0, 1], but epoch-local reformulations
    (myopic epoch targets, nonstationary rescaling) legitimately produce
    targets outside that range; evaluation is still over ``a`` in [0, 1].
    """

    family: str
    target: float = 0.0
    delta_plus: float = 0.0
    delta_minus: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown deviation family {self.family!r}")
        if self.delta_plus < 0 or self.delta_minus < 0:
            raise ValueError("deviation weights must be nonnegative")

    @classmethod
    def zero(cls) -> "DeviationCost":
        return cls(ZERO)

    @classmethod
    def under_over(cls, delta_plus: float, delta_minus: float, target: float) -> "DeviationCost":
        return cls(UNDER_OVER, float(target), float(delta_plus), float(delta_minus))

    @classmethod
    def absolute(cls, delta: float, target: float) -> "DeviationCost":
        return cls(ABSOLUTE, float(target), float(delta), float(delta))

    @classmethod
    def squared(cls, delta: float, target: float) -> "DeviationCost":
        return cls(SQUARED, float(target), float(delta))

    def _check(self, a: float) -> None:
        if not (-_DOMAIN_TOL <= a <= 1.0 + _DOMAIN_TOL):
            raise ValueError(f"consumption rate {a} outside [0, 1]")

    def evaluate(self, a: float, check_domain: bool = True) -> float:
        """Penalty at running-average consumption ``a``.

        ``check_domain=False`` skips the [0, 1] domain check; the formulas
        extend convexly to all reals, which the nonstationary per-period
        cost evaluation relies on.
        """
        if check_domain:
            self._check(a)
        gap = a - self.target
        if self.family == SQUARED:
            return self.delta_plus * gap * gap
        if gap >= 0.0:
            return self.delta_plus * gap
        return -self.delta_minus * gap

    def subgradient(self, a: float, check_domain: bool = True) -> float:
        """An element of the subdifferential at ``a``.

        At kinks of the piecewise-linear families the returned element is 0,
        so projected subgradient steps are stationary exactly at the target.
        """
        if check_domain:
            self._check(a)
        gap = a - self.target
        if self.family == SQUARED:
            return 2.0 * self.delta_plus * gap
        if gap > 0.0:
            return self.delta_plus
        if gap < 0.0:
            return -self.delta_minus
        return 0.0

    @property
    def lipschitz(self) -> float:
        """Lipschitz constant of the penalty on [0, 1] (diagnostic only)."""
        if self.family == SQUARED:
            return 2.0 * self.delta_plus
        return max(self.delta_plus, self.delta_minus)

    def rescale(self, coef: float, arg_scale: float) -> "DeviationCost":
        """The deviation cost ``a -> coef * g(arg_scale * a)``.

        All four families are closed under this reparameterization; the
        target moves to ``target / arg_scale``.
        """
        if arg_scale <= 0 or coef < 0:
            raise ValueError("rescale requires positive argument scale and nonnegative coefficient")
        if self.family == ZERO:
            return self
        new_target = self.target / arg_scale
        if self.family == SQUARED:
            return DeviationCost(SQUARED, new_target, coef * arg_scale * arg_scale * self.delta_plus)
        return DeviationCost(
            self.family,
            new_target,
            coef * arg_scale * self.delta_plus,
            coef * arg_scale * self.delta_minus,
        )

    def to_dict(self) -> dict:
        d: dict = {"family": self.family}
        if self.family == UNDER_OVER:
            d.update(delta_plus=self.delta_plus, delta_minus=self.delta_minus, target=self.target)
        elif self.family in (ABSOLUTE, SQUARED):
            d.update(delta=self.delta_plus, target=self.target)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DeviationCost":
        fam = d["family"]
        if fam == ZERO:
            return cls.zero()
        if fam == UNDER_OVER:
            return cls.under_over(d["delta_plus"], d["delta_minus"], d["target"])
        if fam == ABSOLUTE:
            return cls.absolute(d["delta"], d["target"])
        if fam == SQUARED:
            return cls.squared(d["delta"], d["target"])
        raise ValueError(f"unknown deviation family {fam!r}")


@dataclass(frozen=True, eq=False)
class DevGrid:
    """Array view of a (K, m) grid of deviation costs, for vectorized math."""

    is_squared: np.ndarray  # (K, m) bool
    target: np.ndarray      # (K, m)
    d_plus: np.ndarray      # (K, m); holds delta for squared
    d_minus: np.ndarray     # (K, m)
    has_squared: bool = field(init=False, repr=False)
    all_squared: bool = field(init=False, repr=False)
    # the subgradient's branch weights, -d- and 2 d+, formed once per grid
    neg_d_minus: np.ndarray = field(init=False, repr=False)
    two_d_plus: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "has_squared", bool(self.is_squared.any()))
        object.__setattr__(self, "all_squared", bool(self.is_squared.all()))
        object.__setattr__(self, "neg_d_minus", -self.d_minus)
        object.__setattr__(self, "two_d_plus", 2.0 * self.d_plus)

    @classmethod
    def from_costs(cls, dev_costs: Sequence[Sequence[DeviationCost]]) -> "DevGrid":
        K = len(dev_costs)
        m = len(dev_costs[0])
        sq = np.zeros((K, m), dtype=bool)
        tg = np.zeros((K, m))
        dp = np.zeros((K, m))
        dm = np.zeros((K, m))
        for k in range(K):
            for i in range(m):
                g = dev_costs[k][i]
                sq[k, i] = g.family == SQUARED
                tg[k, i] = g.target
                dp[k, i] = g.delta_plus
                dm[k, i] = g.delta_minus
        for arr in (sq, tg, dp, dm):
            arr.setflags(write=False)
        return cls(sq, tg, dp, dm)

    def rows(self, rows) -> "DevGrid":
        """The grid restricted to the epochs ``rows`` (an index array or a slice)."""
        return DevGrid(self.is_squared[rows], self.target[rows], self.d_plus[rows], self.d_minus[rows])

    def evaluate(self, a: np.ndarray) -> np.ndarray:
        gap = a - self.target
        pl = self.d_plus * np.maximum(gap, 0.0) + self.d_minus * np.maximum(-gap, 0.0)
        if not self.has_squared:
            return pl
        return np.where(self.is_squared, self.d_plus * gap * gap, pl)

    def subgradient(self, a: np.ndarray) -> np.ndarray:
        """A subgradient of each cell's cost at ``a``: ``2 d+ (a - target)``
        on squared cells (the only branch built on an all-squared grid),
        ``d+``, ``-d-`` or 0 by the sign of ``a - target`` elsewhere."""
        gap = a - self.target
        if self.all_squared:
            return self.two_d_plus * gap
        pl = np.where(gap > 0.0, self.d_plus, np.where(gap < 0.0, self.neg_d_minus, 0.0))
        if not self.has_squared:
            return pl
        return np.where(self.is_squared, self.two_d_plus * gap, pl)

    def charge(self, periods: np.ndarray, avg: np.ndarray):
        """``sum_ki periods_k * g_ki(avg_ki)`` of a (K, m) grid of running
        averages, or one such total per grid of a stack ``(S, K, m)``."""
        return (periods[:, None] * self.evaluate(avg)).sum(axis=(-2, -1))


def integer_array(values, name: str) -> np.ndarray:
    """``values`` as int64; a ValueError naming ``name`` unless every entry is a finite integer."""
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer):
        arr = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr != np.round(arr)):
            raise ValueError(f"{name} must be integers")
    return arr.astype(np.int64, copy=False)


def check_prior(instance: "Instance", prior, epoch: int, name: str = "prior") -> np.ndarray:
    """``prior``, the consumption before ``epoch``, as a float ``(m,)`` array: finite, nonnegative
    and at most the periods elapsed. Messages name the argument ``name``."""
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (instance.m,):
        raise ValueError(f"{name} must have shape {(instance.m,)}, got {prior.shape}")
    if not np.all(np.isfinite(prior)) or np.any(prior < 0.0):
        raise ValueError(f"{name} must be finite and nonnegative")
    if np.any(prior > epoch * instance.epoch_len + 1e-9):
        raise ValueError("prior consumption exceeds the periods elapsed")
    return prior


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Instance:
    """A throughput-constrained allocation problem.

    ``costs[j, i]`` is the cost of assigning a type-``j`` arrival to resource
    ``i`` (the outside option costs 0); ``feasible[j, i]`` marks the resources
    type ``j`` may use. ``targets[k, i]`` is the cumulative average-consumption
    target through the end of epoch ``k`` (0-based here), penalized by
    ``dev_costs[k][i]``. In continuous-cost mode there are no types
    (``n == 0``); arrivals carry realized cost vectors instead.
    """

    costs: np.ndarray                     # (n, m) float
    feasible: np.ndarray                  # (n, m) bool
    probs: np.ndarray | None              # (n,) float, None in continuous mode
    epochs: int                           # K
    horizon: int                          # T, multiple of K
    targets: np.ndarray                   # (K, m) float
    dev_costs: tuple[tuple[DeviationCost, ...], ...]
    continuous: bool = False
    allow_extended_targets: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "costs", _readonly(np.atleast_2d(np.asarray(self.costs, dtype=float))))
        object.__setattr__(self, "feasible", _readonly(np.atleast_2d(np.asarray(self.feasible, dtype=bool))))
        object.__setattr__(self, "targets", _readonly(np.asarray(self.targets, dtype=float)))
        if self.probs is not None:
            object.__setattr__(self, "probs", _readonly(np.asarray(self.probs, dtype=float)))
        for name in ("costs", "probs", "targets"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        K, T = self.epochs, self.horizon
        if K < 1 or T < 1:
            raise ValueError("need at least one epoch and one period")
        if T % K != 0:
            raise ValueError(f"horizon {T} is not a multiple of the epoch count {K}")
        if self.targets.shape != (K, self.m):
            raise ValueError("targets must have shape (K, m)")
        if not self.allow_extended_targets:
            if np.any(self.targets < 0.0) or np.any(self.targets > 1.0):
                raise ValueError("targets must lie in [0, 1]")
        if len(self.dev_costs) != K or any(len(row) != self.m for row in self.dev_costs):
            raise ValueError("dev_costs must be a (K, m) grid")
        for k in range(K):
            for i in range(self.m):
                g = self.dev_costs[k][i]
                if not np.isfinite(g.delta_plus) or not np.isfinite(g.delta_minus):
                    raise ValueError(f"dev_costs[{k}][{i}] deltas must be finite")
                if g.family != ZERO and g.target != self.targets[k, i]:
                    raise ValueError(f"deviation target mismatch at epoch {k}, resource {i}")
        if self.continuous:
            if self.n != 0 or self.probs is not None:
                raise ValueError("continuous-cost mode carries no type table")
        else:
            if self.costs.shape != (self.n, self.m) or self.feasible.shape != (self.n, self.m):
                raise ValueError("costs and feasible must both have shape (n, m)")
            if self.probs is not None:
                if self.probs.shape != (self.n,):
                    raise ValueError("probs must have shape (n,)")
                if np.any(self.probs < 0) or abs(float(self.probs.sum()) - 1.0) > 1e-12:
                    raise ValueError("type probabilities must be nonnegative and sum to 1")

    @property
    def m(self) -> int:
        return self.targets.shape[1] if self.targets.ndim == 2 else self.costs.shape[1]

    @property
    def n(self) -> int:
        return self.costs.shape[0]

    @property
    def K(self) -> int:
        return self.epochs

    @property
    def T(self) -> int:
        return self.horizon

    @property
    def epoch_len(self) -> int:
        return self.horizon // self.epochs

    @property
    def c_max(self) -> float:
        return float(np.abs(self.costs).max()) if self.costs.size else 0.0

    @cached_property
    def dev_grid(self) -> DevGrid:
        return DevGrid.from_costs(self.dev_costs)

    @cached_property
    def epoch_periods(self) -> np.ndarray:
        """The read-only (K,) float period counts ``(k + 1) T / K`` at the epoch ends."""
        return _readonly(np.arange(1, self.K + 1) * float(self.epoch_len))

    def feasible_set(self, j: int) -> np.ndarray:
        """Resource indices available to type ``j``."""
        return np.flatnonzero(self.feasible[j])

    def to_dict(self) -> dict:
        d = {
            "m": self.m,
            "n": self.n,
            "K": self.epochs,
            "T": self.horizon,
            "continuous": self.continuous,
            "costs": self.costs.tolist(),
            "feasible_sets": [np.flatnonzero(row).tolist() for row in self.feasible],
            "probs": None if self.probs is None else self.probs.tolist(),
            "targets": self.targets.tolist(),
            "dev_costs": [[g.to_dict() for g in row] for row in self.dev_costs],
        }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Instance":
        m, n, sets = int(d["m"]), int(d["n"]), d["feasible_sets"]
        if len(sets) != n:
            raise ValueError(f"feasible_sets must have one row per type ({n}), got {len(sets)}")
        feas = np.zeros((n, m), dtype=bool)
        for j, idxs in enumerate(sets):
            idx = integer_array(idxs, f"feasible_sets[{j}]")
            if np.any(idx < 0) or np.any(idx >= m):
                raise ValueError(f"feasible_sets[{j}] entries must lie in [0, {m}), got {idx.tolist()}")
            feas[j, idx] = True
        dev = tuple(tuple(DeviationCost.from_dict(g) for g in row) for row in d["dev_costs"])
        costs = np.asarray(d["costs"], dtype=float)
        if costs.size != n * m:
            raise ValueError(f"costs must have n * m = {n * m} entries, got {costs.size}")
        targets = np.asarray(d["targets"], dtype=float)
        extended = bool(np.any(targets < 0.0) or np.any(targets > 1.0))
        return cls(
            costs=costs.reshape(n, m),
            feasible=feas,
            probs=None if d.get("probs") is None else np.asarray(d["probs"], dtype=float),
            epochs=int(d["K"]),
            horizon=int(d["T"]),
            targets=targets,
            dev_costs=dev,
            continuous=bool(d.get("continuous", False)),
            allow_extended_targets=extended,
        )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Instance":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def uniform_dev_costs(targets: np.ndarray, family: str, delta: float,
                      delta_minus: float | None = None) -> tuple[tuple[DeviationCost, ...], ...]:
    """Build a (K, m) deviation grid with one family and weight everywhere."""
    targets = np.asarray(targets, dtype=float)
    rows = []
    for k in range(targets.shape[0]):
        row = []
        for i in range(targets.shape[1]):
            t = float(targets[k, i])
            if family == ZERO:
                row.append(DeviationCost.zero())
            elif family == ABSOLUTE:
                row.append(DeviationCost.absolute(delta, t))
            elif family == SQUARED:
                row.append(DeviationCost.squared(delta, t))
            elif family == UNDER_OVER:
                row.append(DeviationCost.under_over(delta, delta if delta_minus is None else delta_minus, t))
            else:
                raise ValueError(f"unknown deviation family {family!r}")
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True, eq=False)
class ArrivalSequence:
    """A sample path of ``T`` arrivals.

    Discrete mode stores type indices; continuous mode stores realized cost
    vectors (the outside option's realized cost is already netted out, so
    rejection costs 0 and assignment costs may be negative).
    """

    types: np.ndarray | None = None         # (T,) int
    cost_vectors: np.ndarray | None = None  # (T, m) float
    seed_info: str = ""

    def __post_init__(self) -> None:
        if (self.types is None) == (self.cost_vectors is None):
            raise ValueError("exactly one of types / cost_vectors must be given")
        if self.types is not None:
            object.__setattr__(self, "types", _readonly(integer_array(self.types, "types")))
            if self.types.ndim != 1:
                raise ValueError(f"types must be one-dimensional, got shape {self.types.shape}")
        else:
            object.__setattr__(self, "cost_vectors", _readonly(np.atleast_2d(np.asarray(self.cost_vectors, dtype=float))))
            if self.cost_vectors.ndim != 2:
                raise ValueError(f"cost_vectors must be a (T, m) matrix, got shape {self.cost_vectors.shape}")

    @property
    def continuous(self) -> bool:
        return self.types is None

    def __len__(self) -> int:
        return len(self.types) if self.types is not None else self.cost_vectors.shape[0]

    def validate_for(self, instance: Instance) -> None:
        if len(self) != instance.T:
            raise ValueError(f"arrival sequence has length {len(self)}, expected {instance.T}")
        if self.continuous != instance.continuous:
            raise ValueError("arrival mode does not match instance mode")
        if self.types is not None and (self.types.min() < 0 or self.types.max() >= instance.n):
            raise ValueError("type index out of range")
        if self.cost_vectors is not None:
            if self.cost_vectors.shape[1] != instance.m:
                raise ValueError("cost vectors have the wrong number of resources")
            if not np.all(np.isfinite(self.cost_vectors)):
                raise ValueError("cost_vectors must be finite")

    def per_period(self, instance: Instance) -> tuple[np.ndarray, np.ndarray]:
        """The (T, m) cost vector and feasibility mask of each period's arrival."""
        if self.types is None:
            return self.cost_vectors, np.ones(self.cost_vectors.shape, dtype=bool)
        return instance.costs[self.types], instance.feasible[self.types]

    def type_counts(self, instance: Instance, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Arrival counts per type over periods (lo, hi], 0-based half-open."""
        if self.types is None:
            raise ValueError("type counts are only defined in discrete mode")
        hi = len(self) if hi is None else hi
        return np.bincount(self.types[lo:hi], minlength=instance.n).astype(np.int64)

    def to_dict(self) -> dict:
        if self.types is not None:
            return {"mode": "discrete", "types": self.types.tolist(), "seed_info": self.seed_info}
        return {"mode": "continuous", "cost_vectors": self.cost_vectors.tolist(), "seed_info": self.seed_info}

    @classmethod
    def from_dict(cls, d: dict) -> "ArrivalSequence":
        if d["mode"] == "discrete":
            return cls(types=d["types"], seed_info=d.get("seed_info", ""))
        return cls(cost_vectors=np.asarray(d["cost_vectors"], dtype=float), seed_info=d.get("seed_info", ""))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "ArrivalSequence":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


class ConsumptionState:
    """Assignment counts of one run, as :func:`replay_decisions` returns them.

    Holds ``by_type[j, i]`` (assignments of type j to resource i), per-resource
    totals, per-type arrival counts, and the (K, m) totals at each epoch end.
    """

    def __init__(self, n: int, m: int):
        self.by_type = np.zeros((max(n, 1), m), dtype=np.int64)
        self.totals = np.zeros(m, dtype=np.int64)
        self.arrivals = np.zeros(max(n, 1), dtype=np.int64)
        self.snapshots = np.zeros((0, m), dtype=np.int64)

    def check(self) -> None:
        if np.any(self.by_type < 0) or np.any(self.by_type.sum(axis=1) > self.arrivals):
            raise AssertionError("assignments exceed arrivals")


def validate_decisions(instance: Instance, arrivals: ArrivalSequence,
                       decisions: np.ndarray) -> np.ndarray:
    """Check a decision sequence against the instance and its arrivals.

    A valid sequence holds one integer per period, each ``REJECT`` or a
    resource feasible for that period's arrival (every resource is feasible
    in continuous mode). Returns it as an int64 array; otherwise raises a
    ``ValueError`` naming the first bad period (0-based).
    """
    arrivals.validate_for(instance)
    T, m = instance.T, instance.m
    d = np.asarray(decisions)
    if d.ndim != 1 or not np.issubdtype(d.dtype, np.integer):
        raise ValueError("decisions must be a one-dimensional integer sequence")
    if len(d) != T:
        raise ValueError(f"decision sequence has length {len(d)}, expected {T}: "
                         f"period {min(len(d), T)} is the first bad one")
    d = d.astype(np.int64)
    _, feasible = arrivals.per_period(instance)
    ok = (d == REJECT) | ((d >= 0) & (d < m) & feasible[np.arange(T), np.clip(d, 0, m - 1)])
    if not ok.all():
        t = int(np.argmin(ok))
        raise ValueError(f"decision {d[t]} at period {t} is neither a reject ({REJECT}) "
                         f"nor a resource feasible for that period's arrival")
    return d


def _ledger(instance: Instance, arrivals: ArrivalSequence,
            decisions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-period accounting of a decision sequence, checked first.

    Returns the assignment cost realized in each period (0 on a reject), the
    (T, m) per-resource totals after each period and the (max(n, 1), m)
    assignment counts by arrival type (one row in continuous mode).
    """
    d = validate_decisions(instance, arrivals, decisions)
    T, m = instance.T, instance.m
    t = np.flatnonzero(d != REJECT)
    i = d[t]
    costs = np.zeros(T)
    costs[t] = arrivals.per_period(instance)[0][t, i]
    taken = np.zeros((T, m), dtype=np.int64)
    taken[t, i] = 1
    j = arrivals.types[t] if arrivals.types is not None else 0
    rows = max(instance.n, 1)
    return costs, np.cumsum(taken, axis=0), np.bincount(j * m + i, minlength=rows * m).reshape(rows, m)


def replay_decisions(instance: Instance, arrivals: ArrivalSequence,
                     decisions: np.ndarray) -> tuple[ConsumptionState, float]:
    """Re-run a decision sequence through the accounting, returning the
    consumption state (with epoch snapshots) and the realized assignment cost.

    The sequence is checked first (see :func:`validate_decisions`). The
    assignment cost is summed period by period, in order.
    """
    costs, running, by_type = _ledger(instance, arrivals, decisions)
    state = ConsumptionState(instance.n, instance.m)
    state.by_type, state.totals = by_type, running[-1].copy()
    state.arrivals = arrivals.type_counts(instance) if arrivals.types is not None else np.array([instance.T])
    state.snapshots = running[instance.epoch_len - 1::instance.epoch_len].copy()
    return state, float(np.add.accumulate(costs)[-1])


def total_cost(instance: Instance, state: ConsumptionState,
               assignment_cost: float | None = None) -> tuple[float, float, float]:
    """Assignment + scaled deviation cost of a completed run.

    The deviation part is :func:`deviation_charge` of the recorded epoch-end
    snapshots. In discrete mode the assignment part is recomputed from
    ``state.by_type``; continuous mode must pass the realized
    ``assignment_cost``.

    Returns ``(assignment, deviation, total)``.
    """
    if assignment_cost is None:
        if instance.continuous:
            raise ValueError("continuous-cost mode requires the realized assignment cost")
        assignment_cost = float(np.sum(instance.costs * state.by_type))
    deviation = deviation_charge(instance, state.snapshots)[0]
    return float(assignment_cost), deviation, float(assignment_cost) + deviation


def deviation_charge(instance: Instance, snapshots) -> tuple[float, np.ndarray]:
    """The deviation cost ``sum_ki P_k g_ki(Z_ki / P_k)`` of the (K, m) epoch-end
    totals ``Z`` (``P_k = kT/K``), and the running averages, each in [0, 1]."""
    periods, avg = instance.epoch_periods, np.asarray(snapshots, dtype=float)
    if avg.shape != (instance.K, instance.m):
        raise ValueError(f"expected epoch snapshots of shape {(instance.K, instance.m)}, got {avg.shape}")
    avg = avg / periods[:, None]
    outside = ~((avg >= -_DOMAIN_TOL) & (avg <= 1.0 + _DOMAIN_TOL))
    if outside.any():
        k, i = np.argwhere(outside)[0]
        raise ValueError(f"consumption rate {avg[k, i]} outside [0, 1] at epoch {k}, resource {i}")
    return float(instance.dev_grid.charge(periods, avg)), avg


def export_trace_csv(path: str, instance: Instance, arrivals: ArrivalSequence,
                     run_result) -> None:
    """Write the per-period trace of a run as CSV.

    Columns: t, epoch, type, decision, the full K*m dual matrix at the start
    of the period (``mu_<epoch>_<resource>``), running average consumption per
    resource, and the cost accumulated so far (assignment plus the deviation
    charges of epochs already closed). t, epoch and type are 1-based in the
    file; decision 0 means reject and ``i`` means resource ``i`` (1-based).
    A run without its ``mu_trace`` (one with ``PolicyConfig.traces`` off)
    raises a ValueError.
    """
    if run_result.mu_trace is None:
        raise ValueError("run result has no mu_trace: it ran with traces off")
    T, K, m, step = instance.T, instance.K, instance.m, instance.epoch_len
    header = ["t", "epoch", "type", "decision"]
    header += [f"mu_{k + 1}_{i + 1}" for k in range(K) for i in range(m)]
    header += [f"running_avg_{i + 1}" for i in range(m)]
    header += ["cost_so_far"]
    costs, running, _ = _ledger(instance, arrivals, run_result.decisions)
    # each epoch end adds its deviation charge, summed left to right, after that period's cost
    periods = instance.epoch_periods
    charges = instance.dev_grid.evaluate(running[step - 1::step] / periods[:, None])
    charges = periods * np.add.accumulate(charges, axis=1)[:, -1]
    ts = np.arange(T)
    so_far = np.add.accumulate(np.insert(costs, periods.astype(np.int64), charges))[ts + (ts + 1) // step]
    values = np.hstack([run_result.mu_trace[:T].reshape(T, K * m), running / (ts + 1)[:, None],
                        so_far[:, None]])
    types = arrivals.types.tolist() if arrivals.types is not None else [-1] * T
    decisions = np.asarray(run_result.decisions).tolist()
    lines = [",".join(header)]
    for t, vals in enumerate(values.tolist()):
        row = [str(t + 1), str(t // step + 1), str(types[t] + 1), str(decisions[t] + 1)]
        lines.append(",".join(row + [f"{v:.12g}" for v in vals]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
