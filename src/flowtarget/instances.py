"""Instance generators, the Gumbel cost model with its aggregate-count
estimator, and nonstationary-to-stationary reductions.

The synthetic generator draws preferred/non-preferred assignment costs,
type probabilities, and a base network target with a multiplicative shock
on the middle epoch. The Gumbel model realizes per-arrival cost vectors
whose greedy choice follows a soft-min law, which makes the per-interval
"ideal quantity" counts Poisson with rates in closed form; the estimator
recovers the cost locations (and type mix) from those counts by projected
gradient descent with random restarts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .core import (
    ABSOLUTE,
    REJECT,
    SQUARED,
    UNDER_OVER,
    ZERO,
    ArrivalSequence,
    DeviationCost,
    Instance,
    uniform_dev_costs,
    validate_decisions,
)
from .rng import rng_stream
from .solver import project_simplex


# ---------------------------------------------------------------------------
# Synthetic instances


@dataclass(frozen=True)
class SyntheticParams:
    """Parameters of the synthetic instance family.

    Each type prefers one resource (cost drawn from U[-1, -2/3]; other
    resources from U[-2/3, 0]); type probabilities are normalized uniforms.
    All epochs share a base per-resource target (network base target drawn
    from U[0.15, 0.6], split evenly across resources) except the middle
    epoch, whose target is scaled by the impulse level ``gamma``. Deviation
    costs are absolute with weight ``delta`` everywhere.
    """

    gamma: float = 1.0
    delta: float = 1.0
    seed: int = 0
    m: int = 3
    n: int = 3
    K: int = 3
    T: int = 501
    base_target_range: tuple[float, float] = (0.15, 0.6)


def generate_synthetic(params: SyntheticParams, stream_index: int = 0) -> Instance:
    """Deterministically generate an instance from ``params`` and its seed."""
    rng = rng_stream(params.seed, "instance", stream_index)
    m, n, K = params.m, params.n, params.K
    costs = rng.uniform(-2.0 / 3.0, 0.0, size=(n, m))
    preferred = rng.uniform(-1.0, -2.0 / 3.0, size=n)
    for j in range(n):
        costs[j, j % m] = preferred[j]
    weights = rng.uniform(0.0, 1.0, size=n)
    probs = weights / weights.sum()
    base = rng.uniform(*params.base_target_range)
    targets = np.full((K, m), base / m)
    targets[K // 2] *= params.gamma
    if np.any(targets > 1.0):
        warnings.warn("impulse pushes the middle-epoch target above 1; clipping to 1")
        targets = np.minimum(targets, 1.0)
    return Instance(
        costs=costs,
        feasible=np.ones((n, m), dtype=bool),
        probs=probs,
        epochs=K,
        horizon=params.T,
        targets=targets,
        dev_costs=uniform_dev_costs(targets, ABSOLUTE, params.delta),
    )


def sample_arrivals(instance: Instance, seed: int, stream_index: int = 0) -> ArrivalSequence:
    """I.i.d. typed arrivals from the instance's type distribution."""
    if instance.probs is None:
        raise ValueError("instance has no type distribution to sample from")
    rng = rng_stream(seed, "arrivals", stream_index)
    types = rng.choice(instance.n, size=instance.T, p=instance.probs)
    return ArrivalSequence(types=types, seed_info=f"seed={seed} stream=arrivals[{stream_index}]")


def idle_then_full_instance(delta: float, T: int) -> Instance:
    """Single resource, constant assignment cost -1, two epochs with targets
    0 then 1 and linear one-sided penalties of weight ``delta``. A policy
    that optimizes epochs in isolation idles early and cannot recover."""
    targets = np.array([[0.0], [1.0]])
    dev = ((DeviationCost.under_over(delta, 0.0, 0.0),),
           (DeviationCost.under_over(0.0, delta, 1.0),))
    return Instance(costs=[[-1.0]], feasible=[[True]], probs=np.array([1.0]),
                    epochs=2, horizon=T, targets=targets, dev_costs=dev)


def zero_cost_two_target_instance(rho1: float, rho2: float, delta: float, T: int) -> Instance:
    """Single zero-cost type, two epochs with absolute penalties at targets
    ``rho1`` then ``rho2``. Separates controllers that track each epoch's
    own target from ones that mix future targets into current decisions."""
    targets = np.array([[rho1], [rho2]])
    return Instance(costs=[[0.0]], feasible=[[True]], probs=np.array([1.0]),
                    epochs=2, horizon=T, targets=targets,
                    dev_costs=uniform_dev_costs(targets, ABSOLUTE, delta))


def random_instance(seed: int, max_m: int = 3, max_n: int = 3, max_K: int = 4,
                    max_T: int = 600, allow_squared: bool = False,
                    stream_index: int = 0) -> Instance:
    """Random small instance for property and cross-check tests."""
    rng = rng_stream(seed, "instance", stream_index)
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    K = int(rng.integers(1, max_K + 1))
    T = K * int(rng.integers(1, max(max_T // K, 1) + 1))
    costs = rng.uniform(-1.0, 1.0, size=(n, m))
    feasible = rng.random(size=(n, m)) < 0.85
    probs = rng.dirichlet(np.ones(n))
    targets = rng.uniform(0.0, 1.0, size=(K, m))
    fams = [ABSOLUTE, UNDER_OVER, ZERO] + ([SQUARED] if allow_squared else [])
    rows = []
    for k in range(K):
        row = []
        for i in range(m):
            fam = fams[int(rng.integers(0, len(fams)))]
            t = float(targets[k, i])
            if fam == ZERO:
                row.append(DeviationCost.zero())
            elif fam == ABSOLUTE:
                row.append(DeviationCost.absolute(float(rng.uniform(0.1, 2.0)), t))
            elif fam == UNDER_OVER:
                row.append(DeviationCost.under_over(float(rng.uniform(0.0, 2.0)),
                                                    float(rng.uniform(0.0, 2.0)), t))
            else:
                row.append(DeviationCost.squared(float(rng.uniform(0.1, 2.0)), t))
        rows.append(tuple(row))
    return Instance(costs=costs, feasible=feasible, probs=probs, epochs=K,
                    horizon=T, targets=targets, dev_costs=tuple(rows))


# ---------------------------------------------------------------------------
# Gumbel cost model and aggregate-count estimation


@dataclass(frozen=True, eq=False)
class GumbelCostModel:
    """Arrival cost model: a type-``j`` arrival draws resource ``i``'s cost
    from a (min-convention) Gumbel with location ``locations[j, i]`` and unit
    scale, and the outside option from location 0. Arrivals per observation
    interval are Poisson with rate ``rate``."""

    locations: np.ndarray              # (n, m)
    probs: Optional[np.ndarray] = None  # (n,), defaults to a single type
    rate: float = 1.0

    def __post_init__(self) -> None:
        loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
        object.__setattr__(self, "locations", loc)
        if not np.all(np.isfinite(loc)):
            raise ValueError("locations must be finite")
        p = np.ones(loc.shape[0]) / loc.shape[0] if self.probs is None \
            else np.asarray(self.probs, dtype=float)
        if p.shape != (loc.shape[0],) or abs(p.sum() - 1.0) > 1e-12 or np.any(p < 0):
            raise ValueError("probs must be a distribution over the rows of locations")
        object.__setattr__(self, "probs", p)
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be positive and finite, got {self.rate}")

    @property
    def n(self) -> int:
        return self.locations.shape[0]

    @property
    def m(self) -> int:
        return self.locations.shape[1]


def softmin_weights(locations: np.ndarray) -> np.ndarray:
    """Probability that each resource is an arrival's cheapest option,
    ``exp(-c_ji) / (1 + sum_i' exp(-c_ji'))`` with the outside option at 0."""
    e = np.exp(-np.atleast_2d(locations))
    return e / (1.0 + e.sum(axis=-1, keepdims=True))


def softmin_rates(model: GumbelCostModel) -> np.ndarray:
    """Poisson rate of each resource's ideal quantity per interval."""
    w = softmin_weights(model.locations)
    return model.rate * (model.probs[:, None] * w).sum(axis=0)


def sample_gumbel_arrivals(model: GumbelCostModel, T: int, seed: int,
                           stream_index: int = 0) -> ArrivalSequence:
    """Realize ``T`` continuous-cost arrivals.

    Costs are reported net of the arrival's realized outside-option cost, so
    rejecting costs exactly 0 and the greedy argmin (including rejection)
    follows the soft-min law of the model.
    """
    rng = rng_stream(seed, "arrivals", stream_index)
    types = rng.choice(model.n, size=T, p=model.probs)
    gum = rng.gumbel(size=(T, model.m + 1))
    raw = model.locations[types] - gum[:, 1:]
    outside = -gum[:, 0]
    return ArrivalSequence(cost_vectors=raw - outside[:, None],
                           seed_info=f"seed={seed} stream=arrivals[{stream_index}] gumbel")


@dataclass(frozen=True, eq=False)
class AggregateObservation:
    """Per-interval ideal quantities: ``counts[t, i]`` arrivals in interval
    ``t`` whose cheapest option was resource ``i``, plus the interval's total
    arrival count (rejections included)."""

    counts: np.ndarray   # (intervals, m) int64
    arrivals: np.ndarray  # (intervals,) int64

    def __post_init__(self) -> None:
        c = np.atleast_2d(np.asarray(self.counts, dtype=np.int64))
        a = np.asarray(self.arrivals, dtype=np.int64)
        if np.any(c < 0):
            raise ValueError("counts (ideal quantities) must be nonnegative")
        if a.shape != (c.shape[0],) or np.any(c.sum(axis=1) > a):
            raise ValueError("interval totals must cover the per-resource counts")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "arrivals", a)

    @property
    def intervals(self) -> int:
        return self.counts.shape[0]

    @property
    def m(self) -> int:
        return self.counts.shape[1]

    def to_csv(self, path: str) -> None:
        """Rows (interval, resource, ideal_quantity); resource 0 is the
        outside option, 1..m the resources; intervals are 1-based."""
        lines = ["interval,resource,ideal_quantity"]
        rejected = self.arrivals - self.counts.sum(axis=1)
        for t in range(self.intervals):
            lines.append(f"{t + 1},0,{rejected[t]}")
            for i in range(self.m):
                lines.append(f"{t + 1},{i + 1},{self.counts[t, i]}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path: str) -> "AggregateObservation":
        rows = {}
        m_max = 0
        with open(path) as fh:
            header = fh.readline()
            if not header.startswith("interval"):
                raise ValueError("expected an (interval, resource, ideal_quantity) CSV")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    t, i, q = (int(v) for v in line.split(","))
                except ValueError:
                    raise ValueError(f"line {lineno}: expected three integers, got {line.strip()!r}") from None
                if t < 1 or i < 0:
                    raise ValueError(f"line {lineno}: intervals start at 1 and resources at 0 "
                                     f"(the outside option), got interval {t}, resource {i}")
                if (t - 1, i) in rows:
                    raise ValueError(f"line {lineno}: interval {t}, resource {i} appears twice")
                rows[(t - 1, i)] = q
                m_max = max(m_max, i)
        if not rows:
            raise ValueError(f"{path}: the file has a header but no rows")
        n_int = max(t for t, _ in rows) + 1
        counts = np.zeros((n_int, m_max), dtype=np.int64)
        arrivals = np.zeros(n_int, dtype=np.int64)
        for (t, i), q in rows.items():
            arrivals[t] += q
            if i >= 1:
                counts[t, i - 1] = q
        obs = cls(counts, arrivals)
        for t in range(n_int):  # to_csv writes every row; a gap is not an empty interval
            for i in range(m_max + 1):
                if (t, i) not in rows:
                    raise ValueError(f"interval {t + 1}, resource {i} has no row: every interval "
                                     f"1..{n_int} needs one for each resource 0..{m_max}")
        return obs


def ideal_quantities(cost_vectors: np.ndarray, interval_sizes: Sequence[int]) -> AggregateObservation:
    """Greedy minimum-cost choice counts per interval.

    ``cost_vectors`` holds one realized cost vector per arrival (net of the
    outside option); an arrival's ideal resource is its cost argmin when that
    minimum is nonpositive, ties to the lowest index, otherwise the outside
    option.
    """
    cv = np.atleast_2d(np.asarray(cost_vectors, dtype=float))
    sizes = np.asarray(interval_sizes, dtype=np.int64)
    if sizes.sum() != cv.shape[0]:
        raise ValueError("interval sizes must partition the arrivals")
    best = cv.argmin(axis=1)
    assigned = cv[np.arange(cv.shape[0]), best] <= 0.0
    interval_of = np.repeat(np.arange(len(sizes)), sizes)
    counts = np.zeros((len(sizes), cv.shape[1]), dtype=np.int64)
    np.add.at(counts, (interval_of[assigned], best[assigned]), 1)
    return AggregateObservation(counts, sizes)


def generate_observations(model: GumbelCostModel, intervals: int, seed: int,
                          stream_index: int = 0) -> AggregateObservation:
    """Sample Poisson interval counts and realize their ideal quantities."""
    rng = rng_stream(seed, "arrivals", stream_index)
    sizes = rng.poisson(model.rate, size=intervals)
    total = int(sizes.sum())
    types = rng.choice(model.n, size=total, p=model.probs)
    gum = rng.gumbel(size=(total, model.m + 1))
    cv = model.locations[types] - gum[:, 1:] + gum[:, [0]]
    return ideal_quantities(cv, sizes)


@dataclass(eq=False)
class MleResult:
    """The best restart's fit. ``steps`` is the number of descent steps the
    batch took, at most ``iters``; it counts the final step that returned
    every restart unchanged, so a fit that stopped at its fixed point after
    ``s`` moving steps reports ``s + 1``. It is 0 for degenerate data."""

    probs: np.ndarray
    locations: np.ndarray
    log_likelihood: float
    degenerate: bool = False
    restart_lls: np.ndarray = field(default_factory=lambda: np.zeros(0))
    steps: int = 0


def mle_gradient(probs: np.ndarray, locations: np.ndarray, rate: float,
                 mean_counts: np.ndarray) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Per-interval negative log-likelihood (up to the factorial constant)
    and its analytic gradient in (probs, locations).

    ``probs`` is ``(n,)`` and ``locations`` ``(n, m)``, or both carry a
    leading batch axis, ``(R, n)`` and ``(R, n, m)``; sums run over the type
    and resource axes only, so each batch row gets exactly its unbatched
    values. The likelihood is a float for 1-D ``probs``, else ``(R,)``.
    """
    lam, inner, grad_c = _mle_terms(probs, locations, rate, mean_counts)
    nll = lam.sum(axis=-1) - (mean_counts * np.log(lam)).sum(axis=-1)
    return (float(nll) if probs.ndim == 1 else nll), rate * inner, grad_c


def _mle_terms(probs, locations, rate, mean_counts):
    """The Poisson rates ``lam`` (floored at 1e-300), the type-mix gradient
    before its ``rate`` factor, and the location gradient: the terms of
    :func:`mle_gradient` that a descent step reads."""
    w = softmin_weights(locations)                         # (..., n, m)
    lam = rate * (probs[..., None] * w).sum(axis=-2)       # (..., m)
    lam = np.maximum(lam, 1e-300)
    resid = 1.0 - mean_counts / lam                        # (..., m)
    inner = (w * resid[..., None, :]).sum(axis=-1)         # (..., n)
    grad_c = rate * probs[..., None] * w * (inner[..., None] - resid[..., None, :])
    return lam, inner, grad_c


def estimate_gumbel_mle(obs: AggregateObservation, n_types: int = 1,
                        restarts: int = 50, iters: int = 10_000, step: float = 0.2,
                        bounds: tuple[float, float] = (-50.0, 50.0),
                        seed: int = 0) -> MleResult:
    """Maximum-likelihood cost locations (and type mix) from ideal quantities.

    Under the soft-min approximation each resource's per-interval ideal
    quantity is Poisson with rate ``rate * sum_j p_j w_ji``; the Poisson
    likelihood depends on the data only through the mean counts, and is
    maximized by projected gradient descent (locations clipped to ``bounds``,
    type probabilities projected to the simplex) over random restarts. Each
    restart draws its start from its own random stream; the restarts then
    descend together as one batch, and no sum mixes two restarts, so each
    ends exactly where it would alone. ``iters`` caps the steps: the descent
    stops at the first step that returns every restart's locations (and,
    with several types, its type mix) unchanged byte for byte. A step is a
    function of those bytes, so every later step would repeat it, and the
    result is what all ``iters`` steps give. The test compares bytes, not
    values: ``-0.0 == 0.0`` though a zero's sign reaches the output, and a
    repeating NaN is a fixed point that ``==`` misses. A fit that never
    reaches one (two-type fits often do not) runs all ``iters`` steps;
    ``MleResult.steps`` counts the steps taken. A step reads
    only the gradients: the loop takes them from the helper that
    :func:`mle_gradient` also calls, without the likelihood (evaluated once,
    at the end) or, with one type, the type-mix gradient, and clips through
    ``np.minimum``/``np.maximum``, which give ``np.clip``'s values for less.
    The per-interval arrival rate is estimated as the mean interval total.
    Returns the first restart with the highest likelihood.
    """
    lo, hi = bounds
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if n_types < 1:
        raise ValueError(f"n_types must be at least 1, got {n_types}")
    if iters < 0:
        raise ValueError(f"iters must be nonnegative, got {iters}")
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"bounds must be finite with lo < hi, got {bounds}")
    if obs.intervals == 0:
        raise ValueError("no observations")
    m = obs.m
    rate = float(obs.arrivals.mean())
    mean_counts = obs.counts.mean(axis=0)
    if obs.counts.sum() == 0:
        locs = np.full((n_types, m), hi)
        ll = _full_log_likelihood(np.ones(n_types) / n_types, locs, rate, obs)
        return MleResult(np.ones(n_types) / n_types, locs, ll, degenerate=True)
    c = np.empty((restarts, n_types, m))
    p = np.ones((restarts, n_types))
    for r in range(restarts):
        rng = rng_stream(seed, "restarts", r)
        c[r] = rng.uniform(-3.0, 3.0, size=(n_types, m))
        if n_types > 1:
            p[r] = rng.dirichlet(np.ones(n_types))
    steps = 0
    while steps < iters:
        _, inner, gc = _mle_terms(p, c, rate, mean_counts)
        c_next = np.minimum(np.maximum(c - step * gc, lo), hi)
        p_next = project_simplex(p - step * (rate * inner)) if n_types > 1 else p
        steps += 1
        if c_next.tobytes() == c.tobytes() and p_next.tobytes() == p.tobytes():
            break  # a fixed point in bytes: every later step would repeat this one
        c, p = c_next, p_next
    nll, _, _ = mle_gradient(p, c, rate, mean_counts)
    finite = np.flatnonzero(nll < np.inf)
    if len(finite) == 0:
        raise ValueError("no restart reached a finite likelihood")
    best = finite[np.argmin(nll[finite])]
    return MleResult(p[best].copy(), c[best].copy(),
                     _full_log_likelihood(p[best], c[best], rate, obs), restart_lls=-nll,
                     steps=steps)


def _full_log_likelihood(probs, locations, rate, obs: AggregateObservation) -> float:
    w = softmin_weights(locations)
    lam = np.maximum(rate * (probs[:, None] * w).sum(axis=0), 1e-300)
    T = obs.intervals
    return float(-lam.sum() * T + (obs.counts.sum(axis=0) * np.log(lam)).sum()
                 - gammaln(obs.counts + 1.0).sum())


# ---------------------------------------------------------------------------
# Nonstationary reductions


@dataclass(frozen=True, eq=False)
class NonstatProfile:
    """Arrival-load profile: epoch ``k`` receives ``fractions[k] * T``
    arrivals. ``per_arrival`` targets average over arrivals seen so far;
    ``per_period`` targets average over elapsed wall-clock periods (epochs
    of equal time-length ``T/K``)."""

    fractions: np.ndarray
    mode: str = "per-arrival"

    def __post_init__(self) -> None:
        fr = np.asarray(self.fractions, dtype=float)
        object.__setattr__(self, "fractions", fr)
        if fr.ndim != 1 or not np.all(fr > 0) or abs(fr.sum() - 1.0) > 1e-9:  # NaN fails fr > 0
            raise ValueError(f"fractions must be a 1-D array of positive values that sum to 1, got {fr.tolist()}")
        if self.mode not in ("per-arrival", "per-period"):
            raise ValueError("mode must be per-arrival or per-period")

    def counts(self, T: int) -> np.ndarray:
        c = self.fractions * T
        rounded = np.rint(c)
        if np.any(np.abs(c - rounded) > 1e-9) or rounded.sum() != T:
            raise ValueError("each epoch's arrival count l_k * T must be integral")
        return rounded.astype(np.int64)


def _per_period_rescaled(instance: Instance, profile: NonstatProfile) -> Instance:
    """Rescale per-period deviation costs into per-arrival form:
    ``g~_ki(a) = (1 / l_<=k) (k/K) g_ki((l_<=k / (k/K)) a)``."""
    K = instance.K
    lcum = np.cumsum(profile.fractions)
    rows = []
    targets = np.zeros_like(instance.targets)
    for k in range(K):
        frac_time = (k + 1) / K
        coef = frac_time / lcum[k]
        arg_scale = lcum[k] / frac_time
        row = []
        for i in range(instance.m):
            g = instance.dev_costs[k][i].rescale(coef, arg_scale)
            row.append(g)
            targets[k, i] = g.target if g.family != ZERO else instance.targets[k, i] / arg_scale
        rows.append(tuple(row))
    return Instance(costs=instance.costs, feasible=instance.feasible, probs=instance.probs,
                    epochs=K, horizon=instance.T, targets=targets, dev_costs=tuple(rows),
                    continuous=instance.continuous, allow_extended_targets=True)


def nonstationary_transform(instance: Instance, profile: NonstatProfile,
                            max_new_epochs: int = 128) -> Instance:
    """Reduce a nonstationary-arrival instance to a stationary one.

    Per-arrival mode splits the horizon into ``T / gcd(l_k T)`` equal-arrival
    epochs, keeping each original epoch's deviation cost at the new epoch
    whose arrival count matches its cumulative load and inserting zero
    penalties elsewhere; total cost is preserved path-for-path. Per-period
    mode first rescales the deviation costs into per-arrival form (which may
    move targets outside [0, 1]) and then applies the same splitting.
    Profiles whose gcd would create more than ``max_new_epochs`` epochs are
    rejected.
    """
    counts = profile.counts(instance.T)
    base = instance if profile.mode == "per-arrival" else _per_period_rescaled(instance, profile)
    d = int(np.gcd.reduce(counts))
    K_new = instance.T // d
    if K_new > max_new_epochs:
        raise ValueError(f"profile gcd {d} would create {K_new} epochs (cap {max_new_epochs})")
    cum = np.cumsum(counts)
    targets = np.zeros((K_new, instance.m))
    rows: list[tuple[DeviationCost, ...]] = [tuple(DeviationCost.zero() for _ in range(instance.m))
                                             for _ in range(K_new)]
    for k in range(instance.K):
        knew = int(cum[k]) // d - 1
        rows[knew] = base.dev_costs[k]
        targets[knew] = base.targets[k]
    extended = bool(np.any(targets < 0.0) or np.any(targets > 1.0))
    return Instance(costs=instance.costs, feasible=instance.feasible, probs=instance.probs,
                    epochs=K_new, horizon=instance.T, targets=targets, dev_costs=tuple(rows),
                    continuous=instance.continuous, allow_extended_targets=extended)


def nonstationary_total_cost(instance: Instance, profile: NonstatProfile,
                             arrivals: ArrivalSequence, decisions: np.ndarray) -> float:
    """Total cost of a decision sequence under the nonstationary model.

    Per-arrival mode charges ``l_<=k T * g_ki(Z_i(l_<=k T) / (l_<=k T))`` at
    each original epoch end; per-period mode charges
    ``(kT/K) * g_ki(Z_i(l_<=k T) / (kT/K))``, whose argument may exceed 1
    when arrivals are front-loaded. The decision sequence is checked as in
    :func:`flowtarget.core.replay_decisions`.
    """
    decisions = validate_decisions(instance, arrivals, decisions)
    counts = profile.counts(instance.T)
    cum = np.cumsum(counts)
    totals = np.zeros(instance.m)
    assignment = 0.0
    deviation = 0.0
    boundary = 0
    for t in range(instance.T):
        d = int(decisions[t])
        if d != REJECT:
            totals[d] += 1
            assignment += float(instance.costs[int(arrivals.types[t]), d]) \
                if not instance.continuous else float(arrivals.cost_vectors[t, d])
        if boundary < instance.K and t + 1 == cum[boundary]:
            k = boundary
            if profile.mode == "per-arrival":
                den = float(cum[k])
            else:
                den = (k + 1) * instance.T / instance.K
            deviation += den * sum(
                instance.dev_costs[k][i].evaluate(totals[i] / den, check_domain=False)
                for i in range(instance.m))
            boundary += 1
    return assignment + deviation
