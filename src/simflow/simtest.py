"""Simulation-based hypothesis tests.

The null distribution of a statistic is built by forward simulation at a
fixed parameter value; p-values are normalized ranks of the observed
statistic in that sample, with randomized tie handling and no +1
correction. Two-sided p-values double the smaller one-sided value (capped
at 1), an extension flagged in every report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import RetryError
from .models import _SIM_CHUNK, SIDES, Dataset, Model, SummaryStatistic, simulate_statistic
from .rng import as_generator, map_chunks, substream

__all__ = [
    "mean_stat",
    "mean_difference",
    "pooled_t",
    "variance_ratio",
    "sample_max",
    "lag1_autocorr",
    "sample_sum",
    "STATISTIC_REGISTRY",
    "DISTANCE_REGISTRY",
    "NullSamples",
    "simulate_null",
    "rank_pvalues",
    "simulation_pvalue",
    "critical_value",
    "SimulationTest",
    "AnalyticZTest",
    "TestReport",
]

_RETRY_CAP = 5


# ---------------------------------------------------------------------------
# Built-in statistics: each fn maps obs (s, n) and the group labels to (s,)


def _groups(obs: np.ndarray, labels: np.ndarray | None):
    """The two groups' values, (s, n_g) each, as contiguous copies.

    Contiguous rows sum pairwise as a 1-D array does, so a dataset's
    statistic does not depend on the block it is computed in.
    """
    if labels is None:
        raise ValueError("this statistic needs two-group data (group labels)")
    groups = sorted(set(labels.tolist()))  # np.unique would load numpy.ma in a dry run
    if len(groups) != 2:
        raise ValueError("expected exactly two groups")
    return tuple(np.ascontiguousarray(obs[:, labels == g]) for g in groups)


mean_stat = SummaryStatistic("mean", "data", lambda obs, labels: obs.mean(axis=1))


def _mean_diff(obs: np.ndarray, labels):
    s0, s1 = _groups(obs, labels)
    return s0.mean(axis=1) - s1.mean(axis=1)


mean_difference = SummaryStatistic("mean-diff", "data", _mean_diff)


def _scale_free_groups(obs: np.ndarray, labels):
    """_groups of obs, each row whose largest magnitude exceeds 2**400 first
    divided by a power of two near it, for the statistics that a common
    scale leaves unchanged (pooled-t, the variance ratio): its squared
    deviations then cannot overflow, and a power of two scales without
    rounding, so the statistic keeps its value."""
    limit = 2.0**400
    if obs.max(initial=0.0) > limit or obs.min(initial=0.0) < -limit:  # no temporary array
        peak = np.abs(obs).max(axis=1)
        big = peak > limit
        obs = obs.copy()
        obs[big] = np.ldexp(obs[big], -np.frexp(peak[big])[1][:, None])
    return _groups(obs, labels)


def _pooled_t(obs: np.ndarray, labels):
    s0, s1 = _scale_free_groups(obs, labels)
    n0, n1 = s0.shape[1], s1.shape[1]
    m0 = s0.mean(axis=1)
    m1 = s1.mean(axis=1)
    v0 = s0.var(axis=1, ddof=1)
    v1 = s1.var(axis=1, ddof=1)
    sp2 = ((n0 - 1) * v0 + (n1 - 1) * v1) / (n0 + n1 - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (m0 - m1) / np.sqrt(sp2 * (1.0 / n0 + 1.0 / n1))


pooled_t = SummaryStatistic("pooled-t", "data", _pooled_t)


def _variance_ratio(obs: np.ndarray, labels):
    s0, s1 = _scale_free_groups(obs, labels)
    with np.errstate(divide="ignore", invalid="ignore"):
        return s0.var(axis=1, ddof=1) / s1.var(axis=1, ddof=1)


variance_ratio = SummaryStatistic("variance-ratio", "data", _variance_ratio)

sample_max = SummaryStatistic("max", "data", lambda obs, labels: obs.max(axis=1))


def _lag1(obs: np.ndarray, labels):
    centered = obs - obs.mean(axis=1, keepdims=True)
    num = (centered[:, :-1] * centered[:, 1:]).sum(axis=1)
    den = (centered**2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den


lag1_autocorr = SummaryStatistic("lag1-autocorr", "data", _lag1)

sample_sum = SummaryStatistic("sum", "data", lambda obs, labels: obs.sum(axis=1))

STATISTIC_REGISTRY = {
    s.name: s
    for s in (mean_stat, mean_difference, pooled_t, variance_ratio, sample_max,
              lag1_autocorr)
}

# ABC distances by name: each is |T(y_sim) - T(y_obs)| for the data statistic T
DISTANCE_REGISTRY = {"mean-distance": mean_stat, "count-distance": sample_sum}


# ---------------------------------------------------------------------------
# Null simulation and p-values


@dataclass(frozen=True)
class NullSamples:
    values: np.ndarray
    n_resampled: int
    statistic: str
    s: int


def simulate_null(
    model: Model,
    theta0,
    statistic: SummaryStatistic,
    s: int,
    seed,
    n_obs: int | None = None,
) -> NullSamples:
    """Simulate s null draws of the statistic at theta0.

    Draws on which the statistic is undefined (non-finite) are resampled
    from a fresh derived stream, up to a retry cap; a simulated dataset that
    is not finite raises (models.simulate_statistic), as no resample of it
    would stand for the null. Work proceeds in
    fixed-size chunks (rng.map_chunks, on threads): chunk c draws from
    (root, 0, c) and its retry a from (root, 0, c, a), so results do not
    depend on how chunks are scheduled.
    """
    if statistic.arity != "data":
        raise ValueError("null simulation needs a data statistic")
    theta0 = np.asarray(theta0, dtype=float).reshape(-1)
    root = int(as_generator(seed).integers(0, 2**63 - 1))

    def at_theta0(count: int, rng) -> np.ndarray:
        thetas = np.broadcast_to(theta0, (count, theta0.size))
        return simulate_statistic(model, thetas, rng, statistic, n_obs=n_obs)

    out = np.empty(s)

    def null_chunk(c: int, lo: int, hi: int, rng) -> int:
        """Fill out[lo:hi]; the count of draws resampled."""
        vals = at_theta0(hi - lo, rng)
        resampled = 0
        bad = ~np.isfinite(vals)
        for attempt in range(1, _RETRY_CAP + 1):
            if not bad.any():
                break
            n_bad = int(bad.sum())
            resampled += n_bad
            vals[bad] = at_theta0(n_bad, substream(root, 0, c, attempt))
            bad = ~np.isfinite(vals)
        if bad.any():
            raise RetryError(
                f"statistic {statistic.name} undefined on {int(bad.sum())} draws "
                f"after {_RETRY_CAP} retries"
            )
        out[lo:hi] = vals
        return resampled

    n_resampled = sum(map_chunks(null_chunk, root, s, _SIM_CHUNK))
    if n_resampled:
        warnings.warn(
            f"{n_resampled} null draws resampled ({statistic.name} undefined)",
            RuntimeWarning,
            stacklevel=2,
        )
    return NullSamples(out, n_resampled, statistic.name, int(s))


def _ranks(observed: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(below, ties): how many reference draws lie strictly below each
    observed value and how many equal it. Per-row draws, (k, m), compare
    row i against row i only. A shared sample, (m,), takes one comparison
    pass for one value and, for a block, one searchsorted pass over a
    sorted copy, never the sample itself, whose mean and sd depend on the
    order of its draws."""
    if reference.ndim == 2:
        column = observed[:, None]
        return (reference < column).sum(axis=1), (reference == column).sum(axis=1)
    if observed.size == 1:
        return ((reference < observed[0]).sum(keepdims=True),
                (reference == observed[0]).sum(keepdims=True))
    ordered = np.sort(reference)
    below = ordered.searchsorted(observed, "left")
    return below, ordered.searchsorted(observed, "right") - below


def rank_pvalues(observed, reference: np.ndarray, side: str, rows) -> np.ndarray:
    """Normalized ranks of k observed statistics among reference draws, one
    p-value per row: either one shared sample, (m,), such as a test's null,
    or one sample per row, (k, m), such as SBC's posterior draws.

    Strict inequalities; the draws tied with row i's value are split
    between the two sides by independent fair coin flips from rows[i], a
    generator that is called only if the row ties, so the lower and upper
    p-values sum to one exactly. A NaN statistic has no rank: its p-value is
    NaN, and it draws no coin.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    reference = np.asarray(reference, dtype=float)
    observed = np.asarray(observed, dtype=float).reshape(-1)
    below, ties = _ranks(observed, reference)
    undefined = np.isnan(observed)
    ties[undefined] = 0
    for i in np.flatnonzero(ties):
        below[i] += rows[i].binomial(int(ties[i]), 0.5)
    p_lower = below / reference.shape[-1]
    p_lower[undefined] = np.nan
    if side == "lower":
        return p_lower
    if side == "upper":
        return 1.0 - p_lower
    return np.minimum(1.0, 2.0 * np.minimum(p_lower, 1.0 - p_lower))


def simulation_pvalue(observed: float, null_values: np.ndarray, side: str, rng) -> float:
    """The p-value of one observed statistic (rank_pvalues), its tie coin
    from rng."""
    return float(rank_pvalues(observed, null_values, side, [as_generator(rng)])[0])


def _critical_probs(alpha: float, side: str) -> tuple[float, ...]:
    """The null quantile probabilities of the critical value(s) at level alpha."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if side == "lower":
        return (alpha,)
    if side == "upper":
        return (1.0 - alpha,)
    return (alpha / 2.0, 1.0 - alpha / 2.0)


def _critical(quantile_at: dict, alpha: float, side: str):
    """The critical value(s) at level alpha, from a probability -> quantile map."""
    values = tuple(quantile_at[p] for p in _critical_probs(alpha, side))
    return values if side == "two_sided" else values[0]


def _quantiles(null_values: np.ndarray, probs) -> dict:
    """Type-7 quantiles of the null sample at every probability, in one pass."""
    probs = list(probs)
    values = np.quantile(np.asarray(null_values, dtype=float), probs)
    return dict(zip(probs, values.tolist()))


def critical_value(null_values: np.ndarray, alpha: float, side: str):
    """Empirical critical values (type-7 quantiles of the null sample)."""
    return _critical(_quantiles(null_values, _critical_probs(alpha, side)), alpha, side)


def _rescaled(stat, values: np.ndarray) -> float:
    """stat of the values (a mean or an sd); when that overflows, stat of
    the values divided by their largest magnitude, scaled back."""
    with np.errstate(over="ignore"):
        out = stat(values)
    if not np.isfinite(out) and np.isfinite(values).all():
        scale = np.abs(values).max()
        out = stat(values / scale) * scale
    return float(out)


@dataclass(frozen=True)
class TestReport:
    statistic: str
    side: str
    observed: float
    pvalue: float
    s: int
    critical_values: dict
    null_mean: float
    null_sd: float
    null_quantiles: dict
    n_resampled: int
    metadata: dict = field(default_factory=dict)


class SimulationTest:
    """A reusable test: null sample simulated once, then applied to data."""

    def __init__(
        self,
        model: Model,
        theta0,
        statistic: SummaryStatistic,
        side: str = "two_sided",
        s: int = 10_000,
        seed: int = 0,
        n_obs: int | None = None,
    ):
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        self.model = model
        self.theta0 = np.asarray(theta0, dtype=float).reshape(-1)
        self.statistic = statistic
        self.side = side
        self.seed = int(seed)
        self.null = simulate_null(model, theta0, statistic, s, substream(seed, 0),
                                  n_obs=n_obs)

    def pvalues(self, obs: np.ndarray, labels, rows) -> np.ndarray:
        """The p-values of a (k, n) block of datasets with shared
        group labels, row i's tie coin from rows[i] (rank_pvalues)."""
        return rank_pvalues(self.statistic.fn(obs, labels), self.null.values, self.side, rows)

    def pvalue(self, y: Dataset, rng=None) -> float:
        """The p-value of one dataset, a block of one; its tie coin comes
        from rng, by default stream (seed, 1)."""
        rng = as_generator(rng) if rng is not None else substream(self.seed, 1)
        return float(self.pvalues(y.observations[None], y.group_labels, [rng])[0])

    def report(self, y: Dataset, alphas=(0.01, 0.05, 0.1), rng=None) -> TestReport:
        observed = self.statistic.on_data(y)
        p = self.pvalue(y, rng)
        qs = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
        probs = [prob for alpha in alphas for prob in _critical_probs(alpha, self.side)]
        quantile_at = _quantiles(self.null.values, [*probs, *qs])
        return TestReport(
            statistic=self.statistic.name,
            side=self.side,
            observed=float(observed),
            pvalue=float(p),
            s=self.null.s,
            critical_values={alpha: _critical(quantile_at, alpha, self.side)
                             for alpha in alphas},
            null_mean=_rescaled(np.mean, self.null.values),
            null_sd=_rescaled(lambda v: v.std(ddof=1), self.null.values),
            null_quantiles={q: quantile_at[q] for q in qs},
            n_resampled=self.null.n_resampled,
            metadata={"two_sided_rule": "2*min(one-sided), capped at 1 (extension)"},
        )


class AnalyticZTest:
    """One-sample z-test with known sigma; exact reference for power checks."""

    def __init__(self, theta0: float, sigma: float, side: str = "upper"):
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if not sigma > 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.theta0 = float(theta0)
        self.sigma = float(sigma)
        self.side = side

    def pvalues(self, obs: np.ndarray, labels=None, rows=None) -> np.ndarray:
        """The p-values of a (k, n) block of datasets; the test
        draws nothing, so labels and rows are unused."""
        from scipy import special

        z = (obs.mean(axis=1) - self.theta0) * np.sqrt(obs.shape[1]) / self.sigma
        if self.side == "upper":
            return special.ndtr(-z)
        if self.side == "lower":
            return special.ndtr(z)
        return 2.0 * special.ndtr(-np.abs(z))

    def pvalue(self, y: Dataset, rng=None) -> float:
        """The p-value of one dataset, a block of one."""
        return float(self.pvalues(y.observations[None])[0])
