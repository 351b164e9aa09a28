"""Calibration pipelines: simulation-based calibration of posterior
approximators, frequentist calibration of estimators, power analysis,
sharpness, and estimator accuracy.

All pipelines share one replication loop, `_replicate`: for i < S, open
stream (seed, 0, i) through `rng.chunks`, draw theta from the prior (or
use a fixed truth, or row i of given parameters), simulate a dataset, and
compute the pipeline's statistic on it. Posterior SBC in `predictive` runs
through it too, with the approximator's draws as the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .approximators import Approximator
from .diagnostics import PValueSet, UniformityVerdict, uniformity_test
from .models import Dataset, Model, SummaryStatistic, param_target
from .rng import chunks
from .simtest import simulation_pvalue

__all__ = [
    "sbc_pvalue",
    "SbcConfig",
    "SbcResult",
    "run_sbc",
    "EstimatorSpec",
    "sample_mean_estimator",
    "posterior_mean_estimator",
    "FreqCalResult",
    "run_frequentist_calibration",
    "PowerResult",
    "power_analysis",
    "SharpnessResult",
    "sharpness",
    "AccuracyResult",
    "estimator_accuracy",
    "squared_error",
    "absolute_error",
]


def sbc_pvalue(t_star: float, t_draws: np.ndarray, rng) -> float:
    """Fraction of draws at or below the truth, ties counted with
    probability one half each (seeded)."""
    return simulation_pvalue(float(t_star), t_draws, "lower", rng)


@dataclass(frozen=True)
class SbcConfig:
    s: int = 1000
    m: int = 99
    seed: int = 0
    targets: tuple[SummaryStatistic, ...] | None = None
    bins: int = 10
    band_coverage: float = 0.95

    def __post_init__(self):
        if self.s < 10:
            raise ValueError("SBC needs at least 10 outer simulations")
        if self.m < 1:
            raise ValueError("inner draw count must be positive")
        if self.bins < 2:
            raise ValueError("bins must be at least 2")
        if not 0.5 <= self.band_coverage < 1.0:
            raise ValueError("band coverage must lie in [0.5, 1)")


@dataclass(frozen=True)
class SbcResult:
    kind: str
    model: str
    approximator: str
    s: int
    m: int
    seed: int
    target_names: tuple[str, ...]
    pvalues: dict[str, PValueSet]
    verdicts: dict[str, UniformityVerdict]
    metadata: dict = field(default_factory=dict)


def _replicate(model: Model, seed: int, s: int, statistic, thetas=None,
               n_obs: int | None = None) -> list:
    """statistic(theta, y, rng) for replications i = 0..s-1, in order.

    Replication i draws theta from the prior (unless thetas gives it: a
    (d,) truth for every row, or row i of an (s, d) matrix), then the
    dataset y of n_obs observations, then whatever the statistic draws, all
    from its own stream, so its output does not depend on s or on other
    replications.
    """
    if thetas is not None:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim < 2:
            thetas = np.broadcast_to(thetas.reshape(-1), (s, thetas.size))
    out = []
    for i, _, _, rng in chunks(seed, s, 1):
        theta = model.sample_prior(rng, 1)[0] if thetas is None else thetas[i]
        out.append(statistic(theta, model.simulate_data(theta, rng, n_obs=n_obs), rng))
    return out


def _default_targets(model: Model) -> tuple[SummaryStatistic, ...]:
    return tuple(param_target(i) for i in range(model.param_dim))


def _sbc_ranks(model, approximator, targets, m: int):
    """Statistic of one SBC replication: per target, the p-value of theta
    among m approximate posterior draws given y."""

    def ranks(theta, y, rng) -> list[float]:
        draws = approximator.approximate(model, y, rng, m=m)
        return [sbc_pvalue(t.on_params(theta), t.fn(draws.values), rng)
                for t in targets]

    return ranks


def _sbc_result(kind, model, approximator, cfg, targets, rows, metadata=None) -> SbcResult:
    """Per-target p-value sets and uniformity verdicts from (S, targets) rows."""
    rows = np.array(rows)
    pvalues = {}
    verdicts = {}
    for j, t in enumerate(targets):
        pset = PValueSet(rows[:, j], granularity=cfg.m)
        pvalues[t.name] = pset
        verdicts[t.name] = uniformity_test(
            pset, bins=cfg.bins, band_coverage=cfg.band_coverage
        )
    return SbcResult(
        kind=kind,
        model=model.name,
        approximator=approximator.name,
        s=cfg.s,
        m=cfg.m,
        seed=cfg.seed,
        target_names=tuple(t.name for t in targets),
        pvalues=pvalues,
        verdicts=verdicts,
        metadata={"approximator_kind": approximator.kind, **(metadata or {})},
    )


def run_sbc(model: Model, approximator: Approximator, cfg: SbcConfig) -> SbcResult:
    """Nested simulation: prior draw, dataset, approximate posterior, rank.

    Under an exactly calibrated approximator each target's p-values are
    discrete uniform on {0, 1/M, ..., 1}.
    """
    targets = cfg.targets or _default_targets(model)
    rows = _replicate(model, cfg.seed, cfg.s,
                      _sbc_ranks(model, approximator, targets, cfg.m))
    return _sbc_result("sbc", model, approximator, cfg, targets, rows)


# ---------------------------------------------------------------------------
# Frequentist estimator calibration


@dataclass(frozen=True)
class EstimatorSpec:
    """A named point estimator of a scalar quantity."""

    name: str
    point: Callable[[Dataset], float]


sample_mean_estimator = EstimatorSpec(
    "sample-mean", lambda y: float(y.observations[:, 0].mean())
)


def posterior_mean_estimator(model: Model) -> EstimatorSpec:
    return EstimatorSpec(
        "posterior-mean", lambda y: float(model.analytic_posterior(y).mean())
    )


def _estimated(estimator: EstimatorSpec, then):
    """Statistic then(estimate, theta, rng); NaN when the estimator raises or
    gives a non-finite value, which _drop_failed counts as a failure."""

    def statistic(theta, y, rng) -> float:
        try:
            est = float(estimator.point(y))
        except Exception:
            return np.nan
        return then(est, theta, rng) if np.isfinite(est) else np.nan

    return statistic


def _drop_failed(values) -> tuple[np.ndarray, int]:
    """The finite values and the number of failed (non-finite) ones."""
    values = np.asarray(values, dtype=float)
    failed = ~np.isfinite(values)
    if failed.all():
        raise RuntimeError("estimator failed on every simulated dataset")
    return values[~failed], int(failed.sum())


@dataclass(frozen=True)
class FreqCalResult:
    kind: str
    model: str
    estimator: str
    s: int
    seed: int
    pvalues: PValueSet
    verdict: UniformityVerdict
    interval_coverage: dict[float, float]
    n_failed: int
    metadata: dict = field(default_factory=dict)


def run_frequentist_calibration(
    model: Model,
    theta_star,
    estimator: EstimatorSpec,
    sampling_dist,
    s: int,
    seed: int = 0,
    alphas: tuple[float, ...] = (0.9,),
    bins: int = 10,
) -> FreqCalResult:
    """Calibration of an estimator against an approximate sampling law.

    sampling_dist is either an object with a cdf method (an analytic
    approximation of the sampling distribution of the estimate at
    theta_star) or an array of estimate draws from it. Each simulated
    dataset contributes p = F(estimate); exact approximations give uniform
    p-values. Interval coverage at level alpha is the fraction of p-values
    in the central alpha interval, which is coverage of the pivot-style
    confidence interval built from the same approximation.

    Estimator failures (exceptions or non-finite values) skip the dataset
    and are counted.
    """
    theta_star = np.asarray(theta_star, dtype=float).reshape(-1)
    empirical = isinstance(sampling_dist, np.ndarray)
    if empirical:
        ref = np.asarray(sampling_dist, dtype=float)

        def pvalue(est, theta, rng) -> float:
            return simulation_pvalue(est, ref, "lower", rng)
    else:
        def pvalue(est, theta, rng) -> float:
            return float(sampling_dist.cdf(est))

    raw = _replicate(model, seed, s, _estimated(estimator, pvalue), theta_star)
    pvals, n_failed = _drop_failed(raw)
    pset = PValueSet(pvals, granularity=ref.size if empirical else None)
    verdict = uniformity_test(pset, bins=bins)
    coverage = {
        float(a): float(((pvals >= (1 - a) / 2) & (pvals <= (1 + a) / 2)).mean())
        for a in alphas
    }
    return FreqCalResult(
        kind="frequentist-calibration",
        model=model.name,
        estimator=estimator.name,
        s=int(s),
        seed=int(seed),
        pvalues=pset,
        verdict=verdict,
        interval_coverage=coverage,
        n_failed=n_failed,
        metadata={"theta_star": [float(v) for v in theta_star]},
    )


# ---------------------------------------------------------------------------
# Power, sharpness, accuracy


@dataclass(frozen=True)
class PowerResult:
    kind: str
    power: float
    mc_se: float
    alpha: float
    s: int
    seed: int
    n_rejections: int
    mode: str
    metadata: dict = field(default_factory=dict)


def power_analysis(
    model: Model,
    theta_star,
    test,
    alpha: float,
    s: int,
    seed: int = 0,
) -> PowerResult:
    """Rejection rate of a test over datasets simulated at theta_star.

    theta_star may be None, which draws a fresh parameter from the model
    prior for every dataset (design-prior power). The test object only
    needs a pvalue(dataset, rng) method.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")

    def rejects(theta, y, rng) -> bool:
        return test.pvalue(y, rng) <= alpha

    hits = np.array(_replicate(model, seed, s, rejects, theta_star), dtype=bool)
    power = float(hits.mean())
    return PowerResult(
        kind="power",
        power=power,
        mc_se=float(np.sqrt(power * (1.0 - power) / s)),
        alpha=float(alpha),
        s=int(s),
        seed=int(seed),
        n_rejections=int(hits.sum()),
        mode="prior" if theta_star is None else "fixed",
    )


@dataclass(frozen=True)
class SharpnessResult:
    kind: str
    alpha: float
    s: int
    m: int
    seed: int
    mean_width: float
    mc_se: float
    widths_by_dim: tuple[float, ...]
    metadata: dict = field(default_factory=dict)


def sharpness(
    approximator: Approximator,
    model: Model,
    alpha: float,
    s: int,
    m: int,
    seed: int = 0,
) -> SharpnessResult:
    """Average central alpha-interval width of the approximate posterior
    over prior-simulated datasets."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    lo_q, hi_q = (1.0 - alpha) / 2.0, (1.0 + alpha) / 2.0

    def width(theta, y, rng) -> np.ndarray:
        draws = approximator.approximate(model, y, rng, m=m)
        return np.quantile(draws.values, hi_q, axis=0) - np.quantile(
            draws.values, lo_q, axis=0
        )

    widths = np.array(_replicate(model, seed, s, width))
    mean_by_dim = widths.mean(axis=0)
    return SharpnessResult(
        kind="sharpness",
        alpha=float(alpha),
        s=int(s),
        m=int(m),
        seed=int(seed),
        mean_width=float(mean_by_dim[0]),
        mc_se=float(widths[:, 0].std(ddof=1) / np.sqrt(s)),
        widths_by_dim=tuple(float(w) for w in mean_by_dim),
    )


def squared_error(estimate: float, truth: float) -> float:
    return (estimate - truth) ** 2


def absolute_error(estimate: float, truth: float) -> float:
    return abs(estimate - truth)


@dataclass(frozen=True)
class AccuracyResult:
    kind: str
    value: float
    mc_se: float
    s: int
    seed: int
    estimator: str
    distance: str
    mode: str
    n_failed: int
    metadata: dict = field(default_factory=dict)


def estimator_accuracy(
    model: Model,
    theta_star,
    estimator: EstimatorSpec,
    distance: Callable[[float, float], float] = squared_error,
    s: int = 1000,
    seed: int = 0,
    target: SummaryStatistic | None = None,
) -> AccuracyResult:
    """Mean distance between estimate and truth over simulated datasets.

    theta_star None draws the truth from the prior each iteration (Bayes
    risk); otherwise the truth is fixed (frequentist risk at a point).
    """
    target = target or param_target(0)
    loss = _estimated(
        estimator, lambda est, theta, rng: float(distance(est, target.on_params(theta)))
    )
    good, n_failed = _drop_failed(_replicate(model, seed, s, loss, theta_star))
    return AccuracyResult(
        kind="accuracy",
        value=float(good.mean()),
        mc_se=float(good.std(ddof=1) / np.sqrt(good.size)),
        s=int(s),
        seed=int(seed),
        estimator=estimator.name,
        distance=getattr(distance, "__name__", "distance"),
        mode="prior" if theta_star is None else "fixed",
        n_failed=n_failed,
    )
