"""Calibration pipelines: simulation-based calibration of posterior
approximators, frequentist calibration of estimators, power analysis,
sharpness, and estimator accuracy.

All pipelines share one replication loop, `_replicate`: replication i
draws theta from the prior (or uses a fixed truth, or row i of given
parameters), simulates a dataset and computes the pipeline's statistic on
it, all from stream (seed, 0, i). The loop runs stage by stage over blocks
of replications, on the block's row streams (`rng.row_blocks`): every
prior draw of the block, then every dataset, then the statistic, which
runs on the whole block: the approximator's block method (SBC and
sharpness), an estimator, which is a data statistic, or a test's block
method. Each stream is called in the order a row-by-row loop would call
it, so the draws are the same. Posterior SBC in `predictive` runs through
it too, with the approximator's draws as the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .approximators import Approximator
from .diagnostics import PValueSet, UniformityVerdict, uniformity_test
from .models import Model, SummaryStatistic, _count, param_target
from .rng import row_blocks
from .simtest import rank_pvalues

__all__ = [
    "SbcConfig",
    "SbcResult",
    "run_sbc",
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


# Replications per block of _replicate: a block of (k, M) posterior draws at
# M = 999 is 8 MB
_REPLICATION_BLOCK = 1024


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
        _count("m", self.m)
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
    """The statistic's values for replications i = 0..s-1, in order.

    Replication i draws theta from the prior (unless thetas gives it: a
    (d,) truth for every row, or row i of an (s, d) matrix), then the
    dataset y of n_obs observations, then whatever the statistic draws, all
    from its own stream, so its output does not depend on s or on other
    replications. statistic(thetas, obs, labels, rows) takes a block: the
    (k, d) thetas, the (k, n) datasets, their group labels and
    the block's k row streams, and returns k values.
    """
    if thetas is not None:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim < 2:
            thetas = np.broadcast_to(thetas.reshape(-1), (s, thetas.size))
    out = []
    for lo, hi, rows in row_blocks(seed, s, _REPLICATION_BLOCK):
        theta = model.sample_prior(rows, hi - lo) if thetas is None else thetas[lo:hi]
        obs = model.simulate_checked(theta, rows, n_obs=n_obs)
        out.extend(statistic(theta, obs, model.group_labels(obs.shape[1]), rows))
    return out


def _default_targets(model: Model) -> tuple[SummaryStatistic, ...]:
    return tuple(param_target(i) for i in range(model.param_dim))


def _sbc_ranks(model, approximator, targets, m: int):
    """Block statistic of SBC: per row and target, the p-value of theta
    among m approximate posterior draws given the row's dataset, all rows
    drawn by the approximator's block method and ranked in one pass
    (rank_pvalues against per-row draws, lower side: the fraction of draws
    below the truth, ties split by the row's own coin)."""

    def block_ranks(thetas, obs, labels, rows) -> np.ndarray:
        k = len(rows)
        values = approximator.approximate_block(model, obs, labels, rows, m).reshape(k * m, -1)
        return np.column_stack([rank_pvalues(t.fn(thetas), t.fn(values).reshape(k, m),
                                             "lower", rows)
                                for t in targets])

    return block_ranks


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


# A point estimator is a data statistic: fn(obs, labels) -> one estimate of a
# scalar quantity per dataset of the (k, n) block.
sample_mean_estimator = SummaryStatistic(
    "sample-mean", "data", lambda obs, labels: obs.mean(axis=1)
)


def posterior_mean_estimator(model: Model) -> SummaryStatistic:
    return SummaryStatistic(
        "posterior-mean", "data",
        lambda obs, labels: model.analytic_posterior(obs).mean().reshape(-1)
    )


def _estimates(estimator: SummaryStatistic, obs: np.ndarray, labels) -> np.ndarray:
    """The estimator's values on a block, NaN where it fails, which
    _drop_failed counts as a failure: a non-finite value, or a row on which
    it raises. When the block's call raises, each row is estimated alone,
    so only the rows that raise fail."""
    try:
        est = np.asarray(estimator.fn(obs, labels), dtype=float).reshape(len(obs))
    except Exception:
        est = np.empty(len(obs))
        for i in range(len(obs)):
            try:
                est[i] = estimator.fn(obs[i:i + 1], labels)[0]
            except Exception:
                est[i] = np.nan
    est[~np.isfinite(est)] = np.nan
    return est


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
    estimator: SummaryStatistic,
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
    and are counted. Against an array of draws each estimate is ranked
    (rank_pvalues), its tie coin from the row's own stream.
    """
    theta_star = np.asarray(theta_star, dtype=float).reshape(-1)
    empirical = isinstance(sampling_dist, np.ndarray)
    if empirical:
        ref = np.asarray(sampling_dist, dtype=float)

    def block_pvalues(thetas, obs, labels, rows) -> np.ndarray:
        est = _estimates(estimator, obs, labels)
        if empirical:
            return rank_pvalues(est, ref, "lower", rows)
        p = np.full(est.size, np.nan)
        ok = ~np.isnan(est)
        p[ok] = sampling_dist.cdf(est[ok])
        return p

    pvals, n_failed = _drop_failed(_replicate(model, seed, s, block_pvalues, theta_star))
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
    needs a pvalues(obs, labels, rows) method: the p-values of a
    (k, n) block of datasets, row i drawing from rows[i]. A dataset
    whose p-value is NaN (its statistic is undefined) is not rejected.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")

    def rejects(thetas, obs, labels, rows) -> np.ndarray:
        return test.pvalues(obs, labels, rows) <= alpha

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
    _mc_size(s)
    lo_q, hi_q = (1.0 - alpha) / 2.0, (1.0 + alpha) / 2.0

    def block_widths(thetas, obs, labels, rows) -> np.ndarray:
        draws = approximator.approximate_block(model, obs, labels, rows, m)
        return np.quantile(draws, hi_q, axis=1) - np.quantile(draws, lo_q, axis=1)

    widths = np.array(_replicate(model, seed, s, block_widths))
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


def _mc_size(s: int) -> None:
    """ValueError unless s replications give a Monte Carlo error (s >= 2)."""
    if s < 2:
        raise ValueError(f"a Monte Carlo error needs at least 2 replications, got s={s}")


def squared_error(estimate, truth):
    # float_power calls libm pow, as ** on Python floats does; numpy's **
    # squares as x * x, which differs in the last bit
    return np.float_power(estimate - truth, 2)


def absolute_error(estimate, truth):
    return np.abs(estimate - truth)


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
    estimator: SummaryStatistic,
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray] = squared_error,
    s: int = 1000,
    seed: int = 0,
    target: SummaryStatistic | None = None,
) -> AccuracyResult:
    """Mean distance between estimate and truth over simulated datasets.

    theta_star None draws the truth from the prior each iteration (Bayes
    risk); otherwise the truth is fixed (frequentist risk at a point).
    distance maps the (k,) estimates and truths of a block to k distances.
    """
    _mc_size(s)
    target = target or param_target(0)
    name = getattr(distance, "__name__", "distance")

    def losses(thetas, obs, labels, rows) -> np.ndarray:
        estimates, truths = _estimates(estimator, obs, labels), target.fn(thetas)
        with np.errstate(over="ignore", invalid="ignore"):
            values = distance(estimates, truths)
        overflowed = np.isfinite(estimates) & ~np.isfinite(values)
        if overflowed.any():
            i = int(np.argmax(overflowed))
            raise RuntimeError(f"the {name} of estimate {float(estimates[i])!r} from truth "
                               f"{float(truths[i])!r} overflowed the float range")
        return values

    good, n_failed = _drop_failed(_replicate(model, seed, s, losses, theta_star))
    return AccuracyResult(
        kind="accuracy",
        value=float(good.mean()),
        mc_se=float(good.std(ddof=1) / np.sqrt(good.size)),
        s=int(s),
        seed=int(seed),
        estimator=estimator.name,
        distance=name,
        mode="prior" if theta_star is None else "fixed",
        n_failed=n_failed,
    )
