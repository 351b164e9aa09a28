"""Predictive checks: prior pushforward, frequentist plug-in replication,
posterior predictive checks, and posterior simulation-based calibration.

Posterior predictive replication is ancestral: one fresh parameter draw per
replicated dataset, never one parameter reused for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .approximators import Approximator
from .calibration import (
    SbcConfig,
    SbcResult,
    _default_targets,
    _replicate,
    _sbc_ranks,
    _sbc_result,
)
from .models import (
    Dataset,
    Model,
    ParamDraws,
    SummaryStatistic,
    concat_datasets,
    simulate_statistic,
)
from .rng import as_generator, substream
from .simtest import simulation_pvalue

__all__ = [
    "PushforwardResult",
    "prior_pushforward_check",
    "PredictiveResult",
    "frequentist_predictive_check",
    "posterior_predictive_sample",
    "run_ppc",
    "run_posterior_sbc",
]


@dataclass(frozen=True)
class PushforwardResult:
    kind: str
    statistic: str
    fraction_in_region: float
    region: tuple[float, float]
    values: np.ndarray
    s: int
    seed: int
    metadata: dict = field(default_factory=dict)


def prior_pushforward_check(
    model: Model,
    statistic: SummaryStatistic,
    region: tuple[float, float],
    s: int,
    seed: int = 0,
) -> PushforwardResult:
    """Fraction of prior-simulated statistic values inside a closed region."""
    lo, hi = float(region[0]), float(region[1])
    if not lo <= hi:
        raise ValueError("region must be ordered (lo, hi)")
    rng = substream(seed, 0)
    values = simulate_statistic(model, model.sample_prior(rng, s), rng, statistic)
    frac = float(((values >= lo) & (values <= hi)).mean())
    return PushforwardResult(
        kind="prior-pushforward",
        statistic=statistic.name,
        fraction_in_region=frac,
        region=(lo, hi),
        values=values,
        s=int(s),
        seed=int(seed),
    )


@dataclass(frozen=True)
class PredictiveResult:
    kind: str
    statistic: str
    replication_stats: np.ndarray
    observed_stat: float
    ppp: float | None
    s: int
    seed: int
    metadata: dict = field(default_factory=dict)


def _replication_result(
    kind: str,
    model: Model,
    statistic: SummaryStatistic,
    y_obs: Dataset,
    thetas: np.ndarray,
    seed: int,
    rng,
    metadata: dict,
) -> PredictiveResult:
    """Replicate one dataset per row of thetas from rng, then rank y_obs
    among the replications whose statistic is defined (finite)."""
    s = thetas.shape[0]
    reps = simulate_statistic(model, thetas, rng, statistic, n_obs=y_obs.n_obs)
    observed = statistic.on_data(y_obs)
    defined = reps[np.isfinite(reps)]
    ppp = simulation_pvalue(observed, defined, "lower", rng) if defined.size >= 2 else None
    return PredictiveResult(
        kind=kind,
        statistic=statistic.name,
        replication_stats=reps,
        observed_stat=observed,
        ppp=ppp,
        s=int(s),
        seed=int(seed),
        metadata=metadata,
    )


def frequentist_predictive_check(
    model: Model,
    theta_hat,
    statistic: SummaryStatistic,
    y_obs: Dataset,
    s: int,
    seed: int = 0,
) -> PredictiveResult:
    """Replicate datasets at a fixed fitted parameter and compare."""
    theta_hat = np.asarray(theta_hat, dtype=float).reshape(-1)
    return _replication_result(
        "frequentist-predictive",
        model,
        statistic,
        y_obs,
        np.broadcast_to(theta_hat, (s, theta_hat.size)),
        seed,
        substream(seed, 0),
        {"theta_hat": [float(v) for v in theta_hat]},
    )


def posterior_predictive_sample(
    model: Model,
    draws: ParamDraws,
    s: int,
    seed: int = 0,
    n_obs: int | None = None,
) -> list[Dataset]:
    """Ancestral posterior predictive datasets, one parameter draw each.

    Needs at least s parameter draws; extras are subsampled without
    replacement.
    """
    rng = substream(seed, 0)
    thetas = _take_draws(draws, s, rng)
    obs = model.simulate_checked(thetas, rng, n_obs=n_obs)
    labels = model.group_labels(obs.shape[1])
    return [Dataset(obs[i], labels) for i in range(s)]


def _take_draws(draws: ParamDraws, s: int, rng) -> np.ndarray:
    if draws.m < s:
        raise ValueError(f"need at least {s} posterior draws, have {draws.m}")
    if draws.m == s:
        return draws.values
    idx = np.sort(as_generator(rng).choice(draws.m, size=s, replace=False))
    return draws.values[idx]


def run_ppc(
    model: Model,
    approximator: Approximator,
    y_obs: Dataset,
    statistic: SummaryStatistic,
    s: int,
    seed: int = 0,
) -> PredictiveResult:
    """Posterior predictive check through an approximator."""
    draws = approximator.approximate(model, y_obs, substream(seed, 1), m=s)
    return _replication_result(
        "posterior-predictive",
        model,
        statistic,
        y_obs,
        draws.values,
        seed,
        substream(seed, 0),
        {"approximator": approximator.name},
    )


def run_posterior_sbc(
    model: Model,
    approximator: Approximator,
    y_obs: Dataset,
    cfg: SbcConfig,
) -> SbcResult:
    """Calibration conditional on observed data.

    Each iteration draws theta' from the approximate posterior given y_obs,
    replicates a dataset from it, then ranks theta' within the approximate
    posterior conditioned on observed and replicated data concatenated.
    With an empty y_obs this reduces to plain prior-predictive calibration.
    """
    targets = cfg.targets or _default_targets(model)
    n_rep = y_obs.n_obs if y_obs.n_obs > 0 else None
    theta_prime = approximator.approximate(
        model, y_obs, substream(cfg.seed, 1), m=cfg.s
    ).values
    ranks = _sbc_ranks(model, approximator, targets, cfg.m)

    def ranks_given_obs(thetas, obs, labels, rows):
        # every row's joint dataset has the group labels of this one
        joint = concat_datasets(y_obs, Dataset(obs[0], labels))
        block = np.broadcast_to(y_obs.observations, (len(rows), *y_obs.observations.shape))
        return ranks(thetas, np.concatenate([block, obs], axis=1), joint.group_labels, rows)

    rows = _replicate(model, cfg.seed, cfg.s, ranks_given_obs, theta_prime, n_obs=n_rep)
    return _sbc_result("posterior-sbc", model, approximator, cfg, targets, rows, {
        "theta_prime_source": "approximator under test",
        "conditioning": "observed and replicated data concatenated",
        "n_obs": int(y_obs.n_obs),
    })
