"""Marginal likelihoods by prior Monte Carlo, posterior model probabilities,
power-scaling sensitivity via importance weights, and grid sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .models import Dataset, Model, ParamDraws
from .rng import cell_seed, map_chunks

__all__ = [
    "EvidenceResult",
    "marginal_likelihood_mc",
    "ModelEntry",
    "ModelComparison",
    "posterior_model_probs",
    "WeightedDraws",
    "power_scale_weights",
    "weighted_mean",
    "weighted_quantile",
    "SweepResult",
    "sensitivity_sweep",
]

_EVIDENCE_CHUNK = 100_000


@dataclass(frozen=True)
class EvidenceResult:
    model: str
    log_evidence: float
    mc_se_log: float
    s: int
    seed: int
    all_zero: bool
    metadata: dict = field(default_factory=dict)


def marginal_likelihood_mc(model: Model, y: Dataset, s: int, seed: int = 0) -> EvidenceResult:
    """Prior Monte Carlo estimate of the log marginal likelihood.

    Averaging is done under a max shift so extreme log-likelihoods cannot
    overflow; the standard error of the log estimate comes from the delta
    method. If every draw has zero likelihood the estimate is -inf and
    flagged. The prior draws come in chunks of _EVIDENCE_CHUNK, chunk c from
    stream (seed, 0, c), run on threads by rng.map_chunks.
    """
    if s < 2:
        raise ValueError("evidence estimation needs at least 2 draws")
    ll = np.empty(s)

    def evidence_chunk(c: int, lo: int, hi: int, rng) -> None:
        thetas = model.sample_prior(rng, hi - lo)
        with np.errstate(all="ignore"):  # a likelihood that underflows is -inf
            ll[lo:hi] = model.log_likelihood_batch(thetas, y)

    map_chunks(evidence_chunk, seed, s, _EVIDENCE_CHUNK)
    mx = np.max(ll)
    if not np.isfinite(mx):
        return EvidenceResult(model.name, -np.inf, np.nan, int(s), int(seed), True)
    w = np.exp(ll - mx)
    mean_w = w.mean()
    se_log = float(w.std(ddof=1) / (mean_w * np.sqrt(s)))
    return EvidenceResult(
        model=model.name,
        log_evidence=float(mx + np.log(mean_w)),
        mc_se_log=se_log,
        s=int(s),
        seed=int(seed),
        all_zero=False,
    )


def _logsumexp(a: np.ndarray) -> np.float64:
    """scipy.special.logsumexp of 1-D finite values, bit for bit: scipy
    1.17's steps, without the scipy.special import.

    The values tied at the max are taken out of the sum, which is divided
    by their count m; the result is log1p(sum) + log(m) + max.
    """
    a_max = a.max(keepdims=True)
    ties = a == a_max
    m = np.count_nonzero(ties, keepdims=True).astype(float)
    s = np.exp(np.where(ties, -np.inf, a) - a_max).sum(keepdims=True)
    s = np.where(s == 0, s, s / m)
    return (np.log1p(s) + np.log(m) + a_max)[0]


@dataclass(frozen=True)
class ModelEntry:
    name: str
    model: Model
    prior_prob: float


@dataclass(frozen=True)
class ModelComparison:
    entries: tuple[str, ...]
    evidences: dict[str, EvidenceResult]
    posterior_probs: dict[str, float]
    log_bayes_factors: dict[str, float]
    s: int
    seed: int


def posterior_model_probs(
    entries: list[ModelEntry], y: Dataset, s: int, seed: int = 0
) -> ModelComparison:
    """Posterior model probabilities from Monte Carlo evidences.

    Each model gets its own derived stream. Pairwise log Bayes factors are
    keyed "a/b". Models with zero prior probability keep probability zero
    exactly.
    """
    if not entries:
        raise ValueError("at least one model entry is required")
    priors = np.array([e.prior_prob for e in entries], dtype=float)
    if np.any(priors < 0) or not np.isclose(priors.sum(), 1.0):
        raise ValueError("prior model probabilities must be nonnegative and sum to 1")

    evidences = {}
    logz = np.empty(len(entries))
    for i, e in enumerate(entries):
        ev = marginal_likelihood_mc(e.model, y, s, seed=cell_seed(seed, i))
        evidences[e.name] = ev
        logz[i] = ev.log_evidence

    with np.errstate(divide="ignore"):
        log_post = np.log(priors) + logz
    finite = np.isfinite(log_post)
    probs = np.zeros(len(entries))
    if finite.any():
        norm = _logsumexp(log_post[finite])
        probs[finite] = np.exp(log_post[finite] - norm)

    lbf = {}
    with np.errstate(invalid="ignore"):  # NaN where both evidences are -inf
        for i, a in enumerate(entries):
            for j, b in enumerate(entries):
                if i != j:
                    lbf[f"{a.name}/{b.name}"] = float(logz[i] - logz[j])

    return ModelComparison(
        entries=tuple(e.name for e in entries),
        evidences=evidences,
        posterior_probs={e.name: float(p) for e, p in zip(entries, probs)},
        log_bayes_factors=lbf,
        s=int(s),
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# Power-scaling sensitivity


@dataclass(frozen=True)
class WeightedDraws:
    """Posterior draws with importance weights for a power-scaled target."""

    values: np.ndarray
    weights: np.ndarray
    ess: float
    alpha_prior: float
    alpha_lik: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != np.atleast_2d(self.values).shape[0]:
            raise ValueError("one weight per draw is required")


def power_scale_weights(
    model: Model,
    y: Dataset,
    draws: ParamDraws,
    alpha_prior: float = 1.0,
    alpha_lik: float = 1.0,
) -> WeightedDraws:
    """Importance weights moving draws to a power-scaled posterior.

    The target raises the prior to alpha_prior and the likelihood to
    alpha_lik, so log w = (alpha_prior - 1) log p(theta) +
    (alpha_lik - 1) log p(y | theta). Each log density is evaluated at the
    draws only when its exponent is not 1. ESS is the standard inverse sum
    of squared normalized weights and equals the draw count exactly when
    both exponents are 1. A log weight that is not finite (a density that
    leaves the float range at the draws) raises RuntimeError.
    """
    if alpha_prior <= 0 or alpha_lik <= 0:
        raise ValueError("scaling exponents must be positive")
    logw = np.zeros(draws.m)
    with np.errstate(all="ignore"):
        if alpha_prior != 1.0:
            logw = logw + (alpha_prior - 1.0) * model.log_prior_batch(draws.values)
        if alpha_lik != 1.0:
            logw = logw + (alpha_lik - 1.0) * model.log_likelihood_batch(draws.values, y)
    if not np.isfinite(logw).all():
        raise RuntimeError(f"power-scaling log weights at alpha_prior={alpha_prior}, "
                           f"alpha_lik={alpha_lik} are not finite: the log prior or "
                           "log likelihood leaves the float range at the draws")
    u = np.exp(logw - logw.max())
    total = u.sum()
    weights = u / total
    ess = float(total**2 / (u**2).sum())
    return WeightedDraws(
        values=draws.values,
        weights=weights,
        ess=ess,
        alpha_prior=float(alpha_prior),
        alpha_lik=float(alpha_lik),
    )


def weighted_mean(wd: WeightedDraws, dim: int = 0) -> float:
    return float((wd.weights * wd.values[:, dim]).sum())


def weighted_quantile(wd: WeightedDraws, q, dim: int = 0):
    """Weighted empirical quantiles by midpoint interpolation."""
    order = np.argsort(wd.values[:, dim], kind="stable")
    v = wd.values[order, dim]
    w = wd.weights[order]
    positions = np.cumsum(w) - 0.5 * w
    return np.interp(np.asarray(q, dtype=float), positions, v)


# ---------------------------------------------------------------------------
# Sensitivity sweep


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[dict, ...]
    n_failed: int
    seed: int

    def table(self) -> tuple[list[str], list[list]]:
        """(header, columns): every key in first-seen order, blank where a row lacks it."""
        keys = list(dict.fromkeys(k for row in self.rows for k in row))
        return keys, [[row.get(k, "") for row in self.rows] for k in keys]


def sensitivity_sweep(
    pipeline: Callable[[dict, int], dict],
    grid: list[dict],
    seed: int = 0,
) -> SweepResult:
    """Run one pipeline over a grid of hyperparameter configurations.

    Each cell gets its own derived seed. A failing cell is recorded with
    its error message and the sweep continues. The grid varies pipeline
    hyperparameters only; changing model structure is out of scope.
    """
    rows = []
    n_failed = 0
    for i, config in enumerate(grid):
        row = {**config, "cell_seed": cell_seed(seed, i)}
        try:
            out = pipeline(dict(config), row["cell_seed"])
            row.update(out)
            row["status"] = "ok"
        except Exception as exc:  # noqa: BLE001 - sweep must survive cell failures
            row["status"] = "error"
            row["error"] = f"{type(exc).__name__}: {exc}"
            n_failed += 1
        rows.append(row)
    return SweepResult(rows=tuple(rows), n_failed=n_failed, seed=int(seed))
