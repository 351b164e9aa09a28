"""Posterior approximators: exact conjugate draws, controlled perturbations
of them, a random-walk Metropolis sampler, and ABC rejection.

Every approximator maps (model, dataset) to a fixed number of parameter
draws. The perturbed variant exists to inject known miscalibration so the
calibration pipelines have negative controls with a known failure pattern.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, CapabilityError
from .models import Dataset, Model, ParamDraws, SummaryStatistic, _whole, simulate_statistic
from .rng import as_generator

__all__ = [
    "Approximator",
    "ConjugateApproximator",
    "ExactConjugate",
    "PerturbedConjugate",
    "RandomWalkMetropolis",
    "AbcRejection",
    "RwmResult",
    "AbcResult",
    "rwm_sample",
    "abc_rejection",
    "acceptance_curve",
]


class Approximator:
    """Base class: a named producer of m posterior draws given a dataset.

    approximate_block draws for a block of datasets at once: dataset i on
    stream rows[i], as approximate would on that stream alone.
    """

    name: str = "approximator"
    kind: str = "abstract"
    needs: tuple[str, ...] = ()   # the Capabilities a model must declare

    def approximate(self, model: Model, y: Dataset, rng, m: int) -> ParamDraws:
        raise NotImplementedError

    def approximate_block(self, model: Model, obs: np.ndarray, labels, rows,
                          m: int) -> np.ndarray:
        """The (k, m, d) draws given each dataset of a (k, n, obs_dim) block
        with shared group labels, row i on rows[i] (a rng.RowStreams); here
        approximate on each row in turn."""
        return np.stack([self.approximate(model, Dataset(obs[i], labels), rows[i], m).values
                         for i in range(len(rows))])

    def _finite(self, draws: np.ndarray) -> np.ndarray:
        """(k, m, d) block draws, refused as approximate's ParamDraws refuses
        a row's non-finite draws."""
        k, m, d = draws.shape
        return ParamDraws(draws.reshape(k * m, d), source=self.kind).values.reshape(k, m, d)

    @staticmethod
    def _m(m: int) -> int:
        m = int(m)
        if m < 1:
            raise ValueError("draw count must be positive")
        return m

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"


class ConjugateApproximator(Approximator):
    """Draws computed from the model's closed-form posterior.

    posterior_draws maps a posterior to draws of the given size. Given one
    posterior per row (parameters as (k, 1) columns) and size (k, m), row i
    holds the m draws approximate makes from posterior i, so a block of
    datasets is approximated in one call.
    """

    needs = ("has_analytic_posterior",)

    def posterior_draws(self, post, rng, size) -> np.ndarray:
        raise NotImplementedError

    def approximate_block(self, model, obs, labels, rows, m) -> np.ndarray:
        draws = self.posterior_draws(model.analytic_posterior(obs), rows, (len(rows), self._m(m)))
        return self._finite(draws[..., None])

    def _settings(self) -> dict:
        return {}

    def approximate(self, model, y, rng, m) -> ParamDraws:
        m = self._m(m)
        post = model.analytic_posterior(y)
        return ParamDraws(
            self.posterior_draws(post, as_generator(rng), m).reshape(m, 1),
            source=self.kind,
            info={**self._settings(), "posterior_family": post.family,
                  "posterior_params": post.params},
        )


class ExactConjugate(ConjugateApproximator):
    """Independent draws from the model's closed-form posterior."""

    name = "exact"
    kind = "exact_conjugate"

    def posterior_draws(self, post, rng, size) -> np.ndarray:
        return post.sample(rng, size)


class PerturbedConjugate(ConjugateApproximator):
    """Exact conjugate draws with a controlled affine distortion.

    mean_shift is the size of the simulated estimation bias in posterior-sd
    units; positive values make the approximator understate the target, the
    classic deficient-left-tail calibration pattern. sd_scale < 1 makes it
    overconfident, > 1 underconfident.
    """

    def __init__(self, mean_shift: float = 0.0, sd_scale: float = 1.0):
        if sd_scale <= 0:
            raise ValueError("sd_scale must be positive")
        self.mean_shift = float(mean_shift)
        self.sd_scale = float(sd_scale)
        self.name = "perturbed"
        self.kind = "perturbed_conjugate"

    def _settings(self) -> dict:
        return {"mean_shift": self.mean_shift, "sd_scale": self.sd_scale}

    def posterior_draws(self, post, rng, size) -> np.ndarray:
        exact = post.sample(rng, size)
        mu, sd = post.mean(), post.sd()
        return mu - self.mean_shift * sd + (exact - mu) * self.sd_scale


@dataclass(frozen=True)
class RwmResult:
    draws: ParamDraws
    acceptance_rate: float
    chains: int
    iterations: int
    warmup: int


def _rwm_block(model: Model, obs: np.ndarray, labels, rng, chains: int, iterations: int,
               warmup: int, step_sd: float) -> tuple[np.ndarray, np.ndarray]:
    """Random-walk Metropolis on k datasets in lockstep: the (k, (iterations
    - warmup) * chains, d) kept draws in iteration-major order and the k
    acceptance rates.

    obs is a (k, n, obs_dim) block with shared group labels. rng draws with
    k rows: a rng.RowStreams, where row i's chains draw from stream i alone,
    or a Generator when k = 1. Each iteration draws every row's (chains, d)
    proposal steps, then its chains uniforms.
    """
    if not all(getattr(model.capabilities, need) for need in RandomWalkMetropolis.needs):
        raise CapabilityError(
            f"{model.name} must expose prior sampling and both log densities"
        )
    if warmup >= iterations:
        raise ValueError("warmup must be smaller than iterations")
    if not (step_sd > 0 and math.isfinite(step_sd)):
        raise ValueError("step_sd must be positive and finite")

    k, d = obs.shape[0], model.param_dim
    theta0 = model.sample_prior(rng, (k, chains)).reshape(-1, d)
    z = np.stack([model.to_unconstrained(t) for t in theta0]).reshape(k, chains, d)
    theta = model.from_unconstrained_batch(z)
    target = (
        model.log_prior_batch(theta)
        + model.log_likelihood_batch(theta, obs, labels)
        + model.log_jacobian_batch(z)
    )

    kept = np.empty((k, iterations - warmup, chains, d))
    accepted = np.zeros(k, dtype=np.int64)
    for it in range(iterations):
        prop_z = z + step_sd * rng.standard_normal((k, chains, d))
        prop_theta = model.from_unconstrained_batch(prop_z)
        prop_target = (
            model.log_prior_batch(prop_theta)
            + model.log_likelihood_batch(prop_theta, obs, labels)
            + model.log_jacobian_batch(prop_z)
        )
        log_u = np.log(rng.random((k, chains)))
        accept = log_u < (prop_target - target)
        z[accept] = prop_z[accept]
        theta[accept] = prop_theta[accept]
        target[accept] = prop_target[accept]
        accepted += accept.sum(axis=1)
        if it >= warmup:
            kept[:, it - warmup] = theta

    rates = accepted / (iterations * chains)
    for rate in rates[rates > 0.95]:
        warnings.warn(
            f"acceptance rate {rate:.3f}; step_sd is likely too small and the "
            "chain barely moves",
            RuntimeWarning,
            stacklevel=3,
        )
    return kept.reshape(k, -1, d), rates


def rwm_sample(
    model: Model,
    y: Dataset,
    rng,
    chains: int = 4,
    iterations: int = 2000,
    warmup: int = 500,
    step_sd: float = 0.5,
) -> RwmResult:
    """Random-walk Metropolis in the model's unconstrained parameterization.

    Chains start at independent prior draws. Proposals are isotropic Normal
    steps with scalar step_sd; the Jacobian of the reparameterization is part
    of the target, so bounded parameters mix without rejections at the edge.
    """
    kept, rates = _rwm_block(model, y.observations[None], y.group_labels, as_generator(rng),
                             chains, iterations, warmup, step_sd)
    rate = float(rates[0])
    draws = ParamDraws(
        kept[0],
        source="random_walk_metropolis",
        info={"acceptance_rate": rate, "chains": chains, "iterations": iterations,
              "warmup": warmup, "step_sd": step_sd},
    )
    return RwmResult(draws, rate, chains, iterations, warmup)


class RandomWalkMetropolis(Approximator):
    """rwm_sample with enough iterations after warmup for m draws; a
    dataset keeps the first m draws in iteration-major order. A block of
    datasets runs in lockstep, each row's chains on the row's stream."""

    needs = ("can_sample_prior", "can_log_prior", "can_log_likelihood")

    def __init__(self, chains: int = 4, warmup: int = 500, step_sd: float = 0.5):
        self.chains = _whole("chains", chains)
        self.warmup = _whole("warmup", warmup)
        self.step_sd = float(step_sd)
        if self.chains < 1:
            raise ValueError("chains must be at least 1")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if not (self.step_sd > 0 and math.isfinite(self.step_sd)):
            raise ValueError("step_sd must be positive and finite")
        self.name = "rwm"
        self.kind = "random_walk_metropolis"

    def _iterations(self, m: int) -> int:
        return self.warmup + -(-m // self.chains)

    def approximate(self, model, y, rng, m) -> ParamDraws:
        m = self._m(m)
        full = rwm_sample(model, y, rng, chains=self.chains, iterations=self._iterations(m),
                          warmup=self.warmup, step_sd=self.step_sd).draws
        return ParamDraws(full.values[:m], source=full.source, info=full.info)

    def approximate_block(self, model, obs, labels, rows, m) -> np.ndarray:
        m = self._m(m)
        kept, _ = _rwm_block(model, obs, labels, rows, self.chains, self._iterations(m),
                             self.warmup, self.step_sd)
        return self._finite(kept[:, :m])


@dataclass(frozen=True)
class AbcResult:
    draws: ParamDraws
    acceptance_rate: float
    proposals_used: int
    threshold: float


def _abc_proposals(model: Model, y_obs: Dataset, statistic: SummaryStatistic,
                   count: int, rng):
    """count prior draws and their distances |T(y_sim) - T(y_obs)|."""
    thetas = model.sample_prior(rng, count)
    t_sim = simulate_statistic(model, thetas, rng, statistic, n_obs=y_obs.n_obs)
    return thetas, np.abs(t_sim - statistic.on_data(y_obs))


def _nearest(dists: np.ndarray, n_keep: int) -> np.ndarray:
    """np.argsort(dists, kind="stable")[:n_keep], without sorting it all.

    Every kept distance is at most the n_keep-th smallest, kth, so only the
    indices at or below it are sorted; they are in index order, so ties keep
    the stable order. A NaN kth (fewer than n_keep distances are not NaN)
    leaves NaNs to keep, which only the full sort places.
    """
    kth = np.partition(dists, n_keep - 1)[n_keep - 1]
    if np.isnan(kth):
        return np.argsort(dists, kind="stable")[:n_keep]
    near = np.flatnonzero(dists <= kth)
    return near[np.argsort(dists[near], kind="stable")][:n_keep]


def abc_rejection(
    model: Model,
    y_obs: Dataset,
    statistic: SummaryStatistic,
    rng,
    m: int,
    tolerance: float | None = None,
    acceptance_quantile: float | None = None,
    max_proposals: int = 100_000,
    batch_size: int = 10_000,
) -> AbcResult:
    """ABC rejection sampling with the distance |T(y_sim) - T(y_obs)| for a
    data statistic T.

    Exactly one of tolerance / acceptance_quantile selects the mode. Fixed
    tolerance proposes in batches until m draws satisfy distance <= tolerance
    or the proposal budget runs out. Quantile mode draws one shared pool of
    max_proposals and keeps the best fraction; when that exceeds m, a seeded
    subsample without replacement of size m is returned.

    Only prior sampling and the forward simulator are used.
    """
    if (tolerance is None) == (acceptance_quantile is None):
        raise ValueError("set exactly one of tolerance or acceptance_quantile")
    if statistic.arity != "data":
        raise ValueError("ABC needs a data statistic")
    if m < 1:
        raise ValueError("m must be positive")
    rng = as_generator(rng)

    if tolerance is not None:
        eps = float(tolerance)
        accepted = []
        proposed = 0
        n_accepted = 0
        while n_accepted < m and proposed < max_proposals:
            count = min(batch_size, max_proposals - proposed)
            thetas, dists = _abc_proposals(model, y_obs, statistic, count, rng)
            proposed += count
            hit = thetas[dists <= eps]
            if hit.size:
                accepted.append(hit)
                n_accepted += hit.shape[0]
        rate = n_accepted / proposed if proposed else 0.0
        if n_accepted < m:
            raise BudgetError(
                f"ABC budget exhausted: {n_accepted}/{m} acceptances after "
                f"{proposed} proposals (acceptance rate {rate:.3g})",
                acceptance_rate=rate,
                n_accepted=n_accepted,
                proposals_used=proposed,
                mode="tolerance",
                tolerance=eps,
            )
        values = np.concatenate(accepted, axis=0)[:m]
        info = {"mode": "tolerance", "tolerance": eps, "acceptance_rate": rate,
                "proposals_used": proposed}
        draws = ParamDraws(values, source="abc_rejection", info=info)
        return AbcResult(draws, rate, proposed, eps)

    q = float(acceptance_quantile)
    if not 0.0 < q <= 1.0:
        raise ValueError("acceptance_quantile must lie in (0, 1]")
    thetas, dists = _abc_proposals(model, y_obs, statistic, max_proposals, rng)
    n_keep = max(1, int(round(q * max_proposals)))
    if n_keep < m:
        raise BudgetError(
            f"quantile mode keeps {n_keep} draws but {m} were requested; "
            "raise max_proposals or the quantile",
            acceptance_rate=n_keep / max_proposals,
            n_accepted=n_keep,
            proposals_used=max_proposals,
            mode="quantile",
            acceptance_quantile=q,
        )
    order = _nearest(dists, n_keep)
    threshold = float(dists[order[-1]])
    if n_keep > m:
        pick = rng.choice(n_keep, size=m, replace=False)
        order = order[np.sort(pick)]
    rate = n_keep / max_proposals
    info = {"mode": "quantile", "acceptance_quantile": q, "threshold": threshold,
            "acceptance_rate": rate, "proposals_used": max_proposals}
    draws = ParamDraws(thetas[order], source="abc_rejection", info=info)
    return AbcResult(draws, rate, max_proposals, threshold)


def acceptance_curve(
    model: Model,
    y_obs: Dataset,
    statistic: SummaryStatistic,
    epsilons: np.ndarray,
    pool_size: int,
    rng,
) -> np.ndarray:
    """Acceptance rate per tolerance over one shared proposal pool."""
    _, dists = _abc_proposals(model, y_obs, statistic, pool_size, as_generator(rng))
    eps = np.asarray(epsilons, dtype=float)
    return (dists[None, :] <= eps[:, None]).mean(axis=1)


class AbcRejection(Approximator):
    """Approximator wrapper around abc_rejection; statistic is its T."""

    needs = ("can_sample_prior",)

    def __init__(
        self,
        statistic: SummaryStatistic,
        tolerance: float | None = None,
        acceptance_quantile: float | None = None,
        max_proposals: int = 100_000,
        batch_size: int = 10_000,
    ):
        self.statistic = statistic
        self.tolerance = tolerance
        self.acceptance_quantile = acceptance_quantile
        self.max_proposals = int(max_proposals)
        self.batch_size = int(batch_size)
        self.name = "abc"
        self.kind = "abc_rejection"

    def approximate(self, model, y, rng, m) -> ParamDraws:
        result = abc_rejection(
            model,
            y,
            self.statistic,
            rng,
            m=m,
            tolerance=self.tolerance,
            acceptance_quantile=self.acceptance_quantile,
            max_proposals=self.max_proposals,
            batch_size=self.batch_size,
        )
        return result.draws
