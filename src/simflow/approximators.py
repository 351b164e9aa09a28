"""Posterior approximators: exact conjugate draws, controlled perturbations
of them, a random-walk Metropolis sampler, and ABC rejection.

Every approximator maps (model, dataset) to a fixed number of parameter
draws. The perturbed variant exists to inject known miscalibration so the
calibration pipelines have negative controls with a known failure pattern.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import BudgetError
from .models import (Dataset, Model, ParamDraws, SummaryStatistic, _count, _whole,
                     simulate_statistic)
from .rng import RowStreams, _addressable, as_generator

__all__ = [
    "Approximator",
    "ConjugateApproximator",
    "ExactConjugate",
    "PerturbedConjugate",
    "RandomWalkMetropolis",
    "AbcRejection",
    "acceptance_curve",
]


class Approximator:
    """Base class: a named producer of m posterior draws given a dataset.

    A subclass defines one of approximate, for one dataset, or
    approximate_block, for a block of datasets at once; each is written
    here in terms of the other. Dataset i of a block draws on stream
    rows[i], as approximate would on that stream alone.
    """

    name: str = "approximator"
    kind: str = "abstract"
    needs: tuple[str, ...] = ()   # the Capabilities a model must have

    def approximate(self, model: Model, y: Dataset, rng, m: int) -> ParamDraws:
        """m draws given dataset y on rng: row 0 of approximate_block on a
        block of one."""
        draws = self.approximate_block(model, y.observations[None], y.group_labels,
                                       RowStreams([as_generator(rng)]), m)
        return ParamDraws(draws[0], source=self.kind)

    def approximate_block(self, model: Model, obs: np.ndarray, labels, rows,
                          m: int) -> np.ndarray:
        """The (k, m, d) draws given each dataset of a (k, n) block
        with shared group labels, row i on rows[i] (a rng.RowStreams); here
        approximate on each row in turn."""
        return np.stack([self.approximate(model, Dataset(obs[i], labels), rows[i], m).values
                         for i in range(len(rows))])

    def _finite(self, draws: np.ndarray) -> np.ndarray:
        """(k, m, d) block draws, refused as approximate's ParamDraws refuses
        a row's non-finite draws."""
        k, m, d = draws.shape
        return ParamDraws(draws.reshape(k * m, d), source=self.kind).values.reshape(k, m, d)

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"


class ConjugateApproximator(Approximator):
    """Draws computed from the model's closed-form posterior.

    posterior_draws maps a posterior to draws of the given size. Given one
    posterior per row (parameters as (k, 1) columns) and size (k, m), row i
    holds m draws from posterior i on stream rows[i], so a block of datasets
    is approximated in one call.
    """

    needs = ("has_analytic_posterior",)

    def posterior_draws(self, post, rng, size) -> np.ndarray:
        raise NotImplementedError

    def approximate_block(self, model, obs, labels, rows, m) -> np.ndarray:
        size = (len(rows), _count("m", m))
        draws = self.posterior_draws(model.analytic_posterior(obs), rows, size)
        return self._finite(draws[..., None])


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
        self.mean_shift = float(mean_shift)
        self.sd_scale = float(sd_scale)
        if not math.isfinite(self.mean_shift):
            raise ValueError("mean_shift must be finite")
        if not (self.sd_scale > 0 and math.isfinite(self.sd_scale)):
            raise ValueError("sd_scale must be positive and finite")
        self.name = "perturbed"
        self.kind = "perturbed_conjugate"

    def posterior_draws(self, post, rng, size) -> np.ndarray:
        exact = post.sample(rng, size)
        mu, sd = post.mean(), post.sd()
        return mu - self.mean_shift * sd + (exact - mu) * self.sd_scale


def _rwm_block(model: Model, obs: np.ndarray, labels, rows: RowStreams, chains: int,
               iterations: int, warmup: int, step_sd: float) -> tuple[np.ndarray, np.ndarray]:
    """Random-walk Metropolis on k datasets in lockstep: the (k, (iterations
    - warmup) * chains, d) kept draws in iteration-major order and the k
    acceptance rates.

    obs is a (k, n) block with shared group labels, and row i's
    chains draw from stream rows[i] alone. Each iteration draws every row's
    (chains, d) proposal steps, then its chains uniforms.
    """
    k, d = obs.shape[0], model.param_dim
    z = model.to_unconstrained(model.sample_prior(rows, (k, chains)))
    theta = model.from_unconstrained_batch(z)
    target = (
        model.log_prior_batch(theta)
        + model.log_likelihood_batch(theta, obs, labels)
        + model.log_jacobian_batch(z)
    )

    kept = np.empty((k, iterations - warmup, chains, d))
    accepted = np.zeros(k, dtype=np.int64)
    for it in range(iterations):
        prop_z = z + step_sd * rows.standard_normal((k, chains, d))
        prop_theta = model.from_unconstrained_batch(prop_z)
        prop_target = (
            model.log_prior_batch(prop_theta)
            + model.log_likelihood_batch(prop_theta, obs, labels)
            + model.log_jacobian_batch(prop_z)
        )
        log_u = np.log(rows.random((k, chains)))
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


class RandomWalkMetropolis(Approximator):
    """Random-walk Metropolis in the model's unconstrained parameterization.

    Chains start at independent prior draws. Proposals are isotropic Normal
    steps with scalar step_sd; the Jacobian of the reparameterization is part
    of the target, so bounded parameters mix without rejections at the edge.
    Each dataset runs enough iterations after warmup for m draws and keeps
    the first m in iteration-major order. A block of datasets runs in
    lockstep, each row's chains on the row's stream (_rwm_block)."""

    needs = ("can_sample_prior", "can_log_prior", "can_log_likelihood")

    def __init__(self, chains: int = 4, warmup: int = 500, step_sd: float = 0.5):
        self.chains = _count("chains", chains)
        self.warmup = _whole("warmup", warmup)
        self.step_sd = float(step_sd)
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if not (self.step_sd > 0 and math.isfinite(self.step_sd)):
            raise ValueError("step_sd must be positive and finite")
        self.name = "rwm"
        self.kind = "random_walk_metropolis"

    def _iterations(self, m: int) -> int:
        return self.warmup + -(-m // self.chains)

    def approximate_block(self, model, obs, labels, rows, m) -> np.ndarray:
        m = _count("m", m)
        # every iteration of every chain of every row draws d steps: a run
        # whose draws numpy could not address is refused before it starts
        _addressable((len(rows), self._iterations(m), self.chains, model.param_dim))
        kept, _ = _rwm_block(model, obs, labels, rows, self.chains, self._iterations(m),
                             self.warmup, self.step_sd)
        return self._finite(kept[:, :m])


# proposals simulated per batch in tolerance mode
_ABC_BATCH = 10_000


def _abc_proposals(model: Model, y_obs: Dataset, statistic: SummaryStatistic,
                   count: int, rng):
    """count prior draws and their distances |T(y_sim) - T(y_obs)|."""
    _addressable((count, model.param_dim))
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
    """ABC rejection sampling with the distance |T(y_sim) - T(y_obs)| for a
    data statistic T, its settings checked when it is built.

    Exactly one of tolerance / acceptance_quantile selects the mode. Fixed
    tolerance proposes in batches of _ABC_BATCH until m draws satisfy
    distance <= tolerance or the max_proposals budget runs out. Quantile
    mode draws one shared pool of max_proposals and keeps the best fraction;
    when that exceeds m, a seeded subsample without replacement of size m is
    returned.

    Only prior sampling and the forward simulator are used.
    """

    needs = ("can_sample_prior",)

    def __init__(
        self,
        statistic: SummaryStatistic,
        tolerance: float | None = None,
        acceptance_quantile: float | None = None,
        max_proposals: int = 100_000,
    ):
        if (tolerance is None) == (acceptance_quantile is None):
            raise ValueError("set exactly one of tolerance or acceptance_quantile")
        if statistic.arity != "data":
            raise ValueError("ABC needs a data statistic")
        self.statistic = statistic
        self.tolerance = None if tolerance is None else float(tolerance)
        self.acceptance_quantile = (None if acceptance_quantile is None
                                    else float(acceptance_quantile))
        # NaN fails both comparisons
        if self.tolerance is not None and not self.tolerance >= 0.0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance!r}")
        if self.acceptance_quantile is not None and not 0.0 < self.acceptance_quantile <= 1.0:
            raise ValueError("acceptance_quantile must lie in (0, 1], "
                             f"got {acceptance_quantile!r}")
        self.max_proposals = _count("max_proposals", max_proposals)
        self.name = "abc"
        self.kind = "abc_rejection"

    def approximate(self, model: Model, y: Dataset, rng, m: int) -> ParamDraws:
        """m draws given y on rng, with the acceptance diagnostics in
        their info."""
        m, rng, budget = _count("m", m), as_generator(rng), self.max_proposals
        if self.tolerance is not None:
            eps = self.tolerance
            accepted = []
            proposed = 0
            n_accepted = 0
            while n_accepted < m and proposed < budget:
                count = min(_ABC_BATCH, budget - proposed)
                thetas, dists = _abc_proposals(model, y, self.statistic, count, rng)
                proposed += count
                hit = thetas[dists <= eps]
                if hit.size:
                    accepted.append(hit)
                    n_accepted += hit.shape[0]
            rate = n_accepted / proposed
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
            return ParamDraws(values, source=self.kind, info=info)

        q = self.acceptance_quantile
        thetas, dists = _abc_proposals(model, y, self.statistic, budget, rng)
        n_keep = max(1, int(round(q * budget)))
        if n_keep < m:
            raise BudgetError(
                f"quantile mode keeps {n_keep} draws but {m} were requested; "
                "raise max_proposals or the quantile",
                acceptance_rate=n_keep / budget,
                n_accepted=n_keep,
                proposals_used=budget,
                mode="quantile",
                acceptance_quantile=q,
            )
        order = _nearest(dists, n_keep)
        threshold = float(dists[order[-1]])
        if n_keep > m:
            pick = rng.choice(n_keep, size=m, replace=False)
            order = order[np.sort(pick)]
        rate = n_keep / budget
        info = {"mode": "quantile", "acceptance_quantile": q, "threshold": threshold,
                "acceptance_rate": rate, "proposals_used": budget}
        return ParamDraws(thetas[order], source=self.kind, info=info)
