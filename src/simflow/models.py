"""Generative models, datasets, parameter draws, and summary statistics.

Four built-in observation models cover the conjugate and two-group cases
used throughout the toolkit. Each declares its capabilities explicitly so
pipelines can fail fast instead of guessing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import (
    betainc,
    betaincinv,
    betaln,
    expit,
    gammainc,
    gammaincinv,
    gammaln,
    ndtr,
    ndtri,
    xlog1py,
    xlogy,
)

from .errors import CapabilityError, DomainError
from .rng import as_generator

__all__ = [
    "DataShape",
    "Dataset",
    "ParamDraws",
    "SummaryStatistic",
    "param_target",
    "AnalyticPosterior",
    "Capabilities",
    "Model",
    "NormalNormal",
    "BetaBinomial",
    "PoissonGamma",
    "LogNormalTwoGroup",
    "concat_datasets",
    "simulate_statistic",
    "MODEL_REGISTRY",
    "make_model",
]

# Rows simulated per block by simulate_statistic and per null chunk by
# simtest.simulate_null: a (16384, n) block of floats is 128 KiB per observation.
_SIM_CHUNK = 16384

_LOG_2PI = float(np.log(2.0 * np.pi))


def _whole(name: str, value) -> int:
    """A count hyperparameter as an int; 2.5 is refused, not truncated to 2."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DataShape:
    """Default shape of one simulated dataset."""

    n_obs: int
    obs_dim: int = 1


@dataclass(frozen=True)
class Dataset:
    """A fixed-size sample: observations (n, obs_dim), optional group labels.

    An empty dataset (n = 0) is allowed as the neutral element for
    concatenation; simulation always produces n >= 1.
    """

    observations: np.ndarray
    group_labels: np.ndarray | None = None

    def __post_init__(self):
        obs = np.atleast_2d(np.asarray(self.observations, dtype=float))
        if obs.ndim != 2:
            raise ValueError("observations must be a (n, obs_dim) array")
        object.__setattr__(self, "observations", obs)
        if self.group_labels is not None:
            labels = np.asarray(self.group_labels, dtype=int)
            if labels.shape != (obs.shape[0],):
                raise ValueError("group_labels length must match n_obs")
            object.__setattr__(self, "group_labels", labels)
        if not np.all(np.isfinite(obs)):
            raise ValueError("observations must be finite")

    @property
    def n_obs(self) -> int:
        return int(self.observations.shape[0])

    @property
    def obs_dim(self) -> int:
        return int(self.observations.shape[1])

    @classmethod
    def empty(cls, obs_dim: int = 1) -> "Dataset":
        return cls(np.empty((0, obs_dim)))

    def to_csv(self, path) -> None:
        """Write one row per observation; group column only when present."""
        header = [f"y{j}" for j in range(self.obs_dim)]
        if self.group_labels is not None:
            header.append("group")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(self.n_obs):
                row = [format(v, ".17g") for v in self.observations[i]]
                if self.group_labels is not None:
                    row.append(str(int(self.group_labels[i])))
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [row for row in reader if row]
        has_group = header and header[-1] == "group"
        ncol = len(header) - (1 if has_group else 0)
        if ncol < 1:
            raise ValueError("CSV must have at least one observation column")
        obs = np.array([[float(v) for v in row[:ncol]] for row in rows], dtype=float)
        obs = obs.reshape(len(rows), ncol)
        labels = None
        if has_group:
            labels = np.array([int(row[ncol]) for row in rows], dtype=int)
        return cls(obs, labels)


def concat_datasets(a: Dataset, b: Dataset) -> Dataset:
    if a.obs_dim != b.obs_dim:
        raise ValueError("cannot concatenate datasets with different obs_dim")
    obs = np.concatenate([a.observations, b.observations], axis=0)
    if a.group_labels is None and b.group_labels is None:
        return Dataset(obs)
    la = a.group_labels if a.group_labels is not None else np.zeros(a.n_obs, dtype=int)
    lb = b.group_labels if b.group_labels is not None else np.zeros(b.n_obs, dtype=int)
    return Dataset(obs, np.concatenate([la, lb]))


@dataclass(frozen=True)
class ParamDraws:
    """A batch of parameter draws with provenance."""

    values: np.ndarray
    source: str
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)):
            raise ValueError("parameter draws must be finite")

    @property
    def m(self) -> int:
        return int(self.values.shape[0])

    @property
    def param_dim(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True)
class SummaryStatistic:
    """A named summary with declared arity and one vectorized function.

    arity:
      "data"    fn(obs (s, n, d), labels) -> (s,), one value per dataset
      "params"  fn(values (m, d)) -> (m,), one value per parameter draw

    labels are the group labels shared by the s datasets, or None.
    on_data and on_params evaluate a batch of one. An ABC distance is
    |T(y_sim) - T(y_obs)| for a data statistic T (see abc_rejection).
    """

    name: str
    arity: str
    fn: Callable

    def __post_init__(self):
        if self.arity not in ("data", "params"):
            raise ValueError(f"unknown arity: {self.arity}")

    def on_data(self, y: Dataset) -> float:
        return float(self.fn(y.observations[None], y.group_labels)[0])

    def on_params(self, theta: np.ndarray) -> float:
        return float(self.fn(np.asarray(theta, dtype=float).reshape(1, -1))[0])


def param_target(index: int = 0, name: str | None = None) -> SummaryStatistic:
    """Identity target for one parameter coordinate."""
    return SummaryStatistic(name or f"theta[{index}]", "params",
                            lambda values: values[:, index])


class AnalyticPosterior:
    """Closed-form law: a family name and its two parameters.

    normal (mean, sd), beta (a, b) or gamma (shape, rate). Moments,
    quantiles, cdf and log density are closed forms over scipy.special, and
    draws come straight from the numpy Generator. Draws, moments, quantiles
    and cdf repeat the arithmetic of the matching scipy.stats distribution,
    so draws, means and sds equal scipy's bit for bit, without the cost of
    freezing one. The log density repeats scipy's arithmetic for beta and
    gamma and the normal prior's closed form for normal (within about 1e-12
    of scipy's), and is -inf off the support. The conjugate models take
    their prior from this class too.
    """

    def __init__(self, family: str, params: tuple):
        if family not in ("normal", "beta", "gamma"):
            raise ValueError(f"unknown posterior family {family!r}")
        self.family = family
        self.params = tuple(float(p) for p in params)
        positive = self.params[1:] if family == "normal" else self.params
        if len(self.params) != 2 or not all(p > 0 for p in positive):
            raise DomainError(f"invalid {family} parameters {self.params}")

    def mean(self) -> float:
        a, b = self.params
        if self.family == "normal":
            return a
        if self.family == "beta":
            return a / (a + b)
        return a * (1.0 / b)

    def var(self) -> float:
        a, b = self.params
        if self.family == "normal":
            return b * b
        if self.family == "beta":
            s = a + b
            return a * b / (s * s * (s + 1))
        scale = 1.0 / b
        return a * scale * scale

    def sd(self) -> float:
        return math.sqrt(self.var())

    def quantile(self, q) -> np.ndarray | float:
        a, b = self.params
        if self.family == "normal":
            return ndtri(q) * b + a
        if self.family == "beta":
            return betaincinv(a, b, q)
        return gammaincinv(a, q) * (1.0 / b)

    def cdf(self, x) -> np.ndarray | float:
        a, b = self.params
        if self.family == "normal":
            return ndtr((x - a) / b)
        if self.family == "beta":
            return betainc(a, b, np.clip(x, 0.0, 1.0))
        return gammainc(a, np.maximum(x, 0.0) / (1.0 / b))

    def logpdf(self, x) -> np.ndarray | float:
        a, b = self.params
        x = np.asarray(x, dtype=float)
        if self.family == "normal":
            return -0.5 * (_LOG_2PI + 2.0 * np.log(b)) - (x - a) ** 2 / (2.0 * b**2)
        out = np.full(x.shape, -np.inf)
        if self.family == "beta":
            ok = (x >= 0.0) & (x <= 1.0)
            out[ok] = xlogy(a - 1.0, x[ok]) + xlog1py(b - 1.0, -x[ok]) - betaln(a, b)
        else:
            # scipy.stats.gamma's arithmetic: a * log(b) - gammaln(a) + ... cancels
            # to ~1e-12 absolute error for shapes in the hundreds
            ok = x > 0.0
            scale = 1.0 / b
            z = x[ok] / scale
            out[ok] = xlogy(a - 1.0, z) - z - gammaln(a) - np.log(scale)
        return out[()]

    def sample(self, rng, size: int) -> np.ndarray:
        rng = as_generator(rng)
        a, b = self.params
        if self.family == "normal":
            # rng.normal(a, b, size) bit for bit, scaled in place
            z = rng.standard_normal(size)
            z *= b
            z += a
            return z
        if self.family == "beta":
            return rng.beta(a, b, size)
        return rng.standard_gamma(a, size) * (1.0 / b)

    def __repr__(self):
        args = ", ".join(format(p, ".6g") for p in self.params)
        return f"AnalyticPosterior({self.family}({args}))"


@dataclass(frozen=True)
class Capabilities:
    can_sample_prior: bool
    can_log_prior: bool
    can_log_likelihood: bool
    has_analytic_posterior: bool


class Model:
    """Base observation model.

    Subclasses fill in the declared capabilities; calling an undeclared
    operation raises CapabilityError rather than returning garbage. A model
    with a one-parameter closed-form prior sets prior; prior draws, the
    prior density and the log marginal likelihood follow from it.
    """

    name: str = "model"
    param_dim: int = 1
    data_shape: DataShape = DataShape(n_obs=1)
    capabilities: Capabilities = Capabilities(False, False, False, False)
    prior: AnalyticPosterior | None = None

    # Parameter domain -------------------------------------------------

    def in_support(self, theta: np.ndarray) -> bool:
        return bool(np.all(np.isfinite(np.asarray(theta, dtype=float))))

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.shape != (self.param_dim,):
            raise DomainError(
                f"{self.name}: expected {self.param_dim} parameters, got {theta.shape[0]}"
            )
        if not self.in_support(theta):
            raise DomainError(f"{self.name}: parameter {theta} outside plausible domain")
        return theta

    # Prior ------------------------------------------------------------

    def sample_prior(self, rng, size: int) -> np.ndarray:
        if self.prior is None:
            raise CapabilityError(f"{self.name} has no prior")
        return self.prior.sample(rng, size).reshape(size, 1)

    def log_prior_batch(self, thetas: np.ndarray) -> np.ndarray:
        if self.prior is None:
            raise CapabilityError(f"{self.name} has no prior density")
        return self.prior.logpdf(np.atleast_2d(thetas)[:, 0])

    # Likelihood and simulation -----------------------------------------

    def simulate_data(self, theta, rng, n_obs: int | None = None) -> Dataset:
        theta = self._check_theta(theta)
        obs = self.simulate_batch(theta[None, :], rng, n_obs=n_obs)[0]
        return Dataset(obs, self.group_labels(obs.shape[0]))

    def simulate_batch(
        self, thetas: np.ndarray, rng, n_obs: int | None = None
    ) -> np.ndarray:
        """Simulate one dataset per parameter row; returns (s, n, obs_dim)."""
        raise NotImplementedError

    def group_labels(self, n_obs: int) -> np.ndarray | None:
        return None

    def log_likelihood(self, theta, y: Dataset) -> float:
        return float(self.log_likelihood_batch(np.atleast_2d(theta), y)[0])

    def log_likelihood_batch(self, thetas: np.ndarray, y: Dataset) -> np.ndarray:
        raise CapabilityError(f"{self.name} has no tractable likelihood")

    # Conjugate results --------------------------------------------------

    def analytic_posterior(self, y: Dataset) -> AnalyticPosterior:
        raise CapabilityError(f"{self.name} has no analytic posterior")

    def log_marginal(self, y: Dataset) -> float:
        """log p(y) = log p(y | t) + log p(t) - log p(t | y) at the posterior
        mean t (Chib 1995); an empty dataset has log p(y) = 0."""
        if self.prior is None:
            raise CapabilityError(f"{self.name} has no analytic marginal likelihood")
        if y.n_obs == 0:
            return 0.0
        post = self.analytic_posterior(y)
        t = post.mean()
        return float(self.log_likelihood_batch(np.array([[t]]), y)[0]
                     + self.prior.logpdf(t) - post.logpdf(t))

    # Unconstrained reparameterization for random-walk samplers ----------

    def to_unconstrained(self, theta: np.ndarray) -> np.ndarray:
        return np.asarray(theta, dtype=float).reshape(-1).copy()

    def from_unconstrained_batch(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float)

    def log_jacobian_batch(self, z: np.ndarray) -> np.ndarray:
        return np.zeros(np.atleast_2d(z).shape[0])

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"


def simulate_statistic(model: Model, thetas: np.ndarray, rng, statistic: SummaryStatistic,
                       n_obs: int | None = None) -> np.ndarray:
    """statistic of one simulated dataset per parameter row; returns (s,).

    The rows are simulated in blocks of _SIM_CHUNK, one after another from
    the same rng. simulate_batch reads its generator in row order, so the
    draws, and rng's state afterwards, are those of one call on all rows,
    while memory holds one block of datasets instead of s of them.
    """
    if statistic.arity != "data":
        raise ValueError(f"statistic {statistic.name!r} is not a data statistic")
    rng = as_generator(rng)
    thetas = np.atleast_2d(thetas)
    n = int(n_obs or model.data_shape.n_obs)
    labels = model.group_labels(n)
    out = np.empty(thetas.shape[0])
    for lo in range(0, thetas.shape[0], _SIM_CHUNK):
        block = thetas[lo:lo + _SIM_CHUNK]
        out[lo:lo + block.shape[0]] = statistic.fn(model.simulate_batch(block, rng, n_obs=n),
                                                   labels)
    return out


class NormalNormal(Model):
    """Normal observations with known sigma and a Normal prior on the mean.

    theta ~ Normal(mu0, tau0^2), y_i | theta ~ Normal(theta, sigma^2).
    """

    def __init__(self, mu0: float = 0.0, tau0: float = 1.0, sigma: float = 1.0,
                 n_obs: int = 10):
        if tau0 <= 0 or sigma <= 0:
            raise DomainError("tau0 and sigma must be positive")
        self.mu0 = float(mu0)
        self.tau0 = float(tau0)
        self.sigma = float(sigma)
        self.name = "normal-normal"
        self.param_dim = 1
        self.data_shape = DataShape(n_obs=_whole("n_obs", n_obs))
        self.capabilities = Capabilities(True, True, True, True)
        self.prior = AnalyticPosterior("normal", (mu0, tau0))

    def simulate_batch(self, thetas, rng, n_obs=None):
        rng = as_generator(rng)
        n = int(n_obs or self.data_shape.n_obs)
        loc = np.atleast_2d(thetas)[:, 0][:, None]
        # rng.normal(loc, sigma) bit for bit, without its per-element broadcast
        obs = rng.standard_normal((loc.shape[0], n))
        obs *= self.sigma
        obs += loc
        return obs[:, :, None]

    def log_likelihood_batch(self, thetas, y: Dataset) -> np.ndarray:
        t = np.atleast_2d(thetas)[:, 0]
        obs = y.observations[:, 0]
        n = obs.shape[0]
        const = -0.5 * n * (_LOG_2PI + 2.0 * np.log(self.sigma))
        sq = ((obs[None, :] - t[:, None]) ** 2).sum(axis=1)
        return const - sq / (2.0 * self.sigma**2)

    def analytic_posterior(self, y: Dataset) -> AnalyticPosterior:
        n = y.n_obs
        prec = 1.0 / self.tau0**2 + n / self.sigma**2
        var = 1.0 / prec
        mean = var * (self.mu0 / self.tau0**2 + y.observations[:, 0].sum() / self.sigma**2)
        return AnalyticPosterior("normal", (mean, np.sqrt(var)))


class BetaBinomial(Model):
    """Binomial counts with a Beta prior on the success probability.

    Each observation is a count of successes in n_trials draws. The closed
    [0, 1] domain is accepted so degenerate endpoints simulate exactly.
    """

    def __init__(self, a: float = 1.0, b: float = 1.0, n_trials: int = 10,
                 n_obs: int = 1):
        n_trials = _whole("n_trials", n_trials)
        if n_trials < 1:
            raise DomainError("n_trials must be at least 1")
        self.a = float(a)
        self.b = float(b)
        self.n_trials = n_trials
        self.name = "beta-binomial"
        self.param_dim = 1
        self.data_shape = DataShape(n_obs=_whole("n_obs", n_obs))
        self.capabilities = Capabilities(True, True, True, True)
        self.prior = AnalyticPosterior("beta", (a, b))

    def in_support(self, theta) -> bool:
        t = np.asarray(theta, dtype=float).reshape(-1)
        return bool(np.all(np.isfinite(t)) and 0.0 <= t[0] <= 1.0)

    def simulate_batch(self, thetas, rng, n_obs=None):
        rng = as_generator(rng)
        n = int(n_obs or self.data_shape.n_obs)
        p = np.atleast_2d(thetas)[:, 0][:, None]
        counts = rng.binomial(self.n_trials, np.broadcast_to(p, (p.shape[0], n)))
        return counts.astype(float)[:, :, None]

    def log_likelihood_batch(self, thetas, y: Dataset) -> np.ndarray:
        t = np.atleast_2d(thetas)[:, 0]
        k = y.observations[:, 0]
        if np.any((k < 0) | (k > self.n_trials) | (k != np.round(k))):
            raise DomainError("beta-binomial data must be integer counts in [0, n_trials]")
        const = float(
            (gammaln(self.n_trials + 1) - gammaln(k + 1) - gammaln(self.n_trials - k + 1)).sum()
        )
        out = np.full(t.shape, -np.inf)
        ok = (t >= 0.0) & (t <= 1.0)
        tok = t[ok]
        out[ok] = (
            const
            + xlogy(k.sum(), tok)
            + xlog1py(y.n_obs * self.n_trials - k.sum(), -tok)
        )
        return out

    def analytic_posterior(self, y: Dataset) -> AnalyticPosterior:
        k = y.observations[:, 0].sum()
        total = y.n_obs * self.n_trials
        a_n = self.a + k
        b_n = self.b + total - k
        return AnalyticPosterior("beta", (a_n, b_n))

    def to_unconstrained(self, theta) -> np.ndarray:
        t = np.asarray(theta, dtype=float).reshape(-1)
        return np.log(t / (1.0 - t))

    def from_unconstrained_batch(self, z) -> np.ndarray:
        return expit(np.asarray(z, dtype=float))

    def log_jacobian_batch(self, z) -> np.ndarray:
        z = np.atleast_2d(z)[:, 0]
        # log theta + log(1 - theta), computed stably
        return -(np.logaddexp(0.0, -z) + np.logaddexp(0.0, z))


class PoissonGamma(Model):
    """Poisson counts with a Gamma(shape a, rate b) prior on the rate."""

    def __init__(self, a: float = 2.0, b: float = 1.0, n_obs: int = 5):
        self.a = float(a)
        self.b = float(b)
        self.name = "poisson-gamma"
        self.param_dim = 1
        self.data_shape = DataShape(n_obs=_whole("n_obs", n_obs))
        self.capabilities = Capabilities(True, True, True, True)
        self.prior = AnalyticPosterior("gamma", (a, b))

    def in_support(self, theta) -> bool:
        t = np.asarray(theta, dtype=float).reshape(-1)
        return bool(np.all(np.isfinite(t)) and t[0] >= 0.0)

    def simulate_batch(self, thetas, rng, n_obs=None):
        rng = as_generator(rng)
        n = int(n_obs or self.data_shape.n_obs)
        lam = np.atleast_2d(thetas)[:, 0][:, None]
        counts = rng.poisson(np.broadcast_to(lam, (lam.shape[0], n)))
        return counts.astype(float)[:, :, None]

    def log_likelihood_batch(self, thetas, y: Dataset) -> np.ndarray:
        t = np.atleast_2d(thetas)[:, 0]
        k = y.observations[:, 0]
        if np.any((k < 0) | (k != np.round(k))):
            raise DomainError("poisson-gamma data must be nonnegative integer counts")
        const = -gammaln(k + 1).sum()
        out = np.full(t.shape, -np.inf)
        ok = t > 0.0
        out[ok] = const + xlogy(k.sum(), t[ok]) - y.n_obs * t[ok]
        # rate 0 is only compatible with all-zero counts
        zero = t == 0.0
        if np.any(zero):
            out[zero] = const if k.sum() == 0 else -np.inf
        return out

    def analytic_posterior(self, y: Dataset) -> AnalyticPosterior:
        shape = self.a + y.observations[:, 0].sum()
        rate = self.b + y.n_obs
        return AnalyticPosterior("gamma", (shape, rate))

    def to_unconstrained(self, theta) -> np.ndarray:
        return np.log(np.asarray(theta, dtype=float).reshape(-1))

    def from_unconstrained_batch(self, z) -> np.ndarray:
        return np.exp(np.asarray(z, dtype=float))

    def log_jacobian_batch(self, z) -> np.ndarray:
        return np.atleast_2d(z)[:, 0].copy()


class LogNormalTwoGroup(Model):
    """Two independent LogNormal groups with shared known log-scale sigma.

    theta = (mu_1, mu_2), the per-group log-means. Fixed-parameter model for
    frequentist simulation tests; it declares no prior.
    """

    def __init__(self, sigma: float = 2.0, n_per_group: int = 40):
        if sigma <= 0:
            raise DomainError("sigma must be positive")
        n_per_group = _whole("n_per_group", n_per_group)
        if n_per_group < 2:
            raise DomainError("n_per_group must be at least 2")
        self.sigma = float(sigma)
        self.n_per_group = n_per_group
        self.name = "lognormal-two-group"
        self.param_dim = 2
        self.data_shape = DataShape(n_obs=2 * self.n_per_group)
        self.capabilities = Capabilities(False, False, True, False)

    def group_labels(self, n_obs: int) -> np.ndarray:
        half = n_obs // 2
        return np.repeat([0, 1], half)

    def simulate_batch(self, thetas, rng, n_obs=None):
        rng = as_generator(rng)
        n_total = int(n_obs or self.data_shape.n_obs)
        if n_total % 2 != 0:
            raise DomainError("two-group datasets need an even observation count")
        half = n_total // 2
        mu = np.atleast_2d(thetas)
        z = rng.standard_normal(size=(mu.shape[0], 2, half))
        logs = np.repeat(mu[:, :, None], half, axis=2) + self.sigma * z
        return np.exp(logs).reshape(mu.shape[0], n_total)[:, :, None]

    def log_likelihood_batch(self, thetas, y: Dataset) -> np.ndarray:
        if y.group_labels is None:
            raise DomainError("two-group likelihood needs group labels")
        mu = np.atleast_2d(thetas)
        obs = y.observations[:, 0]
        if np.any(obs <= 0):
            return np.full(mu.shape[0], -np.inf)
        logs = np.log(obs)
        out = np.zeros(mu.shape[0])
        for g in (0, 1):
            lg = logs[y.group_labels == g]
            n = lg.shape[0]
            sq = ((lg[None, :] - mu[:, g][:, None]) ** 2).sum(axis=1)
            out += (
                -0.5 * n * (_LOG_2PI + 2.0 * np.log(self.sigma))
                - lg.sum()
                - sq / (2.0 * self.sigma**2)
            )
        return out


MODEL_REGISTRY: dict[str, type] = {
    "normal-normal": NormalNormal,
    "beta-binomial": BetaBinomial,
    "poisson-gamma": PoissonGamma,
    "lognormal-two-group": LogNormalTwoGroup,
}


def make_model(name: str, **hyper) -> Model:
    """Build a registered model from keyword hyperparameters."""
    try:
        cls = MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise ValueError(f"unknown model {name!r}; known models: {known}") from None
    return cls(**hyper)
