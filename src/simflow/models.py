"""Generative models, datasets, parameter draws, and summary statistics.

Four built-in observation models cover the conjugate and two-group cases
used throughout the toolkit. A model's capabilities follow from what it
defines, so pipelines can fail fast instead of guessing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CapabilityError, DomainError
from .rng import _addressable, as_generator

__all__ = [
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
# Parameter rows per block of a log-likelihood on one dataset: its (rows, n)
# temporaries are 32 KiB per observation
_LIKELIHOOD_BLOCK = 4096

_LOG_2PI = float(np.log(2.0 * np.pi))
# the largest rate numpy's Poisson draw accepts
_POISSON_MAX_RATE = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


def _whole(name: str, value) -> int:
    """A count hyperparameter as an int; 2.5 is refused, not truncated to 2."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _count(name: str, value) -> int:
    """A count hyperparameter that must be at least 1, as an int."""
    value = _whole(name, value)
    if value < 1:
        raise DomainError(f"{name} must be at least 1, got {value}")
    return value


def _finite(**params) -> None:
    """DomainError naming the first hyperparameter that is not a finite number."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Dataset:
    """A fixed-size sample: n scalar observations (1-D), optional group labels.

    An empty dataset (n = 0) is allowed as the neutral element for
    concatenation; simulation always produces n >= 1.
    """

    observations: np.ndarray
    group_labels: np.ndarray | None = None

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 1:
            raise ValueError(f"observations must be a 1-D array of n values, got shape {obs.shape}")
        object.__setattr__(self, "observations", obs)
        if self.group_labels is not None:
            labels = np.asarray(self.group_labels, dtype=int)
            if labels.shape != (obs.shape[0],):
                raise ValueError("group_labels length must match n_obs")
            object.__setattr__(self, "group_labels", labels)
        if not np.isfinite(obs).all():
            raise ValueError("observations must be finite")

    @property
    def n_obs(self) -> int:
        return int(self.observations.shape[0])

    @classmethod
    def empty(cls) -> "Dataset":
        return cls(np.empty(0))

    def to_csv(self, path) -> None:
        """Write one row per observation; group column only when present."""
        header = ["y0"] if self.group_labels is None else ["y0", "group"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(self.n_obs):
                row = [format(self.observations[i], ".17g")]
                if self.group_labels is not None:
                    row.append(str(int(self.group_labels[i])))
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        """Read one observation column and an optional group column, nothing else."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [row for row in reader if row]
        has_group = header[1:] == ["group"]
        if (len(header) != 1 + has_group or header[0] == "group"
                or any(len(row) != len(header) for row in rows)):
            raise ValueError("CSV must have one observation column and an optional group "
                             f"column in its header {header} and in every row")
        obs = np.array([float(row[0]) for row in rows], dtype=float)
        labels = None
        if has_group:
            labels = np.array([int(row[1]) for row in rows], dtype=int)
        return cls(obs, labels)


def concat_datasets(a: Dataset, b: Dataset) -> Dataset:
    obs = np.concatenate([a.observations, b.observations])
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
      "data"    fn(obs (s, n), labels) -> (s,), one value per dataset
      "params"  fn(values (m, d)) -> (m,), one value per parameter draw

    labels are the group labels shared by the s datasets, or None.
    on_data and on_params evaluate a batch of one. An ABC distance is
    |T(y_sim) - T(y_obs)| for a data statistic T (see AbcRejection).
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


def _law_param_ok(p, positive: bool) -> bool:
    if isinstance(p, float):
        return math.isfinite(p) and (p > 0 or not positive)
    return bool((np.isfinite(p) & ((p > 0) | (not positive))).all())


class AnalyticPosterior:
    """Closed-form law: a family name and its two parameters.

    normal (mean, sd), beta (a, b) or gamma (shape, rate), each finite. A
    parameter may also be a (k, 1) column, one law per row: moments and
    draws of size (k, m) then broadcast row by row. Moments,
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
        self.params = tuple(np.asarray(p, dtype=float)
                            if isinstance(p, np.ndarray) and p.ndim else float(p)
                            for p in params)
        if len(self.params) != 2 or not (_law_param_ok(self.params[0], family != "normal")
                                         and _law_param_ok(self.params[1], True)):
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
        v = self.var()
        return math.sqrt(v) if isinstance(v, float) else np.sqrt(v)

    def quantile(self, q) -> np.ndarray | float:
        from scipy import special

        a, b = self.params
        if self.family == "normal":
            return special.ndtri(q) * b + a
        if self.family == "beta":
            return special.betaincinv(a, b, q)
        return special.gammaincinv(a, q) * (1.0 / b)

    def cdf(self, x) -> np.ndarray | float:
        from scipy import special

        a, b = self.params
        if self.family == "normal":
            return special.ndtr((x - a) / b)
        if self.family == "beta":
            return special.betainc(a, b, np.clip(x, 0.0, 1.0))
        return special.gammainc(a, np.maximum(x, 0.0) / (1.0 / b))

    def logpdf(self, x) -> np.ndarray | float:
        a, b = self.params
        x = np.asarray(x, dtype=float)
        if self.family == "normal":
            return -0.5 * (_LOG_2PI + 2.0 * np.log(b)) - (x - a) ** 2 / (2.0 * b**2)
        from scipy import special

        out = np.full(x.shape, -np.inf)
        if self.family == "beta":
            ok = (x >= 0.0) & (x <= 1.0)
            out[ok] = (special.xlogy(a - 1.0, x[ok]) + special.xlog1py(b - 1.0, -x[ok])
                       - special.betaln(a, b))
        else:
            # scipy.stats.gamma's arithmetic: a * log(b) - gammaln(a) + ... cancels
            # to ~1e-12 absolute error for shapes in the hundreds
            ok = x > 0.0
            scale = 1.0 / b
            z = x[ok] / scale
            out[ok] = special.xlogy(a - 1.0, z) - z - special.gammaln(a) - np.log(scale)
        return out[()]

    def sample(self, rng, size) -> np.ndarray:
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
        args = ", ".join(format(p, ".6g") if isinstance(p, float) else f"<{p.shape[0]} rows>"
                         for p in self.params)
        return f"AnalyticPosterior({self.family}({args}))"


@dataclass(frozen=True)
class Capabilities:
    can_sample_prior: bool
    can_log_prior: bool
    can_log_likelihood: bool
    has_analytic_posterior: bool


class Model:
    """Base observation model.

    A model with a one-parameter closed-form prior sets prior; prior draws,
    the prior density and the log marginal likelihood follow from it. A
    subclass with a likelihood overrides _log_likelihood, and one with a
    conjugate update overrides _conjugate. Calling an operation the model
    does not define raises CapabilityError rather than returning garbage.
    """

    name: str = "model"
    param_dim: int = 1
    n_obs: int = 1   # the size of a simulated dataset
    prior: AnalyticPosterior | None = None

    @property
    def capabilities(self) -> Capabilities:
        """What the model defines: prior draws and density from prior, the
        likelihood from _log_likelihood, the analytic posterior from _conjugate."""
        cls = type(self)
        return Capabilities(
            can_sample_prior=self.prior is not None,
            can_log_prior=self.prior is not None,
            can_log_likelihood=cls._log_likelihood is not Model._log_likelihood,
            has_analytic_posterior=cls._conjugate is not Model._conjugate,
        )

    # Parameter domain -------------------------------------------------

    def _support(self, thetas: np.ndarray) -> np.ndarray:
        """Whether each row of a (k, param_dim) array lies in the plausible domain."""
        return np.isfinite(thetas).all(axis=1)

    def _check_domain(self, thetas: np.ndarray) -> None:
        """DomainError unless every row of a (k, param_dim) array lies in the
        plausible domain."""
        if thetas.shape[1] != self.param_dim:
            raise DomainError(
                f"{self.name}: expected {self.param_dim} parameters, got {thetas.shape[1]}"
            )
        outside = ~self._support(thetas)
        if outside.any():
            theta = thetas[outside.argmax()]
            raise DomainError(f"{self.name}: parameter {theta} outside plausible domain")

    # Prior ------------------------------------------------------------

    def sample_prior(self, rng, size) -> np.ndarray:
        """size prior draws, as (size, param_dim); a tuple size (k, c) gives
        (k, c, param_dim), row i drawn from rng's row i when rng is a
        RowStreams."""
        if self.prior is None:
            raise CapabilityError(f"{self.name} has no prior")
        return self.prior.sample(rng, size)[..., None]

    def log_prior_batch(self, thetas: np.ndarray) -> np.ndarray:
        """The log prior density of each (..., param_dim) parameter row."""
        if self.prior is None:
            raise CapabilityError(f"{self.name} has no prior density")
        return self.prior.logpdf(np.atleast_2d(thetas)[..., 0])

    # Likelihood and simulation -----------------------------------------

    def simulate_data(self, theta, rng, n_obs: int | None = None) -> Dataset:
        theta = np.asarray(theta, dtype=float).reshape(1, -1)
        obs = self.simulate_checked(theta, rng, n_obs=n_obs)[0]
        return Dataset(obs, self.group_labels(obs.size))

    def simulate_checked(self, thetas, rng, n_obs: int | None = None) -> np.ndarray:
        """simulate_batch of a (k, param_dim) array, refusing a row outside the
        domain (DomainError) before anything is simulated, and observations
        that are not finite, such as an overflow (RuntimeError naming the
        first row that simulated one), after."""
        thetas = np.asarray(thetas, dtype=float)
        self._check_domain(thetas)
        obs = self.simulate_batch(thetas, rng, n_obs=n_obs)
        if not np.isfinite(obs).all():
            theta = thetas[(~np.isfinite(obs)).any(axis=1).argmax()]
            raise RuntimeError(f"{self.name}: parameter {theta} simulated observations "
                               "that are not finite")
        return obs

    def simulate_batch(
        self, thetas: np.ndarray, rng, n_obs: int | None = None
    ) -> np.ndarray:
        """Simulate one dataset per parameter row; returns (s, n).

        n_obs None means the model's default size; any other value must be a
        whole number of at least 1.
        """
        raise NotImplementedError

    def _n_obs(self, n_obs) -> int:
        return self.n_obs if n_obs is None else _count("n_obs", n_obs)

    def group_labels(self, n_obs: int) -> np.ndarray | None:
        return None

    def log_likelihood_batch(self, thetas: np.ndarray, y, labels=None) -> np.ndarray:
        """log p(y | theta) of each row of (c, param_dim) thetas given a
        Dataset; given a (k, n) block of datasets with the group
        labels they share, the (k, c) values of (k, c, param_dim) thetas, row
        i's thetas under dataset i.

        Given a Dataset, the thetas are taken in blocks of _LIKELIHOOD_BLOCK
        rows, so temporaries stay small whatever c is; each value depends
        on its own row alone, so the values are those of one call."""
        if not isinstance(y, Dataset):
            return self._log_likelihood(np.asarray(thetas, dtype=float), y, labels)
        thetas = np.atleast_2d(thetas)[None]
        obs = y.observations[None]
        out = np.empty(thetas.shape[1])
        # one call even on no rows, which still checks the data
        for lo in range(0, max(out.size, 1), _LIKELIHOOD_BLOCK):
            out[lo:lo + _LIKELIHOOD_BLOCK] = self._log_likelihood(
                thetas[:, lo:lo + _LIKELIHOOD_BLOCK], obs, y.group_labels)[0]
        return out

    def _log_likelihood(self, thetas: np.ndarray, obs: np.ndarray, labels) -> np.ndarray:
        raise CapabilityError(f"{self.name} has no tractable likelihood")

    # Conjugate results --------------------------------------------------

    def analytic_posterior(self, y) -> AnalyticPosterior:
        """The closed-form posterior given a Dataset; given a (k, n) block of
        datasets, one posterior per row, with (k, 1) columns for the
        parameters that depend on the data. It depends on the data through n
        and the sum of the observations only."""
        if isinstance(y, Dataset):
            return self._conjugate(y.n_obs, y.observations.sum())
        return self._conjugate(y.shape[1], y.sum(axis=1)[:, None])

    def _conjugate(self, n: int, total) -> AnalyticPosterior:
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
        """theta in the unconstrained space, elementwise on any shape: a new
        array, which a sampler may update in place."""
        return np.array(theta, dtype=float)

    def from_unconstrained_batch(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float)

    def log_jacobian_batch(self, z: np.ndarray) -> np.ndarray:
        """log |d theta / d z| of each (..., param_dim) unconstrained row."""
        return np.zeros(np.atleast_2d(z).shape[:-1])

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"


def simulate_statistic(model: Model, thetas: np.ndarray, rng, statistic: SummaryStatistic,
                       n_obs: int | None = None) -> np.ndarray:
    """statistic of one simulated dataset per parameter row; returns (s,).

    The rows are simulated in blocks of _SIM_CHUNK, one after another from
    the same rng, each through simulate_checked: a row outside the model's
    domain raises DomainError before its block is drawn, and a row that
    simulates a value that is not finite raises RuntimeError. simulate_batch
    reads its generator in row order, so the draws, and rng's state
    afterwards, are those of one call on all rows, while memory holds one
    block of datasets instead of s of them.
    """
    if statistic.arity != "data":
        raise ValueError(f"statistic {statistic.name!r} is not a data statistic")
    rng = as_generator(rng)
    thetas = np.atleast_2d(thetas)
    n = model._n_obs(n_obs)
    _addressable((min(thetas.shape[0], _SIM_CHUNK), n))
    labels = model.group_labels(n)
    out = np.empty(thetas.shape[0])
    for lo in range(0, thetas.shape[0], _SIM_CHUNK):
        block = thetas[lo:lo + _SIM_CHUNK]
        out[lo:lo + block.shape[0]] = statistic.fn(model.simulate_checked(block, rng, n_obs=n),
                                                   labels)
    return out


class NormalNormal(Model):
    """Normal observations with known sigma and a Normal prior on the mean.

    theta ~ Normal(mu0, tau0^2), y_i | theta ~ Normal(theta, sigma^2).
    """

    def __init__(self, mu0: float = 0.0, tau0: float = 1.0, sigma: float = 1.0,
                 n_obs: int = 10):
        _finite(mu0=mu0, tau0=tau0, sigma=sigma)
        if tau0 <= 0 or sigma <= 0:
            raise DomainError("tau0 and sigma must be positive")
        for name, scale in (("tau0", tau0), ("sigma", sigma)):
            # the precision 1 / scale**2, without the OverflowError of ** or
            # the ZeroDivisionError of 1 / 0.0
            square = float(scale) * float(scale)
            if not (square > 0 and 0 < 1.0 / square < math.inf):
                raise DomainError(f"{name} = {scale!r} puts the precision 1/{name}^2 "
                                  "outside the float range")
        n_obs = _count("n_obs", n_obs)
        # each precision is finite, but their posterior sum may not be
        if not 1.0 / (float(tau0) * float(tau0)) + n_obs / (float(sigma) * float(sigma)) < math.inf:
            raise DomainError(f"tau0 = {tau0!r}, sigma = {sigma!r} and n_obs = {n_obs} put the "
                              "posterior precision 1/tau0^2 + n_obs/sigma^2 outside the "
                              "float range")
        self.mu0 = float(mu0)
        self.tau0 = float(tau0)
        self.sigma = float(sigma)
        self.name = "normal-normal"
        self.param_dim = 1
        self.n_obs = n_obs
        self.prior = AnalyticPosterior("normal", (mu0, tau0))

    def simulate_batch(self, thetas, rng, n_obs=None):
        rng = as_generator(rng)
        n = self._n_obs(n_obs)
        loc = np.atleast_2d(thetas)[:, 0][:, None]
        # rng.normal(loc, sigma) bit for bit, without its per-element broadcast
        obs = rng.standard_normal((loc.shape[0], n))
        obs *= self.sigma
        obs += loc
        return obs

    def _log_likelihood(self, thetas, obs, labels) -> np.ndarray:
        t = thetas[..., 0]
        n = obs.shape[1]
        const = -0.5 * n * (_LOG_2PI + 2.0 * np.log(self.sigma))
        sq = ((obs[:, None, :] - t[:, :, None]) ** 2).sum(axis=2)
        return const - sq / (2.0 * self.sigma**2)

    def _conjugate(self, n, total) -> AnalyticPosterior:
        prec = 1.0 / self.tau0**2 + n / self.sigma**2
        var = 1.0 / prec
        mean = var * (self.mu0 / self.tau0**2 + total / self.sigma**2)
        return AnalyticPosterior("normal", (mean, np.sqrt(var)))


class BetaBinomial(Model):
    """Binomial counts with a Beta prior on the success probability.

    Each observation is a count of successes in n_trials draws. The closed
    [0, 1] domain is accepted so degenerate endpoints simulate exactly.
    """

    def __init__(self, a: float = 1.0, b: float = 1.0, n_trials: int = 10,
                 n_obs: int = 1):
        n_trials = _count("n_trials", n_trials)
        self.a = float(a)
        self.b = float(b)
        self.n_trials = n_trials
        self.name = "beta-binomial"
        self.param_dim = 1
        self.n_obs = _count("n_obs", n_obs)
        self.prior = AnalyticPosterior("beta", (a, b))

    def _support(self, thetas) -> np.ndarray:
        t = thetas[:, 0]
        return np.isfinite(thetas).all(axis=1) & (t >= 0.0) & (t <= 1.0)

    def simulate_batch(self, thetas, rng, n_obs=None):
        rng = as_generator(rng)
        n = self._n_obs(n_obs)
        p = np.atleast_2d(thetas)[:, 0][:, None]
        # a (k, 1) column with a size: the draws of a broadcast (k, n) p, faster
        counts = rng.binomial(self.n_trials, p, size=(p.shape[0], n))
        return counts.astype(float)

    def _log_likelihood(self, thetas, k, labels) -> np.ndarray:
        t = thetas[..., 0]
        if np.any((k < 0) | (k > self.n_trials) | (k != np.round(k))):
            raise DomainError("beta-binomial data must be integer counts in [0, n_trials]")
        from scipy import special

        const = (special.gammaln(self.n_trials + 1) - special.gammaln(k + 1)
                 - special.gammaln(self.n_trials - k + 1)).sum(axis=1)
        total = k.sum(axis=1)
        # each row's constant and count total, beside each of its thetas
        const, total = (np.broadcast_to(v[:, None], t.shape) for v in (const, total))
        out = np.full(t.shape, -np.inf)
        ok = (t >= 0.0) & (t <= 1.0)
        tok = t[ok]
        out[ok] = (
            const[ok]
            + special.xlogy(total[ok], tok)
            + special.xlog1py(k.shape[1] * self.n_trials - total[ok], -tok)
        )
        return out

    def _conjugate(self, n, k) -> AnalyticPosterior:
        total = n * self.n_trials
        a_n = self.a + k
        b_n = self.b + total - k
        return AnalyticPosterior("beta", (a_n, b_n))

    def to_unconstrained(self, theta) -> np.ndarray:
        t = np.asarray(theta, dtype=float)
        return np.log(t / (1.0 - t))

    def from_unconstrained_batch(self, z) -> np.ndarray:
        from scipy import special

        return special.expit(np.asarray(z, dtype=float))

    def log_jacobian_batch(self, z) -> np.ndarray:
        z = np.atleast_2d(z)[..., 0]
        # log theta + log(1 - theta), computed stably
        return -(np.logaddexp(0.0, -z) + np.logaddexp(0.0, z))


class PoissonGamma(Model):
    """Poisson counts with a Gamma(shape a, rate b) prior on the rate."""

    def __init__(self, a: float = 2.0, b: float = 1.0, n_obs: int = 5):
        self.a = float(a)
        self.b = float(b)
        self.name = "poisson-gamma"
        self.param_dim = 1
        self.n_obs = _count("n_obs", n_obs)
        self.prior = AnalyticPosterior("gamma", (a, b))

    def _support(self, thetas) -> np.ndarray:
        rate = thetas[:, 0]
        return np.isfinite(thetas).all(axis=1) & (rate >= 0.0) & (rate <= _POISSON_MAX_RATE)

    def simulate_batch(self, thetas, rng, n_obs=None):
        rng = as_generator(rng)
        n = self._n_obs(n_obs)
        lam = np.atleast_2d(thetas)[:, 0][:, None]
        counts = rng.poisson(lam, size=(lam.shape[0], n))
        return counts.astype(float)

    def _log_likelihood(self, thetas, k, labels) -> np.ndarray:
        t = thetas[..., 0]
        if np.any((k < 0) | (k != np.round(k))):
            raise DomainError("poisson-gamma data must be nonnegative integer counts")
        from scipy import special

        # each row's constant and count total, beside each of its thetas
        const, total = (np.broadcast_to(v[:, None], t.shape)
                        for v in (-special.gammaln(k + 1).sum(axis=1), k.sum(axis=1)))
        out = np.full(t.shape, -np.inf)
        ok = t > 0.0
        out[ok] = const[ok] + special.xlogy(total[ok], t[ok]) - k.shape[1] * t[ok]
        # rate 0 is only compatible with all-zero counts
        zero = t == 0.0
        if np.any(zero):
            out[zero] = np.where(total[zero] == 0, const[zero], -np.inf)
        return out

    def _conjugate(self, n, total) -> AnalyticPosterior:
        shape = self.a + total
        rate = self.b + n
        return AnalyticPosterior("gamma", (shape, rate))

    def to_unconstrained(self, theta) -> np.ndarray:
        return np.log(np.asarray(theta, dtype=float))

    def from_unconstrained_batch(self, z) -> np.ndarray:
        return np.exp(np.asarray(z, dtype=float))

    def log_jacobian_batch(self, z) -> np.ndarray:
        return np.atleast_2d(z)[..., 0].copy()


class LogNormalTwoGroup(Model):
    """Two independent LogNormal groups with shared known log-scale sigma.

    theta = (mu_1, mu_2), the per-group log-means. Fixed-parameter model for
    frequentist simulation tests; it declares no prior.
    """

    def __init__(self, sigma: float = 2.0, n_per_group: int = 40):
        _finite(sigma=sigma)
        if sigma <= 0:
            raise DomainError("sigma must be positive")
        n_per_group = _whole("n_per_group", n_per_group)
        if n_per_group < 2:
            raise DomainError("n_per_group must be at least 2")
        self.sigma = float(sigma)
        self.n_per_group = n_per_group
        self.name = "lognormal-two-group"
        self.param_dim = 2
        self.n_obs = 2 * self.n_per_group

    def group_labels(self, n_obs: int) -> np.ndarray:
        half = n_obs // 2
        return np.repeat([0, 1], half)

    def simulate_batch(self, thetas, rng, n_obs=None):
        rng = as_generator(rng)
        n_total = self._n_obs(n_obs)
        if n_total % 2 != 0:
            raise DomainError("two-group datasets need an even observation count")
        half = n_total // 2
        mu = np.atleast_2d(thetas)
        z = rng.standard_normal(size=(mu.shape[0], 2, half))
        logs = np.repeat(mu[:, :, None], half, axis=2) + self.sigma * z
        with np.errstate(over="ignore"):  # an overflow is inf, which simulate_checked names
            return np.exp(logs).reshape(mu.shape[0], n_total)

    def _log_likelihood(self, mu, obs, labels) -> np.ndarray:
        if labels is None:
            raise DomainError("two-group likelihood needs group labels")
        positive = (obs > 0).all(axis=1)
        logs = np.log(np.where(positive[:, None], obs, 1.0))
        out = np.zeros(mu.shape[:2])
        for g in (0, 1):
            # contiguous rows, so each row sums pairwise as a 1-D array does
            lg = np.ascontiguousarray(logs[:, labels == g])
            n = lg.shape[1]
            sq = ((lg[:, None, :] - mu[:, :, g][:, :, None]) ** 2).sum(axis=2)
            out += (
                -0.5 * n * (_LOG_2PI + 2.0 * np.log(self.sigma))
                - lg.sum(axis=1)[:, None]
                - sq / (2.0 * self.sigma**2)
            )
        # a dataset with a value that is not positive has likelihood 0
        out[~positive] = -np.inf
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
