"""Simulation-based prior elicitation.

An expert supplies target summary statistics; the toolkit searches prior
hyperparameters whose simulated pushforward matches them. The loss is
evaluated with common random numbers (one fixed base stream per
optimization run), so the search sees a deterministic surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import isqrt
from typing import Callable

import numpy as np

from .models import _count
from .rng import substream

__all__ = [
    "BetaPriorFamily",
    "ElicitationProblem",
    "model_implied_stats",
    "elicitation_loss",
    "ElicitationResult",
    "elicit_prior",
    "beta_binomial_problem",
]

INVALID_PENALTY = 1e10
DEFAULT_PROBES = (0.1, 0.25, 0.5, 0.75, 0.9)


class BetaPriorFamily:
    """Beta(lam[0], lam[1]) prior on a probability, log-parameterized."""

    name = "beta"
    lam_dim = 2

    def valid(self, lam: np.ndarray) -> bool:
        lam = np.asarray(lam, dtype=float)
        return bool(np.all(np.isfinite(lam)) and np.all(lam > 0.0))

    def ppf(self, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        from scipy import special

        return special.betaincinv(lam[0], lam[1], u)

    def to_unconstrained(self, lam) -> np.ndarray:
        return np.log(np.asarray(lam, dtype=float))

    def from_unconstrained(self, z) -> np.ndarray:
        return np.exp(np.asarray(z, dtype=float))


@dataclass(frozen=True)
class ElicitationProblem:
    """Prior family plus a pushforward simulator and expert targets.

    pushforward(thetas (sims,), noise (sims, noise_dim)) returns a
    (sims, n_targets) matrix of per-simulation target values. Model-implied
    statistics are the empirical probe quantiles of each target column,
    flattened target-major, and are matched against expert_stats by
    summed squared error.
    """

    prior_family: object
    pushforward: Callable[[np.ndarray, np.ndarray], np.ndarray]
    target_names: tuple[str, ...]
    expert_stats: np.ndarray
    sims_per_eval: int = 10_000
    probes: tuple[float, ...] = DEFAULT_PROBES
    noise_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sims_per_eval", _count("sims_per_eval", self.sims_per_eval))
        stats_arr = np.asarray(self.expert_stats, dtype=float).reshape(-1)
        object.__setattr__(self, "expert_stats", stats_arr)
        expected = len(self.target_names) * len(self.probes)
        if stats_arr.size != expected:
            raise ValueError(
                f"expected {expected} expert statistics "
                f"({len(self.target_names)} targets x {len(self.probes)} probes), "
                f"got {stats_arr.size}"
            )


@lru_cache(maxsize=1)
def _crn_draws(seed: int, sims: int, noise_dim: int) -> tuple[np.ndarray, ...]:
    """The common random numbers of a search: u (sims,) and noise (sims,
    noise_dim) from stream (seed, 0), drawn once and shared read-only by
    every evaluation.

    With them come the u-grid of `_Counts.bracketed`, the k + 1 points j / k
    for k = isqrt(sims * (noise_dim - 1)) (sims times the number of trials
    of a count pushforward; sims when noise_dim < 2), and the cell of each u
    on it: grid[cell] <= u < grid[cell + 1], found by searchsorted on the
    very floats the grid is evaluated at.
    """
    rng = substream(seed, 0)
    u = rng.random(sims)
    noise = rng.random((sims, noise_dim))
    k = isqrt(sims * max(noise_dim - 1, 1))
    grid = np.arange(k + 1) / k
    cell = np.searchsorted(grid, u, side="right") - 1
    for a in (u, noise, grid, cell):
        a.flags.writeable = False
    return u, noise, grid, cell


def model_implied_stats(
    problem: ElicitationProblem, lam, seed: int, sims: int | None = None
) -> np.ndarray:
    """Probe quantiles of the pushforward at lam, under the CRN stream."""
    sims = problem.sims_per_eval if sims is None else _count("sims", sims)
    u, noise, grid, cell = _crn_draws(seed, sims, problem.noise_dim)
    ppf = partial(problem.prior_family.ppf, np.asarray(lam, dtype=float))
    if isinstance(problem.pushforward, _Counts):
        values = problem.pushforward.bracketed(ppf, u, noise, grid, cell)
    else:
        values = np.asarray(problem.pushforward(ppf(u), noise), dtype=float)
    if values.shape != (sims, len(problem.target_names)):
        raise ValueError("pushforward returned the wrong shape")
    qs = np.quantile(values, problem.probes, axis=0)
    return qs.T.reshape(-1)


def elicitation_loss(problem: ElicitationProblem, lam, seed: int) -> float:
    """Summed squared error between implied and expert statistics.

    Invalid hyperparameters get a large constant penalty instead of an
    exception so derivative-free search can step over them.
    """
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.size != problem.prior_family.lam_dim or not problem.prior_family.valid(lam):
        return INVALID_PENALTY
    implied = model_implied_stats(problem, lam, seed)
    return float(((implied - problem.expert_stats) ** 2).sum())


@dataclass(frozen=True)
class ElicitationResult:
    lam: np.ndarray
    loss: float
    converged: bool
    n_iterations: int
    n_evaluations: int
    loss_trace: tuple[float, ...]
    n_expert_stats: int
    lam_dim: int
    seed: int
    metadata: dict = field(default_factory=dict)


def elicit_prior(
    problem: ElicitationProblem,
    lam0,
    seed: int = 0,
    tolerance: float = 1e-4,
    max_iter: int = 500,
) -> ElicitationResult:
    """Derivative-free search for hyperparameters matching the expert.

    Nelder-Mead runs in the family's unconstrained parameterization with
    the CRN loss. The trace records the best loss after each improvement
    and is nonincreasing. No identifiability is claimed; the result records
    how many expert statistics constrain how many hyperparameters.
    """
    family = problem.prior_family
    lam0 = np.asarray(lam0, dtype=float).reshape(-1)
    if lam0.size != family.lam_dim:
        raise ValueError(f"lam0 must have {family.lam_dim} entries")
    if not family.valid(lam0):
        raise ValueError("lam0 is not a valid hyperparameter vector")

    trace: list[float] = []
    evals = 0

    def objective(z: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        lam = family.from_unconstrained(z)
        loss = (
            INVALID_PENALTY
            if not family.valid(lam)
            else elicitation_loss(problem, lam, seed)
        )
        if not trace or loss < trace[-1]:
            trace.append(loss)
        return loss

    # The CRN loss is locally flat (probe quantiles move only when a theta
    # draw crosses a noise value), so the default initial simplex is far too
    # small to see any variation. Start with a spread of 0.25 in the
    # unconstrained space, about a 28% multiplicative move per coordinate.
    z0 = family.to_unconstrained(lam0)
    simplex = np.tile(z0, (z0.size + 1, 1))
    for k in range(z0.size):
        simplex[k + 1, k] += 0.25
    x, fun, nit, message = _nelder_mead(objective, simplex, xatol=tolerance,
                                        fatol=tolerance**2, maxiter=max_iter)
    lam_best = family.from_unconstrained(x)
    return ElicitationResult(
        lam=np.asarray(lam_best, dtype=float),
        loss=float(fun),
        converged=message == _NM_SUCCESS,
        n_iterations=int(nit),
        n_evaluations=evals,
        loss_trace=tuple(trace),
        n_expert_stats=int(problem.expert_stats.size),
        lam_dim=int(family.lam_dim),
        seed=int(seed),
        metadata={
            "probes": list(problem.probes),
            "sims_per_eval": problem.sims_per_eval,
            "message": message,
        },
    )


_NM_SUCCESS = "Optimization terminated successfully."
_NM_MAXITER = "Maximum number of iterations has been exceeded."


def _nelder_mead(objective, simplex, xatol: float, fatol: float, maxiter: int):
    """Minimize objective from an (N + 1, N) initial simplex; returns
    (x, fun, nit, message).

    A step-for-step port of scipy 1.17's `_minimize_neldermead` for the
    options `elicit_prior` uses (given simplex, no bounds, not adaptive, no
    evaluation limit), so it evaluates the same points in the same order and
    ends on the same x, fun, iteration count and message. Importing
    `scipy.optimize` for it would cost about 0.27 s of every `elicit` run.
    The CRN loss has flat stretches and ties, so the vertices are ordered by
    `np.argsort` with its default kind, as scipy does: a stable sort could
    order tied vertices differently and change the path.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full((n + 1,), np.inf, dtype=float)

    def func(x):
        # A copy, as scipy passes: the vertices are overwritten in place.
        return objective(np.copy(x))

    for k in range(n + 1):
        fsim[k] = func(sim[k])
    # scipy sorts twice here (once in a `finally`, once after it).
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break

        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(xr)
        shrink = False

        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(xe)
            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        else:
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(xc)
                if fxc <= fxr:
                    sim[-1] = xc
                    fsim[-1] = fxc
                else:
                    shrink = True
            else:
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = func(xcc)
                if fxcc < fsim[-1]:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    message = _NM_MAXITER if iterations >= maxiter else _NM_SUCCESS
    return sim[0], np.min(fsim), iterations, message


# Relative widening of each bracket of `_Counts.bracketed`. Computed
# betaincinv is monotone in u only up to its rounding: at adjacent u it was
# seen to step down by up to about 2000 ulps (2**-41 of the value, at a near
# 5e-4), so a bracket widened by one ulp could miss its own theta. 2**-30 is
# 2000 times that wiggle and still far narrower than any bracket.
_BRACKET_SLACK = 2.0**-30


class _Counts:
    """The dithered-count pushforward of `beta_binomial_problem`: row i counts
    its noise values at or below theta_i, all but the last, and adds the last
    as the dither."""

    def __call__(self, thetas: np.ndarray, noise: np.ndarray) -> np.ndarray:
        counts = (noise[:, :-1] <= thetas[:, None]).sum(axis=1)
        return (counts + noise[:, -1])[:, None]

    def bracketed(self, ppf, u, noise, grid, cell) -> np.ndarray:
        """self(ppf(u), noise), bit for bit, with ppf evaluated only at the
        grid and at the rows whose count the grid leaves open.

        A quantile function is nondecreasing, so theta_i = ppf(u_i) lies
        between ppf at the grid points around u_i. Where no noise value of
        row i falls inside that (widened) bracket, the count is the same
        anywhere in it and ppf(u_i) is never needed. Grid values that are
        not finite or step down (betaincinv(0.002, 10, .) underflows from
        2.2e-308 to 0 around u = 0.24) fall back to ppf at every u.
        """
        q = ppf(grid)
        if not (np.all(np.isfinite(q)) and np.all(q[1:] >= q[:-1])):
            return self(ppf(u), noise)
        lo = np.nextafter(q[cell] * (1.0 - _BRACKET_SLACK), -np.inf)
        hi = np.nextafter(q[cell + 1] * (1.0 + _BRACKET_SLACK), np.inf)
        trials = noise[:, :-1]
        counts = (trials <= lo[:, None]).sum(axis=1)
        open_rows = np.flatnonzero(counts != (trials <= hi[:, None]).sum(axis=1))
        thetas = ppf(u[open_rows])
        counts[open_rows] = (trials[open_rows] <= thetas[:, None]).sum(axis=1)
        return (counts + noise[:, -1])[:, None]


def beta_binomial_problem(
    expert_stats,
    n_trials: int = 20,
    sims_per_eval: int = 10_000,
    probes: tuple[float, ...] = DEFAULT_PROBES,
) -> ElicitationProblem:
    """Elicit a Beta prior from probe quantiles of a binomial count.

    The count pushforward sums n_trials uniform indicators against the
    drawn probability, which keeps the CRN surface smooth in lam. Raw
    integer counts would make the probe quantiles integer too, turning the
    loss into a unit-step staircase the optimizer cannot descend, so one
    extra shared uniform dithers each count within its unit cell. Dithered
    counts lie in [0, n_trials + 1], and so must the expert values.
    """
    n_trials = int(n_trials)
    stats_arr = np.asarray(expert_stats, dtype=float)
    if not np.all((stats_arr >= 0) & (stats_arr <= n_trials + 1)):
        raise ValueError(f"expert counts must lie in [0, {n_trials + 1}], the range of "
                         f"a dithered count in {n_trials} trials")

    return ElicitationProblem(
        prior_family=BetaPriorFamily(),
        pushforward=_Counts(),
        target_names=("count",),
        expert_stats=expert_stats,
        sims_per_eval=sims_per_eval,
        probes=probes,
        noise_dim=n_trials + 1,
    )
