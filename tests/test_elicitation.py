"""Prior elicitation via pushforward quantile matching."""

import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simflow import (
    BetaPriorFamily,
    ElicitationProblem,
    beta_binomial_problem,
    elicit_prior,
    elicitation_loss,
    model_implied_stats,
)
from simflow.elicitation import _NM_SUCCESS, INVALID_PENALTY, _crn_draws, _nelder_mead


def _expert_stats(lam, n_trials=20, sims=100_000, seed=77):
    """Probe quantiles of the dithered count under a reference Beta prior."""
    problem = beta_binomial_problem(np.zeros(5), n_trials=n_trials)
    return model_implied_stats(problem, lam, seed=seed, sims=sims)


def test_loss_zero_under_crn_identity():
    lam = np.array([3.0, 7.0])
    problem = beta_binomial_problem(np.zeros(5), n_trials=20)
    expert = model_implied_stats(problem, lam, seed=4)
    problem = beta_binomial_problem(expert, n_trials=20)
    assert elicitation_loss(problem, lam, seed=4) == 0.0


def test_loss_deterministic_per_seed():
    problem = beta_binomial_problem(_expert_stats(np.array([2.0, 5.0])))
    a = elicitation_loss(problem, [1.5, 4.0], seed=9)
    b = elicitation_loss(problem, [1.5, 4.0], seed=9)
    c = elicitation_loss(problem, [1.5, 4.0], seed=10)
    assert a == b
    assert a != c


def test_target_column_order_invariance():
    family = BetaPriorFamily()

    def push_ab(thetas, noise):
        return np.column_stack([thetas, thetas**2])

    def push_ba(thetas, noise):
        return np.column_stack([thetas**2, thetas])

    lam = np.array([2.0, 3.0])
    pa = ElicitationProblem(family, push_ab, ("a", "b"), np.zeros(10))
    stats_ab = model_implied_stats(pa, lam, seed=3)
    pb = ElicitationProblem(family, push_ba, ("b", "a"), np.zeros(10))
    stats_ba = model_implied_stats(pb, lam, seed=3)
    # stats are flattened target-major, so swapping columns swaps halves
    assert np.array_equal(stats_ab[:5], stats_ba[5:])
    assert np.array_equal(stats_ab[5:], stats_ba[:5])


def test_loss_landscape_prefers_truth():
    lam_true = np.array([3.0, 7.0])
    problem = beta_binomial_problem(_expert_stats(lam_true))
    at_truth = elicitation_loss(problem, lam_true, seed=2)
    nearby = elicitation_loss(problem, lam_true + np.array([2.0, 0.0]), seed=2)
    assert at_truth < nearby


def test_recovers_reference_prior():
    lam_true = np.array([3.0, 7.0])
    problem = beta_binomial_problem(_expert_stats(lam_true))
    result = elicit_prior(problem, lam0=np.array([1.0, 1.0]), seed=0)
    assert np.all(np.abs(result.lam - lam_true) / lam_true < 0.10)
    assert result.n_expert_stats == 5
    assert result.lam_dim == 2


def test_perfect_start_keeps_zero_loss():
    lam = np.array([2.0, 4.0])
    problem = beta_binomial_problem(np.zeros(5), n_trials=20)
    expert = model_implied_stats(problem, lam, seed=6)
    problem = beta_binomial_problem(expert, n_trials=20)
    result = elicit_prior(problem, lam0=lam, seed=6)
    assert result.loss == 0.0


def test_loss_trace_nonincreasing():
    problem = beta_binomial_problem(_expert_stats(np.array([3.0, 7.0])))
    result = elicit_prior(problem, lam0=np.array([1.0, 1.0]), seed=1)
    trace = np.array(result.loss_trace)
    assert np.all(np.diff(trace) <= 0)
    assert result.n_evaluations >= trace.size


def test_invalid_hyperparameters_get_penalty():
    problem = beta_binomial_problem(_expert_stats(np.array([2.0, 2.0])))
    assert elicitation_loss(problem, [-1.0, 2.0], seed=0) == INVALID_PENALTY
    assert elicitation_loss(problem, [np.nan, 2.0], seed=0) == INVALID_PENALTY
    assert elicitation_loss(problem, [1.0, 2.0, 3.0], seed=0) == INVALID_PENALTY


def test_result_always_valid():
    problem = beta_binomial_problem(_expert_stats(np.array([0.5, 0.5])))
    result = elicit_prior(problem, lam0=np.array([5.0, 5.0]), seed=3)
    assert np.all(result.lam > 0)
    assert np.all(np.isfinite(result.lam))


def test_elicit_validates_start():
    problem = beta_binomial_problem(_expert_stats(np.array([2.0, 2.0])))
    with pytest.raises(ValueError):
        elicit_prior(problem, lam0=np.array([1.0]), seed=0)
    with pytest.raises(ValueError):
        elicit_prior(problem, lam0=np.array([-1.0, 1.0]), seed=0)


def test_expert_stats_shape_checked():
    with pytest.raises(ValueError):
        beta_binomial_problem(np.zeros(4), n_trials=20)


def test_pushforward_shape_checked():
    family = BetaPriorFamily()

    def bad_push(thetas, noise):
        return thetas

    problem = ElicitationProblem(family, bad_push, ("a",), np.zeros(5))
    with pytest.raises(ValueError):
        model_implied_stats(problem, [1.0, 1.0], seed=0)


class _CountingBeta(BetaPriorFamily):
    """A Beta family that counts the points its quantile function is asked for."""

    def __init__(self):
        self.points = 0

    def ppf(self, lam, u):
        self.points += np.size(u)
        return super().ppf(lam, u)


def _bracketed_and_reference(lam, sims, n_trials, seed):
    problem = beta_binomial_problem(np.zeros(5), n_trials=n_trials, sims_per_eval=sims)
    u, noise, grid, cell = _crn_draws(seed, sims, problem.noise_dim)
    ppf = partial(problem.prior_family.ppf, np.asarray(lam, dtype=float))
    return (problem.pushforward.bracketed(ppf, u, noise, grid, cell),
            problem.pushforward(ppf(u), noise))


@settings(max_examples=150, deadline=None)
@given(log_lam=st.tuples(st.floats(-9, 9), st.floats(-9, 9)),
       sims=st.integers(1, 3000), n_trials=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(log_lam=(np.log(0.002), np.log(10.0)), sims=10_000, n_trials=20, seed=0)
def test_bracketed_counts_equal_full_inversion(log_lam, sims, n_trials, seed):
    got, want = _bracketed_and_reference(np.exp(log_lam), sims, n_trials, seed)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_decreasing_grid_falls_back_to_full_inversion():
    # betaincinv(0.002, 10, u) underflows from 2.2e-308 at u = 108/447 to 0.0 at
    # 109/447, two points of the grid at sims = 10 000 and n_trials = 20
    lam = np.array([0.002, 10.0])
    problem = beta_binomial_problem(np.zeros(5), n_trials=20)
    grid = _crn_draws(0, 10_000, problem.noise_dim)[2]
    assert grid.size == 448
    assert np.any(np.diff(problem.prior_family.ppf(lam, grid)) < 0)
    family = _CountingBeta()
    counting = dataclasses.replace(problem, prior_family=family)
    stats = model_implied_stats(counting, lam, seed=0)
    assert family.points == 448 + 10_000
    got, want = _bracketed_and_reference(lam, 10_000, 20, seed=0)
    assert np.array_equal(got, want)
    assert np.array_equal(stats, np.quantile(want, problem.probes, axis=0).T.reshape(-1))


def test_one_loss_inverts_the_prior_at_few_points():
    lam = np.array([2.0, 3.0])
    problem = beta_binomial_problem(_expert_stats(lam), n_trials=20, sims_per_eval=10_000)
    family = _CountingBeta()
    counting = dataclasses.replace(problem, prior_family=family)
    loss = elicitation_loss(counting, lam, seed=0)
    assert family.points < 1500
    # the same loss as a pushforward that is not the count callable, which
    # takes the full inversion
    full = dataclasses.replace(problem, pushforward=lambda t, n: problem.pushforward(t, n))
    assert loss == elicitation_loss(full, lam, seed=0)


@pytest.mark.parametrize("sims", [0, -5, 2.7, True])
def test_sims_per_eval_must_be_a_whole_number(sims):
    with pytest.raises(ValueError, match="sims_per_eval"):
        ElicitationProblem(BetaPriorFamily(), lambda t, n: t[:, None], ("a",),
                           np.zeros(5), sims_per_eval=sims)
    problem = beta_binomial_problem(np.zeros(5), n_trials=20, sims_per_eval=100)
    with pytest.raises(ValueError, match="sims"):
        model_implied_stats(problem, [2.0, 3.0], seed=0, sims=sims)


def _objective(kind, center, scale):
    """A test surface for Nelder-Mead: a quadratic, the same rounded down to
    steps of 1/scale (flat stretches and tied vertices), or the quadratic
    inside |x - center| <= scale and INVALID_PENALTY outside (a plateau)."""
    def f(x):
        q = float(((x - center) ** 2).sum())
        if kind == "step":
            return float(np.floor(q * scale) / scale)
        if kind == "plateau" and np.any(np.abs(x - center) > scale):
            return INVALID_PENALTY
        return q
    return f


def _recorded(f):
    # Records each point, then writes into it: scipy passes a copy, so an
    # objective that scribbles on its argument must not move the simplex.
    points = []

    def g(x):
        points.append(x.copy())
        fx = f(x)
        x.fill(np.nan)
        return fx
    return g, points


# Half-integer coordinates with unit spreads make the step surface tie often.
_coords = st.lists(st.one_of(st.integers(-6, 6).map(lambda k: k / 2),
                             st.floats(-3, 3, width=32)), min_size=3, max_size=3)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["quadratic", "step", "plateau"]), n=st.integers(1, 3),
       center=_coords, z0=_coords, spread=st.sampled_from([0.25, 1.0, 1e-3, 2.0]),
       scale=st.sampled_from([0.5, 1.0, 4.0]),
       tol=st.sampled_from([0.0, 1e-8, 1e-4, 1e-2, 0.3]), maxiter=st.integers(1, 400))
# the first sort sees tied losses (2, 2, 1, 1), which np.argsort's default
# kind orders differently from a stable sort on some hosts
@example(kind="step", n=3, center=[0.5, 1.0, 1.0], z0=[0.0, 0.0, 0.0], spread=1.0,
         scale=1.0, tol=1e-4, maxiter=500)
# tolerance 0 never stops early: the budget runs out, as in `elicit --tolerance 0`
@example(kind="quadratic", n=2, center=[1.0, 1.0, 0.0], z0=[0.0, 0.0, 0.0], spread=0.25,
         scale=1.0, tol=0.0, maxiter=30)
@example(kind="plateau", n=3, center=[1.0, 1.0, 1.0], z0=[0.0, 0.0, 0.0], spread=0.25,
         scale=0.5, tol=1e-4, maxiter=500)
def test_nelder_mead_follows_scipy_step_for_step(kind, n, center, z0, spread, scale, tol,
                                                 maxiter):
    from scipy import optimize

    center, z0 = np.array(center[:n]), np.array(z0[:n])
    simplex = np.tile(z0, (n + 1, 1))
    simplex[1:] += spread * np.eye(n)
    f = _objective(kind, center, scale)
    ours, our_points = _recorded(f)
    theirs, their_points = _recorded(f)

    x, fun, nit, message = _nelder_mead(ours, simplex, xatol=tol, fatol=tol**2,
                                        maxiter=maxiter)
    res = optimize.minimize(theirs, z0, method="Nelder-Mead",
                            options={"xatol": tol, "fatol": tol**2, "maxiter": maxiter,
                                     "initial_simplex": simplex})
    assert len(our_points) == len(their_points) == res.nfev
    assert all(np.array_equal(a, b) for a, b in zip(our_points, their_points))
    assert np.array_equal(x, res.x)
    assert fun == res.fun
    assert nit == res.nit
    assert (message == _NM_SUCCESS) == res.success
    assert message == res.message

