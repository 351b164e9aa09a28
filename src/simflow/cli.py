"""Batch command line front-end.

Every pipeline is reachable as a subcommand driven by an INI-style config
file, command line flags, or both, with flags taking precedence. Runs write
a JSON report (and optional CSV / SVG files) into the output directory.

Seed resolution order: --seed flag, then [pipeline] seed in the config,
then the SIMFLOW_SEED environment variable, then 0.

Exit codes: 0 success, 2 configuration or validation error (nothing was
simulated), 3 runtime or budget error (a partial report is still written).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import figures, report
from .approximators import (
    AbcRejection,
    ExactConjugate,
    PerturbedConjugate,
    RandomWalkMetropolis,
    abc_rejection,
)
from .calibration import (
    EstimatorSpec,
    SbcConfig,
    absolute_error,
    estimator_accuracy,
    posterior_mean_estimator,
    power_analysis,
    run_frequentist_calibration,
    run_sbc,
    sample_mean_estimator,
    squared_error,
)
from .compare import (
    ModelEntry,
    marginal_likelihood_mc,
    posterior_model_probs,
    power_scale_weights,
    sensitivity_sweep,
    weighted_mean,
    weighted_quantile,
)
from .diagnostics import band_contains, rank_histogram
from .elicitation import beta_binomial_problem, elicit_prior
from .errors import BudgetError, CapabilityError, DomainError, RetryError
from .models import AnalyticPosterior, Dataset, make_model, param_target
from .predictive import (
    frequentist_predictive_check,
    prior_pushforward_check,
    run_posterior_sbc,
    run_ppc,
)
from .rng import substream
from .simtest import (
    SIDES,
    DISTANCE_REGISTRY,
    STATISTIC_REGISTRY,
    AnalyticZTest,
    SimulationTest,
)

__all__ = ["main", "ConfigError"]

SCHEMA_VERSION = "2.0"


class ConfigError(ValueError):
    """Bad or incomplete run configuration; nothing was simulated."""


# ---------------------------------------------------------------------------
# Config plumbing


def _parse_scalar(text: str):
    t = text.strip()
    low = t.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        return t


def _load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if path is not None:
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
    return cfg


def _section(cfg: configparser.ConfigParser, name: str) -> dict:
    if not cfg.has_section(name):
        return {}
    return {k: _parse_scalar(v) for k, v in cfg.items(name)}


def _parse_kv(pairs: str | None) -> dict:
    out = {}
    if not pairs:
        return out
    for item in pairs.split(","):
        if not item.strip():
            continue
        key, sep, val = item.partition("=")
        if not sep:
            raise ConfigError(f"expected key=value, got {item!r}")
        out[key.strip()] = _parse_scalar(val)
    return out


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _pick(flag_value, section: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    return section.get(key, default)


def _count(flag_value, pipe: dict, key: str, default: int, low: int = 1) -> int:
    """An integer setting from its flag, else [pipeline], that must be >= low."""
    n = int(_pick(flag_value, pipe, key, default))
    if n < low:
        raise ConfigError(f"{key} must be at least {low}, got {n}")
    return n


def _theta(text: str, flag: str, model) -> list[float]:
    """A parameter vector flag, one number per model parameter."""
    theta = _floats(text)
    if len(theta) != model.param_dim:
        raise ConfigError(f"{flag} needs {model.param_dim} number(s) for {model.name}, "
                          f"got {text!r}")
    return theta


def _resolve_seed(args, pipeline: dict) -> tuple[int, str]:
    if args.seed is not None:
        seed, source, name = args.seed, "flag", "--seed"
    elif "seed" in pipeline:
        seed, source, name = pipeline["seed"], "config", "[pipeline] seed"
    elif "SIMFLOW_SEED" in os.environ:
        seed, source, name = os.environ["SIMFLOW_SEED"], "env", "SIMFLOW_SEED"
    else:
        return 0, "default"
    try:
        # via str, so a config seed parsed as 3.5 or true is refused, not truncated
        seed = int(str(seed))
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ConfigError(f"{name} must not be negative, got {seed}")
    return seed, source


def _build_model(args, cfg):
    sect = _section(cfg, "model")
    name = getattr(args, "model", None) or sect.pop("name", None)
    if name is None:
        raise ConfigError("no model selected; pass --model or set [model] name")
    sect.update(_parse_kv(getattr(args, "model_params", None)))
    try:
        model = make_model(name, **sect)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return model, {"name": name, **sect}


_APPROXIMATORS = {
    "abc": lambda distance="mean-distance", **kw: AbcRejection(_distance(distance), **kw),
    "exact": ExactConjugate,
    "perturbed": PerturbedConjugate,
    "rwm": RandomWalkMetropolis,
}


def _build_approximator(args, cfg):
    sect = _section(cfg, "approximator")
    name = getattr(args, "approximator", None) or sect.pop("name", "exact")
    sect.update(_parse_kv(getattr(args, "approximator_params", None)))
    if name not in _APPROXIMATORS:
        known = ", ".join(sorted(_APPROXIMATORS))
        raise ConfigError(f"unknown approximator {name!r}; known: {known}")
    try:
        return _APPROXIMATORS[name](**sect), {"name": name, **sect}
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _statistic(name: str, model):
    if name not in STATISTIC_REGISTRY:
        known = ", ".join(sorted(STATISTIC_REGISTRY))
        raise ConfigError(f"unknown statistic {name!r}; known: {known}")
    statistic = STATISTIC_REGISTRY[name]
    # one all-zero dataset of the model's shape shows whether the statistic applies
    shape = model.data_shape
    try:
        statistic.on_data_batch(np.zeros((1, shape.n_obs, shape.obs_dim)),
                                model.group_labels(shape.n_obs))
    except ValueError as exc:
        raise ConfigError(f"statistic {name!r} does not apply to {model.name}: {exc}") from None
    return statistic


def _distance(name: str):
    if name not in DISTANCE_REGISTRY:
        known = ", ".join(sorted(DISTANCE_REGISTRY))
        raise ConfigError(f"unknown distance {name!r}; known: {known}")
    return DISTANCE_REGISTRY[name]


def _estimator(name: str, model) -> EstimatorSpec:
    if name == "sample-mean":
        return sample_mean_estimator
    if name == "posterior-mean":
        return posterior_mean_estimator(model)
    raise ConfigError(
        f"unknown estimator {name!r}; known: posterior-mean, sample-mean"
    )


def _load_data(args) -> Dataset:
    path = getattr(args, "data", None)
    if path is None:
        raise ConfigError("this subcommand needs --data pointing at a CSV file")
    if not Path(path).is_file():
        raise ConfigError(f"data file not found: {path}")
    try:
        return Dataset.from_csv(path)
    except Exception as exc:
        raise ConfigError(f"cannot read dataset from {path}: {exc}") from exc


def _targets(args, model):
    text = getattr(args, "targets", None)
    if not text:
        return None
    out = []
    for part in text.split(","):
        try:
            idx = int(part)
        except ValueError:
            raise ConfigError(f"targets must be parameter indices, got {part!r}") from None
        if not 0 <= idx < model.param_dim:
            raise ConfigError(f"target index {idx} outside 0..{model.param_dim - 1}")
        out.append(param_target(idx))
    return tuple(out)


# ---------------------------------------------------------------------------
# Payload helpers


def _payload(result, drop=(), **extra) -> dict:
    """The result dataclass's fields, minus drop, plus extra."""
    out = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
           if f.name not in drop}
    out.update(extra)
    return out


def _histogram_block(values, bins: int = 30) -> dict:
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=bins)
    return {"edges": edges, "counts": counts}


def _pvalue_block(pset, verdict) -> dict:
    _, diff = band_contains(verdict.band, pset.values)
    band = _payload(verdict.band, drop=("count_lower", "count_upper", "s", "granularity"))
    return _payload(verdict, pvalues=pset.values, granularity=pset.granularity,
                    histogram=rank_histogram(pset, verdict.bins), ecdf_diff=diff, band=band)


# A CSV table is (header, columns): one sequence or 1-D array per column.
# report.write_csv builds and formats the rows only if csv output is asked for.


def _sbc_csv(result) -> dict:
    pvalues = [np.asarray(result.pvalues[name].values, dtype=float)
               for name in result.target_names]
    sizes = [p.size for p in pvalues]
    columns = [np.repeat(result.target_names, sizes),
               np.concatenate([np.arange(n) for n in sizes]), np.concatenate(pvalues)]
    return {"pvalues.csv": (["target", "index", "pvalue"], columns)}


def _vector_csv(filename: str, values) -> dict:
    values = np.asarray(values, dtype=float).reshape(-1)
    return {filename: (["index", "value"], [range(values.size), values])}


# ---------------------------------------------------------------------------
# Subcommand handlers: each takes (args, config, [pipeline] section, seed)
# and returns (results payload, config echo, csv tables)


def _cmd_sbc(args, cfg, pipe, seed):
    model, model_echo = _build_model(args, cfg)
    approx, approx_echo = _build_approximator(args, cfg)
    try:
        run_cfg = SbcConfig(
            s=int(_pick(args.s, pipe, "s", 1000)),
            m=int(_pick(args.m, pipe, "m", 99)),
            seed=seed,
            targets=_targets(args, model),
            bins=int(_pick(args.bins, pipe, "bins", 10)),
            band_coverage=float(_pick(args.band_coverage, pipe, "band_coverage", 0.95)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.command == "post-sbc":
        result = run_posterior_sbc(model, approx, _load_data(args), run_cfg)
    else:
        result = run_sbc(model, approx, run_cfg)
    targets = {name: _pvalue_block(result.pvalues[name], result.verdicts[name])
               for name in result.target_names}
    echo = {"model": model_echo, "approximator": approx_echo,
            "pipeline": {"s": run_cfg.s, "m": run_cfg.m, "bins": run_cfg.bins,
                         "band_coverage": run_cfg.band_coverage}}
    return (_payload(result, drop=("target_names", "pvalues", "verdicts"), targets=targets),
            echo, _sbc_csv(result))


def _parse_sampling(text: str):
    """normal:loc,scale (default 0,1) as a closed form; t:df,loc,scale via scipy."""
    name, _, rest = text.partition(":")
    params = _floats(rest) if rest else []
    if name == "normal":
        try:
            return AnalyticPosterior("normal", params + [0.0, 1.0][len(params):])
        except DomainError:
            raise ConfigError(f"normal sampling law needs normal:loc,scale with scale > 0, "
                              f"got {text!r}") from None
    if name == "t":
        if not 1 <= len(params) <= 3 or not params[0] > 0 or (
                len(params) == 3 and not params[2] > 0):
            raise ConfigError(f"t sampling law needs t:df,loc,scale with df > 0 and "
                              f"scale > 0, e.g. t:9,0,1, got {text!r}")
        from scipy import stats

        return stats.t(*params)
    raise ConfigError(f"unknown sampling distribution {text!r}; use normal:loc,scale or t:df,loc,scale")


def _cmd_freq_calibrate(args, cfg, pipe, seed):
    model, model_echo = _build_model(args, cfg)
    if args.theta_star is None:
        raise ConfigError("freq-calibrate needs --theta-star")
    if args.sampling is None:
        raise ConfigError("freq-calibrate needs --sampling, e.g. normal:0.0,0.316")
    estimator = _estimator(args.estimator, model)
    sampling = _parse_sampling(args.sampling)
    s = _count(args.s, pipe, "s", 1000, low=10)
    theta_star = _theta(args.theta_star, "--theta-star", model)
    alphas = _floats(args.alphas)
    if not all(0.0 < a < 1.0 for a in alphas):
        raise ConfigError(f"--alphas must lie in (0, 1), got {args.alphas!r}")
    result = run_frequentist_calibration(
        model,
        theta_star,
        estimator,
        sampling,
        s=s,
        seed=seed,
        alphas=tuple(alphas),
        bins=_count(args.bins, pipe, "bins", 10, low=2),
    )
    payload = _payload(result, drop=("pvalues", "verdict"),
                       target=_pvalue_block(result.pvalues, result.verdict))
    echo = {"model": model_echo,
            "pipeline": {"s": result.s, "estimator": estimator.name,
                         "theta_star": theta_star, "sampling": args.sampling,
                         "alphas": alphas}}
    return payload, echo, _vector_csv("pvalues.csv", result.pvalues.values)


def _build_test(args, model, seed):
    if args.test == "z":
        if args.sigma is None:
            raise ConfigError("the z test needs --sigma (known sdev of one observation)")
        if not args.sigma > 0:
            raise ConfigError(f"--sigma must be positive, got {args.sigma}")
        theta0 = _theta(args.theta0, "--theta0", model)[0] if args.theta0 else 0.0
        return AnalyticZTest(theta0, float(args.sigma), side=args.side)
    if args.test == "sim":
        if args.theta0 is None:
            raise ConfigError("the simulation test needs --theta0")
        if args.null_s < 1:
            raise ConfigError(f"--null-s must be at least 1, got {args.null_s}")
        return SimulationTest(
            model,
            _theta(args.theta0, "--theta0", model),
            _statistic(args.statistic, model),
            side=args.side,
            s=int(args.null_s),
            seed=seed + 1,
        )
    raise ConfigError(f"unknown test {args.test!r}; known: sim, z")


def _cmd_power(args, cfg, pipe, seed):
    model, model_echo = _build_model(args, cfg)
    alpha = float(_pick(args.alpha, pipe, "alpha", 0.05))
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    s = _count(args.s, pipe, "s", 1000)
    theta_star = (None if args.theta_star in (None, "prior")
                  else _theta(args.theta_star, "--theta-star", model))
    test = _build_test(args, model, seed)
    result = power_analysis(model, theta_star, test, alpha=alpha, s=s, seed=seed)
    echo = {"model": model_echo,
            "pipeline": {"s": result.s, "alpha": result.alpha, "test": args.test,
                         "side": args.side,
                         "theta_star": args.theta_star or "prior"}}
    return _payload(result, model=model.name), echo, {}


def _cmd_accuracy(args, cfg, pipe, seed):
    model, model_echo = _build_model(args, cfg)
    estimator = _estimator(args.estimator, model)
    distance = {"squared": squared_error, "absolute": absolute_error}.get(args.distance)
    if distance is None:
        raise ConfigError(f"unknown distance {args.distance!r}; known: absolute, squared")
    theta_star = (None if args.theta_star in (None, "prior")
                  else _theta(args.theta_star, "--theta-star", model))
    s = _count(args.s, pipe, "s", 1000, low=2)
    result = estimator_accuracy(model, theta_star, estimator, distance=distance, s=s,
                                seed=seed)
    echo = {"model": model_echo,
            "pipeline": {"s": result.s, "estimator": estimator.name,
                         "distance": args.distance,
                         "theta_star": args.theta_star or "prior"}}
    return _payload(result, model=model.name), echo, {}


def _cmd_test(args, cfg, pipe, seed):
    model, model_echo = _build_model(args, cfg)
    y = _load_data(args)
    if args.theta0 is None:
        raise ConfigError("test needs --theta0 (null parameter value)")
    statistic = _statistic(args.statistic, model)
    theta0 = _theta(args.theta0, "--theta0", model)
    test = SimulationTest(
        model,
        theta0,
        statistic,
        side=args.side,
        s=_count(args.s, pipe, "s", 10_000, low=2),
        seed=seed,
        n_obs=y.n_obs,
    )
    result = test.report(y)
    payload = _payload(result, kind="test", model=model.name,
                       null_histogram=_histogram_block(test.null.values))
    echo = {"model": model_echo,
            "pipeline": {"s": result.s, "statistic": statistic.name,
                         "side": args.side, "theta0": theta0}}
    return payload, echo, _vector_csv("null_samples.csv", test.null.values)


def _cmd_ppc(args, cfg, pipe, seed):
    model, model_echo = _build_model(args, cfg)
    y = _load_data(args)
    statistic = _statistic(args.statistic, model)
    s = _count(args.s, pipe, "s", 1000)
    echo = {"model": model_echo, "pipeline": {"s": s, "statistic": statistic.name}}
    if args.theta_hat is not None:
        result = frequentist_predictive_check(
            model, _theta(args.theta_hat, "--theta-hat", model), statistic, y, s, seed=seed
        )
    else:
        approx, echo["approximator"] = _build_approximator(args, cfg)
        result = run_ppc(model, approx, y, statistic, s, seed=seed)
    payload = _payload(result, drop=("replication_stats",), model=model.name,
                       replication_histogram=_histogram_block(result.replication_stats))
    return payload, echo, _vector_csv("replication_stats.csv", result.replication_stats)


def _cmd_prior_check(args, cfg, pipe, seed):
    model, model_echo = _build_model(args, cfg)
    if args.region is None:
        raise ConfigError("prior-check needs --region lo,hi")
    region = _floats(args.region)
    if len(region) != 2 or not region[0] <= region[1]:
        raise ConfigError(f"--region must be two numbers lo,hi with lo <= hi, got {args.region!r}")
    result = prior_pushforward_check(
        model,
        _statistic(args.statistic, model),
        (region[0], region[1]),
        s=_count(args.s, pipe, "s", 1000),
        seed=seed,
    )
    payload = _payload(result, drop=("values",), model=model.name,
                       histogram=_histogram_block(result.values))
    echo = {"model": model_echo,
            "pipeline": {"s": result.s, "statistic": result.statistic,
                         "region": list(result.region)}}
    return payload, echo, _vector_csv("statistic_values.csv", result.values)


def _read_expert_csv(path: str) -> list[float]:
    if not Path(path).is_file():
        raise ConfigError(f"expert stats file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["target", "probe", "value"]:
            raise ConfigError("expert stats CSV needs header: target,probe,value")
        rows = [row for row in reader if row]
    # target-major, probe order as given per target
    values = [float(row[2]) for row in rows]
    if not values:
        raise ConfigError("expert stats CSV has no rows")
    return values


def _cmd_elicit(args, cfg, pipe, seed):
    if args.expert_csv is not None:
        expert = _read_expert_csv(args.expert_csv)
    elif args.expert_stats is not None:
        expert = _floats(args.expert_stats)
    else:
        raise ConfigError("elicit needs --expert-csv or --expert-stats")
    n_trials = _count(args.n_trials, pipe, "n_trials", 20)
    sims = _count(args.sims, pipe, "sims_per_eval", 10_000)
    try:
        problem = beta_binomial_problem(expert, n_trials=n_trials, sims_per_eval=sims)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lam0 = _floats(args.lam0)
    family = problem.prior_family
    if len(lam0) != family.lam_dim or not family.valid(lam0):
        raise ConfigError(f"--lam0 needs {family.lam_dim} positive numbers for the "
                          f"{family.name} prior, got {args.lam0!r}")
    if not args.tolerance >= 0.0:
        raise ConfigError(f"--tolerance must be a number >= 0, got {args.tolerance}")
    max_iter = _count(args.max_iter, {}, "max_iter", 500)
    result = elicit_prior(problem, lam0, seed=seed, tolerance=args.tolerance,
                          max_iter=max_iter)
    echo = {"pipeline": {"n_trials": n_trials, "sims_per_eval": sims,
                         "lam0": lam0, "tolerance": args.tolerance, "max_iter": max_iter}}
    trace = {"loss_trace.csv": (["improvement", "loss"],
                                [range(len(result.loss_trace)), result.loss_trace])}
    return _payload(result, kind="elicitation", family="beta"), echo, trace


def _cmd_abc(args, cfg, pipe, seed):
    model, model_echo = _build_model(args, cfg)
    y = _load_data(args)
    if (args.tolerance is None) == (args.quantile is None):
        raise ConfigError("abc needs exactly one of --tolerance or --quantile")
    if args.quantile is not None and not 0.0 < args.quantile <= 1.0:
        raise ConfigError(f"--quantile must lie in (0, 1], got {args.quantile}")
    if args.tolerance is not None and not args.tolerance >= 0.0:
        raise ConfigError(f"--tolerance must be a number >= 0, got {args.tolerance}")
    max_proposals = _count(args.max_proposals, pipe, "max_proposals", 100_000)
    result = abc_rejection(
        model,
        y,
        _distance(args.distance),
        substream(seed, 0),
        m=_count(args.m, pipe, "m", 1000),
        tolerance=args.tolerance,
        acceptance_quantile=args.quantile,
        max_proposals=max_proposals,
    )
    values = result.draws.values
    payload = {
        "kind": "abc",
        "model": model.name,
        "distance": args.distance,
        "m": int(values.shape[0]),
        "acceptance_rate": result.acceptance_rate,
        "proposals_used": result.proposals_used,
        "threshold": result.threshold,
        "posterior_mean": values.mean(axis=0),
        "posterior_sd": values.std(axis=0, ddof=1) if values.shape[0] > 1 else
            np.zeros(values.shape[1]),
        "seed": seed,
        "metadata": result.draws.info,
    }
    echo = {"model": model_echo,
            "pipeline": {"m": int(values.shape[0]), "distance": args.distance,
                         "tolerance": args.tolerance, "quantile": args.quantile,
                         "max_proposals": max_proposals}}
    header = ["index"] + [f"theta{j}" for j in range(values.shape[1])]
    columns = [range(values.shape[0]), *np.asarray(values, dtype=float).T]
    return payload, echo, {"draws.csv": (header, columns)}


def _compare_entries(args, cfg) -> list[ModelEntry]:
    comp = _section(cfg, "compare")
    names = [n.strip() for n in str(comp.get("models", "")).split(",") if n.strip()]
    if not names:
        raise ConfigError(
            "compare needs a [compare] section listing models = A, B with "
            "one [model:NAME] section per candidate"
        )
    entries = []
    for label in names:
        sect = _section(cfg, f"model:{label}")
        if not sect:
            raise ConfigError(f"missing [model:{label}] section")
        name = sect.pop("name", None)
        if name is None:
            raise ConfigError(f"[model:{label}] needs a name key")
        prior_prob = float(sect.pop("prior_prob", 1.0 / len(names)))
        try:
            model = make_model(name, **sect)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[model:{label}]: {exc}") from exc
        entries.append(ModelEntry(name=label, model=model, prior_prob=prior_prob))
    return entries


def _cmd_compare(args, cfg, pipe, seed):
    y = _load_data(args)
    s = _count(args.s, pipe, "s", 100_000, low=2)
    if not cfg.has_section("compare"):
        model, model_echo = _build_model(args, cfg)
        ev = marginal_likelihood_mc(model, y, s=s, seed=seed)
        return _payload(ev, kind="evidence"), {"model": model_echo, "pipeline": {"s": s}}, {}
    comparison = posterior_model_probs(_compare_entries(args, cfg), y, s=s, seed=seed)
    payload = {
        "kind": "model-comparison",
        "s": comparison.s,
        "seed": comparison.seed,
        "models": {
            name: {
                "log_evidence": ev.log_evidence,
                "mc_se_log": ev.mc_se_log,
                "all_zero": ev.all_zero,
                "posterior_prob": comparison.posterior_probs[name],
            }
            for name, ev in comparison.evidences.items()
        },
        "log_bayes_factors": comparison.log_bayes_factors,
        "metadata": {},
    }
    echo = {"pipeline": {"s": s, "models": list(comparison.entries)}}
    evidences = comparison.evidences
    columns = [list(evidences), [ev.log_evidence for ev in evidences.values()],
               [ev.mc_se_log for ev in evidences.values()],
               [comparison.posterior_probs[name] for name in evidences]]
    csvs = {"evidence.csv": (["model", "log_evidence", "mc_se_log", "posterior_prob"],
                             columns)}
    return payload, echo, csvs


def _cmd_sensitivity(args, cfg, pipe, seed):
    handler = _sensitivity_sweep if args.mode == "sweep" else _power_scale
    return handler(args, cfg, pipe, seed)


def _power_scale(args, cfg, pipe, seed):
    model, model_echo = _build_model(args, cfg)
    approx, approx_echo = _build_approximator(args, cfg)
    y = _load_data(args)
    m = _count(args.m, pipe, "m", 2000)
    alphas = _floats(args.alphas)
    if not all(a > 0 for a in alphas):
        raise ConfigError(f"--alphas must be positive, got {args.alphas!r}")
    draws = approx.approximate(model, y, substream(seed, 0), m=m)
    qs = (0.05, 0.5, 0.95)
    table = {k: [] for k in ("axis", "alpha", "ess", "mean0", "q05", "q50", "q95")}
    results = {"prior": [], "likelihood": []}
    for axis in ("prior", "likelihood"):
        for alpha in alphas:
            kw = {"alpha_prior": alpha} if axis == "prior" else {"alpha_lik": alpha}
            wd = power_scale_weights(model, y, draws, **kw)
            mean = [weighted_mean(wd, d) for d in range(draws.values.shape[1])]
            quantiles = dict(zip(qs, weighted_quantile(wd, qs).tolist()))
            results[axis].append({"alpha": alpha, "ess": wd.ess, "mean": mean,
                                  "quantiles": quantiles})
            for column, v in zip(table.values(),
                                 [axis, alpha, wd.ess, mean[0], *quantiles.values()]):
                column.append(v)
    payload = {
        "kind": "power-scaling",
        "model": model.name,
        "approximator": approx.name,
        "m": m,
        "seed": seed,
        "axes": results,
        "metadata": {"alphas": alphas},
    }
    echo = {"model": model_echo, "approximator": approx_echo,
            "pipeline": {"m": m, "alphas": alphas, "mode": "power-scale"}}
    return payload, echo, {"powerscale.csv": (list(table), list(table.values()))}


def _sweep_grid(sweep: dict) -> tuple[list[dict], dict]:
    base = {}
    vary = {}
    for key, value in sweep.items():
        if key.startswith("vary_"):
            vary[key[len("vary_"):]] = [_parse_scalar(v)
                                        for v in str(value).split("|")]
        elif key != "pipeline":
            base[key] = value
    if not vary:
        raise ConfigError("[sweep] needs at least one vary_<param> = v1|v2|... key")
    keys = sorted(vary)
    grid = []
    for combo in itertools.product(*(vary[k] for k in keys)):
        cell = dict(base)
        cell.update(dict(zip(keys, combo)))
        grid.append(cell)
    return grid, vary


def _sensitivity_sweep(args, cfg, pipe, seed):
    sweep = _section(cfg, "sweep")
    if not sweep:
        raise ConfigError("sweep mode needs a [sweep] section in the config")
    pipeline_name = sweep.get("pipeline")
    model, model_echo = _build_model(args, cfg)
    approx, approx_echo = _build_approximator(args, cfg)
    grid, vary = _sweep_grid(sweep)

    def cell_model(config: dict):
        # grid keys prefixed model_ override the base model hyperparameters
        overrides = {k[len("model_"):]: v for k, v in config.items()
                     if k.startswith("model_")}
        if not overrides:
            return model
        params = {k: v for k, v in model_echo.items() if k != "name"}
        params.update(overrides)
        return make_model(model_echo["name"], **params)

    if pipeline_name == "sbc":
        def cell(config: dict, cell_seed: int) -> dict:
            run_cfg = SbcConfig(
                s=int(config.get("s", 200)),
                m=int(config.get("m", 99)),
                seed=cell_seed,
            )
            r = run_sbc(cell_model(config), approx, run_cfg)
            v = r.verdicts[r.target_names[0]]
            return {"chi2_pvalue": v.chi2_pvalue, "ks_pvalue": v.ks_pvalue,
                    "ecdf_inside": v.ecdf_inside}
    elif pipeline_name == "evidence":
        y = _load_data(args)

        def cell(config: dict, cell_seed: int) -> dict:
            ev = marginal_likelihood_mc(cell_model(config), y,
                                        s=int(config.get("s", 10_000)),
                                        seed=cell_seed)
            return {"log_evidence": ev.log_evidence, "mc_se_log": ev.mc_se_log}
    elif pipeline_name == "power-scale":
        y = _load_data(args)

        def cell(config: dict, cell_seed: int) -> dict:
            model = cell_model(config)
            draws = approx.approximate(model, y, substream(cell_seed, 0),
                                       m=int(config.get("m", 2000)))
            wd = power_scale_weights(
                model,
                y,
                draws,
                alpha_prior=float(config.get("alpha_prior", 1.0)),
                alpha_lik=float(config.get("alpha_lik", 1.0)),
            )
            return {"ess": wd.ess, "mean0": weighted_mean(wd, 0)}
    else:
        raise ConfigError(
            "[sweep] pipeline must be one of: evidence, power-scale, sbc"
        )

    result = sensitivity_sweep(cell, grid, seed=seed)
    payload = {
        "kind": "sensitivity-sweep",
        "pipeline": pipeline_name,
        "n_cells": len(result.rows),
        "n_failed": result.n_failed,
        "seed": result.seed,
        "rows": [dict(r) for r in result.rows],
        "metadata": {"varied": vary},
    }
    echo = {"model": model_echo, "approximator": approx_echo,
            "pipeline": {"mode": "sweep", "pipeline": pipeline_name}}
    return payload, echo, {"sweep.csv": result.table()}


def _cmd_render(args, cfg, pipe, seed):
    path = Path(args.report)
    if not path.is_file():
        raise ConfigError(f"report file not found: {path}")
    with open(path) as fh:
        payload = json.load(fh)
    results = payload.get("results", payload)
    files = figures.render_figures(results)
    if not files:
        print(f"warning: no figure renderer for report kind "
              f"{results.get('kind')!r}; known: {', '.join(figures.renderable_kinds())}",
              file=sys.stderr)
    return {"kind": "render", "source": str(path),
            "rendered": sorted(files)}, {}, {"__svg__": files}


_NULL_CHUNKS = "null chunk c: stream (root, 0, c); retry a: stream (root, 0, c, a)"

# subcommand -> (handler, seed plan)
_COMMANDS = {
    "sbc": (_cmd_sbc, ["replication i: stream (seed, 0, i)"]),
    "post-sbc": (_cmd_sbc, ["posterior draws at observed data: stream (seed, 1)",
                            "replication i: stream (seed, 0, i)"]),
    "freq-calibrate": (_cmd_freq_calibrate, ["dataset i: stream (seed, 0, i)"]),
    "power": (_cmd_power, ["sim test null root: drawn from stream (seed + 1, 0)",
                           _NULL_CHUNKS, "dataset i: stream (seed, 0, i)"]),
    "accuracy": (_cmd_accuracy, ["dataset i: stream (seed, 0, i)"]),
    "test": (_cmd_test, ["null root: drawn from stream (seed, 0)", _NULL_CHUNKS,
                         "tie-break coin: stream (seed, 1)"]),
    "ppc": (_cmd_ppc, ["posterior draws: stream (seed, 1)",
                       "replications: stream (seed, 0)"]),
    "prior-check": (_cmd_prior_check, ["prior draws and simulation: stream (seed, 0)"]),
    "elicit": (_cmd_elicit,
               ["common random numbers: stream (seed, 0), reused every evaluation"]),
    "abc": (_cmd_abc, ["proposals: stream (seed, 0)"]),
    "compare": (_cmd_compare, [
        "one model (no [compare] section), chunk c: stream (seed, 0, c)",
        "[compare] models: model k seed: SeedSequence(seed, spawn_key=(9, k))"
        ".generate_state(1, uint64)[0] mod 2**63",
        "[compare] models: model k, chunk c: stream (model k seed, 0, c)"]),
    "sensitivity": (_cmd_sensitivity, [
        "power-scale mode: posterior draws: stream (seed, 0)",
        "sweep mode: cell i seed: SeedSequence(seed, spawn_key=(9, i))"
        ".generate_state(1, uint64)[0] mod 2**63",
        "sweep mode, pipeline sbc: cell i, replication j: stream (cell i seed, 0, j)",
        "sweep mode, pipeline evidence: cell i, chunk c: stream (cell i seed, 0, c)",
        "sweep mode, pipeline power-scale: cell i draws: stream (cell i seed, 0)"]),
    "render": (_cmd_render, ["no randomness"]),
}


# ---------------------------------------------------------------------------
# Output


def _write_outputs(outdir: Path, payload: dict, formats: set[str], csvs: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    svg_files = csvs.pop("__svg__", None)
    report.write_report(payload, outdir / "report.json")
    if "csv" in formats:
        for filename, (header, columns) in csvs.items():
            report.write_csv(outdir / filename, header, columns)
    if svg_files is None and "svg" in formats:
        svg_files = figures.render_figures(payload["results"])
    if svg_files:
        for filename, text in svg_files.items():
            with open(outdir / filename, "w", newline="\n") as fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simflow",
        description="Simulation-based calibration, testing, and checking pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file; flags override it")
    common.add_argument("--seed", type=int, default=None,
                        help="root seed (default: config, then SIMFLOW_SEED, then 0)")
    common.add_argument("--threads", type=int, default=None,
                        help="accepted for old command lines and ignored")
    common.add_argument("--out", default=None, help="output directory (default: out)")
    common.add_argument("--formats", default=None,
                        help="comma list from json,csv,svg (default json,svg)")
    common.add_argument("--dry-run", action="store_true",
                        help="validate config, print the seed plan, and exit")

    modelish = argparse.ArgumentParser(add_help=False)
    modelish.add_argument("--model", help="model name, e.g. normal-normal")
    modelish.add_argument("--model-params",
                          help="model hyperparameters as k=v,k=v")

    approxish = argparse.ArgumentParser(add_help=False)
    approxish.add_argument("--approximator",
                           help="abc, exact, perturbed, or rwm")
    approxish.add_argument("--approximator-params", help="k=v,k=v")

    sbcish = argparse.ArgumentParser(add_help=False)
    sbcish.add_argument("--S", dest="s", type=int, default=None, help="outer simulations")
    sbcish.add_argument("--M", dest="m", type=int, default=None, help="draws per posterior")
    sbcish.add_argument("--bins", type=int, default=None)
    sbcish.add_argument("--band-coverage", type=float, default=None)
    sbcish.add_argument("--targets", help="comma list of parameter indices")

    sub.add_parser("sbc", parents=[common, modelish, approxish, sbcish],
                   help="prior-predictive calibration of an approximator")
    p = sub.add_parser("post-sbc", parents=[common, modelish, approxish, sbcish],
                       help="calibration conditional on an observed dataset")
    p.add_argument("--data", help="observed dataset CSV")

    p = sub.add_parser("freq-calibrate", parents=[common, modelish],
                       help="sampling-distribution calibration of an estimator")
    p.add_argument("--theta-star", help="true parameter, comma separated")
    p.add_argument("--estimator", default="sample-mean")
    p.add_argument("--sampling",
                   help="approximate sampling law: normal:loc,scale or t:df,loc,scale")
    p.add_argument("--alphas", default="0.9", help="interval levels, comma separated")
    p.add_argument("--S", dest="s", type=int, default=None)
    p.add_argument("--bins", type=int, default=None)

    p = sub.add_parser("power", parents=[common, modelish],
                       help="rejection rate of a test at a fixed or prior truth")
    p.add_argument("--test", default="sim", help="sim or z")
    p.add_argument("--theta-star", help="comma list, or the word prior")
    p.add_argument("--theta0", help="null parameter for the test")
    p.add_argument("--statistic", default="mean")
    p.add_argument("--side", default="upper", choices=SIDES)
    p.add_argument("--sigma", type=float, help="known sdev for the z test")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--S", dest="s", type=int, default=None)
    p.add_argument("--null-s", type=int, default=10_000,
                   help="null sample size for the sim test")

    p = sub.add_parser("accuracy", parents=[common, modelish],
                       help="mean estimator error over simulated datasets")
    p.add_argument("--theta-star", help="comma list, or the word prior")
    p.add_argument("--estimator", default="sample-mean")
    p.add_argument("--distance", default="squared", help="squared or absolute")
    p.add_argument("--S", dest="s", type=int, default=None)

    p = sub.add_parser("test", parents=[common, modelish],
                       help="simulation-based hypothesis test on one dataset")
    p.add_argument("--data", help="observed dataset CSV")
    p.add_argument("--theta0", help="null parameter, comma separated")
    p.add_argument("--statistic", default="mean")
    p.add_argument("--side", default="two_sided", choices=SIDES)
    p.add_argument("--S", dest="s", type=int, default=None, help="null sample size")

    p = sub.add_parser("ppc", parents=[common, modelish, approxish],
                       help="predictive check against replicated datasets")
    p.add_argument("--data", help="observed dataset CSV")
    p.add_argument("--statistic", default="mean")
    p.add_argument("--theta-hat",
                   help="fixed parameter: frequentist check instead of posterior")
    p.add_argument("--S", dest="s", type=int, default=None, help="replications")

    p = sub.add_parser("prior-check", parents=[common, modelish],
                       help="prior pushforward mass inside a plausible region")
    p.add_argument("--statistic", default="mean")
    p.add_argument("--region", help="lo,hi")
    p.add_argument("--S", dest="s", type=int, default=None)

    p = sub.add_parser("elicit", parents=[common],
                       help="fit prior hyperparameters to expert statistics")
    p.add_argument("--expert-csv", help="CSV with header target,probe,value")
    p.add_argument("--expert-stats", help="inline comma list of expert values")
    p.add_argument("--n-trials", type=int, default=None)
    p.add_argument("--lam0", default="1,1", help="starting hyperparameters")
    p.add_argument("--sims", type=int, default=None, help="simulations per evaluation")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--max-iter", type=int, default=500)

    p = sub.add_parser("abc", parents=[common, modelish],
                       help="rejection sampling against a simulator")
    p.add_argument("--data", help="observed dataset CSV")
    p.add_argument("--distance", default="mean-distance")
    p.add_argument("--M", dest="m", type=int, default=None, help="draws wanted")
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--quantile", type=float, default=None,
                   help="acceptance quantile instead of a fixed tolerance")
    p.add_argument("--max-proposals", type=int, default=None)

    p = sub.add_parser("compare", parents=[common, modelish],
                       help="Monte Carlo evidence and model probabilities")
    p.add_argument("--data", help="observed dataset CSV")
    p.add_argument("--S", dest="s", type=int, default=None, help="prior draws")

    p = sub.add_parser("sensitivity", parents=[common, modelish, approxish],
                       help="power-scaling diagnostics or a hyperparameter sweep")
    p.add_argument("--mode", default="power-scale", choices=["power-scale", "sweep"])
    p.add_argument("--data", help="observed dataset CSV")
    p.add_argument("--M", dest="m", type=int, default=None, help="posterior draws")
    p.add_argument("--alphas", default="0.5,0.8,1.0,1.25,2.0",
                   help="scaling exponents, comma separated")

    p = sub.add_parser("render", parents=[common],
                       help="regenerate SVG figures from a stored report")
    p.add_argument("--report", required=True, help="path to a report.json")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, plan = _COMMANDS[args.command]
    t0 = time.perf_counter()
    try:
        cfg = _load_config(args.config)
        pipe = _section(cfg, "pipeline")
        out_sect = _section(cfg, "output")
        seed, seed_source = _resolve_seed(args, pipe)
        # --threads and [pipeline] threads still parse and are checked, but
        # every pipeline runs its replications in one loop in this process.
        threads = _pick(args.threads, pipe, "threads", 1)
        if not isinstance(threads, int) or threads < 1:
            raise ConfigError(f"--threads must be a positive integer, got {threads!r}")
        outdir = Path(_pick(args.out, out_sect, "dir", "out"))
        formats = {
            f.strip()
            for f in str(_pick(args.formats, out_sect, "formats", "json,svg")).split(",")
            if f.strip()
        }
        unknown = formats - {"json", "csv", "svg"}
        if unknown:
            raise ConfigError(f"unknown output formats: {', '.join(sorted(unknown))}")
        if args.dry_run:
            print(f"seed: {seed} (from {seed_source})")
            for line in plan:
                print(f"  {line}")
            print("dry run: nothing simulated")
            return 0
        results, echo, csvs = handler(args, cfg, pipe, seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetError, RetryError, CapabilityError, DomainError, RuntimeError) as exc:
        diagnostics = getattr(exc, "diagnostics", {})
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "status": "error",
            "error": {"type": type(exc).__name__, "message": str(exc),
                      "diagnostics": diagnostics},
            "timing_seconds": time.perf_counter() - t0,
        }
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            report.write_report(payload, outdir / "report.json")
            print(f"error: {exc} (partial report in {outdir / 'report.json'})",
                  file=sys.stderr)
        except OSError:
            print(f"error: {exc}", file=sys.stderr)
        return 3

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "status": "ok",
        "config": echo,
        "seed_provenance": {"seed": seed, "source": seed_source, "plan": plan},
        "results": results,
        "timing_seconds": time.perf_counter() - t0,
    }
    try:
        _write_outputs(outdir, payload, formats, csvs)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {outdir / 'report.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
