"""Simulation-based calibration, testing, and checking for statistical models.

The package treats one question many ways: if you can simulate from a model,
what can repeated simulation tell you about an inference procedure? The
pipelines share a common vocabulary (models, datasets, summary statistics,
approximate posteriors) and a common determinism contract: one root seed,
derived per-task streams, each task's results independent of the others.

`import simflow` loads no submodule: each name below, and each submodule
(`simflow.rng`, ...), is imported on its first access (PEP 562), so a
process loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the names the package exports from it
    "approximators": ("AbcRejection", "Approximator", "ExactConjugate", "PerturbedConjugate",
                      "RandomWalkMetropolis", "acceptance_curve"),
    "calibration": ("AccuracyResult", "FreqCalResult", "PowerResult", "SbcConfig", "SbcResult",
                    "SharpnessResult", "absolute_error", "estimator_accuracy",
                    "posterior_mean_estimator", "power_analysis",
                    "run_frequentist_calibration", "run_sbc", "sample_mean_estimator",
                    "sharpness", "squared_error"),
    "compare": ("EvidenceResult", "ModelComparison", "ModelEntry", "SweepResult",
                "WeightedDraws", "marginal_likelihood_mc", "posterior_model_probs",
                "power_scale_weights", "sensitivity_sweep", "weighted_mean",
                "weighted_quantile"),
    "diagnostics": ("EcdfBand", "PValueSet", "UniformityVerdict", "band_contains",
                    "ecdf_band", "rank_histogram", "uniformity_test"),
    "elicitation": ("BetaPriorFamily", "ElicitationProblem", "ElicitationResult",
                    "beta_binomial_problem", "elicit_prior", "elicitation_loss",
                    "model_implied_stats"),
    "errors": ("BudgetError", "CapabilityError", "DomainError", "RetryError"),
    "models": ("MODEL_REGISTRY", "AnalyticPosterior", "BetaBinomial", "Capabilities",
               "Dataset", "LogNormalTwoGroup", "Model", "NormalNormal", "ParamDraws",
               "PoissonGamma", "SummaryStatistic", "concat_datasets", "make_model",
               "param_target", "simulate_statistic"),
    "predictive": ("PredictiveResult", "PushforwardResult", "frequentist_predictive_check",
                   "posterior_predictive_sample", "prior_pushforward_check",
                   "run_posterior_sbc", "run_ppc"),
    "rng": ("as_generator", "substream"),
    "simtest": ("DISTANCE_REGISTRY", "STATISTIC_REGISTRY", "AnalyticZTest", "NullSamples",
                "SimulationTest", "TestReport", "critical_value", "rank_pvalues",
                "simulate_null", "simulation_pvalue"),
}
_SUBMODULES = (*_EXPORTS, "cli", "figures", "report")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})


def _deferred(module: str, name: str):
    """A stand-in for simflow.<module>.<name> that imports the module at its
    first call and looks the name up at every call. A module that binds it
    loads no more at import, and whatever replaces either name (a test's
    patch, the benchmark's tracer) is what runs."""

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call
