"""Simulation-based calibration, testing, and checking for statistical models.

The package treats one question many ways: if you can simulate from a model,
what can repeated simulation tell you about an inference procedure? The
pipelines share a common vocabulary (models, datasets, summary statistics,
approximate posteriors) and a common determinism contract: one root seed,
derived per-task streams, each task's results independent of the others.
"""

from .approximators import (
    AbcRejection,
    AbcResult,
    Approximator,
    ExactConjugate,
    PerturbedConjugate,
    RandomWalkMetropolis,
    RwmResult,
    abc_rejection,
    acceptance_curve,
    rwm_sample,
)
from .calibration import (
    AccuracyResult,
    FreqCalResult,
    PowerResult,
    SbcConfig,
    SbcResult,
    SharpnessResult,
    absolute_error,
    estimator_accuracy,
    posterior_mean_estimator,
    power_analysis,
    run_frequentist_calibration,
    run_sbc,
    sample_mean_estimator,
    sbc_pvalue,
    sharpness,
    squared_error,
)
from .compare import (
    EvidenceResult,
    ModelComparison,
    ModelEntry,
    SweepResult,
    WeightedDraws,
    marginal_likelihood_mc,
    posterior_model_probs,
    power_scale_weights,
    sensitivity_sweep,
    weighted_mean,
    weighted_quantile,
)
from .diagnostics import (
    EcdfBand,
    PValueSet,
    UniformityVerdict,
    band_contains,
    ecdf_band,
    rank_histogram,
    uniformity_test,
)
from .elicitation import (
    BetaPriorFamily,
    ElicitationProblem,
    ElicitationResult,
    beta_binomial_problem,
    elicit_prior,
    elicitation_loss,
    model_implied_stats,
)
from .errors import BudgetError, CapabilityError, DomainError, RetryError
from .models import (
    MODEL_REGISTRY,
    AnalyticPosterior,
    BetaBinomial,
    Capabilities,
    Dataset,
    LogNormalTwoGroup,
    Model,
    NormalNormal,
    ParamDraws,
    PoissonGamma,
    SummaryStatistic,
    concat_datasets,
    make_model,
    param_target,
    simulate_statistic,
)
from .predictive import (
    PredictiveResult,
    PushforwardResult,
    frequentist_predictive_check,
    posterior_predictive_pvalue,
    posterior_predictive_sample,
    prior_pushforward_check,
    run_posterior_sbc,
    run_ppc,
)
from .rng import as_generator, substream
from .simtest import (
    DISTANCE_REGISTRY,
    STATISTIC_REGISTRY,
    AnalyticZTest,
    NullSamples,
    SimulationTest,
    TestReport,
    critical_value,
    rank_pvalues,
    run_test,
    simulate_null,
    simulation_pvalue,
)

__version__ = "0.1.0"
