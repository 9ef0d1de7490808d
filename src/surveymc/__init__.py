"""Low-rank completion of mixed-type survey responses under informative
sampling and item nonresponse.

Two-stage estimator: logistic response-probability models fit per
(column, stratum) from the missingness indicators, then an
inverse-probability-weighted exponential-family loss with a nuclear-norm
penalty on the covariate-augmented natural-parameter matrix, minimized by an
accelerated proximal method with a descent guard.
"""

from .baselines import BaselineResult, collective_unweighted, hot_deck, soft_impute
from .benchmark import (BenchmarkSummary, ReplicationReport, block_relative_errors,
                        relative_error, run_benchmark, tune_benchmark_taus)
from .dataset import MixedDataset, Standardization
from .errors import (ColumnEmpty, DegenerateTruth, DesignError, DomainError,
                     FoldError, InvalidInput, NumericalFailure, SchemaViolation,
                     ShapeError, StratumTooSmall, SurveyMCError, WeightError)
from .families import (Block, CategoryLayout, Family, mean_from_natural,
                       natural_from_mean)
from .io import SchemaFile, load_dataset, parse_tau_grid, save_dataset
from .linalg import SvdFactors, nuclear_norm, rank1_approx, svd_thin, svt
from .response_model import ResponseProbModel, estimate_response_probs
from .simulator import (PopulationSpec, SampledData, SyntheticTruth, draw_sample,
                        generate_population, impose_responses_and_missingness,
                        simulate_survey)
from .solver import (DEFAULT_TAU_GRID, CompletionResult, SolverConfig, TuneResult,
                     fit_completion, gradient, grid_search, objective, tune_tau,
                     weighted_loss)

__version__ = "0.1.0"
