"""Model-based clustering with Gaussian mixtures of factor analyzers.

The primary engine fits mixtures whose component covariances are
``Lambda Lambda^T + Psi`` through an ECM scheme whose inner maximization
profiles the loadings out in closed form and optimizes the uniquenesses with
a bounded quasi-Newton method on an analytic gradient.  All linear algebra
against the data is matrix-free, so fits scale to p well beyond n.  A
classical dense two-cycle AECM baseline, BIC model selection (common and
per-component factor counts), a Gaussian rank transform, synthetic data
generation, and clustering metrics round out the toolkit; the ``gmmfad``
command line exposes the lot.
"""

from ._kernels import backend_name
from .ecm import (
    AllStartsFailed,
    DimensionTooLarge,
    EmptyCluster,
    FitConfig,
    NonFiniteDensity,
    e_step,
    cm_step,
    fit,
    fit_baseline_aecm,
    log_density,
)
from .metrics import (
    adjusted_rand_index,
    confusion_metrics,
    match_clusters,
    relative_frobenius,
)
from .model import (
    ComponentParams,
    DataMatrix,
    FitReport,
    MixtureModel,
    Responsibilities,
    free_param_count,
    max_admissible_q,
)
from .preprocess import gaussian_distributional_transform, load_csv
from .selection import SearchGrid, select_common_q, select_per_cluster_q
from .simgen import SimSpec, draw_truth, sample_dataset

__version__ = "0.1.0"

__all__ = [
    "AllStartsFailed",
    "ComponentParams",
    "DataMatrix",
    "DimensionTooLarge",
    "EmptyCluster",
    "FitConfig",
    "FitReport",
    "MixtureModel",
    "NonFiniteDensity",
    "Responsibilities",
    "SearchGrid",
    "SimSpec",
    "adjusted_rand_index",
    "backend_name",
    "cm_step",
    "confusion_metrics",
    "draw_truth",
    "e_step",
    "fit",
    "fit_baseline_aecm",
    "free_param_count",
    "gaussian_distributional_transform",
    "load_csv",
    "log_density",
    "match_clusters",
    "max_admissible_q",
    "relative_frobenius",
    "sample_dataset",
    "select_common_q",
    "select_per_cluster_q",
    "__version__",
]
