"""Task-driven acquisition protocol design for quantitative diffusion MRI.

Pipeline: simulate labeled tissue cohorts under a candidate b-value
protocol (bi-exponential signal model, echo-time coupling, Rician noise),
estimate per-subject parameters with segmented fitting, and score the
protocol by cross-validated KNN accuracy on the estimated parameters.
Two optimizers search protocol space against that score: a simulated
annealer over the estimation-variance (CRLB) objective, and a
policy-gradient agent trained directly on the task objective.

Importing the package pins the BLAS/OpenMP threads to 1 unless the caller
set them, so a run's weights do not depend on the thread count; a numpy
imported before the package keeps its own threads.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .classify import (  # numpy loads here, after the pin
    EvalConfig,
    SimulationEnv,
    Task,
    cross_val_accuracy,
    knn_predict_batch,
    parameter_auc,
    task_objective,
)
from .cohort import (
    Cohort,
    CohortSpec,
    Dataset,
    TissueClass,
    TissueDistribution,
    sample_cohort,
    simulate_dataset,
)
from .crlb import CrlbConfig, crlb_objective, fisher_matrix, optimize_crlb, signal_jacobian
from .fitting import FitBounds, segmented_fit_batch
from .ivim import (
    ADHOC_B_VALUES,
    AcquisitionProtocol,
    IvimParams,
    ScannerConfig,
    add_rician_noise,
    ivim_signal,
    min_te,
)
from .ppo import PpoAgent, PpoConfig, rollout_greedy, train
from .protocol_env import ProtocolEnv
from .seeds import derive_rng

__version__ = "0.1.0"

__all__ = [
    "ADHOC_B_VALUES",
    "AcquisitionProtocol",
    "Cohort",
    "CohortSpec",
    "CrlbConfig",
    "Dataset",
    "EvalConfig",
    "FitBounds",
    "IvimParams",
    "PpoAgent",
    "PpoConfig",
    "ProtocolEnv",
    "ScannerConfig",
    "SimulationEnv",
    "Task",
    "TissueClass",
    "TissueDistribution",
    "add_rician_noise",
    "cross_val_accuracy",
    "crlb_objective",
    "derive_rng",
    "fisher_matrix",
    "ivim_signal",
    "knn_predict_batch",
    "min_te",
    "optimize_crlb",
    "parameter_auc",
    "rollout_greedy",
    "sample_cohort",
    "segmented_fit_batch",
    "signal_jacobian",
    "simulate_dataset",
    "task_objective",
    "train",
]
