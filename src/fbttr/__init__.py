"""Federated block-term tensor regression.

Trains multilinear regression models by deflation over automatically
extracted sparse Tucker blocks, either on one dataset or across data
partitions coordinated by a hub-and-spoke parameter server that only ever
exchanges aggregate block parameters.
"""

from .bttr import Block, BttrModel, FitConfig, FitError, NormStats, fit, predict, residual_trace, select_k_cv
from .data import CsvSchema, DataError, Dataset, PartitionPlan, load_csv, load_npz, make_synthetic, partition, save_npz
from .experiment import ConfigError, EvalReport, ExperimentConfig, build_report, run_experiment
from .federated import (
    ClientSession,
    aggregate_block,
    client_deflate,
    client_local_block,
    federated_fit_over,
    harmonize_ranks,
    run_federated_fit,
    run_socket_client,
)
from .metrics import accuracy, c_index, pearson_r, roc_auc, wilcoxon_signed_rank
from .model_io import load_model, model_from_bytes, model_to_bytes, save_model
from .sparse_tucker import (
    AceError,
    AceResult,
    DecompositionError,
    HyperGrid,
    SparseTuckerResult,
    ace,
    f_mpstd,
    hooi_init,
)
from .tensor import cross_covariance, fold, frobenius_norm, kronecker, mode_n_product, multilinear_product, unfold

__version__ = "0.1.0"
