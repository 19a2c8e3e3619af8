"""Robust frequency-band fuzzy clustering of multivariate time series.

Pipeline: band-filter fixed-length blocks, estimate lagged rank
dependence matrices per block, solve a canonical coherence problem to
get direction-magnitude features, cluster them with fuzzy C-means, and
score partitions against ground truth with a membership cutoff rule.
"""

from .bands import BandSpec, DEFAULT_BANDS, FilterDesign, design_bandpass, filter_dataset
from .canonical import FeatureSet, extract_features, solve_canonical
from .clustering import (
    DEFAULT_C_GRID,
    DEFAULT_M_GRID,
    FuzzyPartition,
    ValidityReport,
    fcm_fit,
    fsi,
    grid_search,
)
from .dependence import kendall_tau, repair_psd, sine_tau_matrices
from .evaluation import (
    SWITCHING,
    AssignmentReport,
    RandReport,
    assign,
    rand_index,
    simulation_accuracy,
)
from .exceptions import ConfigError, DataError, DegenerateBlockError, FuzzCohError, NumericError
from .mts import MtsBlock, MtsDataset, RegionMap, load_csv, save_csv, select_regions
from .pearson import pearson_matrices
from .pipeline import PipelineConfig, reproduce_sim, run_pipeline
from .simulate import SimConfig, contaminate, gen_ar2, gen_dataset

__version__ = "0.1.0"

__all__ = [
    "BandSpec",
    "DEFAULT_BANDS",
    "FilterDesign",
    "design_bandpass",
    "filter_dataset",
    "FeatureSet",
    "extract_features",
    "solve_canonical",
    "DEFAULT_C_GRID",
    "DEFAULT_M_GRID",
    "FuzzyPartition",
    "ValidityReport",
    "fcm_fit",
    "fsi",
    "grid_search",
    "kendall_tau",
    "repair_psd",
    "sine_tau_matrices",
    "SWITCHING",
    "AssignmentReport",
    "RandReport",
    "assign",
    "rand_index",
    "simulation_accuracy",
    "ConfigError",
    "DataError",
    "DegenerateBlockError",
    "FuzzCohError",
    "NumericError",
    "MtsBlock",
    "MtsDataset",
    "RegionMap",
    "load_csv",
    "save_csv",
    "select_regions",
    "pearson_matrices",
    "PipelineConfig",
    "reproduce_sim",
    "run_pipeline",
    "SimConfig",
    "contaminate",
    "gen_ar2",
    "gen_dataset",
]
