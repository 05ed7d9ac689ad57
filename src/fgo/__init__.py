"""Feed-forward figure-ground organization.

Computes border-ownership maps for an image: every boundary pixel gets
paired responses for the two candidate owner sides, built from global
context (center-surround evidence pooled through annular kernels across
a half-octave pyramid) plus optional local cues (spectral anisotropy
and T-junctions), and scored against signed figure-ground annotations.
"""

from .channels import N_ORIENTATIONS, ORIENTATIONS
from .config import PRESETS, RunConfig
from .evaluation import (
    FGCAResult,
    FGGroundTruth,
    compute_fgca,
    grid_search_weights,
    load_ground_truth,
    make_split,
    prepare_scoring,
    right_tailed_t_test,
    score_weights,
)
from .ownership import ModelWeights
from .pipeline import (
    PipelineParams,
    RunResult,
    finalize_components,
    prepare_components,
    run_model,
)
from .stimuli import GENERATORS, generate

__all__ = [
    "N_ORIENTATIONS",
    "ORIENTATIONS",
    "PRESETS",
    "RunConfig",
    "FGCAResult",
    "FGGroundTruth",
    "compute_fgca",
    "grid_search_weights",
    "load_ground_truth",
    "make_split",
    "prepare_scoring",
    "right_tailed_t_test",
    "score_weights",
    "ModelWeights",
    "PipelineParams",
    "RunResult",
    "finalize_components",
    "prepare_components",
    "run_model",
    "GENERATORS",
    "generate",
]

__version__ = "0.1.0"
