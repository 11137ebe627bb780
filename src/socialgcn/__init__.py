"""Social recommendation with graph-convolutional preference diffusion."""

from .data import (
    DataError,
    DatasetBundle,
    FeatureTable,
    InteractionMatrix,
    SocialGraph,
    SplitConfig,
    SyntheticSpec,
    generate_synthetic,
    load_features,
    load_interactions,
    load_social,
    preprocess_filter,
    split,
)
from .evaluation import EvalConfig, MetricReport, evaluate, run_ablation
from .model import HyperParams, ModelParams, forward_all, init_params
from .training import TrainConfig, bpr_pair_loss, compute_gradients, train

__version__ = "0.1.0"
