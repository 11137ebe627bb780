"""Forward model: item embeddings, layered social diffusion, scoring.

Conventions: parameter matrices are stored row-major, so the per-entity
free vectors are rows of P (num_users, L) and Q (num_items, L); transforms
F (D, L+d2), W0 (D, d1+L) and Wk (D, 2D) multiply concatenated column
vectors as in a dense layer. ReLU everywhere, with the subgradient at 0
fixed to 0.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

FEATURES = "features"
FEATURELESS = "featureless"
AGG_AVERAGE = "average"
AGG_MAX = "max"


class ModelError(Exception):
    """Invalid model configuration or shape mismatch."""


@dataclass
class HyperParams:
    D: int
    L: int
    K: int = 2
    feature_mode: str = FEATURES
    aggregator: str = AGG_AVERAGE
    use_bias: bool = True
    pin_user_base: bool = False  # the "P=0" ablation: P frozen at zero

    def __post_init__(self):
        if self.feature_mode not in (FEATURES, FEATURELESS):
            raise ModelError(f"unknown feature_mode {self.feature_mode!r}")
        if self.aggregator not in (AGG_AVERAGE, AGG_MAX):
            raise ModelError(f"unknown aggregator {self.aggregator!r}")
        if self.K < 0:
            raise ModelError("diffusion depth K must be >= 0")
        if self.feature_mode == FEATURELESS and self.L != self.D:
            raise ModelError("featureless mode requires L == D")

    @property
    def with_features(self):
        return self.feature_mode == FEATURES


class TensorBundle:
    """Ordered name->array container shared by params, gradients and moments."""

    def __init__(self, arrays):
        self.arrays = dict(arrays)

    def __getitem__(self, name):
        return self.arrays[name]

    def __setitem__(self, name, value):
        self.arrays[name] = value

    def __contains__(self, name):
        return name in self.arrays

    def names(self):
        return list(self.arrays)

    def items(self):
        return self.arrays.items()

    def copy(self):
        return TensorBundle({k: v.copy() for k, v in self.arrays.items()})

    def zeros_like(self):
        return TensorBundle({k: np.zeros_like(v) for k, v in self.arrays.items()})

    def all_finite(self):
        return all(np.all(np.isfinite(v)) for v in self.arrays.values())


class ModelParams(TensorBundle):
    """Trainable tensors plus the set of frozen (non-trainable) names."""

    def __init__(self, arrays, frozen=()):
        super().__init__(arrays)
        self.frozen = set(frozen)

    def copy(self):
        return ModelParams({k: v.copy() for k, v in self.arrays.items()}, self.frozen)

    def trainable_names(self):
        return [k for k in self.arrays if k not in self.frozen]

    def num_trainable(self):
        return sum(self.arrays[k].size for k in self.trainable_names())


def layer_weight_name(k):
    return f"Wk{k}"


def layer_bias_name(k):
    return f"bk{k}"


def init_params(hypers, num_users, num_items, user_dim=0, item_dim=0, seed=0):
    """Initialize all tensors for the active mode.

    Free vectors P, Q start uniform in (-0.01, 0.01); transforms use a
    symmetric fan-scaled uniform range; biases start at zero.
    """
    rng = np.random.default_rng(seed)
    arrays = {}
    arrays["P"] = rng.uniform(-0.01, 0.01, size=(num_users, hypers.L))
    arrays["Q"] = rng.uniform(-0.01, 0.01, size=(num_items, hypers.L))

    def glorot(rows, cols):
        lim = math.sqrt(6.0 / (rows + cols))
        return rng.uniform(-lim, lim, size=(rows, cols))

    if hypers.with_features:
        arrays["F"] = glorot(hypers.D, hypers.L + item_dim)
        if hypers.use_bias:
            arrays["bF"] = np.zeros(hypers.D)
        arrays["W0"] = glorot(hypers.D, user_dim + hypers.L)
        if hypers.use_bias:
            arrays["b0"] = np.zeros(hypers.D)
    for k in range(hypers.K):
        arrays[layer_weight_name(k)] = glorot(hypers.D, 2 * hypers.D)
        if hypers.use_bias:
            arrays[layer_bias_name(k)] = np.zeros(hypers.D)

    frozen = set()
    if hypers.pin_user_base:
        arrays["P"] = np.zeros_like(arrays["P"])
        frozen.add("P")
    return ModelParams(arrays, frozen)


def relu(x):
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# sparse operators


def _row_mean_matrix(rows, num_cols):
    """CSR matrix whose row a holds 1/|rows[a]| at each column in rows[a].

    Each row list must be sorted and free of duplicates, as the
    InteractionMatrix and SocialGraph constructors guarantee; an empty row
    stays all zero.
    """
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=indptr[-1])
    data = np.repeat(1.0 / np.maximum(counts, 1), counts)
    return sparse.csr_matrix((data, indices, indptr), shape=(len(rows), num_cols))


def mean_adjacency(social):
    """Row-normalized follow adjacency: (A h)[a] = mean of h over S_a."""
    return _row_mean_matrix(social.followees_by_user, social.num_users)


def history_mean_matrix(train):
    """Rows: 1/|R_a| over a's training positives (zero row when R_a is empty)."""
    return _row_mean_matrix(train.positives_by_user, train.num_items)


class Graph:
    """A dataset's sparse operators, built once and shared by forward and backward."""

    def __init__(self, bundle):
        if bundle.social is None:
            raise ModelError("bundle has no social graph attached")
        self.mean_adj = mean_adjacency(bundle.social)
        self.mean_adj_t = self.mean_adj.T.tocsr()
        self.hist = history_mean_matrix(bundle.train)
        self.hist_t = self.hist.T.tocsr()


# ---------------------------------------------------------------------------
# full-graph forward


@dataclass
class DiffusionState:
    """Per-layer user embeddings and what the backward pass needs of them.

    layers[k] has shape (num_users, D); aggs[k] is the neighbor aggregate
    fed to layer k+1. For the max aggregator winners[k][a, c] is the
    followee whose layer-k value won column c of aggs[k][a] (-1 for an
    empty ego net); for the average aggregator winners[k] is None.
    """

    layers: list[np.ndarray]
    aggs: list[np.ndarray]
    winners: list

    @property
    def final(self):
        return self.layers[-1]


def aggregate_all(layer, social, aggregator=AGG_AVERAGE, mean_adj=None):
    """Pool every user's followees' vectors; an empty ego net gives zeros.

    Returns (aggregate, winners). The max aggregator breaks a tie for a
    column's maximum towards the lowest followee id, as argmax does.
    """
    if aggregator == AGG_AVERAGE:
        A = mean_adjacency(social) if mean_adj is None else mean_adj
        return A @ layer, None
    out = np.zeros_like(layer)
    winners = np.full(layer.shape, -1)
    cols = np.arange(layer.shape[1])
    for a, nbrs in enumerate(social.followees_by_user):
        if nbrs:
            nbrs = np.asarray(nbrs)
            block = layer[nbrs]
            best = block.argmax(axis=0)
            winners[a] = nbrs[best]
            out[a] = block[best, cols]
    return out, winners


def diffuse(params, hypers, social, h0, mean_adj=None):
    """Run the K-layer diffusion recursion from layer-0 embeddings h0."""
    h0 = np.asarray(h0, dtype=np.float64)
    if h0.shape[0] != social.num_users:
        raise ModelError("h0 must cover every user")
    state = DiffusionState([h0], [], [])
    for k in range(hypers.K):
        h = state.layers[k]
        agg, winners = aggregate_all(h, social, hypers.aggregator, mean_adj)
        z = np.concatenate([agg, h], axis=1) @ params[layer_weight_name(k)].T
        if layer_bias_name(k) in params:
            z = z + params[layer_bias_name(k)]
        state.layers.append(relu(z))
        state.aggs.append(agg)
        state.winners.append(winners)
    return state


def all_item_embeddings(params, hypers, item_features=None):
    if not hypers.with_features:
        return params["Q"]
    if item_features is None:
        raise ModelError("feature mode requires item features")
    z = np.concatenate([params["Q"], item_features.vectors], axis=1)
    v = z @ params["F"].T
    if "bF" in params:
        v = v + params["bF"]
    return relu(v)


def all_user_base_embeddings(params, hypers, user_features=None):
    if not hypers.with_features:
        return params["P"]
    if user_features is None:
        raise ModelError("feature mode requires user features")
    z = np.concatenate([user_features.vectors, params["P"]], axis=1)
    h = z @ params["W0"].T
    if "b0" in params:
        h = h + params["b0"]
    return relu(h)


def forward_all(params, hypers, bundle, graph=None):
    """Compute (U, V, diffusion state) for every user and item.

    This is the model's only forward pass: training, evaluation and predict
    all run it. `graph` holds the bundle's sparse operators; pass one Graph
    to reuse them across calls. The history term always uses training
    positives only.
    """
    graph = Graph(bundle) if graph is None else graph
    V = all_item_embeddings(params, hypers, bundle.item_features)
    h0 = all_user_base_embeddings(params, hypers, bundle.user_features)
    state = diffuse(params, hypers, bundle.social, h0, graph.mean_adj)
    U = state.final + graph.hist @ V
    return U, V, state
