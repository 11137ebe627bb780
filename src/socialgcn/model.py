"""Forward model: item embeddings, layered social diffusion, scoring.

Conventions: parameter matrices are stored row-major, so the per-entity
free vectors are rows of P (num_users, L) and Q (num_items, L); transforms
F (D, L+d2), W0 (D, d1+L) and Wk (D, 2D) multiply concatenated column
vectors as in a dense layer. ReLU everywhere, with the subgradient at 0
fixed to 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


class ModelParams:
    """Named tensors, in insertion order, as views into one float64 vector `flat`.

    Parameters, gradients and Adam's moments share the layout. Assignment writes
    into a tensor's view and must match its shape. Adam leaves `frozen` ones unchanged.
    """

    def __init__(self, arrays, frozen=()):
        arrays = dict(arrays)
        layout, stop = {}, 0
        for name, value in arrays.items():
            start, stop = stop, stop + np.size(value)
            layout[name] = (slice(start, stop), np.shape(value))
        self._bind(layout, np.empty(stop), frozen)
        for name, value in arrays.items():
            self[name] = value

    def _bind(self, layout, flat, frozen):
        self._layout, self.flat, self.frozen = layout, flat, set(frozen)
        self._views = {name: flat[span].reshape(shape) for name, (span, shape) in layout.items()}
        return self

    def _like(self, flat):
        return object.__new__(ModelParams)._bind(self._layout, flat, self.frozen)

    def __getitem__(self, name):
        return self._views[name]

    def __setitem__(self, name, value):
        view, shape = self._views[name], np.shape(value)
        if shape != view.shape:
            raise ModelError(f"tensor {name!r} has shape {view.shape}, cannot assign shape {shape}")
        view[...] = value

    def __contains__(self, name):
        return name in self._views

    def names(self):
        return list(self._views)

    def items(self):
        return self._views.items()

    def copy(self):
        return self._like(self.flat.copy())

    def zeros_like(self):
        return self._like(np.zeros_like(self.flat))

    def all_finite(self):
        return bool(np.isfinite(self.flat).all())

    def trainable_names(self):
        return [k for k in self._views if k not in self.frozen]

    def trainable_mask(self):
        """Boolean vector over `flat`, False on the frozen tensors."""
        sizes = [v.size for v in self._views.values()]
        return np.repeat([k not in self.frozen for k in self._views], sizes)


def layer_weight_name(k):
    return f"Wk{k}"


def layer_bias_name(k):
    return f"bk{k}"


def param_shapes(hypers, num_users, num_items, user_dim=0, item_dim=0):
    """Name -> shape of every tensor of the active mode, in layout order."""
    D, L = hypers.D, hypers.L
    shapes = {"P": (num_users, L), "Q": (num_items, L)}
    if hypers.with_features:
        shapes["F"] = (D, L + item_dim)
        if hypers.use_bias:
            shapes["bF"] = (D,)
        shapes["W0"] = (D, user_dim + L)
        if hypers.use_bias:
            shapes["b0"] = (D,)
    for k in range(hypers.K):
        shapes[layer_weight_name(k)] = (D, 2 * D)
        if hypers.use_bias:
            shapes[layer_bias_name(k)] = (D,)
    return shapes


def init_params(hypers, num_users, num_items, user_dim=0, item_dim=0, seed=0):
    """Initialize all tensors for the active mode, drawing in layout order.

    Free vectors P, Q start uniform in (-0.01, 0.01); transforms use a
    symmetric fan-scaled uniform range; biases start at zero.
    """
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in param_shapes(hypers, num_users, num_items, user_dim, item_dim).items():
        if len(shape) == 1:  # a bias
            arrays[name] = np.zeros(shape)
        else:
            lim = 0.01 if name in ("P", "Q") else math.sqrt(6.0 / sum(shape))
            arrays[name] = rng.uniform(-lim, lim, size=shape)

    frozen = set()
    if hypers.pin_user_base:
        arrays["P"] = np.zeros_like(arrays["P"])  # after its draw, so the other tensors' draws stay put
        frozen.add("P")
    return ModelParams(arrays, frozen)


def relu(x):
    return np.maximum(x, 0.0)


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


def aggregate_all(layer, social, aggregator=AGG_AVERAGE):
    """Pool every user's followees' vectors; an empty ego net gives zeros.

    Returns (aggregate, winners). The average aggregator is `social.row_mean`;
    the max aggregator reads the followee rows of `social`. It picks a
    column's winner as argmax does: the first NaN, or else the lowest
    followee id among the tied maxima.
    """
    if aggregator == AGG_AVERAGE:
        return social.row_mean @ layer, None
    out = np.zeros_like(layer)
    winners = np.full(layer.shape, -1)
    indptr, indices = social.indptr, social.indices
    degree = np.diff(indptr)
    rows = np.flatnonzero(degree)
    if len(rows) == 0:
        return out, winners
    # the non-empty rows' followee lists are contiguous in indices, so
    # each reduceat segment runs from its row's start to the next one's
    starts = indptr[rows]
    vals = layer[indices]
    seg_max = np.maximum.reduceat(vals, starts, axis=0)
    # first position not below the maximum: argmax's winner
    top = np.repeat(seg_max, degree[rows], axis=0)
    below = vals < top
    if np.isnan(seg_max).any():
        below |= np.isnan(top) & ~np.isnan(vals)  # below a NaN maximum: every number
    position = np.where(below, len(vals), np.arange(len(vals))[:, None])
    first = np.minimum.reduceat(position, starts, axis=0)
    winners[rows] = indices[first]
    # gathered rather than taken from seg_max, which may hold the other zero sign
    out[rows] = layer[winners[rows], np.arange(layer.shape[1])]
    return out, winners


def diffuse(params, hypers, social, h0):
    """Run the K-layer diffusion recursion from layer-0 embeddings h0."""
    h0 = np.asarray(h0, dtype=np.float64)
    if h0.shape[0] != social.num_users:
        raise ModelError("h0 must cover every user")
    state = DiffusionState([h0], [], [])
    for k in range(hypers.K):
        h = state.layers[k]
        agg, winners = aggregate_all(h, social, hypers.aggregator)
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


def forward_all(params, hypers, bundle):
    """Compute (U, V, diffusion state) for every user and item.

    This is the model's only forward pass: training, evaluation and predict
    all run it. The history term always uses training positives only.
    """
    if bundle.social is None:
        raise ModelError("bundle has no social graph attached")
    V = all_item_embeddings(params, hypers, bundle.item_features)
    h0 = all_user_base_embeddings(params, hypers, bundle.user_features)
    state = diffuse(params, hypers, bundle.social, h0)
    U = state.final + bundle.train.row_mean @ V
    return U, V, state
