"""The model: item embeddings, layered social diffusion, and their backward pass.

Conventions: parameter matrices are stored row-major, so the per-entity
free vectors are rows of P (num_users, L) and Q (num_items, L); transforms
F (D, L+d2), W0 (D, d1+L) and Wk (D, 2D) multiply concatenated column
vectors as in one `dense` ReLU layer, reversed by `dense_backward`, with
the subgradient at 0 fixed to 0. forward_all and backward_all run them all:
the forward keeps each layer's concatenated input in the DiffusionState,
and the backward reads it there. Neither writes a parameter: in featureless
mode V and layer 0 are views of Q and P. The forward writes only arrays it
made; the backward also fills the gradient buffer its caller hands it, so
a training run reuses one buffer for every batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import check, setting

FEATURES = "features"
FEATURELESS = "featureless"
AGG_AVERAGE = "average"
AGG_MAX = "max"


class ModelError(Exception):
    """Invalid model configuration or shape mismatch."""


class NonFiniteError(ModelError):
    """A forward pass gave an inf or a NaN in U or V, or scores that could overflow."""


@dataclass
class HyperParams:
    D: int = setting(within=">= 1")
    L: int = setting(within=">= 1")
    K: int = setting(2, within=">= 0")
    feature_mode: str = setting(FEATURES, choices=(FEATURES, FEATURELESS))
    aggregator: str = setting(AGG_AVERAGE, choices=(AGG_AVERAGE, AGG_MAX))
    use_bias: bool = True
    pin_user_base: bool = False  # the "P=0" ablation: P is a constant zero

    def __post_init__(self):
        check(HyperParams, vars(self), ModelError)
        if self.feature_mode == FEATURELESS and self.L != self.D:
            raise ModelError("featureless mode requires L == D")

    @property
    def with_features(self):
        return self.feature_mode == FEATURES


class ModelParams:
    """Named tensors, in insertion order, as views into one float64 vector `flat`.

    Parameters, gradients and Adam's moments share the layout. Assignment writes
    into a tensor's view and must match its shape.
    """

    def __init__(self, arrays):
        arrays = dict(arrays)
        layout, stop = {}, 0
        for name, value in arrays.items():
            start, stop = stop, stop + np.size(value)
            layout[name] = (slice(start, stop), np.shape(value))
        self._bind(layout, np.empty(stop))
        for name, value in arrays.items():
            self[name] = value

    def _bind(self, layout, flat):
        self._layout, self.flat = layout, flat
        self._views = {name: flat[span].reshape(shape) for name, (span, shape) in layout.items()}
        return self

    def _like(self, flat):
        return object.__new__(ModelParams)._bind(self._layout, flat)

    def __getitem__(self, name):
        return self._views[name]

    def __setitem__(self, name, value):
        view, shape = self._views[name], np.shape(value)
        if shape != view.shape:
            raise ModelError(f"tensor {name!r} has shape {view.shape}, cannot assign shape {shape}")
        view[...] = value

    def __contains__(self, name):
        return name in self._views

    def items(self):
        return self._views.items()

    def copy(self):
        return self._like(self.flat.copy())

    def zeros_like(self):
        return self._like(np.zeros_like(self.flat))

    def all_finite(self):
        return bool(np.isfinite(self.flat).all())


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
    symmetric fan-scaled uniform range; biases start at zero. A pinned P
    starts at zero, and stays there because backward_all gives it no gradient.
    """
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in param_shapes(hypers, num_users, num_items, user_dim, item_dim).items():
        if len(shape) == 1:  # a bias
            arrays[name] = np.zeros(shape)
        else:
            lim = 0.01 if name in ("P", "Q") else math.sqrt(6.0 / sum(shape))
            arrays[name] = rng.uniform(-lim, lim, size=shape)
    if hypers.pin_user_base:
        arrays["P"] = np.zeros_like(arrays["P"])  # after its draw, so the other tensors' draws stay put
    return ModelParams(arrays)


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def dense(params, weight, bias, inputs, kept=None):
    """relu(concat(inputs) @ W.T + b), with the bias only where params holds one.

    Stores concat(inputs) as kept[weight] for `dense_backward` when given `kept`.
    """
    x = np.concatenate(inputs, axis=1)
    if kept is not None:
        kept[weight] = x
    z = x @ params[weight].T
    if bias in params:
        z += params[bias]
    return relu(z, out=z)


def dense_backward(params, grads, weight, bias, x, out, g, cols):
    """Reverse of `dense` given its input x, its output and dL/dout; returns dL/dx[:, cols].

    Adds the weight's and bias's gradients into `grads`. ReLU'(z) is taken as
    out > 0, which equals z > 0 (subgradient 0 at the kink), so the
    pre-activations need not be kept.
    """
    gz = g * (out > 0.0)
    # added into the views: `grads[name] += x` would copy each back through __setitem__
    gw = grads[weight]
    gw += gz.T @ x
    if bias in grads:
        gb = grads[bias]
        gb += gz.sum(axis=0)
    return gz @ params[weight][:, cols]


# ---------------------------------------------------------------------------
# full-graph forward


@dataclass
class DiffusionState:
    """Per-layer user embeddings and what the backward pass needs of them.

    layers[k] has shape (num_users, D). inputs maps each dense layer's
    weight name to the input it multiplied, which `dense_backward` reads:
    concat(agg, layers[k]) for Wk<k>, where agg is layer k's neighbor
    aggregate, and in feature mode [Q, Y] for F and [X, P] for W0. For the
    max aggregator winners[k][a, c] is the followee whose layer-k value won
    column c of a's aggregate, as argmax picks it over a's followees in id
    order (-1 for an empty ego net); aggregate_all finds it per degree band
    of `social.followee_bands`, and the backward adds each column's
    gradient to its winner's row. For the average aggregator winners[k] is
    None.
    """

    layers: list[np.ndarray]
    winners: list
    inputs: dict = field(default_factory=dict)

    @property
    def final(self):
        return self.layers[-1]


def aggregate_all(layer, social, aggregator=AGG_AVERAGE):
    """Pool every user's followees' vectors; an empty ego net gives zeros.

    Returns (aggregate, winners). The average aggregator is `social.row_mean`.
    The max aggregator runs over `social.followee_bands`: per degree band,
    one gather of the padded followee ids, one reduce over the followee
    slots, and the first slot that holds the maximum. It picks a column's
    winner as argmax does: the first NaN, or else the lowest followee id
    among the tied maxima. A pad copies the row's first followee, so it
    never moves the first hit.
    """
    if aggregator == AGG_AVERAGE:
        return social.row_mean @ layer, None
    out = np.zeros_like(layer)
    winners = np.full(layer.shape, -1)
    cols = np.arange(layer.shape[1])
    for rows, ids in social.followee_bands:
        width, n = ids.shape
        g = layer.take(ids, axis=0)  # (width, n, D)
        best = np.maximum.reduce(g, axis=0)
        hit = g == best
        if np.isnan(best).any():
            hit |= np.isnan(g) & np.isnan(best)  # a NaN maximum is hit by every NaN
        # slot s scores width - s where it hits, so the largest score is the first hit
        score = np.arange(width, 0, -1, dtype=np.min_scalar_type(width))
        first = width - np.max(hit * score[:, None, None], axis=0).astype(np.intp)
        won = ids.take(first * n + np.arange(n)[:, None])
        winners[rows] = won
        # gathered rather than taken from best, which may hold the other zero sign
        out[rows] = layer.take(won * layer.shape[1] + cols)
    return out, winners


def diffuse(params, hypers, social, h0):
    """Run the K-layer diffusion recursion from layer-0 embeddings h0."""
    h0 = np.asarray(h0, dtype=np.float64)
    if h0.shape[0] != social.num_users:
        raise ModelError("h0 must cover every user")
    state = DiffusionState([h0], [])
    for k in range(hypers.K):
        h = state.layers[k]
        agg, winners = aggregate_all(h, social, hypers.aggregator)
        state.layers.append(dense(params, layer_weight_name(k), layer_bias_name(k), [agg, h], state.inputs))
        state.winners.append(winners)
    return state


def all_item_embeddings(params, hypers, item_features=None, kept=None):
    if not hypers.with_features:
        return params["Q"]
    if item_features is None:
        raise ModelError("feature mode requires item features")
    return dense(params, "F", "bF", [params["Q"], item_features.vectors], kept)


def all_user_base_embeddings(params, hypers, user_features=None, kept=None):
    if not hypers.with_features:
        return params["P"]
    if user_features is None:
        raise ModelError("feature mode requires user features")
    return dense(params, "W0", "b0", [user_features.vectors, params["P"]], kept)


def forward_all(params, hypers, bundle):
    """Compute (U, V, diffusion state) for every user and item.

    This is the model's only forward pass: training, evaluation and predict
    all run it. The history term always uses training positives only.
    """
    if bundle.social is None:
        raise ModelError("bundle has no social graph attached")
    kept = {}
    V = all_item_embeddings(params, hypers, bundle.item_features, kept)
    h0 = all_user_base_embeddings(params, hypers, bundle.user_features, kept)
    state = diffuse(params, hypers, bundle.social, h0)
    state.inputs.update(kept)
    # U = h^K + history mean, summed into the fresh product: in featureless
    # mode with K = 0, h^K is the view params["P"]
    U = bundle.train.row_mean @ V
    U += state.final
    return U, V, state


# A score U[a] . V[i] and each of its partial sums, in any order, is at most
# max_a |U[a]|_1 * max|V|; half of float max leaves room for rounding.
_SCORE_BOUND = np.finfo(np.float64).max / 2


def finite_forward(params, hypers, bundle):
    """forward_all's (U, V, state), or a NonFiniteError when U or V holds an
    inf or a NaN, or when a score U[a] . V[i] could overflow.

    An overflow in the forward is left to these checks, so it prints no
    RuntimeWarning. The score bound is checked here rather than by a
    floating-point flag, which a BLAS worker thread would not raise.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        U, V, state = forward_all(params, hypers, bundle)
        bound = np.abs(U).sum(axis=1).max(initial=0.0) * np.abs(V).max(initial=0.0)
    if not (np.isfinite(U).all() and np.isfinite(V).all()):
        raise NonFiniteError("non-finite embeddings")
    if not bound < _SCORE_BOUND:
        raise NonFiniteError("embeddings too large to score")
    return U, V, state


def backward_all(params, hypers, bundle, V, state, gU, gV, grads):
    """Reverse of forward_all: every tensor's gradient, given V, the state, dL/dU and dL/dV.

    Zeroes `grads`, a buffer in params' layout, adds the gradients into it
    and returns it. Runs the history term, then the K diffusion layers from
    the last with each aggregator's backward, then W0 and F, or P and Q
    when featureless. A pinned P gets no gradient, so Adam leaves it at zero.
    """
    D, layers = hypers.D, state.layers
    grads.flat.fill(0.0)
    # U = h^K + train.row_mean @ V
    gV_total = bundle.train.row_mean_t @ gU
    gV_total += gV
    gH = gU
    for k in range(hypers.K - 1, -1, -1):
        w, b = layer_weight_name(k), layer_bias_name(k)
        gcat = dense_backward(params, grads, w, b, state.inputs[w], layers[k + 1], gH, slice(None))
        gAgg = gcat[:, :D]
        if hypers.aggregator == AGG_AVERAGE:
            gH = bundle.social.row_mean_t @ gAgg
            gH += gcat[:, D:]
        else:
            # each column's gradient goes to the followee that won it, users
            # in ascending order so the sums match a per-user scatter
            gH = gcat[:, D:].copy()
            winners = state.winners[k]
            has = winners[:, 0] >= 0
            np.add.at(gH.reshape(-1), (winners[has] * D + np.arange(D)).ravel(), gAgg[has].ravel())

    if hypers.with_features:  # then gH and gV_total become dL/dP and dL/dQ
        d1 = bundle.user_features.dim
        gH = dense_backward(params, grads, "W0", "b0", state.inputs["W0"], layers[0], gH, slice(d1, None))
        gV_total = dense_backward(params, grads, "F", "bF", state.inputs["F"], V, gV_total, slice(hypers.L))
    gQ = grads["Q"]
    gQ += gV_total
    if not hypers.pin_user_base:
        gP = grads["P"]
        gP += gH
    return grads
