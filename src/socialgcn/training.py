"""Pairwise ranking training: sampling, loss, manual backprop, Adam.

Gradients are computed by hand-written reverse mode through the full
forward graph (item transform, layer-0 transform, K diffusion layers and
the history-mean term). Each batch recomputes the forward pass fresh over
the whole graph; parameters untouched by a batch naturally receive zero
gradient apart from the L2 term on P and Q.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import model as M


class TrainingError(Exception):
    """Invalid training inputs."""


class DivergenceError(TrainingError):
    """Non-finite loss or gradient encountered."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 512
    negatives_per_positive: int = 5
    lambda_reg: float = 0.0001
    max_epochs: int = 20
    early_stop_patience: int = 10
    seed: int = 0
    val_negatives: int = 200  # candidate negatives for per-epoch validation

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.negatives_per_positive <= 0:
            raise TrainingError("learning_rate, batch_size, negatives_per_positive must be positive")
        if self.lambda_reg < 0:
            raise TrainingError("lambda_reg must be >= 0")
        if self.max_epochs < 0 or self.early_stop_patience <= 0:
            raise TrainingError("max_epochs >= 0 and early_stop_patience > 0 required")
        if self.seed < 0:
            raise TrainingError("seed must be non-negative")


@dataclass
class PairwiseSample:
    user: int
    pos_item: int
    neg_item: int


# ---------------------------------------------------------------------------
# sampling


def sample_pairs(train, negatives_per_positive, rng_seed, epoch=0):
    """Draw negatives for every training positive.

    For each observed (a, i) emits `negatives_per_positive` samples with a
    uniform unobserved j. Fresh negatives every epoch (the epoch index is
    folded into the stream seed); users who rated the whole catalog are
    skipped and counted.
    """
    rng = np.random.default_rng([rng_seed, epoch])
    samples = []
    skipped_users = 0
    n_items = train.num_items
    for a, items in enumerate(train.positives_by_user):
        if not items:
            continue
        pos_set = set(items)
        if len(pos_set) >= n_items:
            skipped_users += 1
            continue
        for i in items:
            for _ in range(negatives_per_positive):
                j = int(rng.integers(n_items))
                while j in pos_set:
                    j = int(rng.integers(n_items))
                samples.append(PairwiseSample(a, i, j))
    return samples, skipped_users


# ---------------------------------------------------------------------------
# loss


def bpr_pair_loss(score_pos, score_neg):
    """-ln sigmoid(score_pos - score_neg), computed as softplus(-margin)."""
    return float(np.logaddexp(0.0, -(score_pos - score_neg)))


def _batch_arrays(batch):
    users = np.array([s.user for s in batch], dtype=int)
    pos = np.array([s.pos_item for s in batch], dtype=int)
    neg = np.array([s.neg_item for s in batch], dtype=int)
    return users, pos, neg


def _pair_mean_loss(U, V, batch):
    if not batch:
        return 0.0
    users, pos, neg = _batch_arrays(batch)
    margins = np.einsum("ij,ij->i", U[users], V[pos] - V[neg])
    return float(np.mean(np.logaddexp(0.0, -margins)))


def _reg_term(params, lambda_reg):
    return lambda_reg * (float(np.sum(params["P"] ** 2)) + float(np.sum(params["Q"] ** 2)))


def batch_loss(params, hypers, bundle, batch, lambda_reg=0.0, graph=None):
    """Mean pairwise loss over the batch plus lambda * (|P|^2 + |Q|^2).

    The regularizer is added once per batch, not scaled by batch size; an
    empty batch contributes a vacuous mean of 0.
    """
    U, V, _ = M.forward_all(params, hypers, bundle, graph)
    return _pair_mean_loss(U, V, batch) + _reg_term(params, lambda_reg)


# ---------------------------------------------------------------------------
# manual reverse mode


def _backward(params, hypers, bundle, graph, forward, batch, lambda_reg):
    """Gradients of batch_loss, read off the (U, V, state) of forward_all.

    ReLU'(z) is taken as relu(z) > 0, which equals z > 0 (subgradient 0 at
    the kink), so the pre-activations need not be kept.
    """
    U, V, state = forward
    grads = params.zeros_like()
    D = hypers.D
    gU = np.zeros((bundle.num_users, D))
    gV = np.zeros((bundle.num_items, D))

    if batch:
        users, pos, neg = _batch_arrays(batch)
        margins = np.einsum("ij,ij->i", U[users], V[pos] - V[neg])
        dm = -expit(-margins) / len(batch)
        np.add.at(gU, users, dm[:, None] * (V[pos] - V[neg]))
        np.add.at(gV, pos, dm[:, None] * U[users])
        np.add.at(gV, neg, -dm[:, None] * U[users])

    # U = h^K + hist @ V
    gV += graph.hist_t @ gU
    gH = gU

    layers = state.layers
    for k in range(hypers.K - 1, -1, -1):
        gZ = gH * (layers[k + 1] > 0.0)
        inputs = np.concatenate([state.aggs[k], layers[k]], axis=1)
        grads[M.layer_weight_name(k)] += gZ.T @ inputs
        if M.layer_bias_name(k) in grads.arrays:
            grads[M.layer_bias_name(k)] += gZ.sum(axis=0)
        gcat = gZ @ params[M.layer_weight_name(k)]
        gAgg = gcat[:, :D]
        gH = gcat[:, D:].copy()
        if hypers.aggregator == M.AGG_AVERAGE:
            gH += graph.mean_adj_t @ gAgg
        else:
            # each column's gradient goes to the followee that won it, users
            # in ascending order so the sums match a per-user scatter
            winners = state.winners[k]
            has = winners[:, 0] >= 0
            np.add.at(gH, (winners[has], np.arange(D)), gAgg[has])

    if hypers.with_features:
        X = bundle.user_features.vectors
        gZ0 = gH * (layers[0] > 0.0)
        grads["W0"] += gZ0.T @ np.concatenate([X, params["P"]], axis=1)
        if "b0" in grads.arrays:
            grads["b0"] += gZ0.sum(axis=0)
        grads["P"] += gZ0 @ params["W0"][:, X.shape[1] :]
        gZV = gV * (V > 0.0)
        grads["F"] += gZV.T @ np.concatenate([params["Q"], bundle.item_features.vectors], axis=1)
        if "bF" in grads.arrays:
            grads["bF"] += gZV.sum(axis=0)
        grads["Q"] += gZV @ params["F"][:, : hypers.L]
    else:
        grads["P"] += gH
        grads["Q"] += gV

    grads["P"] += 2.0 * lambda_reg * params["P"]
    grads["Q"] += 2.0 * lambda_reg * params["Q"]
    return grads


def compute_gradients(params, hypers, bundle, batch, lambda_reg=0.0, graph=None):
    """Exact gradients of batch_loss w.r.t. every model tensor."""
    graph = M.Graph(bundle) if graph is None else graph
    forward = M.forward_all(params, hypers, bundle, graph)
    grads = _backward(params, hypers, bundle, graph, forward, batch, lambda_reg)
    if not grads.all_finite():
        raise DivergenceError("non-finite gradient")
    return grads


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class FDReport:
    max_rel_err: float
    passed: bool
    coords_checked: int
    worst_tensor: str
    attempts: int


def finite_difference_check(
    params,
    hypers,
    bundle,
    batch,
    h=1e-5,
    tol=1e-4,
    lambda_reg=0.0,
    max_coords=4000,
    seed=0,
    loss_fn=None,
    grad_fn=None,
    retries=2,
    jitter=1e-3,
):
    """Compare analytic gradients against central finite differences.

    Error per coordinate is |analytic - fd| / max(|analytic|, |fd|, 1).
    If the check lands on a ReLU/max kink it retries at a jittered point.
    loss_fn/grad_fn can be injected to self-test the harness.
    """
    graph = M.Graph(bundle) if (loss_fn is None or grad_fn is None) else None
    if loss_fn is None:
        loss_fn = lambda p: batch_loss(p, hypers, bundle, batch, lambda_reg, graph)
    if grad_fn is None:
        grad_fn = lambda p: compute_gradients(p, hypers, bundle, batch, lambda_reg, graph)
    rng = np.random.default_rng(seed)
    work = params.copy()
    report = None
    for attempt in range(retries + 1):
        grads = grad_fn(work)
        max_err = 0.0
        worst = ""
        checked = 0
        for name in work.trainable_names():
            arr = work[name]
            flat_idx = np.arange(arr.size)
            if max_coords is not None and arr.size > max_coords:
                flat_idx = rng.choice(arr.size, size=max_coords, replace=False)
            garr = grads[name].ravel()
            for idx in flat_idx:
                orig = arr.flat[idx]
                arr.flat[idx] = orig + h
                up = loss_fn(work)
                arr.flat[idx] = orig - h
                down = loss_fn(work)
                arr.flat[idx] = orig
                fd = (up - down) / (2.0 * h)
                g = garr[idx]
                err = abs(g - fd) / max(abs(g), abs(fd), 1.0)
                checked += 1
                if err > max_err:
                    max_err = err
                    worst = name
        report = FDReport(max_err, max_err < tol, checked, worst, attempt + 1)
        if report.passed or attempt == retries:
            return report
        # jitter away from a suspected kink and retry
        for name in work.trainable_names():
            work[name] = work[name] + rng.uniform(-jitter, jitter, size=work[name].shape)
    return report


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: M.TensorBundle
    v: M.TensorBundle
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params):
        return cls(m=params.zeros_like(), v=params.zeros_like())


def adam_step(params, adam, grads, lr):
    """In-place Adam update with bias correction; frozen tensors are skipped."""
    adam.step += 1
    t = adam.step
    b1, b2 = adam.beta1, adam.beta2
    for name in params.names():
        g = grads[name]
        adam.m[name] = b1 * adam.m[name] + (1.0 - b1) * g
        adam.v[name] = b2 * adam.v[name] + (1.0 - b2) * g * g
        if name in params.frozen:
            continue
        mhat = adam.m[name] / (1.0 - b1**t)
        vhat = adam.v[name] / (1.0 - b2**t)
        params[name] = params[name] - lr * mhat / (np.sqrt(vhat) + adam.eps)
        if not np.all(np.isfinite(params[name])):
            raise DivergenceError(f"non-finite values in {name} after Adam step {t}")
    return params, adam


# ---------------------------------------------------------------------------
# training loop


def train(bundle, hypers, config):
    """Run the full pairwise training loop.

    Returns (best params, per-epoch log records). Model selection and early
    stopping use validation NDCG@10; with an empty validation split the
    final-epoch parameters are returned.
    """
    from . import evaluation  # local import avoids a cycle at module load

    if bundle.train.num_edges == 0:
        raise TrainingError("empty training data")
    d1 = bundle.user_features.dim if bundle.user_features is not None else 0
    d2 = bundle.item_features.dim if bundle.item_features is not None else 0
    params = M.init_params(hypers, bundle.num_users, bundle.num_items, d1, d2, seed=config.seed)
    graph = M.Graph(bundle)
    adam = AdamState.init(params)

    has_val = bundle.validation.num_edges > 0
    val_cfg = evaluation.EvalConfig(
        n_values=[10],
        num_negatives=config.val_negatives,
        repetitions=1,
        seed=config.seed,
    )
    log = []
    best_params = params.copy()
    best_metric = -np.inf
    best_epoch = -1
    stale = 0

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        samples, skipped = sample_pairs(
            bundle.train, config.negatives_per_positive, config.seed, epoch
        )
        order = np.random.default_rng([config.seed, epoch, 1]).permutation(len(samples))
        losses = []
        for start in range(0, len(samples), config.batch_size):
            batch = [samples[k] for k in order[start : start + config.batch_size]]
            U, V, state = M.forward_all(params, hypers, bundle, graph)
            loss = _pair_mean_loss(U, V, batch) + _reg_term(params, config.lambda_reg)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            grads = _backward(
                params, hypers, bundle, graph, (U, V, state), batch, config.lambda_reg
            )
            if not grads.all_finite():
                raise DivergenceError(f"non-finite gradient at epoch {epoch}")
            adam_step(params, adam, grads, config.learning_rate)
            losses.append(loss)
        epoch_loss = float(np.mean(losses)) if losses else 0.0

        if has_val:
            rep = evaluation.evaluate(params, hypers, bundle, val_cfg, split="validation")
            val_hr = rep.mean("hr", 10)
            val_ndcg = rep.mean("ndcg", 10)
        else:
            val_hr = float("nan")
            val_ndcg = float("nan")
        log.append(
            {
                "epoch": epoch,
                "loss": epoch_loss,
                "val_hr10": val_hr,
                "val_ndcg10": val_ndcg,
                "skipped_users": skipped,
                "wall_time": time.perf_counter() - t0,
            }
        )
        if has_val:
            if val_ndcg > best_metric:
                best_metric = val_ndcg
                best_params = params.copy()
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= config.early_stop_patience:
                    break
        else:
            best_params = params.copy()
            best_epoch = epoch

    if best_epoch < 0:
        best_params = params.copy()
    return best_params, log
