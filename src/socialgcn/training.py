"""Pairwise ranking training: sampling, loss, manual backprop, Adam.

Gradients are computed by hand-written reverse mode through the full
forward graph (item transform, layer-0 transform, K diffusion layers and
the history-mean term). Each batch recomputes the forward pass fresh over
the whole graph; parameters untouched by a batch naturally receive zero
gradient apart from the L2 term on P and Q.
"""
from __future__ import annotations

import math
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
        if not 0.0 < self.learning_rate < math.inf:
            raise TrainingError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not 0.0 <= self.lambda_reg < math.inf:
            raise TrainingError(f"lambda_reg must be finite and >= 0, got {self.lambda_reg!r}")
        if self.batch_size <= 0 or self.negatives_per_positive <= 0:
            raise TrainingError("batch_size, negatives_per_positive must be positive")
        if self.max_epochs < 0 or self.early_stop_patience <= 0:
            raise TrainingError("max_epochs >= 0 and early_stop_patience > 0 required")
        if self.seed < 0:
            raise TrainingError("seed must be non-negative")


@dataclass(eq=False)
class Pairs:
    """Training triples as parallel int arrays: users[t] rated pos[t], not neg[t].

    Indexing with a slice or an index array selects triples, so a batch is
    `pairs[order[start:stop]]`.
    """

    users: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    def __len__(self):
        return len(self.users)

    def __getitem__(self, index):
        return Pairs(self.users[index], self.pos[index], self.neg[index])


# ---------------------------------------------------------------------------
# sampling


def sample_pairs(train, negatives_per_positive, rng_seed, epoch=0):
    """Draw negatives for every training positive; returns (Pairs, skipped users).

    For each observed (a, i) emits `negatives_per_positive` triples with a
    uniform unobserved j. Fresh negatives every epoch (the epoch index is
    folded into the stream seed); users who rated the whole catalog are
    skipped and counted (rows are duplicate-free, as from_edges makes
    them, so a row as long as the catalog is all of it).

    Each user's negatives are the accepted draws of rejection sampling in
    stream order. A block `rng.integers(n, size=k)` is the same stream as k
    scalar draws, so drawing the missing count in blocks consumes the
    Generator exactly as one draw per negative would.
    """
    rng = np.random.default_rng([rng_seed, epoch])
    n_items = train.num_items
    indptr, indices = train.indptr, train.indices
    lengths = np.diff(indptr)
    saturated = (lengths > 0) & (lengths >= n_items)
    kept = np.flatnonzero((lengths > 0) & ~saturated)
    users = np.repeat(kept, lengths[kept] * negatives_per_positive)
    pos = np.repeat(indices[np.repeat(~saturated, lengths)], negatives_per_positive)
    # each user's negatives are filled in place, so no per-user arrays pile up
    neg = np.empty_like(pos)
    rated = np.zeros(n_items, dtype=bool)
    done = 0
    for a in kept.tolist():
        row = indices[indptr[a] : indptr[a + 1]]
        rated[row] = True
        end = done + len(row) * negatives_per_positive
        while done < end:
            block = rng.integers(n_items, size=end - done)
            block = block[~rated[block]]
            neg[done : done + len(block)] = block
            done += len(block)
        rated[row] = False
    return Pairs(users, pos, neg), int(np.count_nonzero(saturated))


# ---------------------------------------------------------------------------
# loss


def bpr_pair_loss(score_pos, score_neg):
    """-ln sigmoid(score_pos - score_neg), computed as softplus(-margin)."""
    return float(np.logaddexp(0.0, -(score_pos - score_neg)))


def _pair_terms(U, V, batch):
    """(mean pairwise loss, U[users], V[pos] - V[neg], score margins) of a non-empty batch."""
    Uu = U[batch.users]
    Vd = V[batch.pos] - V[batch.neg]
    margins = np.einsum("ij,ij->i", Uu, Vd)
    return float(np.mean(np.logaddexp(0.0, -margins))), Uu, Vd, margins


def _reg_term(params, lambda_reg):
    return lambda_reg * (float(np.sum(params["P"] ** 2)) + float(np.sum(params["Q"] ** 2)))


def batch_loss(params, hypers, bundle, batch, lambda_reg=0.0):
    """Mean pairwise loss over the batch plus lambda * (|P|^2 + |Q|^2).

    The regularizer is added once per batch, not scaled by batch size; an
    empty batch contributes a vacuous mean of 0. Forward only, for the
    finite-difference check.
    """
    U, V, _ = M.forward_all(params, hypers, bundle)
    return (_pair_terms(U, V, batch)[0] if batch else 0.0) + _reg_term(params, lambda_reg)


# ---------------------------------------------------------------------------
# manual reverse mode


def _loss_and_gradients(params, hypers, bundle, batch, lambda_reg):
    """(batch_loss, its gradients) from one forward_all; one set of margins serves both.

    ReLU'(z) is taken as relu(z) > 0, which equals z > 0 (subgradient 0 at
    the kink), so the pre-activations need not be kept.
    """
    U, V, state = M.forward_all(params, hypers, bundle)
    grads = params.zeros_like()
    D = hypers.D
    num_users, num_items = bundle.num_users, bundle.num_items

    if batch:
        loss, Uu, Vd, margins = _pair_terms(U, V, batch)
        dm = (-expit(-margins) / len(batch))[:, None]
        # bincount adds each flat index's weights from 0.0 in input order,
        # the sums a per-triple scatter makes; gV takes pos then neg
        cols = np.arange(D)
        gU = np.bincount(
            (batch.users[:, None] * D + cols).ravel(), (dm * Vd).ravel(), num_users * D
        ).reshape(num_users, D)
        gV = np.bincount(
            (np.concatenate([batch.pos, batch.neg])[:, None] * D + cols).ravel(),
            np.concatenate([dm * Uu, -dm * Uu]).ravel(),
            num_items * D,
        ).reshape(num_items, D)
    else:
        loss = 0.0
        gU = np.zeros((num_users, D))
        gV = np.zeros((num_items, D))
    loss += _reg_term(params, lambda_reg)

    # U = h^K + train.row_mean @ V
    gV += bundle.train.row_mean_t @ gU
    gH = gU

    layers = state.layers
    for k in range(hypers.K - 1, -1, -1):
        gZ = gH * (layers[k + 1] > 0.0)
        inputs = np.concatenate([state.aggs[k], layers[k]], axis=1)
        grads[M.layer_weight_name(k)] += gZ.T @ inputs
        if M.layer_bias_name(k) in grads:
            grads[M.layer_bias_name(k)] += gZ.sum(axis=0)
        gcat = gZ @ params[M.layer_weight_name(k)]
        gAgg = gcat[:, :D]
        gH = gcat[:, D:].copy()
        if hypers.aggregator == M.AGG_AVERAGE:
            gH += bundle.social.row_mean_t @ gAgg
        else:
            # each column's gradient goes to the followee that won it, users
            # in ascending order so the sums match a per-user scatter
            winners = state.winners[k]
            has = winners[:, 0] >= 0
            np.add.at(gH.reshape(-1), (winners[has] * D + np.arange(D)).ravel(), gAgg[has].ravel())

    if hypers.with_features:
        X = bundle.user_features.vectors
        gZ0 = gH * (layers[0] > 0.0)
        grads["W0"] += gZ0.T @ np.concatenate([X, params["P"]], axis=1)
        if "b0" in grads:
            grads["b0"] += gZ0.sum(axis=0)
        grads["P"] += gZ0 @ params["W0"][:, X.shape[1] :]
        gZV = gV * (V > 0.0)
        grads["F"] += gZV.T @ np.concatenate([params["Q"], bundle.item_features.vectors], axis=1)
        if "bF" in grads:
            grads["bF"] += gZV.sum(axis=0)
        grads["Q"] += gZV @ params["F"][:, : hypers.L]
    else:
        grads["P"] += gH
        grads["Q"] += gV

    grads["P"] += 2.0 * lambda_reg * params["P"]
    grads["Q"] += 2.0 * lambda_reg * params["Q"]
    return loss, grads


def compute_gradients(params, hypers, bundle, batch, lambda_reg=0.0):
    """Exact gradients of batch_loss w.r.t. every model tensor."""
    _, grads = _loss_and_gradients(params, hypers, bundle, batch, lambda_reg)
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
    if loss_fn is None:
        loss_fn = lambda p: batch_loss(p, hypers, bundle, batch, lambda_reg)
    if grad_fn is None:
        grad_fn = lambda p: compute_gradients(p, hypers, bundle, batch, lambda_reg)
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
    m: M.ModelParams
    v: M.ModelParams
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params):
        return cls(m=params.zeros_like(), v=params.zeros_like())


def adam_step(params, adam, grads, lr):
    """In-place Adam step with bias correction on `flat`; frozen tensors update only their moments."""
    adam.step += 1
    t = adam.step
    b1, b2 = adam.beta1, adam.beta2
    g, m, v = grads.flat, adam.m.flat, adam.v.flat
    m[...] = b1 * m + (1.0 - b1) * g
    v[...] = b2 * v + (1.0 - b2) * g * g
    step = lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + adam.eps)
    np.subtract(params.flat, step, out=params.flat, where=params.trainable_mask())
    if not (params.all_finite() and np.isfinite(m).all() and np.isfinite(v).all()):
        for name in params.trainable_names():
            if not np.isfinite(params[name]).all():
                raise DivergenceError(f"non-finite values in {name} after Adam step {t}")
            if not (np.isfinite(adam.m[name]).all() and np.isfinite(adam.v[name]).all()):
                raise DivergenceError(f"non-finite Adam moments in {name} after Adam step {t}")
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
            batch = samples[order[start : start + config.batch_size]]
            # overflow here only makes inf or nan, which the finite checks below report
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                loss, grads = _loss_and_gradients(params, hypers, bundle, batch, config.lambda_reg)
                if not np.isfinite(loss):
                    raise DivergenceError(f"non-finite loss at epoch {epoch}")
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
