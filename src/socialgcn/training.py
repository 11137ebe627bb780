"""Pairwise ranking training: sampling, loss, gradients, Adam.

Each epoch draws its negatives from one Generator, read through a bounded
buffer. Each batch runs model.forward_all fresh over the whole graph, takes
the loss's gradient with respect to U and V, and hands it to
model.backward_all for every tensor's gradient, written into the one
gradient buffer the run made. Parameters untouched by a batch receive zero
gradient apart from the L2 term on P and Q.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import model as M
from .bounds import check, setting


class TrainingError(Exception):
    """Invalid training inputs."""


class DivergenceError(TrainingError):
    """Non-finite loss or gradient encountered."""


@dataclass
class TrainConfig:
    learning_rate: float = setting(0.001, within="finite and > 0")
    batch_size: int = setting(512, within=">= 1")
    negatives_per_positive: int = setting(5, within=">= 1")
    lambda_reg: float = setting(0.0001, within="finite and >= 0")
    max_epochs: int = setting(20, within=">= 0")
    early_stop_patience: int = setting(10, within=">= 1")
    seed: int = setting(0, within=">= 0")
    val_negatives: int = setting(200, within=">= 1")  # candidate negatives for per-epoch validation

    def __post_init__(self):
        check(TrainConfig, vars(self), TrainingError)


@dataclass(eq=False)
class Pairs:
    """Training triples as parallel int arrays: users[t] rated pos[t], not neg[t].

    Indexing with a slice or an index array selects triples, so an epoch's
    shuffle is `pairs[order]` and a batch is a slice of it.
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


_CHUNK = 1 << 14  # draws per refill of sample_pairs' buffer: 128 KiB of int64


def sample_pairs(train, negatives_per_positive, rng_seed, epoch=0):
    """Draw negatives for every training positive; returns (Pairs, skipped users).

    For each observed (a, i) emits `negatives_per_positive` triples with a
    uniform unobserved j. Fresh negatives every epoch (the epoch index is
    folded into the stream seed); users who rated the whole catalog are
    skipped and counted (rows are duplicate-free, as from_arrays makes
    them, so a row as long as the catalog is all of it).

    Each user's negatives are the accepted draws of rejection sampling in
    stream order: the stream is read until the user has their count, and no
    further. A block `rng.integers(n, size=k)` is the same stream as k
    scalar draws, so the draws come from a buffer refilled `_CHUNK` at a
    time, and each round reads at most the missing count from it. The
    Generator lives only in this call, so the buffer's unread tail changes
    nothing.
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
    unrated = np.ones(n_items, dtype=bool)
    stream, read = neg[:0], 0
    done = 0
    for a in kept.tolist():
        row = indices[indptr[a] : indptr[a + 1]]
        unrated[row] = False
        end = done + len(row) * negatives_per_positive
        while done < end:
            if read == len(stream):
                stream, read = rng.integers(n_items, size=_CHUNK), 0
            block = stream[read : read + end - done]
            read += len(block)
            block = block[unrated[block]]
            neg[done : done + len(block)] = block
            done += len(block)
        unrated[row] = True
    return Pairs(users, pos, neg), int(np.count_nonzero(saturated))


# ---------------------------------------------------------------------------
# loss


def _pair_terms(U, V, batch):
    """(mean pairwise loss, U[users], V[pos] - V[neg], score margins) of a non-empty batch."""
    Uu = U.take(batch.users, axis=0)
    Vd = V.take(batch.pos, axis=0) - V.take(batch.neg, axis=0)
    margins = np.einsum("ij,ij->i", Uu, Vd)
    return float(np.mean(np.logaddexp(0.0, -margins))), Uu, Vd, margins


def _loss_and_gradients(params, hypers, bundle, batch, lambda_reg, grads):
    """(loss, gradients) of one batch from one forward_all and one backward_all; one set of margins serves both.

    The loss is the batch's mean of -ln sigmoid(margin), 0 for an empty
    batch, plus lambda * (|P|^2 + |Q|^2), added once and not scaled by the
    batch size. The gradients are written into `grads`, in params' layout,
    which is returned; its earlier contents are ignored.
    """
    U, V, state = M.forward_all(params, hypers, bundle)
    D = hypers.D
    num_users, num_items = bundle.num_users, bundle.num_items

    if batch:
        # imported here, so that commands that never train do not load scipy.special
        from scipy.special import expit

        loss, Uu, Vd, margins = _pair_terms(U, V, batch)
        dm = (-expit(-margins) / len(batch))[:, None]
        # bincount adds each flat index's weights from 0.0 in input order,
        # the sums a per-triple scatter makes; gV takes pos then neg, and
        # its neg weights -(dm * Uu) equal (-dm) * Uu bit for bit
        cols = np.arange(D)
        gU = np.bincount(
            (batch.users[:, None] * D + cols).ravel(), (dm * Vd).ravel(), num_users * D
        ).reshape(num_users, D)
        w = np.empty((2, len(batch), D))
        np.multiply(dm, Uu, out=w[0])
        np.negative(w[0], out=w[1])
        gV = np.bincount(
            (np.concatenate([batch.pos, batch.neg])[:, None] * D + cols).ravel(),
            w.ravel(),
            num_items * D,
        ).reshape(num_items, D)
    else:
        loss = 0.0
        gU = np.zeros((num_users, D))
        gV = np.zeros((num_items, D))
    loss += lambda_reg * (float(np.sum(np.square(params["P"]))) + float(np.sum(np.square(params["Q"]))))

    M.backward_all(params, hypers, bundle, V, state, gU, gV, grads)
    n = params["P"].size + params["Q"].size  # P and Q lead the layout
    grads.flat[:n] += params.flat[:n] * (2.0 * lambda_reg)
    return loss, grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Adam's moments and step count."""

    m: M.ModelParams
    v: M.ModelParams
    step: int = 0
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    @classmethod
    def init(cls, params):
        return cls(m=params.zeros_like(), v=params.zeros_like())


def adam_step(params, adam, grads, lr):
    """Adam step with bias correction on `flat`, every tensor at once.

    Updates the moments and params in place and only reads `grads`. It runs the
    operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    params -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps) in their order.
    A tensor whose gradient is always +0.0, as a pinned P's is, keeps its
    values: its moments stay 0, so its step is 0 * lr / eps.
    """
    adam.step += 1
    t = adam.step
    b1, b2 = adam.beta1, adam.beta2
    g, m, v = grads.flat, adam.m.flat, adam.v.flat
    m *= b1
    m += g * (1.0 - b1)
    v *= b2
    a = g * (1.0 - b2)
    a *= g
    v += a
    a = m / (1.0 - b1**t)
    a *= lr
    b = v / (1.0 - b2**t)
    np.sqrt(b, out=b)
    b += adam.eps
    a /= b
    params.flat -= a
    if not (params.all_finite() and np.isfinite(m).all() and np.isfinite(v).all()):
        for name, value in params.items():
            if not np.isfinite(value).all():
                raise DivergenceError(f"non-finite values in {name} after Adam step {t}")
            if not (np.isfinite(adam.m[name]).all() and np.isfinite(adam.v[name]).all()):
                raise DivergenceError(f"non-finite Adam moments in {name} after Adam step {t}")
    return params, adam


# ---------------------------------------------------------------------------
# training loop


def train(bundle, hypers, config):
    """Run the full pairwise training loop.

    Returns (best params, per-epoch log records). Model selection and early
    stopping use validation NDCG@10. When no epoch improves it, as with an
    empty validation split, the last parameters are returned. A
    DivergenceError when a loss, a gradient, an Adam step or the forward of
    the parameters an epoch ends with is not finite, or when that forward
    gives scores that could overflow.
    """
    from . import evaluation  # local import avoids a cycle at module load

    if bundle.train.num_edges == 0:
        raise TrainingError("empty training data")
    d1 = bundle.user_features.dim if bundle.user_features is not None else 0
    d2 = bundle.item_features.dim if bundle.item_features is not None else 0
    params = M.init_params(hypers, bundle.num_users, bundle.num_items, d1, d2, seed=config.seed)
    adam = AdamState.init(params)
    grads = params.zeros_like()

    has_val = bundle.validation.num_edges > 0
    val_cfg = evaluation.EvalConfig(
        n_values=[10],
        num_negatives=config.val_negatives,
        repetitions=1,
        seed=config.seed,
    )
    val_tasks = []  # built in epoch 0's validation; every epoch ranks the same tasks
    log = []
    best_params = None
    best_metric = -np.inf
    stale = 0

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        samples, skipped = sample_pairs(
            bundle.train, config.negatives_per_positive, config.seed, epoch
        )
        order = np.random.default_rng([config.seed, epoch, 1]).permutation(len(samples))
        samples = samples[order]
        losses = []
        for start in range(0, len(samples), config.batch_size):
            batch = samples[start : start + config.batch_size]
            # overflow here only makes inf or nan, which the finite checks below report
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                loss, grads = _loss_and_gradients(params, hypers, bundle, batch, config.lambda_reg, grads)
                if not np.isfinite(loss):
                    raise DivergenceError(f"non-finite loss at epoch {epoch}")
                if not grads.all_finite():
                    raise DivergenceError(f"non-finite gradient at epoch {epoch}")
                adam_step(params, adam, grads, config.learning_rate)
            losses.append(loss)
        epoch_loss = float(np.mean(losses)) if losses else 0.0

        if has_val:
            try:
                rep = evaluation.evaluate(params, hypers, bundle, val_cfg, "validation", val_tasks)
            except M.NonFiniteError as exc:
                raise DivergenceError(f"{exc} at epoch {epoch}") from None
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
                stale = 0
            else:
                stale += 1
                if stale >= config.early_stop_patience:
                    break

    if log and not has_val:  # else each epoch's validation forward checked its parameters
        try:
            M.finite_forward(params, hypers, bundle)
        except M.NonFiniteError as exc:
            raise DivergenceError(f"{exc} at epoch {log[-1]['epoch']}") from None
    return (params if best_params is None else best_params), log
