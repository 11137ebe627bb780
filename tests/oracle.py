"""Per-entity reference operations, one user or item at a time.

The package computes the model over whole matrices (`model.forward_all`).
These functions compute the same quantities entity by entity, with the
shape checks of the scalar definitions, so tests can compare the two.
"""
import numpy as np

from socialgcn import model as M


def _bias(params, name, dim):
    return params[name] if name in params else np.zeros(dim)


def item_embedding(params, hypers, q_i, y_i=None):
    """Item latent vector: ReLU(F [q_i, y_i] + bF), or q_i itself featureless."""
    q_i = np.asarray(q_i, dtype=np.float64)
    if not hypers.with_features:
        if q_i.shape != (hypers.L,):
            raise M.ModelError(f"q_i shape {q_i.shape} != ({hypers.L},)")
        return q_i
    if y_i is None:
        raise M.ModelError("feature mode requires item features")
    y_i = np.asarray(y_i, dtype=np.float64)
    z = np.concatenate([q_i, y_i])
    F = params["F"]
    if F.shape[1] != z.shape[0]:
        raise M.ModelError(f"F expects input dim {F.shape[1]}, got {z.shape[0]}")
    return M.relu(F @ z + _bias(params, "bF", hypers.D))


def user_base_embedding(params, hypers, x_a=None, p_a=None):
    """Layer-0 user vector: ReLU(W0 [x_a, p_a] + b0), or p_a itself featureless."""
    p_a = np.asarray(p_a, dtype=np.float64)
    if not hypers.with_features:
        if p_a.shape != (hypers.L,):
            raise M.ModelError(f"p_a shape {p_a.shape} != ({hypers.L},)")
        return p_a
    if x_a is None:
        raise M.ModelError("feature mode requires user features")
    x_a = np.asarray(x_a, dtype=np.float64)
    z = np.concatenate([x_a, p_a])
    W0 = params["W0"]
    if W0.shape[1] != z.shape[0]:
        raise M.ModelError(f"W0 expects input dim {W0.shape[1]}, got {z.shape[0]}")
    return M.relu(W0 @ z + _bias(params, "b0", hypers.D))


def aggregate_neighbors(layer, neighbor_ids, aggregator=M.AGG_AVERAGE):
    """Pool a user's neighbors' layer-k vectors; empty ego net gives zeros."""
    layer = np.asarray(layer)
    if len(neighbor_ids) == 0:
        return np.zeros(layer.shape[1])
    block = layer[np.asarray(neighbor_ids, dtype=int)]
    if aggregator == M.AGG_AVERAGE:
        return block.mean(axis=0)
    if aggregator == M.AGG_MAX:
        return block.max(axis=0)
    raise M.ModelError(f"unknown aggregator {aggregator!r}")


def convolve_layer(params, k, h_agg, h_a):
    """One graph-convolution step: ReLU(Wk [h_agg, h_a] + bk)."""
    W = params[M.layer_weight_name(k)]
    z = np.concatenate([np.asarray(h_agg, dtype=np.float64), np.asarray(h_a, dtype=np.float64)])
    if W.shape[1] != z.shape[0]:
        raise M.ModelError(f"Wk{k} expects input dim {W.shape[1]}, got {z.shape[0]}")
    return M.relu(W @ z + _bias(params, M.layer_bias_name(k), W.shape[0]))


def user_embedding(diffusion, user, history_items, item_embs):
    """Final user vector: h^K_a plus the mean of the training-positive items."""
    u = diffusion.final[user].copy()
    if len(history_items) > 0:
        u += item_embs[np.asarray(history_items, dtype=int)].mean(axis=0)
    return u


def predict(u_a, v_i):
    """Predicted preference: inner product of the two embeddings."""
    u_a = np.asarray(u_a, dtype=np.float64)
    v_i = np.asarray(v_i, dtype=np.float64)
    if u_a.shape != v_i.shape:
        raise M.ModelError(f"shape mismatch {u_a.shape} vs {v_i.shape}")
    return float(u_a @ v_i)


def score_all_items(params, hypers, bundle, user, candidate_items):
    """Score a candidate list for one user; returns [(item, score), ...]."""
    if not (0 <= user < bundle.num_users):
        raise M.ModelError(f"unknown user id {user}")
    for i in candidate_items:
        if not (0 <= i < bundle.num_items):
            raise M.ModelError(f"unknown item id {i}")
    if len(candidate_items) == 0:
        return []
    U, V, _ = M.forward_all(params, hypers, bundle)
    cand = np.asarray(candidate_items, dtype=int)
    scores = V[cand] @ U[user]
    return [(int(i), float(s)) for i, s in zip(cand, scores)]
