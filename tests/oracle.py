"""Per-entity reference operations, one user, item, line or task at a time.

The package computes the model over whole matrices (`model.forward_all`),
draws negatives in blocks (`training.sample_pairs`), parses TSV files in
bulk passes (`data.load_*`), builds ranking tasks as int arrays
(`evaluation.build_tasks`), ranks every task of an evaluation at once
(`evaluation.evaluate_tasks`) and runs Adam once over the flat parameter
vector (`training.adam_step`). These functions compute the same quantities
one entity (or tensor) at a time, with the checks of the scalar
definitions, so tests can compare the two.
"""
import hashlib
import math

import numpy as np

from socialgcn import data as D
from socialgcn import evaluation as E
from socialgcn import model as M
from socialgcn.data import DataError, _parse_header
from socialgcn.training import DivergenceError


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


def sample_pairs(train, negatives_per_positive, rng_seed, epoch=0):
    """Negative sampling one scalar Generator draw at a time.

    Returns ([(user, pos_item, neg_item), ...], skipped users).
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
                samples.append((a, i, j))
    return samples, skipped_users


def adam_step(params, adam, grads, lr):
    """Adam one tensor at a time, in layout order; frozen tensors update only their moments."""
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
        if not (np.all(np.isfinite(adam.m[name])) and np.all(np.isfinite(adam.v[name]))):
            raise DivergenceError(f"non-finite Adam moments in {name} after Adam step {t}")
    return params, adam


def aggregate_max(layer, social):
    """Max pooling one user at a time: (aggregate, argmax winners, -1 if no followees)."""
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


# ---------------------------------------------------------------------------
# line-by-line TSV loaders, list-based constructors, degree filter, split and fingerprint


def interactions_from_edges(edges, num_users=None, num_items=None):
    """InteractionMatrix from (user, item) pairs, one edge at a time."""
    edges = sorted(set(edges))
    if num_users is None:
        num_users = 1 + max((a for a, _ in edges), default=-1)
    if num_items is None:
        num_items = 1 + max((i for _, i in edges), default=-1)
    by_user = [[] for _ in range(num_users)]
    for a, i in edges:
        if not (0 <= a < num_users):
            raise DataError(f"user id {a} out of range [0, {num_users})")
        if not (0 <= i < num_items):
            raise DataError(f"item id {i} out of range [0, {num_items})")
        by_user[a].append(i)
    return D.InteractionMatrix(num_users, num_items, *_csr_of(by_user))


def social_from_edges(edges, num_users=None):
    """SocialGraph from (follower, followee) pairs, one edge at a time."""
    edges = sorted(set(edges))
    if num_users is None:
        num_users = 1 + max((max(a, b) for a, b in edges), default=-1)
    out = [[] for _ in range(num_users)]
    for a, b in edges:
        if a == b:
            raise DataError(f"self-loop on user {a}")
        if not (0 <= a < num_users and 0 <= b < num_users):
            raise DataError(f"social edge ({a},{b}) out of range [0, {num_users})")
        out[a].append(b)
    return D.SocialGraph(num_users, *_csr_of(out))


def _csr_of(rows):
    """(indptr, indices) int64 arrays of per-row lists, one row at a time."""
    indptr, indices = [0], []
    for row in rows:
        indices.extend(row)
        indptr.append(len(indices))
    return np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64)


def _iter_data_lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def load_interactions(path):
    """Load "user<TAB>item" lines into a deduplicated InteractionMatrix."""
    edges = []
    header = None
    for lineno, line in _iter_data_lines(path):
        if header is None and not edges:
            h = _parse_header(line)
            if h is not None:
                header = h
                continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'user<TAB>item', got {line!r}")
        try:
            a, i = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer id in {line!r}") from None
        if a < 0 or i < 0:
            raise DataError(f"{path}:{lineno}: negative id in {line!r}")
        if max(a, i) >= 2**63:
            raise DataError(f"{path}:{lineno}: id out of range in {line!r}")
        for name, value in (("user", a), ("item", i)):
            count = (header or {}).get(f"{name}s")
            if count is not None and value >= count:
                raise DataError(f"{path}:{lineno}: {name} id {value} out of range [0, {count})")
        edges.append((a, i))
    if not edges and header is None:
        raise DataError(f"{path}: empty interaction file")
    num_users = header.get("users") if header else None
    num_items = header.get("items") if header else None
    return interactions_from_edges(edges, num_users, num_items)


def load_social(path):
    """Load "follower<TAB>followee" lines; self-loops are rejected."""
    edges = []
    header = None
    for lineno, line in _iter_data_lines(path):
        if header is None and not edges:
            h = _parse_header(line)
            if h is not None:
                header = h
                continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'follower<TAB>followee', got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer id in {line!r}") from None
        if a == b:
            raise DataError(f"{path}:{lineno}: self-loop on user {a}")
        if not (-(2**63) <= min(a, b) and max(a, b) < 2**63):
            raise DataError(f"{path}:{lineno}: id out of range in {line!r}")
        users = (header or {}).get("users")
        if users is not None and not (0 <= a < users and 0 <= b < users):
            raise DataError(f"{path}:{lineno}: social edge ({a},{b}) out of range [0, {users})")
        if a < 0 or b < 0:
            raise DataError(f"{path}:{lineno}: negative id in {line!r}")
        edges.append((a, b))
    if not edges and header is None:
        raise DataError(f"{path}: empty social file")
    num_users = header.get("users") if header else None
    return social_from_edges(edges, num_users)


def load_features(path, expected_count):
    """Load "id<TAB>v1,v2,...,vd" lines covering ids 0..expected_count-1."""
    rows = {}
    dim = None
    for lineno, line in _iter_data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'id<TAB>values', got {line!r}")
        try:
            ent = int(parts[0])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer id {parts[0]!r}") from None
        try:
            vec = np.array([float(v) for v in parts[1].split(",")], dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed feature values") from None
        if not np.all(np.isfinite(vec)):
            raise DataError(f"{path}:{lineno}: non-finite feature value for entity {ent}")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise DataError(f"{path}:{lineno}: dim {len(vec)} != {dim} for entity {ent}")
        if ent in rows:
            raise DataError(f"{path}:{lineno}: duplicate entity {ent}")
        rows[ent] = vec
    if dim is None:
        raise DataError(f"{path}: empty feature file")
    missing = [e for e in range(expected_count) if e not in rows]
    if missing:
        raise DataError(f"{path}: missing feature vector for entity {missing[0]}")
    mat = np.stack([rows[e] for e in range(expected_count)])
    return D.FeatureTable(dim=dim, vectors=mat)


def split(interactions, config):
    """Uniform edge-level split; floor sizes, remainders stay in train."""
    edges = interactions.edges()
    n = len(edges)
    if n == 0:
        raise DataError("cannot split an empty interaction matrix")
    n_test = math.floor(n * config.test_fraction)
    if n_test == 0:
        raise DataError(f"test_fraction {config.test_fraction} yields an empty test set ({n} edges)")
    n_val = math.floor((n - n_test) * config.validation_fraction_of_train)
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    test_e = [edges[k] for k in order[:n_test]]
    val_e = [edges[k] for k in order[n_test : n_test + n_val]]
    train_e = [edges[k] for k in order[n_test + n_val :]]
    dims = dict(num_users=interactions.num_users, num_items=interactions.num_items)
    return D.DatasetBundle(
        train=interactions_from_edges(train_e, **dims),
        validation=interactions_from_edges(val_e, **dims),
        test=interactions_from_edges(test_e, **dims),
    )


def preprocess_filter(raw_interactions, raw_social, min_ratings=2, min_links=2, min_item_degree=2):
    """Iteratively drop low-degree users/items until all minimums hold, over Python sets."""
    if raw_interactions.num_users != raw_social.num_users:
        raise DataError(
            f"interaction users ({raw_interactions.num_users}) != "
            f"social users ({raw_social.num_users})"
        )
    users = set(range(raw_interactions.num_users))
    items = set(range(raw_interactions.num_items))
    rated = {a: set(raw_interactions.positives_by_user[a]) for a in users}
    social_edges = set(raw_social.edges())

    while True:
        links = {a: 0 for a in users}
        for a, b in social_edges:
            links[a] += 1
            links[b] += 1
        drop_users = {
            a for a in users if len(rated[a] & items) < min_ratings or links[a] < min_links
        }
        item_deg = {i: 0 for i in items}
        for a in users:
            if a in drop_users:
                continue
            for i in rated[a] & items:
                item_deg[i] += 1
        drop_items = {i for i in items if item_deg[i] < min_item_degree}
        if not drop_users and not drop_items:
            break
        users -= drop_users
        items -= drop_items
        social_edges = {(a, b) for a, b in social_edges if a in users and b in users}

    if not users or not items:
        raise DataError("preprocess_filter removed every user or item")

    user_map = {old: new for new, old in enumerate(sorted(users))}
    item_map = {old: new for new, old in enumerate(sorted(items))}
    kept_edges = [(user_map[a], item_map[i]) for a in users for i in rated[a] & items]
    inter = interactions_from_edges(kept_edges, len(user_map), len(item_map))
    soc = social_from_edges([(user_map[a], user_map[b]) for a, b in social_edges], len(user_map))
    return inter, soc, user_map, item_map


def fingerprint(bundle):
    """Content hash over a canonical serialization of the whole bundle."""
    h = hashlib.sha256()
    h.update(f"users={bundle.num_users} items={bundle.num_items}\n".encode())
    for name, m in (("train", bundle.train), ("validation", bundle.validation), ("test", bundle.test)):
        h.update(f"[{name}]\n".encode())
        for a, i in m.edges():
            h.update(f"{a}\t{i}\n".encode())
    h.update(b"[social]\n")
    if bundle.social is not None:
        for a, b in bundle.social.edges():
            h.update(f"{a}\t{b}\n".encode())
    for name, ft in (("user_features", bundle.user_features), ("item_features", bundle.item_features)):
        h.update(f"[{name}]\n".encode())
        if ft is not None:
            h.update(str(ft.dim).encode())
            h.update(np.ascontiguousarray(ft.vectors, dtype="<f8").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# per-task ranking metrics


def evaluate_tasks(tasks, scorer, n_values):
    """Mean metrics over tasks given scorer(task) -> candidate score array."""
    sums = {(m, n): 0.0 for m in ("hr", "ndcg") for n in n_values}
    for task in tasks:
        ranked = E.rank_candidates(task.candidates, scorer(task))
        for n in n_values:
            sums[("hr", n)] += E.hit_ratio_at_n(ranked, task.positives, n)
            sums[("ndcg", n)] += E.ndcg_at_n(ranked, task.positives, n)
    count = max(len(tasks), 1)
    return {key: value / count for key, value in sums.items()}


# ---------------------------------------------------------------------------
# list-based ranking tasks


def all_positive_items(bundle, user):
    """Items rated by `user` in any split (train, validation or test)."""
    out = set(bundle.train.positives_by_user[user])
    out.update(bundle.validation.positives_by_user[user])
    out.update(bundle.test.positives_by_user[user])
    return out


def build_tasks(bundle, num_negatives=1000, repetition_seed=0, split="test"):
    """One ranking task per user with at least one positive in `split`.

    Sampled candidates are uniform without replacement over the items the
    user rated in no split; if fewer than num_negatives exist, all are used.
    """
    target = getattr(bundle, split)
    rng = np.random.default_rng(repetition_seed)
    tasks = []
    n_items = bundle.num_items
    for a in range(bundle.num_users):
        positives = target.positives_by_user[a]
        if not positives:
            continue
        unrated = E.unrated_items(n_items, all_positive_items(bundle, a))
        if len(unrated) > num_negatives:
            sampled = rng.choice(unrated, size=num_negatives, replace=False)
        else:
            sampled = unrated
        tasks.append(
            E.RankingTask(user=a, positives=list(positives), candidates=list(positives) + sampled.tolist())
        )
    return tasks
