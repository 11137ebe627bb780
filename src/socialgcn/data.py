"""Data ingestion, degree filtering, edge splitting and synthetic generation.

File formats are plain TSV (UTF-8, LF). An optional first non-comment line
``users=M items=N`` declares dimensions; lines starting with ``#`` are ignored.
"""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np


class DataError(Exception):
    """Malformed or inconsistent input data."""


_HEADER_RE = re.compile(r"^\s*(users|items)=(\d+)(?:\s+(users|items)=(\d+))?\s*$")


def _parse_header(line):
    m = _HEADER_RE.match(line)
    if m is None:
        return None
    out = {m.group(1): int(m.group(2))}
    if m.group(3):
        out[m.group(3)] = int(m.group(4))
    return out


@dataclass
class InteractionMatrix:
    """Sparse binary user-item positive feedback, indexed both ways."""

    num_users: int
    num_items: int
    positives_by_user: list[list[int]]
    positives_by_item: list[list[int]]

    @classmethod
    def from_edges(cls, edges, num_users=None, num_items=None):
        edges = sorted(set(edges))
        if num_users is None:
            num_users = 1 + max((a for a, _ in edges), default=-1)
        if num_items is None:
            num_items = 1 + max((i for _, i in edges), default=-1)
        by_user = [[] for _ in range(num_users)]
        by_item = [[] for _ in range(num_items)]
        for a, i in edges:
            if not (0 <= a < num_users):
                raise DataError(f"user id {a} out of range [0, {num_users})")
            if not (0 <= i < num_items):
                raise DataError(f"item id {i} out of range [0, {num_items})")
            by_user[a].append(i)
            by_item[i].append(a)
        return cls(num_users, num_items, by_user, by_item)

    def edges(self):
        return [(a, i) for a in range(self.num_users) for i in self.positives_by_user[a]]

    @property
    def num_edges(self):
        return sum(len(r) for r in self.positives_by_user)

    def has(self, a, i):
        row = self.positives_by_user[a]
        lo = np.searchsorted(row, i)
        return lo < len(row) and row[lo] == i


@dataclass
class SocialGraph:
    """Directed follow graph; followees_by_user[a] is a's ego network."""

    num_users: int
    followees_by_user: list[list[int]]

    @classmethod
    def from_edges(cls, edges, num_users=None):
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
        return cls(num_users, out)

    def edges(self):
        return [(a, b) for a in range(self.num_users) for b in self.followees_by_user[a]]

    @property
    def num_edges(self):
        return sum(len(r) for r in self.followees_by_user)


@dataclass
class FeatureTable:
    """Dense per-entity attribute vectors, all finite."""

    dim: int
    vectors: np.ndarray  # (count, dim) float64

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.dim:
            raise DataError(f"feature table shape {self.vectors.shape} != (*, {self.dim})")
        if not np.all(np.isfinite(self.vectors)):
            raise DataError("non-finite feature value")

    def __eq__(self, other):
        return (
            isinstance(other, FeatureTable)
            and self.dim == other.dim
            and np.array_equal(self.vectors, other.vectors)
        )


@dataclass
class SplitConfig:
    test_fraction: float = 0.10
    validation_fraction_of_train: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.test_fraction < 1.0):
            raise DataError(f"test_fraction {self.test_fraction} not in (0,1)")
        if not (0.0 < self.validation_fraction_of_train < 1.0):
            raise DataError(
                f"validation_fraction_of_train {self.validation_fraction_of_train} not in (0,1)"
            )


@dataclass
class DatasetBundle:
    train: InteractionMatrix
    validation: InteractionMatrix
    test: InteractionMatrix
    social: Optional[SocialGraph] = None
    user_features: Optional[FeatureTable] = None
    item_features: Optional[FeatureTable] = None

    @property
    def num_users(self):
        return self.train.num_users

    @property
    def num_items(self):
        return self.train.num_items

    def all_positive_items(self, user):
        """Items rated by `user` in any split (train, validation or test)."""
        out = set(self.train.positives_by_user[user])
        out.update(self.validation.positives_by_user[user])
        out.update(self.test.positives_by_user[user])
        return out

    def fingerprint(self):
        """Content hash over a canonical serialization of the whole bundle."""
        h = hashlib.sha256()
        h.update(f"users={self.num_users} items={self.num_items}\n".encode())
        for name, m in (("train", self.train), ("validation", self.validation), ("test", self.test)):
            h.update(f"[{name}]\n".encode())
            for a, i in m.edges():
                h.update(f"{a}\t{i}\n".encode())
        h.update(b"[social]\n")
        if self.social is not None:
            for a, b in self.social.edges():
                h.update(f"{a}\t{b}\n".encode())
        for name, ft in (("user_features", self.user_features), ("item_features", self.item_features)):
            h.update(f"[{name}]\n".encode())
            if ft is not None:
                h.update(str(ft.dim).encode())
                h.update(np.ascontiguousarray(ft.vectors, dtype="<f8").tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# loaders / savers


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


def load_interactions(path) -> InteractionMatrix:
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
        edges.append((a, i))
    if not edges and header is None:
        raise DataError(f"{path}: empty interaction file")
    num_users = header.get("users") if header else None
    num_items = header.get("items") if header else None
    return InteractionMatrix.from_edges(edges, num_users, num_items)


def load_social(path) -> SocialGraph:
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
        edges.append((a, b))
    if not edges and header is None:
        raise DataError(f"{path}: empty social file")
    num_users = header.get("users") if header else None
    return SocialGraph.from_edges(edges, num_users)


def load_features(path, expected_count) -> FeatureTable:
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
    return FeatureTable(dim=dim, vectors=mat)


def _fmt(x):
    return repr(float(x))


def save_interactions(matrix, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"users={matrix.num_users} items={matrix.num_items}\n")
        for a, i in matrix.edges():
            fh.write(f"{a}\t{i}\n")


def save_social(graph, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"users={graph.num_users}\n")
        for a, b in graph.edges():
            fh.write(f"{a}\t{b}\n")


def save_features(table, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ent in range(table.vectors.shape[0]):
            vals = ",".join(_fmt(v) for v in table.vectors[ent])
            fh.write(f"{ent}\t{vals}\n")


# ---------------------------------------------------------------------------
# preprocessing


def preprocess_filter(
    raw_interactions, raw_social, min_ratings=2, min_links=2, min_item_degree=2
):
    """Iteratively drop low-degree users/items until all minimums hold.

    A user's link count is the number of social edges incident to them
    (followers plus followees). Returns compacted matrices with dense ids
    plus the old->new id maps for users and items.
    """
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
    kept_edges = [
        (user_map[a], item_map[i]) for a in users for i in rated[a] & items
    ]
    inter = InteractionMatrix.from_edges(kept_edges, len(user_map), len(item_map))
    soc = SocialGraph.from_edges(
        [(user_map[a], user_map[b]) for a, b in social_edges], len(user_map)
    )
    return inter, soc, user_map, item_map


def split(interactions, config) -> DatasetBundle:
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
    return DatasetBundle(
        train=InteractionMatrix.from_edges(train_e, **dims),
        validation=InteractionMatrix.from_edges(val_e, **dims),
        test=InteractionMatrix.from_edges(test_e, **dims),
    )


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass
class SyntheticSpec:
    users: int
    items: int
    dim_user: int = 8
    dim_item: int = 8
    homophily: float = 0.8
    density: float = 0.05
    seed: int = 0
    clusters: int = 5

    def __post_init__(self):
        if self.users <= 0 or self.items <= 0:
            raise DataError("synthetic spec needs positive user/item counts")
        if not (0.0 < self.density < 1.0):
            raise DataError(f"density {self.density} not in (0,1)")
        if not (0.0 <= self.homophily <= 1.0):
            raise DataError(f"homophily {self.homophily} not in [0,1]")


def synthetic_tables(spec):
    """Raw (unsplit) synthetic data: interactions, social graph, features.

    Users and items get planted clusters; users rate mostly own-cluster
    items, follow same-cluster users with probability `homophily`, and
    features are noisy cluster centroids. Pure function of the spec.
    """
    rng = np.random.default_rng(spec.seed)
    C = min(spec.clusters, spec.users, spec.items)
    user_cluster = rng.integers(0, C, size=spec.users)
    item_cluster = rng.integers(0, C, size=spec.items)
    user_centroids = rng.normal(0.0, 1.0, size=(C, spec.dim_user))
    item_centroids = rng.normal(0.0, 1.0, size=(C, spec.dim_item))

    n_pos = min(spec.items, max(3, int(round(spec.density * spec.items))))
    inter_edges = []
    for a in range(spec.users):
        w = np.where(item_cluster == user_cluster[a], 4.0, 1.0)
        w /= w.sum()
        picks = rng.choice(spec.items, size=n_pos, replace=False, p=w)
        inter_edges.extend((a, int(i)) for i in picks)

    n_out = min(5, spec.users - 1)
    social_edges = []
    for a in range(spec.users):
        same = np.flatnonzero(user_cluster == user_cluster[a])
        same = same[same != a]
        w = np.full(spec.users, (1.0 - spec.homophily) / max(spec.users - 1, 1))
        if len(same) > 0:
            w[same] += spec.homophily / len(same)
        else:
            w *= 1.0 / (1.0 - spec.homophily) if spec.homophily < 1.0 else 0.0
            w[np.arange(spec.users) != a] = 1.0 / max(spec.users - 1, 1)
        w[a] = 0.0
        total = w.sum()
        if total <= 0 or n_out == 0:
            continue
        w /= total
        picks = rng.choice(spec.users, size=n_out, replace=False, p=w)
        social_edges.extend((a, int(b)) for b in picks)

    uf = FeatureTable(
        dim=spec.dim_user,
        vectors=user_centroids[user_cluster] + 0.1 * rng.normal(size=(spec.users, spec.dim_user)),
    )
    itf = FeatureTable(
        dim=spec.dim_item,
        vectors=item_centroids[item_cluster] + 0.1 * rng.normal(size=(spec.items, spec.dim_item)),
    )
    inter = InteractionMatrix.from_edges(inter_edges, spec.users, spec.items)
    social = SocialGraph.from_edges(social_edges, spec.users)
    return inter, social, uf, itf


def generate_synthetic(spec) -> DatasetBundle:
    """Seeded synthetic DatasetBundle with social graph and features attached."""
    inter, social, uf, itf = synthetic_tables(spec)
    bundle = split(inter, SplitConfig(seed=spec.seed))
    return replace(bundle, social=social, user_features=uf, item_features=itf)
