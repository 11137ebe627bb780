"""Data ingestion, degree filtering, edge splitting and synthetic generation.

File formats are plain TSV (UTF-8). An optional first non-comment line
``users=M items=N`` declares dimensions; lines starting with ``#`` are ignored.
Loaders read a file in a few bulk passes and, when it has a fault, name the
first offending ``path:line`` as a line-by-line reader would.
"""
from __future__ import annotations

import hashlib
import itertools
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


def _adjacency(sources, targets, num_sources, num_targets):
    """The ascending distinct targets of each source id, one list per source.

    Sorts the keys source * num_targets + target; np.sort and a neighbour
    mask cost a tenth of np.unique's time on NumPy 2 at these sizes.
    """
    keys = np.sort(sources * num_targets + targets)
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    sources, targets = np.divmod(keys[distinct], max(num_targets, 1))
    bounds = np.concatenate(([0], np.cumsum(np.bincount(sources, minlength=num_sources)))).tolist()
    flat = targets.tolist()
    return [flat[start:stop] for start, stop in itertools.pairwise(bounds)]


def _edge_arrays(rows):
    """(sources, targets) int64 arrays of every edge of per-source lists, in list order."""
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    sources = np.repeat(np.arange(len(rows)), counts)
    targets = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=int(counts.sum()))
    return sources, targets


def _edge_lines(rows):
    """'a<TAB>b\\n' for every b in rows[a], in list order: the TSV body of an edge list."""
    return "".join(f"{a}\t" + f"\n{a}\t".join(map(str, row)) + "\n" for a, row in enumerate(rows) if row)


def _first_edge(sources, targets, bad):
    """Index of the smallest (source, target) edge among those flagged `bad`."""
    candidates = np.flatnonzero(bad)
    return candidates[np.lexsort((targets[candidates], sources[candidates]))[0]]


@dataclass
class InteractionMatrix:
    """Sparse binary user-item positive feedback, indexed both ways."""

    num_users: int
    num_items: int
    positives_by_user: list[list[int]]
    positives_by_item: list[list[int]]

    @classmethod
    def from_arrays(cls, users, items, num_users=None, num_items=None):
        """Sorted, deduplicated matrix from parallel int arrays of (user, item) edges.

        Dimensions default to one past the largest id. An id outside its
        range is reported for the smallest such (user, item) edge.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if num_users is None:
            num_users = int(users.max()) + 1 if len(users) else 0
        if num_items is None:
            num_items = int(items.max()) + 1 if len(items) else 0
        bad_user = (users < 0) | (users >= num_users)
        bad = bad_user | (items < 0) | (items >= num_items)
        if bad.any():
            k = _first_edge(users, items, bad)
            if bad_user[k]:
                raise DataError(f"user id {users[k]} out of range [0, {num_users})")
            raise DataError(f"item id {items[k]} out of range [0, {num_items})")
        return cls(
            num_users,
            num_items,
            _adjacency(users, items, num_users, num_items),
            _adjacency(items, users, num_items, num_users),
        )

    @classmethod
    def from_edges(cls, edges, num_users=None, num_items=None):
        """from_arrays for a list of (user, item) pairs."""
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        return cls.from_arrays(pairs[:, 0], pairs[:, 1], num_users, num_items)

    def edges(self):
        return [(a, i) for a in range(self.num_users) for i in self.positives_by_user[a]]

    def edge_arrays(self):
        """(users, items) int64 arrays of every edge, in (user, item) order."""
        return _edge_arrays(self.positives_by_user)

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
    def from_arrays(cls, followers, followees, num_users=None):
        """Sorted, deduplicated graph from parallel int arrays of (follower, followee) edges.

        The user count defaults to one past the largest id. A self-loop or an
        id out of range is reported for the smallest such edge.
        """
        followers = np.asarray(followers, dtype=np.int64)
        followees = np.asarray(followees, dtype=np.int64)
        if num_users is None:
            num_users = int(max(followers.max(), followees.max())) + 1 if len(followers) else 0
        loop = followers == followees
        bad = loop | (followers < 0) | (followers >= num_users) | (followees < 0) | (followees >= num_users)
        if bad.any():
            k = _first_edge(followers, followees, bad)
            if loop[k]:
                raise DataError(f"self-loop on user {followers[k]}")
            raise DataError(
                f"social edge ({followers[k]},{followees[k]}) out of range [0, {num_users})"
            )
        return cls(num_users, _adjacency(followers, followees, num_users, num_users))

    @classmethod
    def from_edges(cls, edges, num_users=None):
        """from_arrays for a list of (follower, followee) pairs."""
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        return cls.from_arrays(pairs[:, 0], pairs[:, 1], num_users)

    def edges(self):
        return [(a, b) for a in range(self.num_users) for b in self.followees_by_user[a]]

    def edge_arrays(self):
        """(followers, followees) int64 arrays of every edge, in (follower, followee) order."""
        return _edge_arrays(self.followees_by_user)

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
        text = [f"users={self.num_users} items={self.num_items}\n"]
        for name, m in (("train", self.train), ("validation", self.validation), ("test", self.test)):
            text += [f"[{name}]\n", _edge_lines(m.positives_by_user)]
        text.append("[social]\n")
        if self.social is not None:
            text.append(_edge_lines(self.social.followees_by_user))
        h = hashlib.sha256("".join(text).encode())
        for name, ft in (("user_features", self.user_features), ("item_features", self.item_features)):
            h.update(f"[{name}]\n".encode())
            if ft is not None:
                h.update(str(ft.dim).encode())
                h.update(np.ascontiguousarray(ft.vectors, dtype="<f8").tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# loaders / savers


_INT64 = range(-(2**63), 2**63)


def _read_rows(path):
    """All lines of `path`, and the stripped data lines: neither blank nor '#' comments."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return lines, [line for line in map(str.strip, lines) if line and line[0] != "#"]


def _first_fault(path, lines, fault, skip=0):
    """DataError naming the first data line, in file order, for which fault(line) gives a message.

    Runs only after a bulk pass has found a fault, so that the message is
    the one a line-by-line reader stops at. The first `skip` data lines
    (a header) are not checked.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if skip:
            skip -= 1
            continue
        message = fault(line)
        if message is not None:
            return DataError(f"{path}:{lineno}: {message}")


def _two_fields(rows):
    """Both tab-separated fields of every row, or None when a row has not exactly two."""
    if list(map(str.count, rows, itertools.repeat("\t"))).count(1) != len(rows):
        return None
    return "\t".join(rows).split("\t") if rows else []


def _edge_fault(fields, line_fault):
    """Per-line fault of an "a<TAB>b" line: field count, integer ids, then line_fault(a, b)."""

    def fault(line):
        parts = line.split("\t")
        if len(parts) != 2:
            return f"expected '{fields}', got {line!r}"
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            return f"non-integer id in {line!r}"
        message = line_fault(a, b, line)
        if message is None and (a not in _INT64 or b not in _INT64):
            return f"id out of range in {line!r}"
        return message

    return fault


def _load_edges(path, kind, fields, bad_rows, line_fault):
    """The header and the (n, 2) int64 ids of an "a<TAB>b" edge file.

    `bad_rows(ids)` flags the rows that `line_fault(a, b, line)` names; when
    a row is flagged or any line is malformed, the first faulty line is
    reported.
    """
    lines, rows = _read_rows(path)
    header = _parse_header(rows[0]) if rows else None
    if header is not None:
        del rows[0]
    elif not rows:
        raise DataError(f"{path}: empty {kind} file")
    tokens = _two_fields(rows)
    ids = None
    if tokens is not None:
        try:
            ids = np.fromiter(map(int, tokens), dtype=np.int64, count=len(tokens)).reshape(-1, 2)
        except (ValueError, OverflowError):  # a non-integer id, or one beyond int64
            pass
    if ids is None or bad_rows(ids).any():
        raise _first_fault(path, lines, _edge_fault(fields, line_fault), skip=header is not None)
    return header or {}, ids


def load_interactions(path) -> InteractionMatrix:
    """Load "user<TAB>item" lines into a deduplicated InteractionMatrix."""
    header, ids = _load_edges(
        path,
        "interaction",
        "user<TAB>item",
        lambda ids: (ids < 0).any(axis=1),
        lambda a, i, line: f"negative id in {line!r}" if a < 0 or i < 0 else None,
    )
    return InteractionMatrix.from_arrays(ids[:, 0], ids[:, 1], header.get("users"), header.get("items"))


def load_social(path) -> SocialGraph:
    """Load "follower<TAB>followee" lines; self-loops are rejected."""
    header, ids = _load_edges(
        path,
        "social",
        "follower<TAB>followee",
        lambda ids: ids[:, 0] == ids[:, 1],
        lambda a, b, line: f"self-loop on user {a}" if a == b else None,
    )
    return SocialGraph.from_arrays(ids[:, 0], ids[:, 1], header.get("users"))


def _feature_fault():
    """Per-line fault of an "id<TAB>values" line, given the lines before it."""
    dim, seen = None, set()

    def fault(line):
        nonlocal dim
        parts = line.split("\t")
        if len(parts) != 2:
            return f"expected 'id<TAB>values', got {line!r}"
        try:
            ent = int(parts[0])
        except ValueError:
            return f"non-integer id {parts[0]!r}"
        try:
            vec = [float(v) for v in parts[1].split(",")]
        except ValueError:
            return "malformed feature values"
        if not all(map(math.isfinite, vec)):
            return f"non-finite feature value for entity {ent}"
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            return f"dim {len(vec)} != {dim} for entity {ent}"
        if ent in seen:
            return f"duplicate entity {ent}"
        seen.add(ent)

    return fault


def load_features(path, expected_count) -> FeatureTable:
    """Load "id<TAB>v1,v2,...,vd" lines covering ids 0..expected_count-1."""
    lines, rows = _read_rows(path)
    if not rows:
        raise DataError(f"{path}: empty feature file")
    tokens = _two_fields(rows)
    vectors = None
    if tokens is not None:
        values = tokens[1::2]
        dim = values[0].count(",") + 1
        try:
            ids = list(map(int, tokens[0::2]))
            if list(map(str.count, values, itertools.repeat(","))).count(dim - 1) == len(values):
                flat = ",".join(values).split(",")
                vectors = np.fromiter(map(float, flat), dtype=np.float64, count=len(flat)).reshape(-1, dim)
        except ValueError:
            pass
    if vectors is None or not np.isfinite(vectors).all() or len(set(ids)) != len(ids):
        raise _first_fault(path, lines, _feature_fault())
    row_of = dict(zip(ids, range(len(ids))))
    for ent in range(expected_count):
        if ent not in row_of:
            raise DataError(f"{path}: missing feature vector for entity {ent}")
    return FeatureTable(dim=dim, vectors=vectors[[row_of[ent] for ent in range(expected_count)]])


def _fmt(x):
    return repr(float(x))


def save_interactions(matrix, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"users={matrix.num_users} items={matrix.num_items}\n")
        fh.write(_edge_lines(matrix.positives_by_user))


def save_social(graph, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"users={graph.num_users}\n")
        fh.write(_edge_lines(graph.followees_by_user))


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
    users, items = interactions.edge_arrays()
    n = len(users)
    if n == 0:
        raise DataError("cannot split an empty interaction matrix")
    n_test = math.floor(n * config.test_fraction)
    if n_test == 0:
        raise DataError(f"test_fraction {config.test_fraction} yields an empty test set ({n} edges)")
    n_val = math.floor((n - n_test) * config.validation_fraction_of_train)
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    test, validation, train = (
        InteractionMatrix.from_arrays(users[k], items[k], interactions.num_users, interactions.num_items)
        for k in (order[:n_test], order[n_test : n_test + n_val], order[n_test + n_val :])
    )
    return DatasetBundle(train=train, validation=validation, test=test)


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
