"""Data ingestion, degree filtering, edge splitting and synthetic generation.

File formats are plain TSV (UTF-8). An optional first non-comment line
``users=M items=N`` declares dimensions; lines starting with ``#`` are ignored.
Loaders read a file's lines once, ids as int() and values as float() read
them, and name the first faulty ``path:line``.

A DatasetBundle's canonical form is blocks(), named arrays of fixed dtype;
its fingerprint is digest() of them, and a dataset snapshot stores them.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
import re
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np
from scipy import sparse

from .bounds import check, setting


class DataError(Exception):
    """Malformed or inconsistent input data."""


_HEADER_RE = re.compile(r"^\s*(users|items)=(\d+)(?:\s+(users|items)=(\d+))?\s*$")


def _parse_header(line):
    """{key: count} of a header line, or None when `line` is no header: each key may appear once."""
    m = _HEADER_RE.match(line)
    if m is None or m.group(1) == m.group(3):
        return None
    out = {m.group(1): int(m.group(2))}
    if m.group(3):
        out[m.group(3)] = int(m.group(4))
    return out


def _csr(sources, targets, num_sources, num_targets):
    """CSR (indptr, indices) int64 arrays of the ascending distinct targets of each source id.

    Sorts the keys source * num_targets + target; np.sort and a neighbour
    mask cost a tenth of np.unique's time on NumPy 2 at these sizes. A
    DataError when the counts overflow those int64 keys, or indptr does not
    fit in memory.
    """
    if num_sources * max(num_targets, 1) >= 2**63:
        raise DataError(f"table of {num_sources} x {num_targets} is too large to index")
    keys = np.sort(sources * num_targets + targets)
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    sources, targets = np.divmod(keys[distinct], max(num_targets, 1))
    try:
        indptr = np.zeros(num_sources + 1, dtype=np.int64)
    except (MemoryError, ValueError):  # ValueError: more bytes than an array may hold
        raise DataError(f"table of {num_sources} rows does not fit in memory") from None
    np.cumsum(np.bincount(sources, minlength=num_sources), out=indptr[1:])
    return indptr, targets


def _edge_lines(table):
    """'a<TAB>b\\n' for every edge (a, b) of a table, in row order: the TSV body of an edge list."""
    targets = list(map(str, table.indices.tolist()))
    return "".join(
        f"{a}\t" + f"\n{a}\t".join(targets[start:stop]) + "\n"
        for a, (start, stop) in enumerate(itertools.pairwise(table.indptr.tolist()))
        if start < stop
    )


def _first_edge(sources, targets, bad):
    """Index of the smallest (source, target) edge among those flagged `bad`."""
    candidates = np.flatnonzero(bad)
    return candidates[np.lexsort((targets[candidates], sources[candidates]))[0]]


class Rows:
    """Read-only view of a table's rows: rows[a] is row a as a list of ints."""

    def __init__(self, table):
        self._indptr, self._indices = table.indptr, table.indices

    def __len__(self):
        return len(self._indptr) - 1

    def __getitem__(self, a):
        a = range(len(self))[a]  # as a list indexes: negative a counts from the end, others raise IndexError
        return self._indices[self._indptr[a] : self._indptr[a + 1]].tolist()


class _Table:
    """Rows of ascending, duplicate-free column ids, held as read-only CSR int64 arrays.

    Row a is indices[indptr[a]:indptr[a + 1]]; indptr starts at 0 and has
    one entry more than there are rows. The operators derived from the
    arrays are built on first use and kept, as the arrays never change.
    """

    def __post_init__(self):
        self.indptr.flags.writeable = self.indices.flags.writeable = False

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    @functools.cached_property
    def row_mean(self):
        """CSR matrix whose row a holds 1/n at each of row a's n columns; an empty row stays all zero.

        (row_mean @ X)[a] is the mean of X over row a: the follow mean over
        S_a of a SocialGraph, the history mean over R_a of an InteractionMatrix.
        """
        counts = np.diff(self.indptr)
        data = np.repeat(1.0 / np.maximum(counts, 1), counts)
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    @functools.cached_property
    def row_mean_t(self):
        """The transpose of row_mean, in CSR: the backward of its product."""
        return self.row_mean.T.tocsr()

    @classmethod
    def from_edges(cls, edges, *counts):
        """from_arrays for an iterable of (source, target) pairs, with from_arrays' optional counts.

        A ValueError when an item is not a pair.
        """
        edges = list(edges)
        ids = np.fromiter(itertools.chain.from_iterable(edges), np.int64)
        # 2 ids per edge and none shorter than 2 leave none longer
        if len(ids) != 2 * len(edges) or (edges and min(map(len, edges)) < 2):
            raise ValueError("every edge must be a (source, target) pair")
        return cls.from_arrays(ids[0::2], ids[1::2], *counts)

    @property
    def num_edges(self):
        return len(self.indices)

    def edge_arrays(self):
        """(sources, targets) int64 arrays of every edge, in (source, target) order."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr)), self.indices

    def edges(self):
        """Every edge as a (source, target) pair of ints, in (source, target) order."""
        sources, targets = self.edge_arrays()
        return list(zip(sources.tolist(), targets.tolist()))


@dataclass(eq=False)
class InteractionMatrix(_Table):
    """Sparse binary user-item positive feedback; row a holds the items user a rated."""

    num_users: int
    num_items: int
    indptr: np.ndarray
    indices: np.ndarray

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
        return cls(num_users, num_items, *_csr(users, items, num_users, num_items))

    @property
    def shape(self):
        return self.num_users, self.num_items

    @property
    def positives_by_user(self):
        return Rows(self)


@dataclass(eq=False)
class SocialGraph(_Table):
    """Directed follow graph; row a, the users a follows, is a's ego network."""

    num_users: int
    indptr: np.ndarray
    indices: np.ndarray

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
        return cls(num_users, *_csr(followers, followees, num_users, num_users))

    @property
    def shape(self):
        return self.num_users, self.num_users

    @functools.cached_property
    def followee_bands(self):
        """The non-empty rows grouped by out-degree band [2^j, 2^(j+1)): a list of (rows, ids).

        rows holds the band's row ids, ascending. ids is a (width, len(rows))
        int64 matrix: column r holds row rows[r]'s followees in order, padded
        to the band's largest degree with copies of the row's first followee.
        """
        degree = np.diff(self.indptr)
        nonempty = np.flatnonzero(degree)
        band = np.frexp(degree[nonempty])[1]  # j + 1 for a degree in [2^j, 2^(j+1))
        out = []
        for j in np.unique(band):
            rows = nonempty[band == j]
            count = degree[rows]
            slot = np.arange(count.max())[:, None]
            out.append((rows, self.indices[self.indptr[rows] + np.where(slot < count, slot, 0)]))
        return out


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
    test_fraction: float = setting(0.10, within="in (0, 1)")
    validation_fraction_of_train: float = setting(0.10, within="in (0, 1)")
    seed: int = setting(0, within=">= 0")

    def __post_init__(self):
        check(SplitConfig, vars(self), DataError)


# The tables and feature tables of a DatasetBundle, in the order of its blocks.
_TABLES = ("train", "validation", "test", "social")
_FEATURES = ("user_features", "item_features")


def digest(num_users, num_items, blocks):
    """The dataset fingerprint: sha256 over the counts and each block's name, shape, dtype and bytes.

    `blocks` maps names to C-contiguous arrays, in DatasetBundle.blocks() order.
    """
    h = hashlib.sha256(f"users={num_users} items={num_items}\n".encode())
    for name, arr in blocks.items():
        h.update(f"{name} {list(arr.shape)} {arr.dtype.str}\n".encode())
        h.update(arr)
    return h.hexdigest()


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

    @functools.cached_property
    def rated(self):
        """The items each user rated in any split: (indptr list, item array), row a holding user a's."""
        tables = [self.train, self.validation, self.test]
        users, items = (np.concatenate(parts) for parts in zip(*(t.edge_arrays() for t in tables)))
        return sum(t.indptr for t in tables).tolist(), items[np.argsort(users)]

    def blocks(self):
        """The bundle's canonical form: {name: array}, in a fixed order.

        '<table>.indptr' and '<table>.indices' as <i8 for train, validation,
        test and social, then 'user_features' and 'item_features' as <f8;
        a table or feature table that is None has no blocks.
        """
        out = {
            f"{name}.{part}": np.ascontiguousarray(getattr(getattr(self, name), part), dtype="<i8")
            for name in _TABLES
            if getattr(self, name) is not None
            for part in ("indptr", "indices")
        }
        for name in _FEATURES:
            if getattr(self, name) is not None:
                out[name] = np.ascontiguousarray(getattr(self, name).vectors, dtype="<f8")
        return out

    def fingerprint(self):
        """digest() of the counts and blocks(): equal for equal data, however it was built."""
        return digest(self.num_users, self.num_items, self.blocks())

    @classmethod
    def from_blocks(cls, num_users, num_items, blocks):
        """The bundle whose blocks() are `blocks`, all four tables present; a DataError names the first misfit."""
        if not all(type(n) is int and n >= 0 for n in (num_users, num_items)):
            raise DataError(f"bad user or item count {num_users!r}, {num_items!r}")
        tables = {}
        for name in _TABLES:
            table = SocialGraph if name == "social" else InteractionMatrix
            counts = (num_users,) if name == "social" else (num_users, num_items)
            indptr, indices = blocks.get(f"{name}.indptr"), blocks.get(f"{name}.indices")
            if not (
                indptr is not None
                and indices is not None
                and indptr.dtype.kind == indices.dtype.kind == "i"
                and indptr.shape == (num_users + 1,)
                and indices.ndim == 1
                and indptr[0] == 0
                and indptr[-1] == len(indices)
                and (np.diff(indptr) >= 0).all()
                and (not len(indices) or 0 <= indices.min() <= indices.max() < counts[-1])
            ):
                raise DataError(f"blocks of table {name!r} are not {num_users} rows of ids in [0, {counts[-1]})")
            tables[name] = table(*counts, indptr, indices)
        for name, rows in zip(_FEATURES, (num_users, num_items)):
            vectors = blocks.get(name)
            if vectors is not None:
                if vectors.ndim != 2 or len(vectors) != rows or vectors.dtype.kind != "f":
                    raise DataError(f"block {name!r} has shape {vectors.shape}, want ({rows}, *)")
                try:
                    tables[name] = FeatureTable(vectors.shape[1], vectors)
                except DataError as exc:
                    raise DataError(f"block {name!r}: {exc}") from None
        return cls(**tables)


# ---------------------------------------------------------------------------
# loaders / savers


def _data_lines(path):
    """(line number, stripped line) of each data line of the file at `path`: neither blank nor a '#' comment."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, line


def _parsed(path, lines, parse):
    """parse(line) of each (line number, line) of `lines`; a DataError it raises is raised again naming `path:line`."""
    for lineno, line in lines:
        try:
            yield parse(line)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None


def _load_edges(path, kind, fields, build, fault):
    """The table `build(sources, targets, header)` makes of an "a<TAB>b" edge file's int64 ids.

    The first data line is the header when _parse_header reads one. A line
    is kept when each id is in range(min(count, 2**63)), count being its
    column's header count or 2**63, and in a social file the two differ.
    Any other line is a DataError with fault(a, b, line, header)'s message.
    A DataError names the first faulty ``path:line``, or ``path`` when
    `build` finds the counts too large for a table.
    """
    lines = _data_lines(path)
    first = next(lines, None)
    if first is None:
        raise DataError(f"{path}: empty {kind} file")
    header = _parse_header(first[1])
    if header is None:
        lines = itertools.chain([first], lines)
    header = header or {}
    loops = kind != "social"
    ra, rb = (range(min(header.get(key, 2**63), 2**63)) for key in ("users", "items" if loops else "users"))

    def parse(line):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"expected '{fields}', got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"non-integer id in {line!r}") from None
        if a in ra and b in rb and (loops or a != b):
            return a, b
        raise DataError(fault(a, b, line, header))

    ids = np.fromiter(itertools.chain.from_iterable(_parsed(path, lines, parse)), np.int64)
    try:
        return build(ids[0::2], ids[1::2], header)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _interaction_fault(a, i, line, header):
    """The first fault of a user<TAB>item line: negative id, id past 64 bits, user range, item range."""
    if a < 0 or i < 0:
        return f"negative id in {line!r}"
    if max(a, i) >= 2**63:
        return f"id out of range in {line!r}"
    if "users" in header and a >= header["users"]:
        return f"user id {a} out of range [0, {header['users']})"
    return f"item id {i} out of range [0, {header['items']})"


def load_interactions(path) -> InteractionMatrix:
    """Load "user<TAB>item" lines into a deduplicated InteractionMatrix."""
    return _load_edges(
        path,
        "interaction",
        "user<TAB>item",
        lambda users, items, h: InteractionMatrix.from_arrays(users, items, h.get("users"), h.get("items")),
        _interaction_fault,
    )


def _social_fault(a, b, line, header):
    """The first fault of a follower<TAB>followee line: self-loop, id past 64 bits, range, negative id."""
    if a == b:
        return f"self-loop on user {a}"
    if not -(2**63) <= min(a, b) <= max(a, b) < 2**63:
        return f"id out of range in {line!r}"
    if "users" in header:
        return f"social edge ({a},{b}) out of range [0, {header['users']})"
    return f"negative id in {line!r}"


def load_social(path) -> SocialGraph:
    """Load "follower<TAB>followee" lines; self-loops are rejected."""
    return _load_edges(
        path,
        "social",
        "follower<TAB>followee",
        lambda followers, followees, h: SocialGraph.from_arrays(followers, followees, h.get("users")),
        _social_fault,
    )


def _feature_parser():
    """Reader of one "id<TAB>values" line into (id, values), given the lines before it.

    It raises a DataError for the line's fault.
    """
    dim, seen = None, set()

    def parse(line):
        nonlocal dim
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"expected 'id<TAB>values', got {line!r}")
        try:
            ent = int(parts[0])
        except ValueError:
            raise DataError(f"non-integer id {parts[0]!r}") from None
        try:
            vec = [float(v) for v in parts[1].split(",")]
        except ValueError:
            raise DataError("malformed feature values") from None
        if not all(map(math.isfinite, vec)):
            raise DataError(f"non-finite feature value for entity {ent}")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise DataError(f"dim {len(vec)} != {dim} for entity {ent}")
        if ent in seen:
            raise DataError(f"duplicate entity {ent}")
        seen.add(ent)
        return ent, vec

    return parse


def load_features(path, expected_count) -> FeatureTable:
    """Load "id<TAB>v1,v2,...,vd" lines covering ids 0..expected_count-1."""
    entries = list(_parsed(path, _data_lines(path), _feature_parser()))
    if not entries:
        raise DataError(f"{path}: empty feature file")
    # -1 fits in int64 where 2**63 does not
    ids = np.array([ent if 0 <= ent < expected_count else -1 for ent, _ in entries], dtype=np.int64)
    vectors = np.array([vec for _, vec in entries])
    row_of = np.full(expected_count, -1)
    inside = ids >= 0
    row_of[ids[inside]] = np.flatnonzero(inside)
    missing = np.flatnonzero(row_of < 0)
    if len(missing):
        raise DataError(f"{path}: missing feature vector for entity {missing[0]}")
    return FeatureTable(dim=vectors.shape[1], vectors=vectors[row_of])


def save_interactions(matrix, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"users={matrix.num_users} items={matrix.num_items}\n")
        fh.write(_edge_lines(matrix))


def save_social(graph, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"users={graph.num_users}\n")
        fh.write(_edge_lines(graph))


def save_features(table, path):
    """One 'entity<TAB>v1,v2,...' line per row; repr() writes each value so that float() reads it back exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{ent}\t{','.join(map(repr, row))}\n" for ent, row in enumerate(table.vectors.tolist()))


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
    users, items = raw_interactions.edge_arrays()
    followers, followees = raw_social.edge_arrays()
    user_kept = np.ones(raw_interactions.num_users, dtype=bool)
    item_kept = np.ones(raw_interactions.num_items, dtype=bool)

    while True:
        rating = user_kept[users] & item_kept[items]
        link = user_kept[followers] & user_kept[followees]
        links = np.bincount(followers[link], minlength=len(user_kept))
        links += np.bincount(followees[link], minlength=len(user_kept))
        ratings = np.bincount(users[rating], minlength=len(user_kept))
        drop_users = user_kept & ((ratings < min_ratings) | (links < min_links))
        item_deg = np.bincount(items[rating & ~drop_users[users]], minlength=len(item_kept))
        drop_items = item_kept & (item_deg < min_item_degree)
        if not drop_users.any() and not drop_items.any():
            break
        user_kept &= ~drop_users
        item_kept &= ~drop_items

    if not user_kept.any() or not item_kept.any():
        raise DataError("preprocess_filter removed every user or item")

    new_user, new_item = np.cumsum(user_kept) - 1, np.cumsum(item_kept) - 1
    num_users, num_items = int(new_user[-1]) + 1, int(new_item[-1]) + 1
    user_map = dict(zip(np.flatnonzero(user_kept).tolist(), range(num_users)))
    item_map = dict(zip(np.flatnonzero(item_kept).tolist(), range(num_items)))
    inter = InteractionMatrix.from_arrays(new_user[users[rating]], new_item[items[rating]], num_users, num_items)
    soc = SocialGraph.from_arrays(new_user[followers[link]], new_user[followees[link]], num_users)
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
    users: int = setting(within=">= 1")
    items: int = setting(within=">= 1")
    dim_user: int = setting(8, within=">= 1")
    dim_item: int = setting(8, within=">= 1")
    homophily: float = setting(0.8, within="in [0, 1]")
    density: float = setting(0.05, within="in (0, 1)")
    seed: int = setting(0, within=">= 0")
    clusters: int = setting(5, within=">= 1")

    def __post_init__(self):
        check(SyntheticSpec, vars(self), DataError)


# Users x users cells of follow weights per block in synthetic_tables: the
# block's weights and cdfs take about half a megabyte of float64.
_FOLLOW_BLOCK_CELLS = 1 << 15


def _weighted_draw(rng, p, size, cdf=None):
    """The ids rng.choice(len(p), size, replace=False, p=p) returns, from the same draws.

    As Generator.choice does (NumPy 2.4), each round draws one uniform per
    missing id, zeroes the found ids' weights, inverts the normalised cdf
    and keeps the first draw of each new id, in draw order. `cdf` is p's
    first-round cdf when the caller has it already; p is not modified.
    """
    found = []
    while len(found) < size:
        x = rng.random(size - len(found))
        if found:
            p = p.copy()
            p[found] = 0.0
            cdf = None
        if cdf is None:
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
        found.extend(dict.fromkeys(cdf.searchsorted(x, side="right").tolist()))
    return found


def synthetic_tables(spec):
    """Raw (unsplit) synthetic data: interactions, social graph, features.

    Users and items get planted clusters; users rate mostly own-cluster
    items, follow same-cluster users with probability `homophily`, and
    features are noisy cluster centroids. Pure function of the spec.

    Stream contract: every weighted draw is the one
    Generator.choice(n, size, replace=False, p=w) makes, so the output is
    that of one choice per user; tests pin its bytes. A user's rating
    weights depend only on their cluster, so they are built once per
    cluster. A user's follow weights are their cluster's with their own
    entry zeroed; they and their cdfs are built for a block of users at a
    time, then drawn from user by user.
    """
    rng = np.random.default_rng(spec.seed)
    C = min(spec.clusters, spec.users, spec.items)
    user_cluster = rng.integers(0, C, size=spec.users)
    item_cluster = rng.integers(0, C, size=spec.items)
    user_centroids = rng.normal(0.0, 1.0, size=(C, spec.dim_user))
    item_centroids = rng.normal(0.0, 1.0, size=(C, spec.dim_item))

    n_pos = min(spec.items, max(3, int(round(spec.density * spec.items))))
    item_weights = []
    for c in range(C):
        w = np.where(item_cluster == c, 4.0, 1.0)
        w /= w.sum()
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        item_weights.append((w, cdf))
    rated = []
    for c in user_cluster.tolist():
        w, cdf = item_weights[c]
        rated.extend(_weighted_draw(rng, w, n_pos, cdf))

    n_out = min(5, spec.users - 1)
    followees, draws = [], np.zeros(C, dtype=np.int64)
    if n_out > 0:
        base = (1.0 - spec.homophily) / (spec.users - 1)
        templates = np.full((C, spec.users), base)
        for c, s in enumerate(np.bincount(user_cluster, minlength=C).tolist()):
            if s > 1:
                templates[c, user_cluster == c] += spec.homophily / (s - 1)
                # homophily=1 gives no weight outside the cluster, which may have fewer than n_out other users
                nonzero = spec.users - 1 if base > 0 else s - 1
            else:
                templates[c] = 1.0 / (spec.users - 1)
                nonzero = spec.users - 1
            draws[c] = min(n_out, nonzero)
        # A block's rows are its users' weights; a row's sum and cumsum in a
        # C-contiguous array equal the 1-D calls on that row bit for bit
        rows = max(1, _FOLLOW_BLOCK_CELLS // spec.users)
        for start in range(0, spec.users, rows):
            block = np.arange(start, min(start + rows, spec.users))
            clusters = user_cluster[block]
            w = templates[clusters]
            w[np.arange(len(block)), block] = 0.0
            w /= w.sum(axis=1, keepdims=True)
            cdf = np.cumsum(w, axis=1)
            cdf /= cdf[:, -1:]
            for r, c in enumerate(clusters.tolist()):
                followees.extend(_weighted_draw(rng, w[r], draws[c], cdf[r]))

    uf = FeatureTable(
        dim=spec.dim_user,
        vectors=user_centroids[user_cluster] + 0.1 * rng.normal(size=(spec.users, spec.dim_user)),
    )
    itf = FeatureTable(
        dim=spec.dim_item,
        vectors=item_centroids[item_cluster] + 0.1 * rng.normal(size=(spec.items, spec.dim_item)),
    )
    raters = np.repeat(np.arange(spec.users), n_pos)
    inter = InteractionMatrix.from_arrays(raters, np.array(rated, dtype=np.int64), spec.users, spec.items)
    followers = np.repeat(np.arange(spec.users), draws[user_cluster])
    social = SocialGraph.from_arrays(followers, np.array(followees, dtype=np.int64), spec.users)
    return inter, social, uf, itf


def generate_synthetic(spec) -> DatasetBundle:
    """Seeded synthetic DatasetBundle with social graph and features attached."""
    inter, social, uf, itf = synthetic_tables(spec)
    bundle = split(inter, SplitConfig(seed=spec.seed))
    return replace(bundle, social=social, user_features=uf, item_features=itf)
