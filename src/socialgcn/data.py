"""Data ingestion, degree filtering, edge splitting and synthetic generation.

File formats are plain TSV (UTF-8). An optional first non-comment line
``users=M items=N`` declares dimensions; lines starting with ``#`` are ignored.
Loaders give a file's data lines to NumPy's C reader, guarded so that it
reads ids and values as int() and float() do. A line-by-line reader takes
the files it refuses, and names the first faulty ``path:line``.
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


def _csr(sources, targets, num_sources, num_targets):
    """CSR (indptr, indices) int64 arrays of the ascending distinct targets of each source id.

    Sorts the keys source * num_targets + target; np.sort and a neighbour
    mask cost a tenth of np.unique's time on NumPy 2 at these sizes.
    """
    keys = np.sort(sources * num_targets + targets)
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    sources, targets = np.divmod(keys[distinct], max(num_targets, 1))
    return np.concatenate(([0], np.cumsum(np.bincount(sources, minlength=num_sources)))), targets


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
        """from_arrays for a list of (source, target) pairs, with from_arrays' optional counts."""
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        return cls.from_arrays(pairs[:, 0], pairs[:, 1], *counts)

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
    """Directed follow graph; row a (followees_by_user[a]) is a's ego network."""

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

    @property
    def followees_by_user(self):
        return Rows(self)


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

    @functools.cached_property
    def rated(self):
        """The items each user rated in any split: (indptr list, item array), row a holding user a's."""
        tables = [self.train, self.validation, self.test]
        users, items = (np.concatenate(parts) for parts in zip(*(t.edge_arrays() for t in tables)))
        return sum(t.indptr for t in tables).tolist(), items[np.argsort(users)]

    def fingerprint(self):
        """Content hash over a canonical serialization of the whole bundle."""
        text = [f"users={self.num_users} items={self.num_items}\n"]
        for name, m in (("train", self.train), ("validation", self.validation), ("test", self.test)):
            text += [f"[{name}]\n", _edge_lines(m)]
        text.append("[social]\n")
        if self.social is not None:
            text.append(_edge_lines(self.social))
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

# The bytes of a plain file: printable ASCII but '#', TAB and LF. NumPy's C
# reader takes a plain file's lines as they are, with the strip pass's
# result: it skips an empty line, reads spaces around a field as int() and
# float() do, and refuses a line of spaces or one with a TAB at either end
# (the stripped lines are tried next).
_PLAIN = (bytes(range(0x20, 0x7F)) + b"\t\n").replace(b"#", b"")
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b"\t,")


def _data_lines(text):
    """The stripped data lines of `text`: neither blank nor '#' comments."""
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _c_bodies(text):
    """The data rows of `text` for NumPy's C reader, joined by LF: up to two tries, made lazily.

    A plain file's first try is its text without its final LFs, so that its
    last row is not empty; it skips the strip pass. The next try is the data
    lines, unless one holds a character that is not ASCII, or U+001F. The C
    reader reads a non-ASCII character after the digits into a wrong value
    ("5\u01fe" as 512) and strips U+001F as whitespace, where int() and
    float() reject both.
    """
    if not text.encode().translate(None, _PLAIN):
        yield text.rstrip("\n")
    body = "\n".join(_data_lines(text))
    if body.isascii() and "\x1f" not in body:
        yield body


def _c_read(body, dtype, delimiter):
    """One `dtype` record per non-empty line of `body`, as NumPy's C reader parses it, or None.

    None when the reader refuses a line, and for an empty body (loadtxt
    warns when it finds no data). On the rows _c_bodies gives it, the reader
    reads each integer as int() does and each float as float() does.
    """
    if not body:
        return None
    try:
        return np.loadtxt(body.split("\n"), dtype=dtype, delimiter=delimiter, comments=None, ndmin=1)
    except ValueError:
        return None


def _parse_lines(path, text, parse, skip=0):
    """parse(line) of every data line of `text` in file order, leaving out the first `skip` (a header).

    The first DataError that parse raises is raised again, naming `path:line`.
    """
    parsed = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if skip:
            skip -= 1
            continue
        try:
            parsed.append(parse(line))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return parsed


def _edge_parser(fields, line_fault, range_fault, header):
    """Reader of one "a<TAB>b" line into (a, b).

    It raises a DataError for the line's first fault, checked in this order:
    field count, integer ids, line_fault(a, b, line), 64-bit ids,
    range_fault(a, b, header), then negative ids.
    """

    def parse(line):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"expected '{fields}', got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"non-integer id in {line!r}") from None
        message = line_fault(a, b, line)
        if message is None and (a not in _INT64 or b not in _INT64):
            message = f"id out of range in {line!r}"
        message = message or range_fault(a, b, header)
        if message is None and (a < 0 or b < 0):
            message = f"negative id in {line!r}"
        if message is not None:
            raise DataError(message)
        return a, b

    return parse


def _outside(ids, count):
    """Which ids fall outside [0, count); none when the header gives no count."""
    return np.zeros(ids.shape, dtype=bool) if count is None else (ids < 0) | (ids >= count)


def _load_edges(path, kind, fields, bad_rows, line_fault, range_fault):
    """The header and the (n, 2) int64 ids of an "a<TAB>b" edge file.

    `bad_rows(ids, header)` flags the rows that `line_fault(a, b, line)`,
    `range_fault(a, b, header)` or a negative id make faulty. The line
    reader takes the file when the C reader refuses it or a row is flagged,
    and reports the first faulty line.
    """
    text = _read_text(path)
    for body in _c_bodies(text):
        first, _, rest = body.partition("\n")
        header = _parse_header(first)
        records = _c_read(body if header is None else rest, [("ids", np.int64, (2,))], "\t")
        if records is not None and not bad_rows(records["ids"], header or {}).any():
            return header or {}, records["ids"]
    rows = _data_lines(text)
    if not rows:
        raise DataError(f"{path}: empty {kind} file")
    header = _parse_header(rows[0])
    parse = _edge_parser(fields, line_fault, range_fault, header or {})
    ids = np.array(_parse_lines(path, text, parse, header is not None), dtype=np.int64).reshape(-1, 2)
    return header or {}, ids


def _interaction_range_fault(a, i, header):
    for name, value in (("user", a), ("item", i)):
        count = header.get(f"{name}s")
        if count is not None and value >= count:
            return f"{name} id {value} out of range [0, {count})"


def load_interactions(path) -> InteractionMatrix:
    """Load "user<TAB>item" lines into a deduplicated InteractionMatrix."""
    header, ids = _load_edges(
        path,
        "interaction",
        "user<TAB>item",
        lambda ids, h: (
            (ids < 0).any(axis=1) | _outside(ids[:, 0], h.get("users")) | _outside(ids[:, 1], h.get("items"))
        ),
        lambda a, i, line: f"negative id in {line!r}" if a < 0 or i < 0 else None,
        _interaction_range_fault,
    )
    return InteractionMatrix.from_arrays(ids[:, 0], ids[:, 1], header.get("users"), header.get("items"))


def _social_range_fault(a, b, header):
    users = header.get("users")
    if users is not None and not (0 <= a < users and 0 <= b < users):
        return f"social edge ({a},{b}) out of range [0, {users})"


def load_social(path) -> SocialGraph:
    """Load "follower<TAB>followee" lines; self-loops are rejected."""
    header, ids = _load_edges(
        path,
        "social",
        "follower<TAB>followee",
        lambda ids, h: (ids[:, 0] == ids[:, 1]) | ((ids < 0) | _outside(ids, h.get("users"))).any(axis=1),
        lambda a, b, line: f"self-loop on user {a}" if a == b else None,
        _social_range_fault,
    )
    return SocialGraph.from_arrays(ids[:, 0], ids[:, 1], header.get("users"))


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


def _c_features(body):
    """The ids and (n, dim) values NumPy's C reader parses from "id<TAB>values" rows, or None.

    The rows go to it with their TAB made a comma, so each row must have one
    TAB and no comma before it: "1,2<TAB>3" would read as id 1. The reader
    gives each record dim separators, so the rows' TABs and commas, in order,
    must be one TAB and dim - 1 commas per record. None also when a value is
    not finite or an id repeats, which the line reader reports.
    """
    dim = body.partition("\n")[0].count(",") + 1
    records = _c_read(body.replace("\t", ","), [("id", np.int64), ("v", np.float64, (dim,))], ",")
    if (
        records is None
        or body.encode().translate(None, _NOT_SEPARATOR) != (b"\t" + b"," * (dim - 1)) * len(records)
        or not np.isfinite(records["v"]).all()
    ):
        return None
    ids = np.sort(records["id"])  # a tenth of np.unique's time at these sizes
    return None if (ids[1:] == ids[:-1]).any() else (records["id"], records["v"])


def load_features(path, expected_count) -> FeatureTable:
    """Load "id<TAB>v1,v2,...,vd" lines covering ids 0..expected_count-1."""
    text = _read_text(path)
    parsed = next(filter(None, map(_c_features, _c_bodies(text))), None)
    if parsed is None:
        entries = _parse_lines(path, text, _feature_parser())
        if not entries:
            raise DataError(f"{path}: empty feature file")
        ids = [ent if 0 <= ent < expected_count else -1 for ent, _ in entries]  # -1 fits where 2**63 does not
        parsed = np.array(ids, dtype=np.int64), np.array([vec for _, vec in entries])
    ids, vectors = parsed
    row_of = np.full(expected_count, -1)
    inside = (ids >= 0) & (ids < expected_count)
    row_of[ids[inside]] = np.flatnonzero(inside)
    missing = np.flatnonzero(row_of < 0)
    if len(missing):
        raise DataError(f"{path}: missing feature vector for entity {missing[0]}")
    return FeatureTable(dim=vectors.shape[1], vectors=vectors[row_of])


def _fmt(x):
    return repr(float(x))


def save_interactions(matrix, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"users={matrix.num_users} items={matrix.num_items}\n")
        fh.write(_edge_lines(matrix))


def save_social(graph, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"users={graph.num_users}\n")
        fh.write(_edge_lines(graph))


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
