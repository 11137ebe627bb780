"""Binary checkpoint and dataset-snapshot files: magic + version + JSON block table + payloads.

Both kinds share one container and differ in magic and header entries.
Checkpoint payloads are little-endian IEEE-754 float64 regardless of the
training precision so saved artifacts are exactly reproducible; a snapshot
adds int64 blocks. Writes are atomic (temp file + rename); loading fails
closed on any version, magic or size mismatch and on any malformed header
entry, naming the file and the offending block or entry.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .bounds import check
from .data import DataError, DatasetBundle, FeatureTable, InteractionMatrix, SocialGraph
from .model import HyperParams, ModelError, ModelParams

MAGIC = b"SGCNCKPT"
SNAPSHOT_MAGIC = b"SGCNDATA"
VERSION = 1


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    version: int
    hypers: HyperParams
    params: ModelParams
    fingerprint: str
    log_tail: list[str]
    meta: dict


def atomic_write_bytes(path, payload):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def _hypers_dict(hypers):
    return {
        "D": hypers.D,
        "L": hypers.L,
        "K": hypers.K,
        "feature_mode": hypers.feature_mode,
        "aggregator": hypers.aggregator,
        "use_bias": hypers.use_bias,
        "pin_user_base": hypers.pin_user_base,
    }


def _write_container(path, magic, header, blocks):
    """Write `magic`, VERSION, the JSON header with a block table, then each block's bytes.

    `blocks` is (name, array) pairs of little-endian 8-byte arrays, written in order.
    """
    table = [
        {"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str, "nbytes": arr.nbytes}
        for name, arr in blocks
    ]
    header_bytes = json.dumps({**header, "blocks": table}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += magic
    out += struct.pack("<I", VERSION)
    out += struct.pack("<Q", len(header_bytes))
    out += header_bytes
    for _, arr in blocks:
        out += arr.tobytes()
    atomic_write_bytes(path, bytes(out))


def save_checkpoint(path, hypers, params, fingerprint, log_tail=(), meta=None):
    # one block per tensor; the payloads, in block order, are the bytes of params.flat
    header = {
        "hyperparams": _hypers_dict(hypers),
        "fingerprint": fingerprint,
        "log_tail": list(log_tail),
        "meta": meta or {},
        "frozen": sorted(params.frozen),
    }
    _write_container(path, MAGIC, header, [(name, arr.astype("<f8", copy=False)) for name, arr in params.items()])


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _hypers(path, entry):
    """HyperParams from the header's 'hyperparams' object, naming the first bad entry."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"{path}: header 'hyperparams' is not an object")
    check(HyperParams, entry, CheckpointError, lambda name: f"{path}: hyperparameter {name!r}")
    try:
        return HyperParams(**entry)
    except (TypeError, ModelError) as exc:
        raise CheckpointError(f"{path}: bad hyperparams: {exc}") from exc


def _block_entry(path, index, block, dtypes):
    """(name, shape, dtype, nbytes) of one header block entry, checked against its payload size."""
    if not isinstance(block, dict) or not isinstance(block.get("name"), str):
        raise CheckpointError(f"{path}: block {index} has no string 'name'")
    name = block["name"]
    shape = block.get("shape")
    if not isinstance(shape, list) or not all(_is_int(d) and d >= 0 for d in shape):
        raise CheckpointError(f"{path}: block {name!r} has no valid 'shape' (a list of sizes >= 0)")
    dtype = block.get("dtype")
    if dtype not in dtypes:
        raise CheckpointError(f"{path}: block {name!r} has dtype {dtype!r}, want {' or '.join(map(repr, dtypes))}")
    nbytes = block.get("nbytes")
    if not _is_int(nbytes) or nbytes != 8 * math.prod(shape):
        raise CheckpointError(
            f"{path}: block {name!r} has nbytes {nbytes!r}, shape {shape} needs {8 * math.prod(shape)}"
        )
    return name, tuple(shape), dtype, nbytes


def _read_container(path, magic, kind, required, dtypes):
    """(header, {name: read-only array}) of a file _write_container wrote.

    Fails closed, naming the file, on a wrong magic or version, a header
    that lacks a `required` entry, and any block entry that does not
    describe exactly the bytes that follow the header.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {kind} {path}: {exc}") from exc
    if len(raw) < len(magic) + 12 or raw[: len(magic)] != magic:
        raise CheckpointError(f"{path}: bad magic bytes, not a {kind}")
    off = len(magic)
    (version,) = struct.unpack_from("<I", raw, off)
    off += 4
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported {kind} version {version} (want {VERSION})")
    (hlen,) = struct.unpack_from("<Q", raw, off)
    off += 8
    if off + hlen > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    off += hlen
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header: not a JSON object")
    for key in (*required, "blocks"):
        if key not in header:
            raise CheckpointError(f"{path}: header has no {key!r} entry")

    if not isinstance(header["blocks"], list):
        raise CheckpointError(f"{path}: header 'blocks' is not a list")
    arrays = {}
    for index, block in enumerate(header["blocks"]):
        name, shape, dtype, nbytes = _block_entry(path, index, block, dtypes)
        if name in arrays:
            raise CheckpointError(f"{path}: block {name!r} appears twice")
        if off + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated payload for block {name!r}")
        arrays[name] = np.frombuffer(raw, dtype=dtype, count=nbytes // 8, offset=off).reshape(shape)
        off += nbytes
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes after last block")
    return header, arrays


def load_checkpoint(path):
    header, arrays = _read_container(path, MAGIC, "checkpoint", ("hyperparams", "fingerprint"), ("<f8",))
    frozen = header.get("frozen", [])
    if not isinstance(frozen, list) or not all(isinstance(n, str) and n in arrays for n in frozen):
        raise CheckpointError(f"{path}: header 'frozen' must list block names, got {frozen!r}")
    params = ModelParams(arrays, frozen=frozen)
    return Checkpoint(
        version=VERSION,
        hypers=_hypers(path, header["hyperparams"]),
        params=params,
        fingerprint=header["fingerprint"],
        log_tail=header.get("log_tail", []),
        meta=header.get("meta", {}),
    )


# ---------------------------------------------------------------------------
# dataset snapshot: the split tables and features of a bundle, keyed by its inputs

_TABLES = {"train": InteractionMatrix, "validation": InteractionMatrix, "test": InteractionMatrix, "social": SocialGraph}
_FEATURES = ("user_features", "item_features")


def _snapshot_digest(header, arrays):
    """sha256 over a snapshot's counts, fingerprint and blocks (names, shapes, dtypes and bytes)."""
    h = hashlib.sha256(repr([header.get(k) for k in ("num_users", "num_items", "fingerprint")]).encode())
    for name, arr in arrays.items():
        h.update(f"{name}{arr.shape}{arr.dtype.str}".encode())
        h.update(arr)
    return h.hexdigest()


def save_snapshot(path, bundle, key, fingerprint):
    """Write the bundle's tables and features to `path` under `key`, which names the inputs they come from."""
    arrays = {
        f"{name}.{part}": np.ascontiguousarray(getattr(getattr(bundle, name), part), dtype="<i8")
        for name in _TABLES
        for part in ("indptr", "indices")
    }
    for name in _FEATURES:
        if getattr(bundle, name) is not None:
            arrays[name] = np.ascontiguousarray(getattr(bundle, name).vectors, dtype="<f8")
    header = {"key": key, "num_users": bundle.num_users, "num_items": bundle.num_items, "fingerprint": fingerprint}
    header["sha256"] = _snapshot_digest(header, arrays)
    _write_container(path, SNAPSHOT_MAGIC, header, list(arrays.items()))


def _snapshot_table(path, arrays, name, rows, columns):
    """The CSR (indptr, indices) blocks of table `name`, checked to be `rows` rows of ids below `columns`."""
    indptr, indices = arrays.get(f"{name}.indptr"), arrays.get(f"{name}.indices")
    if not (
        indptr is not None
        and indices is not None
        and indptr.dtype.kind == indices.dtype.kind == "i"
        and indptr.shape == (rows + 1,)
        and indices.ndim == 1
        and indptr[0] == 0
        and indptr[-1] == len(indices)
        and (np.diff(indptr) >= 0).all()
        and (not len(indices) or 0 <= indices.min() <= indices.max() < columns)
    ):
        raise CheckpointError(f"{path}: blocks of table {name!r} are not {rows} rows of ids in [0, {columns})")
    return indptr, indices


def load_snapshot(path, key):
    """(bundle, fingerprint) from the snapshot at `path`; None when there is none or it has another key.

    A snapshot under `key` whose digest or blocks do not check out raises
    a CheckpointError naming the file.
    """
    if not os.path.isfile(path):
        return None
    header, arrays = _read_container(path, SNAPSHOT_MAGIC, "dataset snapshot", ("key",), ("<i8", "<f8"))
    if header["key"] != key:
        return None
    if header.get("sha256") != _snapshot_digest(header, arrays):
        raise CheckpointError(f"{path}: dataset snapshot fails its sha256 check; delete it to re-read the data")
    users, items = header["num_users"], header["num_items"]
    if not (_is_int(users) and _is_int(items) and users >= 0 and items >= 0):
        raise CheckpointError(f"{path}: bad user or item count {users!r}, {items!r}")
    tables = {}
    for name, cls in _TABLES.items():
        counts = (users,) if cls is SocialGraph else (users, items)
        tables[name] = cls(*counts, *_snapshot_table(path, arrays, name, users, counts[-1]))
    features = {}
    for name, rows in zip(_FEATURES, (users, items)):
        vectors = arrays.get(name)
        if vectors is not None:
            if vectors.ndim != 2 or len(vectors) != rows or vectors.dtype.kind != "f":
                raise CheckpointError(f"{path}: block {name!r} has shape {vectors.shape}, want ({rows}, *)")
            try:
                features[name] = FeatureTable(vectors.shape[1], vectors)
            except DataError as exc:
                raise CheckpointError(f"{path}: block {name!r}: {exc}") from None
    return DatasetBundle(**tables, **features), header["fingerprint"]
