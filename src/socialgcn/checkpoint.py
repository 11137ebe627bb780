"""Binary checkpoint and dataset-snapshot files: magic + version + JSON block table + payloads.

Both kinds share one container (version 2) and differ in magic and header
entries. Checkpoint payloads are little-endian IEEE-754 float64 regardless
of the training precision so saved artifacts are exactly reproducible; a
snapshot holds a bundle's blocks(), checked against the fingerprint in its
header. Writes are atomic (temp file + rename); loading fails closed on
any version, magic or size mismatch, on any malformed header entry and on
a pinned P that is not +0.0, naming the file and the offending block or
entry.
"""
from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import check
from .data import DataError, DatasetBundle, digest
from .model import HyperParams, ModelError, ModelParams

MAGIC = b"SGCNCKPT"
SNAPSHOT_MAGIC = b"SGCNDATA"
VERSION = 2


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
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
        "hyperparams": asdict(hypers),
        "fingerprint": fingerprint,
        "log_tail": list(log_tail),
        "meta": meta or {},
        "frozen": ["P"] if hypers.pin_user_base else [],  # kept for the file's bytes; not read
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
    """The Checkpoint at `path`; a pinned P (`pin_user_base`) must be all +0.0 bytes."""
    header, arrays = _read_container(path, MAGIC, "checkpoint", ("hyperparams", "fingerprint"), ("<f8",))
    hypers = _hypers(path, header["hyperparams"])
    if hypers.pin_user_base and "P" in arrays and arrays["P"].view("<i8").any():
        raise CheckpointError(f"{path}: block 'P' is not all +0.0, but pin_user_base pins it there")
    return Checkpoint(
        hypers=hypers,
        params=ModelParams(arrays),
        fingerprint=header["fingerprint"],
        log_tail=header.get("log_tail", []),
        meta=header.get("meta", {}),
    )


# ---------------------------------------------------------------------------
# dataset snapshot: a bundle's blocks, keyed by the inputs they come from


def save_snapshot(path, bundle, key, fingerprint):
    """Write bundle.blocks() to `path` under `key`, with the counts and the bundle's fingerprint."""
    header = {"key": key, "num_users": bundle.num_users, "num_items": bundle.num_items, "fingerprint": fingerprint}
    _write_container(path, SNAPSHOT_MAGIC, header, list(bundle.blocks().items()))


def load_snapshot(path, key):
    """(bundle, fingerprint) from the snapshot at `path`; None when there is none or it has another key.

    A snapshot under `key` raises a CheckpointError naming the file when the
    fingerprint recomputed from its blocks, before any table is built, is
    not the stored one, or when its blocks do not make a bundle.
    """
    if not os.path.isfile(path):
        return None
    header, arrays = _read_container(
        path, SNAPSHOT_MAGIC, "dataset snapshot", ("key", "num_users", "num_items", "fingerprint"), ("<i8", "<f8")
    )
    if header["key"] != key:
        return None
    users, items, fingerprint = header["num_users"], header["num_items"], header["fingerprint"]
    if digest(users, items, arrays) != fingerprint:
        raise CheckpointError(f"{path}: dataset snapshot fails its sha256 check; delete it to re-read the data")
    try:
        return DatasetBundle.from_blocks(users, items, arrays), fingerprint
    except DataError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
