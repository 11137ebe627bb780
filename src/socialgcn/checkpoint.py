"""Binary checkpoint format: magic + version + JSON block table + payloads.

All tensor payloads are little-endian IEEE-754 float64 regardless of the
training precision so saved artifacts are exactly reproducible. Writes are
atomic (temp file + rename); loading fails closed on any version, magic or
size mismatch, naming the offending block.
"""
from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .model import HyperParams, ModelError, ModelParams

MAGIC = b"SGCNCKPT"
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


def save_checkpoint(path, hypers, params, fingerprint, log_tail=(), meta=None):
    blocks = []
    payloads = []
    for name, arr in params.items():
        data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        blocks.append({"name": name, "shape": list(arr.shape), "dtype": "<f8", "nbytes": len(data)})
        payloads.append(data)
    header = {
        "hyperparams": _hypers_dict(hypers),
        "fingerprint": fingerprint,
        "log_tail": list(log_tail),
        "meta": meta or {},
        "frozen": sorted(params.frozen),
        "blocks": blocks,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<Q", len(header_bytes))
    out += header_bytes
    for data in payloads:
        out += data
    atomic_write_bytes(path, bytes(out))


def load_checkpoint(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < len(MAGIC) + 12 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes, not a checkpoint")
    off = len(MAGIC)
    (version,) = struct.unpack_from("<I", raw, off)
    off += 4
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version} (want {VERSION})")
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
    for key in ("hyperparams", "fingerprint", "blocks"):
        if key not in header:
            raise CheckpointError(f"{path}: header has no {key!r} entry")

    arrays = {}
    for block in header["blocks"]:
        name = block["name"]
        nbytes = block["nbytes"]
        if off + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated payload for block {name!r}")
        arr = np.frombuffer(raw[off : off + nbytes], dtype=block["dtype"]).astype(np.float64)
        shape = tuple(block["shape"])
        if arr.size != int(np.prod(shape)):
            raise CheckpointError(f"{path}: size mismatch in block {name!r}")
        arrays[name] = arr.reshape(shape)
        off += nbytes
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes after last block")

    try:
        hypers = HyperParams(**header["hyperparams"])
    except (TypeError, ModelError) as exc:
        raise CheckpointError(f"{path}: bad hyperparams: {exc}") from exc
    params = ModelParams(arrays, frozen=header.get("frozen", []))
    return Checkpoint(
        version=version,
        hypers=hypers,
        params=params,
        fingerprint=header["fingerprint"],
        log_tail=header.get("log_tail", []),
        meta=header.get("meta", {}),
    )
