"""Binary checkpoint format: magic + version + JSON block table + payloads.

All tensor payloads are little-endian IEEE-754 float64 regardless of the
training precision so saved artifacts are exactly reproducible. Writes are
atomic (temp file + rename); loading fails closed on any version, magic or
size mismatch and on any malformed header entry, naming the offending block
or entry.
"""
from __future__ import annotations

import json
import math
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
    # one block per tensor; the payloads, in block order, are the bytes of params.flat
    blocks = [
        {"name": name, "shape": list(arr.shape), "dtype": "<f8", "nbytes": 8 * arr.size}
        for name, arr in params.items()
    ]
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
    out += params.flat.astype("<f8").tobytes()
    atomic_write_bytes(path, bytes(out))


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# Hyperparameters the header must give as JSON integers, with their least value, or as booleans.
_INT_HYPERS = {"D": 1, "L": 1, "K": 0}
_BOOL_HYPERS = ("use_bias", "pin_user_base")


def _hypers(path, entry):
    """HyperParams from the header's 'hyperparams' object, naming the first bad entry."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"{path}: header 'hyperparams' is not an object")
    for key, least in _INT_HYPERS.items():
        if key in entry and not (_is_int(entry[key]) and entry[key] >= least):
            raise CheckpointError(
                f"{path}: hyperparameter {key!r} must be an integer >= {least}, got {entry[key]!r}"
            )
    for key in _BOOL_HYPERS:
        if key in entry and not isinstance(entry[key], bool):
            raise CheckpointError(
                f"{path}: hyperparameter {key!r} must be true or false, got {entry[key]!r}"
            )
    try:
        return HyperParams(**entry)
    except (TypeError, ModelError) as exc:
        raise CheckpointError(f"{path}: bad hyperparams: {exc}") from exc


def _block_entry(path, index, block):
    """(name, shape, nbytes) of one header block entry, checked against its payload size."""
    if not isinstance(block, dict) or not isinstance(block.get("name"), str):
        raise CheckpointError(f"{path}: block {index} has no string 'name'")
    name = block["name"]
    shape = block.get("shape")
    if not isinstance(shape, list) or not all(_is_int(d) and d >= 0 for d in shape):
        raise CheckpointError(f"{path}: block {name!r} has no valid 'shape' (a list of sizes >= 0)")
    if block.get("dtype") != "<f8":
        raise CheckpointError(f"{path}: block {name!r} has dtype {block.get('dtype')!r}, want '<f8'")
    nbytes = block.get("nbytes")
    if not _is_int(nbytes) or nbytes != 8 * math.prod(shape):
        raise CheckpointError(
            f"{path}: block {name!r} has nbytes {nbytes!r}, shape {shape} needs {8 * math.prod(shape)}"
        )
    return name, tuple(shape), nbytes


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

    if not isinstance(header["blocks"], list):
        raise CheckpointError(f"{path}: header 'blocks' is not a list")
    arrays = {}
    for index, block in enumerate(header["blocks"]):
        name, shape, nbytes = _block_entry(path, index, block)
        if name in arrays:
            raise CheckpointError(f"{path}: block {name!r} appears twice")
        if off + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated payload for block {name!r}")
        arrays[name] = np.frombuffer(raw, dtype="<f8", count=nbytes // 8, offset=off).reshape(shape)
        off += nbytes
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes after last block")

    frozen = header.get("frozen", [])
    if not isinstance(frozen, list) or not all(isinstance(n, str) and n in arrays for n in frozen):
        raise CheckpointError(f"{path}: header 'frozen' must list block names, got {frozen!r}")
    params = ModelParams(arrays, frozen=frozen)
    return Checkpoint(
        version=version,
        hypers=_hypers(path, header["hyperparams"]),
        params=params,
        fingerprint=header["fingerprint"],
        log_tail=header.get("log_tail", []),
        meta=header.get("meta", {}),
    )
