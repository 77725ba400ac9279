"""Fitted-transformer persistence.

Model files are self-describing JSON with an explicit format_version; the
ares entry keys (psi, t) follow the file-format contract. Floats serialize
with shortest round-trip precision, so a saved and reloaded transformer
produces bitwise-identical outputs on every input.
"""

import json
import math
from pathlib import Path

import numpy as np

from .data import replacing
from .errors import CorruptModel, UnsupportedVersion
from .transforms import KINDS, FittedTransformer

FORMAT_VERSION = 1


def _fingerprint(n_features: int) -> str:
    # imported here: hashlib maps OpenSSL, and only a model read or write
    # needs it, not `evaluate` or `perturb`
    import hashlib

    return hashlib.sha256(f"columns:{n_features}".encode()).hexdigest()


def _header_int(value, key: str) -> int:
    """A header integer, which must be a JSON integer: not a fraction, a
    boolean or a string, and not 1e400, which parses as infinity."""
    if type(value) is not int:
        got = "infinity" if value in (math.inf, -math.inf) else repr(value)
        raise ValueError(f"{key} must be a JSON integer, got {got}")
    return value


def _numbers(values, ndim: int) -> np.ndarray:
    """The parameters of all columns as one float64 array of `ndim`
    dimensions, so every column block must have the same shape; each value
    must be a JSON number, not a string, a boolean or null."""
    arr = np.asarray(values, dtype=object)
    if arr.ndim != ndim:
        raise ValueError(f"expected parameters nested {ndim} deep")
    if not set(map(type, arr.flat)) <= {int, float}:
        raise ValueError("parameters must be JSON numbers")
    return arr.astype(np.float64)


def save_model(transformer: FittedTransformer, path) -> None:
    """Write the transformer as one line of JSON, one column block at a time.

    json.dumps runs the C encoder, which json.dump never uses; the bytes are
    those json.dump writes for the whole document.
    """
    head = {
        "format_version": FORMAT_VERSION,
        "kind": transformer.kind,
        "fingerprint": _fingerprint(transformer.n_features),
    }
    if transformer.kind == "ares":
        head["psi"] = transformer.subsample_size
        head["t"] = transformer.n_subsamples
        head["seed"] = transformer.seed

    with replacing(path) as fh:
        fh.write(json.dumps(head)[:-1] + ', "columns": [')
        for c, params in enumerate(transformer.params):
            params = params.tolist()
            if transformer.kind == "minmax":
                block = {"min": params[0], "max": params[1]}
            elif transformer.kind == "rank":
                block = {"sorted_train": params[0]}
            else:
                block = {"subsamples": params}
            fh.write((", " if c else "") + json.dumps(block))
        fh.write("]}\n")


def load_model(path) -> FittedTransformer:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CorruptModel(f"{path}: not valid JSON ({exc})") from None

    if not isinstance(doc, dict):
        raise CorruptModel(f"{path}: expected a JSON object at top level")
    version = doc.get("format_version")
    if type(version) is not int:
        raise CorruptModel(f"{path}: missing or invalid format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(
            f"{path}: format_version {version} not supported (expected {FORMAT_VERSION})"
        )

    kind = doc.get("kind")
    if kind not in KINDS:
        raise CorruptModel(f"{path}: unknown transformer kind {kind!r}")
    raw_columns = doc.get("columns")
    if not isinstance(raw_columns, list) or not raw_columns:
        raise CorruptModel(f"{path}: missing or empty columns")

    try:
        seed = None
        if kind == "minmax":
            params = _numbers([[b["min"], b["max"]] for b in raw_columns], 2)
        elif kind == "rank":
            params = _numbers([b["sorted_train"] for b in raw_columns], 2)[:, None]
        else:
            seed = _header_int(doc["seed"], "seed")
            params = _numbers([b["subsamples"] for b in raw_columns], 3)
        transformer = FittedTransformer(kind, params, seed)
        if kind == "ares":
            header = (_header_int(doc["psi"], "psi"), _header_int(doc["t"], "t"))
            if header != (transformer.subsample_size, transformer.n_subsamples):
                raise ValueError("sub-sample block shape disagrees with psi/t")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptModel(f"{path}: malformed column parameters ({exc})") from None

    if doc.get("fingerprint") != _fingerprint(transformer.n_features):
        raise CorruptModel(f"{path}: fingerprint does not match column count")
    return transformer
