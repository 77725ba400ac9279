"""Fitted-transformer persistence.

Model files are self-describing JSON with an explicit format_version; the
ares entry keys (psi, t) follow the file-format contract. Floats serialize
with shortest round-trip precision, so a saved and reloaded transformer
produces bitwise-identical outputs on every input.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .data import replacing
from .errors import CorruptModel, UnsupportedVersion
from .transforms import KINDS, AresModel, FittedTransformer, MinMaxParams, RankModel

FORMAT_VERSION = 1


def _fingerprint(n_features: int) -> str:
    return hashlib.sha256(f"columns:{n_features}".encode()).hexdigest()


def _header_int(value, key: str) -> int:
    """A header integer, which must be a JSON integer: not a fraction, a
    boolean or a string, and not 1e400, which parses as infinity."""
    if type(value) is not int:
        got = "infinity" if value in (math.inf, -math.inf) else repr(value)
        raise ValueError(f"{key} must be a JSON integer, got {got}")
    return value


def _numbers(values, ndim: int) -> np.ndarray:
    """Column parameters as a float64 array of `ndim` dimensions; each must
    be a JSON number, not a string, a boolean or null."""
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

    with replacing(path, encoding="utf-8") as fh:
        fh.write(json.dumps(head)[:-1] + ', "columns": [')
        for c, params in enumerate(transformer.columns):
            if transformer.kind == "minmax":
                block = {"min": params.min, "max": params.max}
            elif transformer.kind == "rank":
                block = {"sorted_train": params.sorted_train.tolist()}
            else:
                block = {"subsamples": params.subsamples.tolist()}
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
        if kind == "minmax":
            columns = [
                MinMaxParams(*_numbers([b["min"], b["max"]], 1).tolist()) for b in raw_columns
            ]
        elif kind == "rank":
            columns = [RankModel(_numbers(b["sorted_train"], 1)) for b in raw_columns]
        else:
            seed = _header_int(doc["seed"], "seed")
            columns = [AresModel(_numbers(b["subsamples"], 2), seed) for b in raw_columns]
        transformer = FittedTransformer(kind, columns)
        if kind == "ares":
            header = (_header_int(doc["psi"], "psi"), _header_int(doc["t"], "t"))
            if header != (transformer.subsample_size, transformer.n_subsamples):
                raise ValueError("sub-sample block shape disagrees with psi/t")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptModel(f"{path}: malformed column parameters ({exc})") from None

    if doc.get("fingerprint") != _fingerprint(transformer.n_features):
        raise CorruptModel(f"{path}: fingerprint does not match column count")
    return transformer
