"""Fitted-transformer persistence.

Model files are self-describing JSON with an explicit format_version; the
ares entry keys (psi, t) follow the file-format contract. Floats serialize
with shortest round-trip precision, so a saved and reloaded transformer
produces bitwise-identical outputs on every input.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from .data import replacing
from .errors import CorruptModel, UnsupportedVersion
from .transforms import KINDS, AresModel, FittedTransformer, MinMaxParams, RankModel

FORMAT_VERSION = 1


def _fingerprint(n_features: int) -> str:
    return hashlib.sha256(f"columns:{n_features}".encode()).hexdigest()


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
    if not isinstance(version, int):
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
            columns = [MinMaxParams(float(b["min"]), float(b["max"])) for b in raw_columns]
        elif kind == "rank":
            columns = [
                RankModel(np.asarray(b["sorted_train"], dtype=np.float64)) for b in raw_columns
            ]
        else:
            seed = int(doc["seed"])
            columns = [
                AresModel(np.asarray(b["subsamples"], dtype=np.float64), seed)
                for b in raw_columns
            ]
        transformer = FittedTransformer(kind, columns)
        if kind == "ares":
            header = (int(doc["psi"]), int(doc["t"]))
            if header != (transformer.subsample_size, transformer.n_subsamples):
                raise ValueError("sub-sample block shape disagrees with psi/t")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptModel(f"{path}: malformed column parameters ({exc})") from None

    if doc.get("fingerprint") != _fingerprint(transformer.n_features):
        raise CorruptModel(f"{path}: fingerprint does not match column count")
    return transformer
