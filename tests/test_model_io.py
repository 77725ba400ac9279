"""Model persistence: lossless round-trips and corrupt-file handling."""

import json
import os
import stat

import numpy as np
import pytest

from scalefree.errors import CorruptModel, UnsupportedVersion
from scalefree.model_io import load_model, save_model
from scalefree.transforms import FittedTransformer, fit_transformer


@pytest.fixture
def features():
    rng = np.random.default_rng(91)
    return rng.normal(size=(80, 3)) * 10.0 ** rng.uniform(-6, 6, size=3)


@pytest.mark.parametrize("kind", ["minmax", "rank", "ares"])
def test_round_trip_outputs_bitwise(kind, features, tmp_path):
    ft = fit_transformer(features, kind, seed=7)
    path = tmp_path / "model.json"
    save_model(ft, path)
    back = load_model(path)

    rng = np.random.default_rng(92)
    probes = rng.normal(scale=features.std(), size=(1000, 3))
    assert back.transform(probes).tobytes() == ft.transform(probes).tobytes()
    assert back.kind == ft.kind
    assert back.n_features == ft.n_features


def test_ares_metadata_round_trip(features, tmp_path):
    ft = fit_transformer(features, "ares", subsample_size=5, n_subsamples=12, seed=99)
    path = tmp_path / "model.json"
    save_model(ft, path)
    back = load_model(path)
    assert back.subsample_size == 5
    assert back.n_subsamples == 12
    assert back.seed == 99


def test_ares_built_from_columns_round_trip(features, tmp_path):
    columns = fit_transformer(features, "ares", 6, 4, seed=31).params
    ft = FittedTransformer("ares", columns, seed=31)
    path = tmp_path / "model.json"
    save_model(ft, path)
    back = load_model(path)
    assert (back.subsample_size, back.n_subsamples, back.seed) == (6, 4, 31)
    assert back.transform(features).tobytes() == ft.transform(features).tobytes()


def test_numpy_integer_seed_saves_as_a_json_integer(features, tmp_path):
    ft = fit_transformer(features, "ares", seed=np.uint64(2**64 - 1))
    assert type(ft.seed) is int
    path = tmp_path / "model.json"
    save_model(ft, path)
    assert load_model(path).seed == 2**64 - 1
    with pytest.raises(TypeError):
        FittedTransformer("ares", ft.params, seed=2.5)


def test_save_is_deterministic(features, tmp_path):
    ft = fit_transformer(features, "ares", seed=7)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(ft, p1)
    save_model(ft, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_format_keys(features, tmp_path):
    ft = fit_transformer(features, "ares", seed=7)
    path = tmp_path / "model.json"
    save_model(ft, path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert doc["kind"] == "ares"
    assert doc["psi"] == 7 and doc["t"] == 10 and doc["seed"] == 7
    assert len(doc["columns"]) == 3


def test_truncated_file(features, tmp_path):
    ft = fit_transformer(features, "minmax")
    path = tmp_path / "model.json"
    save_model(ft, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CorruptModel):
        load_model(path)


def test_invalid_utf8_rejected(features, tmp_path):
    ft = fit_transformer(features, "minmax")
    path = tmp_path / "model.json"
    save_model(ft, path)
    path.write_bytes(path.read_bytes().replace(b'"minmax"', b'"minm\xffax"'))
    with pytest.raises(CorruptModel, match="not valid JSON"):
        load_model(path)


@pytest.mark.parametrize("key", ["seed", "psi", "t"])
def test_overflowing_header_integer_rejected(key, features, tmp_path):
    ft = fit_transformer(features, "ares", seed=7)
    path = tmp_path / "model.json"
    save_model(ft, path)
    doc = json.loads(path.read_text())
    # 1e400 parses as float infinity, which no int holds
    path.write_text(json.dumps(doc).replace(f'"{key}": {doc[key]}', f'"{key}": 1e400'))
    with pytest.raises(CorruptModel, match="infinity"):
        load_model(path)


SORTED_TRAIN = ("columns", 0, "sorted_train")
SUBSAMPLES = ("columns", 0, "subsamples")
# (kind, path to the value, replacement): each holds the value a lenient
# reader would coerce it to, and binary features keep arrays of booleans sorted.
WRONG_TYPED = [
    pytest.param("ares", ("seed",), lambda v: 42.7, id="seed-fraction"),
    pytest.param("ares", ("seed",), lambda v: True, id="seed-boolean"),
    pytest.param("ares", ("seed",), str, id="seed-string"),
    pytest.param("ares", ("psi",), lambda v: v + 0.9, id="psi-fraction"),
    pytest.param("ares", ("t",), str, id="t-string"),
    pytest.param("minmax", ("format_version",), lambda v: True, id="version-boolean"),
    pytest.param("minmax", ("columns", 0, "min"), str, id="min-string"),
    pytest.param("minmax", ("columns", 0, "max"), bool, id="max-boolean"),
    pytest.param("rank", SORTED_TRAIN, lambda v: list(map(str, v)), id="rank-strings"),
    pytest.param("rank", SORTED_TRAIN, lambda v: list(map(bool, v)), id="rank-booleans"),
    pytest.param("ares", SUBSAMPLES, lambda v: [list(map(str, r)) for r in v], id="ares-strings"),
    pytest.param("ares", SUBSAMPLES, lambda v: [list(map(bool, r)) for r in v], id="ares-booleans"),
]


@pytest.mark.parametrize("kind, keys, retype", WRONG_TYPED)
def test_wrong_typed_json_number_rejected(kind, keys, retype, tmp_path):
    binary = np.random.default_rng(93).integers(0, 2, size=(40, 2)).astype(np.float64)
    path = tmp_path / "model.json"
    save_model(fit_transformer(binary, kind, seed=7), path)
    doc = json.loads(path.read_text())
    *parents, last = keys
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = retype(holder[last])
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel):
        load_model(path)


def test_unsupported_version(features, tmp_path):
    ft = fit_transformer(features, "minmax")
    path = tmp_path / "model.json"
    save_model(ft, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(UnsupportedVersion):
        load_model(path)


def test_missing_version(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "minmax", "columns": [{"min": 0, "max": 1}]}))
    with pytest.raises(CorruptModel):
        load_model(path)


def test_unknown_kind(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "zscore", "columns": [{}]}))
    with pytest.raises(CorruptModel):
        load_model(path)


def test_fingerprint_mismatch(features, tmp_path):
    ft = fit_transformer(features, "minmax")
    path = tmp_path / "model.json"
    save_model(ft, path)
    doc = json.loads(path.read_text())
    doc["columns"] = doc["columns"][:2]  # drop a column; fingerprint now stale
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel):
        load_model(path)


@pytest.mark.parametrize("key", ["psi", "t"])
def test_header_disagreeing_with_blocks_rejected(key, features, tmp_path):
    ft = fit_transformer(features, "ares", seed=7)
    path = tmp_path / "model.json"
    save_model(ft, path)
    doc = json.loads(path.read_text())
    doc[key] += 1
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel):
        load_model(path)


def test_unsorted_subsample_rejected(features, tmp_path):
    ft = fit_transformer(features, "ares", seed=7)
    path = tmp_path / "model.json"
    save_model(ft, path)
    doc = json.loads(path.read_text())
    doc["columns"][0]["subsamples"][0].reverse()
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel):
        load_model(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_rank_value_rejected(bad, features, tmp_path):
    ft = fit_transformer(features, "rank")
    path = tmp_path / "model.json"
    save_model(ft, path)
    doc = json.loads(path.read_text())
    doc["columns"][0]["sorted_train"][-1] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel):
        load_model(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_subsample_value_rejected(bad, features, tmp_path):
    ft = fit_transformer(features, "ares", seed=7)
    path = tmp_path / "model.json"
    save_model(ft, path)
    doc = json.loads(path.read_text())
    doc["columns"][0]["subsamples"][0][-1] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel):
        load_model(path)


def test_failed_write_keeps_previous_file(features, tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_model(fit_transformer(features, "rank"), path)
    before = path.read_bytes()
    # the encoder fails on the second column block, after the header and
    # the first block are written
    encoded, dumps = [], json.dumps

    def failing_dumps(obj, *args, **kwargs):
        encoded.append(obj)
        if len(encoded) == 3:
            raise TypeError("cannot encode the second column")
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", failing_dumps)
    with pytest.raises(TypeError, match="second column"):
        save_model(fit_transformer(features, "minmax"), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_fifo_is_written_in_place(features, tmp_path):
    ft = fit_transformer(features[:5], "rank")
    save_model(ft, tmp_path / "ref.json")
    fifo = tmp_path / "model.json"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        save_model(ft, fifo)
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert got == (tmp_path / "ref.json").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "ref.json"]


def test_rank_columns_of_different_lengths_rejected(features, tmp_path):
    """One parameter array holds every rank column, so all have N values."""
    path = tmp_path / "model.json"
    save_model(fit_transformer(features, "rank"), path)
    doc = json.loads(path.read_text())
    del doc["columns"][1]["sorted_train"][0]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel, match="malformed column parameters"):
        load_model(path)


@pytest.mark.parametrize("axis", ["psi", "t"])
def test_ares_blocks_of_different_shapes_rejected(axis, features, tmp_path):
    path = tmp_path / "model.json"
    save_model(fit_transformer(features, "ares", seed=7), path)
    doc = json.loads(path.read_text())
    block = doc["columns"][2]["subsamples"]
    if axis == "psi":
        for row in block:
            del row[0]
    else:
        del block[0]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModel, match="malformed column parameters"):
        load_model(path)
