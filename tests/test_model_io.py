"""Model persistence: lossless round-trips and corrupt-file handling."""

import json
import os
import stat

import numpy as np
import pytest

from scalefree.errors import CorruptModel, UnsupportedVersion
from scalefree.model_io import load_model, save_model
from scalefree.transforms import FittedTransformer, MinMaxParams, fit_ares, fit_transformer


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
    columns = [fit_ares(features[:, c], 6, 4, seed=31, column_index=c) for c in range(3)]
    ft = FittedTransformer("ares", columns)
    path = tmp_path / "model.json"
    save_model(ft, path)
    back = load_model(path)
    assert (back.subsample_size, back.n_subsamples, back.seed) == (6, 4, 31)
    assert back.transform(features).tobytes() == ft.transform(features).tobytes()


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


def test_failed_write_keeps_previous_file(features, tmp_path):
    path = tmp_path / "model.json"
    save_model(fit_transformer(features, "rank"), path)
    before = path.read_bytes()
    # json cannot encode a float32, so the write fails on the second column
    columns = [MinMaxParams(0.0, 1.0), MinMaxParams(0.0, np.float32(1.0))]
    with pytest.raises(TypeError):
        save_model(FittedTransformer(kind="minmax", columns=columns), path)
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
