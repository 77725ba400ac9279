"""Reference CSV and model writers: one `repr` per cell, one `json.dump` call.

These are the straightforward writers that the streamed ones in
`scalefree.data` and `scalefree.model_io` replaced, kept verbatim so the
byte-identity tests can require the same file bytes from both.
"""

import csv
import json

from scalefree.model_io import FORMAT_VERSION, _fingerprint


def save_csv(dataset, path) -> None:
    header = list(dataset.feature_names)
    if dataset.labels is not None:
        header.append(dataset.label_name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in range(dataset.n_rows):
            row = [repr(float(v)) for v in dataset.features[r]]
            if dataset.labels is not None:
                row.append(str(dataset.labels[r]))
            writer.writerow(row)


def save_model(transformer, path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": transformer.kind,
        "fingerprint": _fingerprint(transformer.n_features),
    }
    if transformer.kind == "ares":
        doc["psi"] = transformer.subsample_size
        doc["t"] = transformer.n_subsamples
        doc["seed"] = transformer.seed

    columns = []
    for params in transformer.columns:
        if transformer.kind == "minmax":
            columns.append({"min": params.min, "max": params.max})
        elif transformer.kind == "rank":
            columns.append({"sorted_train": params.sorted_train.tolist()})
        else:
            columns.append({"subsamples": params.subsamples.tolist()})
    doc["columns"] = columns

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
