"""Reference CSV and model writers: one `repr` per cell through csv's
writer, one `json.dump` call per model.

These are the straightforward writers that the block writers in
`scalefree.data` and `scalefree.model_io` replaced, kept verbatim, but for
reading a model's one parameter array, so the byte-identity tests can
require the same file bytes from both.
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
        _, t, psi = transformer.params.shape
        doc.update(psi=psi, t=t, seed=transformer.seed)

    columns = []
    for params in transformer.params.tolist():
        if transformer.kind == "minmax":
            columns.append({"min": params[0], "max": params[1]})
        elif transformer.kind == "rank":
            columns.append({"sorted_train": params[0]})
        else:
            columns.append({"subsamples": params})
    doc["columns"] = columns

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
