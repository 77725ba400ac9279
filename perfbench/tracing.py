"""In-process tracing of the scalefree CLI, installed from outside the package.

Timing wrappers replace public functions at their import sites in
`scalefree.cli` and `scalefree.evaluate`, and the method
`FittedTransformer.transform`; nothing in the package is edited. The
`_kernels` module is deliberately not wrapped. Spans stay in memory as
(name, start, end, parent, request, extra) until the run writes them out.
"""

import importlib
import os
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, REQUEST, EXTRA = range(6)


def _file_size(position):
    return lambda args, result: os.path.getsize(args[position])


def _rows(position):
    return lambda args, result: len(args[position])


def _values(args, result):
    return result.size


# (owner, attribute, span name, extra): the extra is a per-call count
# computed after the span closes, so it never lands inside a timing.
SITES = (
    ("scalefree.cli", "load_csv", "data.load_csv", _file_size(0)),
    ("scalefree.cli", "save_csv", "data.save_csv", _file_size(1)),
    ("scalefree.cli", "load_model", "model_io.load_model", _file_size(0)),
    ("scalefree.cli", "save_model", "model_io.save_model", _file_size(1)),
    ("scalefree.cli", "perturb_matrix", "perturb.perturb_matrix", None),
    ("scalefree.cli", "fit_transformer", "transforms.fit_transformer", None),
    ("scalefree.cli", "evaluation_grid", "evaluate.evaluation_grid", None),
    ("scalefree.cli", "run_classification", "evaluate.run_classification", None),
    ("scalefree.cli", "run_anomaly", "evaluate.run_anomaly", None),
    ("scalefree.cli", "write_report", "report.write_report", None),
    ("scalefree.evaluate", "perturb_matrix", "perturb.perturb_matrix", None),
    ("scalefree.evaluate", "fit_transformer", "transforms.fit_transformer", None),
    ("scalefree.evaluate", "run_classification", "evaluate.run_classification", None),
    ("scalefree.evaluate", "run_anomaly", "evaluate.run_anomaly", None),
    ("scalefree.evaluate", "knn_classify", "neighbors.knn_classify", _rows(2)),
    ("scalefree.evaluate", "lof_scores", "neighbors.lof_scores", "peak_bytes"),
    ("scalefree.evaluate", "accuracy", "metrics.accuracy", None),
    ("scalefree.evaluate", "auc", "metrics.auc", None),
    ("scalefree.transforms:FittedTransformer", "transform", "transforms.transform", _values),
)


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects nested spans; `request` tags the spans of one repetition."""

    def __init__(self):
        self.spans = []
        self.request = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, extra):
        if extra == "peak_bytes":

            def wrapper(*args, **kwargs):
                tracemalloc.start()
                try:
                    with self.span(name) as record:
                        result = fn(*args, **kwargs)
                    record[EXTRA] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                return result

        else:

            def wrapper(*args, **kwargs):
                with self.span(name) as record:
                    result = fn(*args, **kwargs)
                if extra is not None:
                    record[EXTRA] = extra(args, result)
                return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every call site for the duration of the block.

        A site whose attribute no longer exists is skipped; the workload's
        expected-layer check then reports the layer as missing.
        """
        originals = []
        try:
            for path, attr, name, extra in SITES:
                owner = _owner(path)
                if attr not in vars(owner):
                    continue
                fn = vars(owner)[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, extra))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def to_json(self):
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "request": s[REQUEST], "extra": s[EXTRA]}
            for s in self.spans
        ]  # fmt: skip


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def summarize(spans):
    """Per span name: per-request totals, call counts, durations and extras."""
    self_s = self_times(spans)
    requests = sorted({s[REQUEST] for s in spans})
    stats = defaultdict(
        lambda: {
            "total": dict.fromkeys(requests, 0.0),
            "self": dict.fromkeys(requests, 0.0),
            "calls": dict.fromkeys(requests, 0),
            "extra": dict.fromkeys(requests, 0.0),
            "peak": dict.fromkeys(requests, 0.0),
            "durations": [],
        }
    )
    for s, own in zip(spans, self_s):
        entry = stats[s[NAME]]
        req = s[REQUEST]
        duration = s[END] - s[START]
        entry["total"][req] += duration
        entry["self"][req] += own
        entry["calls"][req] += 1
        entry["durations"].append(duration)
        if s[EXTRA] is not None:
            entry["extra"][req] += s[EXTRA]
            entry["peak"][req] = max(entry["peak"][req], s[EXTRA])
    return requests, dict(stats)


def median_per_request(entry, key):
    return statistics.median(entry[key].values())
