"""A golden `evaluation_grid` report for both tasks, cell by cell.

The datasets are built from `sampling._stream` words, not `numpy.random`,
and folds and draws depend only on the seed, so every report field but
`wall_time_ms` is a fixed value, compared without tolerance against
`golden_grid.json`. A change of numpy, BLAS or platform that moves any
aggregate or fold value fails here, naming its cell.

To record the fixture again, after a change that is meant to move results:
``PYTHONPATH=src python tests/test_golden_grid.py``.
"""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from scalefree.data import Dataset
from scalefree.evaluate import TASKS, evaluation_grid
from scalefree.perturb import PERTURBATION_KINDS
from scalefree.sampling import _stream
from scalefree.transforms import KINDS

FIXTURE = Path(__file__).with_name("golden_grid.json")
SEED = 23


def _unit_words(stream_seed, shape):
    """Floats in [0, 1) from the top 53 bits of splitmix64 words."""
    words = _stream(stream_seed, int(np.prod(shape)))[0]
    return ((words >> np.uint64(11)).astype(np.float64) * 2.0**-53).reshape(shape)


def _classify_dataset():
    """120 × 6, three classes; columns 4 and 5 are tied small integers."""
    n = 120
    labels = (_stream(101, n)[0] % np.uint64(3)).astype(np.int64)
    shift = np.array([1.5, 1.0, 0.5, 0.0, 0.0, 0.0])
    x = _unit_words(102, (n, 6)) * 2.0 + labels[:, None] * shift
    x[:, 4:] = np.floor(2.0 * x[:, 4:]) + labels[:, None]
    return Dataset("golden-classify", x, labels=labels)


def _anomaly_dataset():
    """100 inliers in [0, 1)^4 and 10 flagged rows spread over [-0.5, 1.5)^4."""
    inliers = _unit_words(201, (100, 4))
    outliers = _unit_words(202, (10, 4)) * 2.0 - 0.5
    flags = np.r_[np.zeros(100, dtype=np.int64), np.ones(10, dtype=np.int64)]
    return Dataset("golden-anomaly", np.vstack([inliers, outliers]), labels=flags)


def _grid(task):
    dataset = _classify_dataset() if task == "classify" else _anomaly_dataset()
    cells = {}
    for report in evaluation_grid(dataset, task, seed=SEED):
        fields = asdict(report)
        del fields["wall_time_ms"]
        cells[report.preprocessor, report.perturbation] = fields
    return cells


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def grids():
    return {task: _grid(task) for task in TASKS}


def test_each_grid_has_fifteen_cells(grids, golden):
    for task in TASKS:
        assert len(grids[task]) == len(golden[task]) == 15


@pytest.mark.parametrize("perturbation", PERTURBATION_KINDS)
@pytest.mark.parametrize("preprocessor", KINDS)
@pytest.mark.parametrize("task", TASKS)
def test_cell_equals_golden(grids, golden, task, preprocessor, perturbation):
    want = golden[task][f"{preprocessor}/{perturbation}"]
    assert grids[task][preprocessor, perturbation] == want


if __name__ == "__main__":
    recorded = {
        task: {f"{p}/{q}": cell for (p, q), cell in _grid(task).items()} for task in TASKS
    }
    FIXTURE.write_text(json.dumps(recorded, indent=1) + "\n")
