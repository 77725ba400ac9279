"""Every call site the benchmark's tracer wraps exists in the package.

`perfbench/tracing.py` replaces functions at their import sites by name and
skips a site whose name is gone, so a refactor that drops one would only
show as a missing layer in a traced benchmark run. This reads the site list
and checks each name here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# The CLI reaches the runners only through `evaluation_grid`, so it imports
# neither; their spans come from the `scalefree.evaluate` sites.
_ABSENT = {("scalefree.cli", "run_classification"), ("scalefree.cli", "run_anomaly")}


def _present(owner, attribute):
    module, _, cls = owner.partition(":")
    namespace = vars(importlib.import_module(module))
    return attribute in (vars(namespace[cls]) if cls else namespace)


@pytest.mark.parametrize(
    "owner, attribute, span", [site[:3] for site in tracing.SITES], ids=lambda v: v
)
def test_traced_site_exists(owner, attribute, span):
    if (owner, attribute) in _ABSENT:
        assert not _present(owner, attribute)
        assert any(_present(o, a) for o, a, s, _ in tracing.SITES if s == span)
    else:
        assert _present(owner, attribute)
