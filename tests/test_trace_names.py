"""Every function that bench/spans.py traces still exists in cdfdr.

The tracer looks each name up only when ``bench/run.py --trace 1`` runs, so a
renamed or deleted function would otherwise break only that mode.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in _traced()],
                         ids=lambda value: value)
def test_traced_name_resolves(module, attr):
    home = importlib.import_module(f"cdfdr.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, attr))
