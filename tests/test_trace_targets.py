"""The benchmark's per-layer metrics read spans by function name; a renamed
or unwrapped function would make its metric read 0 without any error.
These tests check every name the tracer's summary and hooks read against
the functions it actually wraps."""
import importlib.util
from collections import Counter
from pathlib import Path

import ribbonchar.cli  # noqa: F401  (imports every traced layer)

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Recorder(Counter):
    """A Counter that remembers every key looked up in it."""

    def __init__(self, seen):
        super().__init__()
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


def keys_read_by_summary(spans):
    """Function keys the summary looks up in self times, calls and yields."""
    tracer = spans.Tracer()
    seen = set()
    tracer.self_s = Recorder(seen)
    tracer.calls = Recorder(seen)
    tracer.yields = Recorder(seen)
    tracer.summary(1.0, 0)
    # summed by matching names while iterating the self times
    return seen | {"polyring.build_qseries", "polyring.inverse_pochhammer_series"}


def test_summary_and_hook_keys_are_wrapped_targets():
    spans = load_spans()
    targets = {key for key, _fn in spans.Tracer().targets()}
    read = keys_read_by_summary(spans)
    hooked = (set(spans._CALL_HOOKS) | set(spans._YIELD_HOOKS) | spans._SCOPES
              | set(spans._RESULT_COUNTERS))
    missing = sorted((read | hooked) - targets)
    assert not missing, missing
    assert any(key.startswith("polyring.QSeries.") for key in targets)
    # the recorder saw the lookups of the metrics this guard exists for
    assert {"spectra.enumerate_fiber", "twisted.enumerate_twisted_fiber",
            "schur.schur_strip_cached", "schur.e_m", "tableaux.count_LR",
            "characters.level1_theta"} <= read
