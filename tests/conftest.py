import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))  # probe.py, builders.py

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("det")


@pytest.fixture
def fail_last_greedy_placement(monkeypatch):
    """`arm(run)` calls `run()` once and records, in order, the vertices it
    colors by a greedy placement; from then on the last of them finds no
    residual color.  It returns the recorded vertices."""
    from dpfcolor import coloring

    greedy, placed = coloring._greedy_color, []

    def record(g, h, f, r, v, row=None):
        placed.append(v)
        return greedy(g, h, f, r, v, row)

    def fail_at_last(g, h, f, r, v, row=None):
        return None if v == placed[-1] else greedy(g, h, f, r, v, row)

    def arm(run):
        monkeypatch.setattr(coloring, "_greedy_color", record)
        run()
        monkeypatch.setattr(coloring, "_greedy_color", fail_at_last)
        return placed

    return arm
