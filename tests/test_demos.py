import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"

FAST_DEMOS = [
    "burnside_ring_tour.py",
    "structure_and_adjectives.py",
    "sl2f3_rack.py",
    "marks_and_colorings.py",
    "crossed_actions.py",
    "enumeration_census.py",
]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMO_DIR / name), run_name="__main__")
    assert len(capsys.readouterr().out) > 200
