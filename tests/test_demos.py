"""The demo scripts run to the end and print what their docs promise."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
EXPECTED = {
    "bounds_tour.py": ["k=3: M=11, best bound 10"],
    "extremal_enumeration.py": [": 3 isomorphism classes", "max order at diameter <= 3: 10"],
    "spectra_and_witnesses.py": [
        "pairwise cospectral: True",
        "line digraph ~ Cayley graph: True",
        "class 2 matches the witnesses: True",
    ],
}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    for text in EXPECTED.get(name, []):
        assert text in out, text
