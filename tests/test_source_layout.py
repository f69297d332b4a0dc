"""Layout rules for the library source."""

from pathlib import Path

import pytest

SOURCE = sorted((Path(__file__).parent.parent / "src" / "circlekit").glob("*.py"))


@pytest.mark.parametrize("path", SOURCE, ids=[p.name for p in SOURCE])
def test_lines_fit_100_columns(path):
    long = [n for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert long == [], f"{path.name}: lines {long} exceed 100 columns"
