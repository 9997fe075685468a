"""Smoke tests: the example scripts run to completion and stay sane."""

import re
import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_roaming_example(capsys):
    runpy.run_path(str(EXAMPLES / "roaming.py"), run_name="__main__")
    out = capsys.readouterr().out
    violations = re.findall(r"radio violations (\d+)", out)
    assert violations == ["0", "0", "0"], out
    assert re.search(r"handoffs completed\s+: 3\n", out), out
    assert "roamer finished in cell 0 with state 'active'" in out, out
