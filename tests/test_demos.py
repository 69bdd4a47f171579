import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo name -> (line prefix, the rest of that line after whitespace)
EXPECTED_LINES = {"04_cohomology_of_the_line": ("H^0, H^1, H^2:", "(1, 0, 0)")}


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(path)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    if path.stem in EXPECTED_LINES:
        prefix, rest = EXPECTED_LINES[path.stem]
        lines = [l[len(prefix):].strip() for l in proc.stdout.splitlines() if l.startswith(prefix)]
        assert lines == [rest]
