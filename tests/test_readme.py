"""The README's Python examples run as written, each in a fresh interpreter
that turns warnings into errors and imports the package from src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```",
                    (ROOT / "README.md").read_text(), re.S | re.M)


def run_block(code, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_readme_examples_run(tmp_path):
    assert len(BLOCKS) == 2
    quick, trochoid = (run_block(code, tmp_path) for code in BLOCKS)
    assert quick[0].split()[-1] == "True"  # report.passed()
    assert trochoid[0].startswith("64.1")  # the trochoid's max slope angle
