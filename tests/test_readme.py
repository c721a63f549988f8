"""The README's library quick start runs as written."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
