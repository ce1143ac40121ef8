"""The helper scripts under scripts/ run as documented."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_print_architecture_desk():
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "print_architecture.py"), "--preset", "desk"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    totals = [ln for ln in out.stdout.splitlines()
              if ln.startswith("total parameters: ")]
    assert len(totals) == 1
