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


def test_desk_pipeline_bad_flag_is_usage_error(tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_desk_pipeline.py"),
         "--workdir", str(tmp_path / "work"), "--epochs", "0"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert out.stderr == ("run_desk_pipeline.py: error: epochs must be >= 1, "
                          "got 0\n")
    assert not (tmp_path / "work").exists()
