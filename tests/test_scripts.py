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
    # each flag fails by the rule of the stage that reads it, before the
    # workdir is made
    for flag, value, message in (
            ("--epochs", "0", "epochs must be >= 1, got 0"),
            ("--speakers", "3",
             "need at least 6 speakers for bg/dev/eval splits"),
            ("--utterances", "5",
             "5 utterances over 2 phrases leaves fewer than 4 per phrase"),
            ("--corpus-seed", "-1", "--corpus-seed must be >= 0, got -1"),
            ("--train-seed", "-1", "--train-seed must be >= 0, got -1")):
        out = subprocess.run(
            [sys.executable, str(SCRIPTS / "run_desk_pipeline.py"),
             "--workdir", str(tmp_path / "work"), flag, value],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 2, flag
        assert out.stderr == f"run_desk_pipeline.py: error: {message}\n"
        assert not (tmp_path / "work").exists(), flag
