"""``setup.py`` carries real package metadata (an editable install is not
an empty ``UNKNOWN`` distribution)."""

import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]


def setup_query(*flags: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "setup.py", *flags],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout.split()


def test_name_and_version():
    assert setup_query("--name", "--version") == ["repro", repro.__version__]
