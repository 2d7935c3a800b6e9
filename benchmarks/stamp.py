"""Environment stamp recorded in every ``BENCH_*.json`` written here.

A timing only means something next to the box and the code it was taken
on: ``cpu_count`` (no scaling claim from one CPU), the Python version,
and the checkout's commit, with ``git_dirty`` set when the working tree
differed from that commit at the time of the run.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess
from typing import Dict, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _git(*args: str) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def environment() -> Dict[str, object]:
    """``cpu_count``, ``python``, ``git_sha`` (``unknown`` outside git), ``git_dirty``."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if sha else None,
    }
