"""Shared test settings: one Hypothesis profile, derandomized so that a
failure seen in CI replays the same examples on any machine; and the
checkout's src/ first on PYTHONPATH, so that the tests that spawn
``python -m hsderiv`` run this checkout's package, not an installed one."""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("hsderiv", derandomize=True, deadline=None)
settings.load_profile("hsderiv")

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = _SRC + (
    os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
