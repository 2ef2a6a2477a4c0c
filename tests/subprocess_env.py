"""The environment of the tests' ``python`` subprocesses."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def python_env(unbuffered=False):
    """``os.environ`` with ``src`` first on ``PYTHONPATH``, so the package
    imports without being installed, and ``PYTHONUNBUFFERED`` set only when
    asked for."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env
