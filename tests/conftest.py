"""Child `qml` processes import the package from `src/`, as the tests do
through `pythonpath` in pyproject.toml, with or without PYTHONPATH set."""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
