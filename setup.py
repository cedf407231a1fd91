"""Package metadata for ``repro``.

All metadata lives here (there is no ``pyproject.toml``): the package sits
under ``src/``, and the version is read from ``src/repro/__init__.py`` so it
has one source.  ``pip install -e .`` works in offline environments without
the ``wheel`` package, because pip's legacy editable path calls
``setup.py develop``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="Minimum-time k-line broadcast in sparse hypercube-like networks",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
