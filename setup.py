"""Packaging for ``repro``, the package under ``src/``.

The metadata lives here; there is no ``pyproject.toml``.  Without the
``wheel`` package, ``python setup.py develop`` installs the checkout in
development mode; ``pip install -e .`` needs ``wheel``.  Every ``make``
target runs with ``PYTHONPATH=src`` and needs neither.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
