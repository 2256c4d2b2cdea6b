"""Setuptools shim.

The repository carries no other packaging metadata: setuptools' automatic
discovery finds the ``repro`` package under ``src/``, and no console script
is declared.  The supported way to run the code is
``PYTHONPATH=src python -m repro.cli`` from the repo root (see README.md);
this file only lets ``pip install -e .`` work on offline machines whose pip
cannot build PEP 660 editable wheels (no ``wheel`` package available).
"""

from setuptools import setup

setup()
