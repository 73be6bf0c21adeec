"""Shim for the legacy ``python setup.py develop`` install.

All metadata lives in pyproject.toml.  Where the ``wheel`` package is
missing, ``pip install -e .`` stops with ``invalid command 'bdist_wheel'``;
``python setup.py develop`` still installs the package in editable form and
puts the ``qgalton`` console script on PATH.
"""

from setuptools import setup

setup()
