"""Setuptools shim.

The modern PEP 660 editable-install path needs the ``wheel`` package;
this shim keeps ``pip install -e .`` working in offline environments
that only ship setuptools.  All metadata lives in ``setup.cfg``.
"""

from setuptools import setup

setup()
