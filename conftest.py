"""Installs the runtime guards of :mod:`tests.guards` before the first
``repro`` import, so they cover ``tests/``, ``benchmarks/`` and the
examples ``tests/integration/test_examples_run.py`` runs in-process."""

from tests import guards

guards.install()
