"""Start-up hook of the numpy-absent test cell: numpy is not installed.

With this directory on ``PYTHONPATH`` the interpreter imports this file
at start-up (:mod:`site`), and a meta-path finder placed first refuses
``numpy`` and its submodules, so ``import numpy`` fails as it would on a
host without it.  Run a test module under it with::

    PYTHONPATH=src:tests/no_numpy python -m pytest -q tests/test_lanes.py
"""

import sys


class _RefuseNumpy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, _RefuseNumpy())
