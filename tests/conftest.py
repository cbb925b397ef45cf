"""Build the compiled kernel from the source tree for this test session.

Before any test module imports ``rado``, ``src/rado/_kernel_c.c`` is compiled
into a temporary directory and made importable as ``rado._kernel_c``, so the
backend-parametrized tests run on the C kernel of this checkout rather than on
whatever build is installed.  Nothing is written under ``src/``.  Without a C
compiler, ``Python.h`` or setuptools the build is skipped, the dispatcher
offers only ``"python"`` and the tests that need ``"c"`` report a skip.

The ``call_deep`` fixture calls a function from deep in the Python stack, to
show that a search needs no frame per branch point.
"""

from __future__ import annotations

import importlib.util
import os
import shlex
import shutil
import sys
import sysconfig
import tempfile
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "rado" / "_kernel_c.c"
NAME = "rado._kernel_c"
# call_deep calls from this many frames deep under the default recursion limit
DEPTH, DEFAULT_LIMIT = 800, 1000


class _BuiltKernel:
    """Meta-path finder that resolves ``rado._kernel_c`` to one built file."""

    def __init__(self, path: str):
        self.path = path

    def find_spec(self, fullname, path=None, target=None):
        if fullname != NAME:
            return None
        return importlib.util.spec_from_file_location(NAME, self.path)


def _can_compile() -> bool:
    # the compiler setuptools will run: $CC when set, else Python's own
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    header = Path(sysconfig.get_paths()["include"]) / "Python.h"
    return (
        bool(cc)
        and shutil.which(cc[0]) is not None
        and header.is_file()
        and importlib.util.find_spec("setuptools") is not None
    )


def _build(build_dir: str) -> str:
    from setuptools import Distribution, Extension

    dist = Distribution({"ext_modules": [Extension(NAME, [str(SOURCE)])]})
    cmd = dist.get_command_obj("build_ext")
    cmd.build_lib = cmd.build_temp = build_dir
    cmd.ensure_finalized()
    cmd.run()
    return cmd.get_ext_fullpath(NAME)


def pytest_configure(config):
    if not _can_compile():
        return
    build_dir = tempfile.TemporaryDirectory(prefix="rado-kernel-")
    config.add_cleanup(build_dir.cleanup)
    sys.meta_path.insert(0, _BuiltKernel(_build(build_dir.name)))


@pytest.fixture
def call_deep():
    """A function that calls fn(*args, **kwargs) DEPTH frames deep.

    The recursion limit is DEFAULT_LIMIT during the call, so fewer than 200
    frames are left to the callee.
    """

    def call(fn, *args, **kwargs):
        frame, height = sys._getframe(), 0
        while frame is not None:
            frame, height = frame.f_back, height + 1

        def down(k):
            return fn(*args, **kwargs) if k <= 0 else down(k - 1)

        old = sys.getrecursionlimit()
        sys.setrecursionlimit(DEFAULT_LIMIT)
        try:
            return down(DEPTH - height)
        finally:
            sys.setrecursionlimit(old)

    return call
