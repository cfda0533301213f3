"""Paths of the checkout and the import of the program under test.

The benchmark always runs the ``hbbqss`` sources of the checkout it sits
in (``src/hbbqss``), never an installed copy, and refuses to run when those
sources are missing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingProgram(SystemExit):
    """The checkout holds no ``src/hbbqss`` to benchmark."""


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_cli():
    """Import ``hbbqss.cli`` from this checkout's ``src`` directory."""
    package = SRC / "hbbqss"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"perfbench: no program sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from hbbqss import cli

    if Path(cli.__file__).resolve().parent != package:
        raise MissingProgram(f"perfbench: imported hbbqss from {cli.__file__}, not {package}")
    return cli
