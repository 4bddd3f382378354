"""One BLAS thread for the length of a CLI command.

numpy and scipy each load their own OpenBLAS, from the folder of libraries
beside the package (``numpy.libs``, ``scipy.libs``) or inside it
(``.dylibs``). Each runs one thread per CPU the process may use unless told
otherwise, and the comparison's matrix products round differently with one
thread than with two, so ``errors.csv`` and ``report_<rule>.json`` would
depend on the CPUs; the pipeline's matrices are also too small for a second
thread to pay. ``one_thread`` sets every OpenBLAS library found there to
one thread and gives each its previous count back on the way out, an error
included. A library without a known thread-count symbol is left as it is,
and where none is found ``one_thread`` does nothing. Only ``cli.main`` uses
it: the library functions leave their caller's threads alone.
"""

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy
import scipy

# The thread-count setters of the OpenBLAS builds numpy and scipy ship,
# newest first; each has a getter of the same name with "get" for "set".
_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.cache
def _controls() -> tuple:
    """(get, set) of each OpenBLAS library beside numpy and scipy that
    exports one of ``_SETTERS``."""
    found = []
    for package in (numpy, scipy):
        root = Path(package.__file__).parent
        for lib in sorted([*root.parent.glob(f"{root.name}.libs/*openblas*"),
                           *root.glob(".dylibs/*openblas*")]):
            dll = ctypes.CDLL(str(lib))  # the handle numpy or scipy loads
            name = next((name for name in _SETTERS if hasattr(dll, name)), None)
            if name is not None:
                get, set_ = getattr(dll, name.replace("_set_", "_get_")), getattr(dll, name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
    return tuple(found)


@contextlib.contextmanager
def one_thread():
    """Run the block with every OpenBLAS library found at one thread, and
    restore each one's count after it, however it ends."""
    controls = _controls()
    counts = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, counts):
            set_(count)
