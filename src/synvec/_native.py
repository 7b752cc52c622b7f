"""The package's C kernels, built on first use into one shared library.

Every ``*.c`` file beside this module goes into one library, which
``_library`` builds the first time a kernel is wanted, never at import.
Each kernel repeats the float operations of a Python reference in the same
order, so both give the same bits, and the caller runs that reference when
``_library`` returns None:

- ``synvec_transport_basis`` (``_simplex.c``): the transport solver's
  sort of the cells, start and pivot loop, see ``transport._native_basis``;
- ``synvec_pairwise_cost`` (``_ground_cost.c``): Euclidean distances
  between rows, see ``eval_extrinsic._pairwise_cost``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

_PACKAGE = Path(__file__).parent
# The library is built here, in the package's own cache, and loaded only
# from here: a directory that others can write would let them run code.
_CACHE = _PACKAGE / "__pycache__"
# -ffp-contract=off: no fused multiply-add, so every operation rounds as
# numpy's. No -ffast-math, which would reorder sums, and no -march=native,
# which would tie a library in a shared cache to one CPU.
_COMPILE = ("gcc", "-O3", "-ffp-contract=off", "-shared", "-fPIC")


@functools.cache
def _library():
    """The C kernels, built on first use, or None when they cannot be built
    or loaded (no compiler, a cache directory that cannot be written), and
    every kernel's caller then runs its Python reference.

    The file name hashes every source and the compile command, so an edit
    to either builds a new library, which then removes every other
    ``_native-*.so``, and the ``_simplex-*.so`` of older versions, in the
    cache. Each build writes a temporary file and renames it into place, so
    no process loads a half-written library.
    """
    try:
        sources = sorted(_PACKAGE.glob("*.c"))
        key = hashlib.sha256()
        for source in sources:
            key.update(source.name.encode() + b"\0" + source.read_bytes() + b"\0")
        key.update("\0".join(_COMPILE).encode())
        path = _CACHE / f"_native-{key.hexdigest()}.so"
        if not path.exists():
            _CACHE.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_native-", suffix=".tmp", dir=_CACHE)
            os.close(fd)
            try:
                subprocess.run([*_COMPILE, "-o", tmp, *map(str, sources)], check=True,
                               capture_output=True)
                os.chmod(tmp, 0o755)  # mkstemp's 0600 would hide it from other users
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            stale = {*_CACHE.glob("_native-*.so"), *_CACHE.glob("_simplex-*.so")} - {path}
            for old in stale:
                old.unlink(missing_ok=True)
        library = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError):
        return None
    basis = library.synvec_transport_basis
    basis.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 3 + [
        ctypes.c_double, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    basis.restype = ctypes.c_int
    cost = library.synvec_pairwise_cost
    cost.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 3
    cost.restype = None
    return library
