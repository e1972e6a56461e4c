"""Build, load and call the compiled kernel (``_kernel.c``).

One shared library holds both families' training cycles, the Gaussian
scoring of groups of rows (the log-likelihood matrix and the deletion
search's refits), the column-wise winner search, the Gaussian batch fits
and Cholesky factorizations, and the deletion search's closed-form
estimates, and exports nothing else: those are the calls a fit makes. It
is compiled on first use with the system C compiler ``cc`` into
``__pycache__`` next to this file, under a name that hashes the source and
the compile command, so later processes load the cached library. Without
a working compiler, training and Gaussian scoring raise ``SmlsomError``;
there is no numpy or scipy fallback.

The kernel reads and writes numpy buffers through bare pointers, so every
array handed to it goes through ``buffer``, and a cycle's draws and
neighbor table through ``train_cycle``, which check what ctypes cannot.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import SmlsomError

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
_CC_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_KERNEL_OK = -1  # kernel status code; the only other, KERNEL_NOMEM, is a failed allocation
_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
# p, M, X, steps, draws, alphas, radii and the neighbor table's ptr, idx, hops
_CYCLE_ARGTYPES = [_I64, _I64, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR]
# every function the kernel exports, which are exactly the calls a fit makes
_ENTRY_POINTS = {
    # ..., plog2pi, update_sigma, mus, sigmas, chols, logdets, winners
    "gauss_train_cycle": [*_CYCLE_ARGTYPES, _F64, ctypes.c_int, _PTR, _PTR, _PTR, _PTR, _PTR],
    # ..., coef, floor, thetas, logthetas, winners
    "multinom_train_cycle": [*_CYCLE_ARGTYPES, _PTR, _F64, _PTR, _PTR, _PTR],
    # p, G, X, idx, ptr, mus, chols, consts, out, parts
    "gauss_loglik_groups": [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR],
    # M, n, ll, skip, winners
    "column_winners": [_I64, _I64, _PTR, _PTR, _PTR],
    # p, G, X, idx, ptr, n_steps, steps, floor, mus, sigmas, chols, logdets
    "gauss_fit_nodes": [_I64, _I64, _PTR, _PTR, _PTR, _I64, _PTR, _F64, _PTR, _PTR, _PTR, _PTR],
    # p, n, M, P, X, xbar, pair_of, cand, recv, c, min_eig, node_neg, pair_neg
    "gauss_closed_form": [_I64, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _F64, _F64, _PTR, _PTR],
}
_lib = None  # the kernel, loaded by its first use


def kernel_path(source: bytes, cc: str, cache_dir: Path) -> Path:
    """Cache file of ``source`` compiled by ``cc``; its name hashes the
    source and the compile command."""
    command = " ".join((cc, *_CC_FLAGS, "-lm")).encode()
    tag = hashlib.sha256(source + b"\0" + command).hexdigest()[:16]
    return Path(cache_dir) / f"_kernel.{tag}.so"


def load_kernel(cc: str = "cc", cache_dir: Path | None = None) -> ctypes.CDLL:
    """Load the kernel, compiling it first when ``cache_dir``
    (default: ``__pycache__`` next to this module) holds no build of the
    current source by ``cc``.

    The compiler writes to a temporary name that is then renamed into
    place, so processes building at the same time do not clash. A build
    then removes the other builds in the cache, skipping any it cannot;
    a process that has one loaded keeps it.
    """
    if cache_dir is None:
        cache_dir = _CACHE_DIR
    path = kernel_path(_KERNEL_SOURCE.read_bytes(), cc, cache_dir)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"{path.name}.", suffix=".tmp", dir=path.parent)
        os.close(fd)
        cmd = [cc, *_CC_FLAGS, "-o", tmp, str(_KERNEL_SOURCE), "-lm"]
        try:
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True)
            except OSError as exc:
                proc = subprocess.CompletedProcess(cmd, None, "", str(exc))
            if proc.returncode != 0:
                raise SmlsomError(
                    "cannot build the compiled kernel; it needs a C compiler. "
                    f"`{' '.join(cmd)}` failed:\n{proc.stderr.strip()}"
                )
            os.replace(tmp, path)
            for stale in set(path.parent.glob("_kernel.*.so")) - {path}:
                with contextlib.suppress(OSError):
                    stale.unlink()
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(path))
    for name, argtypes in _ENTRY_POINTS.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, _I64
    return lib


def kernel() -> ctypes.CDLL:
    """The kernel of this process, loaded (and built if need be) once."""
    global _lib
    if _lib is None:
        _lib = load_kernel()
    return _lib


def buffer(a: np.ndarray, dtype, shape: tuple, out: bool = False) -> int:
    """Address of ``a``, which the kernel reads (and writes when ``out``) as
    an aligned C-contiguous ``dtype`` array of ``shape``; anything else
    raises, since ctypes pointers carry no type or bounds."""
    flags = a.flags
    if a.dtype != dtype or a.shape != shape or not (flags.c_contiguous and flags.aligned) or (out and not flags.writeable):
        raise ValueError(
            f"kernel needs a C-contiguous {np.dtype(dtype)} array of shape {shape}, "
            f"got {a.dtype} of shape {a.shape}"
        )
    return a.ctypes.data


class NeighborTable(NamedTuple):
    """CSR table of every node's reachable nodes, itself included.

    Row k (the k-th smallest live id) is ``idx[ptr[k]:ptr[k + 1]]``, indices
    in the same order, sorted by (hop distance, index); ``hops`` holds the
    matching hop distances.
    """

    ptr: np.ndarray
    idx: np.ndarray
    hops: np.ndarray


def train_cycle(entry: str, X, draws, alphas, radii, neighbors, M: int, p: int, *args) -> np.ndarray:
    """Check one training cycle's inputs for M nodes in p dimensions and run
    the kernel's ``entry`` on them: p, M, X, steps, draws, alphas, radii, the
    neighbor table, the family's ``args``, then the winner rows it returns."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, steps = X.shape[0], len(draws)
    if X.shape != (n, p) or draws.size and not 0 <= draws.min() <= draws.max() < n:
        raise ValueError("draws must index rows of a matrix with one column per dimension")
    n_links = len(neighbors.idx)
    if neighbors.ptr[0] != 0 or neighbors.ptr[-1] != n_links or np.any(np.diff(neighbors.ptr) < 0):
        raise ValueError("malformed neighbor table")
    if n_links and not 0 <= neighbors.idx.min() <= neighbors.idx.max() < M:
        raise ValueError("neighbor index out of range")
    winners = np.empty(steps, dtype=np.int64)
    check_status(
        getattr(kernel(), entry)(
            p,
            M,
            buffer(X, np.float64, (n, p)),
            steps,
            buffer(draws, np.int64, (steps,)),
            buffer(alphas, np.float64, (steps,)),
            buffer(radii, np.float64, (steps,)),
            buffer(neighbors.ptr, np.int64, (M + 1,)),
            buffer(neighbors.idx, np.int64, (n_links,)),
            buffer(neighbors.hops, np.int64, (n_links,)),
            *args,
            buffer(winners, np.int64, (steps,), out=True),
        )
    )
    return winners


def column_winners(ll: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
    """Per column of the M x n matrix ``ll``, the row of its first maximum,
    or of its first NaN, as ``np.argmax(ll, axis=0)`` gives it. With
    ``skip``, column j leaves out its row ``skip[j]``, which needs M >= 2."""
    ll = np.ascontiguousarray(ll, dtype=np.float64)
    (M, n), winners = ll.shape, np.empty(ll.shape[1], dtype=np.int64)
    if M < (1 if skip is None else 2):
        raise ValueError("no row to pick a column's maximum from")
    skip_at = None if skip is None else buffer(skip, np.int64, (n,))
    out = buffer(winners, np.int64, (n,), out=True)
    check_status(kernel().column_winners(M, n, buffer(ll, np.float64, (M, n)), skip_at, out))
    return winners


def check_status(status: int):
    """Raise for a kernel status other than OK."""
    if status != _KERNEL_OK:
        raise MemoryError("compiled kernel could not allocate its buffers")
